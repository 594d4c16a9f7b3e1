"""1+1-dimensional Minkowski event geometry (c = 1).

Interval classification, light-cone predicates, Lorentz boosts, and the two
protocol-level checks used by the measurement timelines: spacelike separation
of the two measurement events with the comparison event inside both future
light cones, and the "extended" early-time slab that blocks the two backward
light cones where they no longer overlap.

The lightlike boundary counts as causally connected throughout (cone
closure).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

REL_TOL = 1e-12  # relative tolerance for the lightlike boundary


class Role(enum.Enum):
    MEASUREMENT_A = "measurement-a"
    MEASUREMENT_B = "measurement-b"
    COMPARISON = "comparison"
    PREPARATION = "preparation"
    OTHER = "other"


class IntervalClass(enum.Enum):
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    SPACELIKE = "spacelike"


class RoleCountError(ValueError):
    """Event list does not carry the required measurement/comparison roles."""


class SlabError(ValueError):
    """Time slab is malformed or not strictly before the measurements."""


@dataclass(frozen=True)
class Event:
    t: float
    x: float
    role: Role = Role.OTHER
    label: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.x)):
            raise ValueError(f"event coordinates must be finite, got t={self.t!r} x={self.x!r}")

    def to_dict(self) -> dict:
        return {"t": self.t, "x": self.x, "role": self.role.value, "label": self.label}


def interval_class(e1: Event, e2: Event) -> IntervalClass:
    """Sign of (dt)^2 - (dx)^2, with a relative band for the light cone.

    A difference of 2^512 or more would square past the float range; the
    coordinates are then scaled by 2^-600 first, which moves neither the
    sign nor the band.
    """
    dt, dx = e1.t - e2.t, e1.x - e2.x
    if max(abs(dt), abs(dx)) >= 2.0**512:
        dt = math.ldexp(e1.t, -600) - math.ldexp(e2.t, -600)
        dx = math.ldexp(e1.x, -600) - math.ldexp(e2.x, -600)
    dt2, dx2 = dt**2, dx**2
    scale = max(dt2, dx2)
    if abs(dt2 - dx2) <= REL_TOL * scale or scale == 0.0:
        return IntervalClass.LIGHTLIKE
    return IntervalClass.TIMELIKE if dt2 > dx2 else IntervalClass.SPACELIKE


def in_future_lightcone(e: Event, of: Event) -> bool:
    """True iff ``e`` is later than ``of`` and causally reachable from it."""
    return e.t > of.t and interval_class(e, of) is not IntervalClass.SPACELIKE


def boost(e: Event, rapidity: float) -> Event:
    """Lorentz boost by the given rapidity (velocity tanh(rapidity))."""
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    return Event(ch * e.t - sh * e.x, ch * e.x - sh * e.t, e.role, e.label)


@dataclass(frozen=True)
class PredicateResult:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class ProtocolReport:
    checks: tuple[PredicateResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}


def _pick_roles(events: Sequence[Event]) -> tuple[Event, Event, Event | None]:
    a = [e for e in events if e.role is Role.MEASUREMENT_A]
    b = [e for e in events if e.role is Role.MEASUREMENT_B]
    c = [e for e in events if e.role is Role.COMPARISON]
    if len(a) != 1 or len(b) != 1 or len(c) > 1:
        raise RoleCountError(
            "need exactly one measurement-a, one measurement-b, and at most one "
            f"comparison event; got {len(a)}/{len(b)}/{len(c)}"
        )
    return a[0], b[0], c[0] if c else None


def validate_protocol(events: Iterable[Event]) -> ProtocolReport:
    """Check the causal layout of a two-wing measurement timeline.

    The measurement events must be spacelike separated; a comparison event,
    when present, must lie in the future light cone of both measurements.
    """
    ev_a, ev_b, ev_c = _pick_roles(list(events))
    checks = [
        PredicateResult(
            "measurements-spacelike",
            interval_class(ev_a, ev_b) is IntervalClass.SPACELIKE,
            f"interval({ev_a.label or 'A'}, {ev_b.label or 'B'}) = {interval_class(ev_a, ev_b).value}",
        )
    ]
    if ev_c is not None:
        for ev, tag in ((ev_a, "a"), (ev_b, "b")):
            ok = in_future_lightcone(ev_c, ev)
            checks.append(
                PredicateResult(
                    f"comparison-in-future-cone-of-{tag}",
                    ok,
                    f"dt={ev_c.t - ev.t:g}, |dx|={abs(ev_c.x - ev.x):g}",
                )
            )
    return ProtocolReport(tuple(checks))


def region3_screens(events: Iterable[Event], slab: tuple[float, float]) -> PredicateResult:
    """Geometric check for the early-time slab that screens both wings.

    The slab must lie strictly before both measurement events. It is the
    "extended" configuration iff the backward light cones of the two
    measurements are spatially disjoint everywhere inside the slab; since
    backward cones widen toward earlier times, it suffices to check the slab
    floor. Touching (closed) cones count as overlapping. The result is one
    "region3-screens" row whose detail gives both intervals at the floor.
    """
    ev_a, ev_b, _ = _pick_roles(list(events))
    t_lo, t_hi = float(slab[0]), float(slab[1])
    if not (math.isfinite(t_lo) and math.isfinite(t_hi)) or t_lo > t_hi:
        raise SlabError(f"malformed slab [{t_lo!r}, {t_hi!r}]")
    if t_hi >= min(ev_a.t, ev_b.t):
        raise SlabError(
            f"slab ceiling {t_hi!r} is not strictly before both measurements "
            f"(at t={ev_a.t!r} and t={ev_b.t!r})"
        )
    (a_lo, a_hi), (b_lo, b_hi) = ((ev.x - (ev.t - t_lo), ev.x + (ev.t - t_lo)) for ev in (ev_a, ev_b))
    return PredicateResult(
        "region3-screens",
        a_hi < b_lo or b_hi < a_lo,
        f"backward cones at t={t_lo:g}: {ev_a.label or 'A'} [{a_lo:g}, {a_hi:g}], "
        f"{ev_b.label or 'B'} [{b_lo:g}, {b_hi:g}]",
    )
