"""Minkowski interval classification, cone predicates, and protocol checks.

Claims covered:
  - interval classification matches the sign of (dt)^2 - (dx)^2 with the
    lightlike boundary included, and is symmetric in its arguments; it holds
    for differences whose squares exceed the float range (t = 1e200 against
    x = 5 is timelike), where 600 seeded pairs scaled by 2^513 to 2^1020
    keep the class of the unscaled pair;
  - future-cone membership is antisymmetric for timelike pairs and admits
    the lightlike boundary;
  - protocol validation accepts the overlap point (4, 0) and rejects (2, 0)
    for measurements at (1, -2) and (1, 2), rejects timelike measurement
    pairs, and is invariant under boosts of rapidity +/-0.5 and +/-1.0;
  - the early-slab screening check reports the backward-cone intervals at
    the slab floor, agrees with |x_A - x_B| > (t_A - t_lo) + (t_B - t_lo) on
    400 seeded layouts, touching ones included (touching cones overlap),
    and rejects slabs that are malformed or not strictly before both
    measurements.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from locality_lab.spacetime import (
    Event,
    IntervalClass,
    Role,
    RoleCountError,
    SlabError,
    boost,
    in_future_lightcone,
    interval_class,
    region3_screens,
    validate_protocol,
)

ORIGIN = Event(0.0, 0.0)

finite = hst.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def wing_events(t=1.0, x=2.0):
    return [
        Event(t, -x, Role.MEASUREMENT_A, "A"),
        Event(t, x, Role.MEASUREMENT_B, "B"),
    ]


class TestIntervalClass:
    @pytest.mark.parametrize(
        "event,expected",
        [
            (Event(1.0, 0.0), IntervalClass.TIMELIKE),
            (Event(1.0, 1.0), IntervalClass.LIGHTLIKE),
            (Event(0.0, 5.0), IntervalClass.SPACELIKE),
        ],
    )
    def test_classification(self, event, expected):
        assert interval_class(ORIGIN, event) is expected

    @given(finite, finite, finite, finite)
    @settings(max_examples=100, deadline=None)
    def test_symmetric(self, t1, x1, t2, x2):
        e1, e2 = Event(t1, x1), Event(t2, x2)
        assert interval_class(e1, e2) is interval_class(e2, e1)

    @pytest.mark.parametrize(
        "e1, e2, expected",
        [
            (Event(1e200, 0.0), Event(0.0, 5.0), IntervalClass.TIMELIKE),
            (Event(0.0, 1e200), Event(5.0, 0.0), IntervalClass.SPACELIKE),
            (Event(1e200, -1e200), ORIGIN, IntervalClass.LIGHTLIKE),
            (Event(2.0**512, 0.0), Event(0.0, 2.0**511), IntervalClass.TIMELIKE),
            (Event(1e308, 0.0), Event(-1e308, 1e300), IntervalClass.TIMELIKE),
            (Event(1e308, 1e308), Event(-1e308, -1e308), IntervalClass.LIGHTLIKE),
        ],
        ids=["dt-1e200", "dx-1e200", "light-1e200", "dt-2^512", "dt-overflows", "both-overflow"],
    )
    def test_large_coordinates(self, e1, e2, expected):
        # Each difference here squares past the float range, or is itself beyond it.
        assert interval_class(e1, e2) is expected
        assert interval_class(e2, e1) is expected

    def test_class_unchanged_by_power_of_two_scale(self):
        # Scaled by 2^k, pairs whose difference reaches 2^512 take the
        # rescaled path; unscaled, the same pairs are the oracle.
        # Quarter-grid coordinates give exact lightlike ties.
        rng = np.random.default_rng(41)
        pairs = np.concatenate([rng.integers(-12, 13, size=(300, 4)) / 4, rng.normal(size=(300, 4))])
        for t1, x1, t2, x2 in pairs.tolist():
            want = interval_class(Event(t1, x1), Event(t2, x2))
            for k in (513, 700, 1020):
                scaled = [Event(math.ldexp(t, k), math.ldexp(x, k)) for t, x in ((t1, x1), (t2, x2))]
                assert interval_class(*scaled) is want

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Event(float("inf"), 0.0)


class TestFutureCone:
    def test_examples(self):
        assert in_future_lightcone(Event(2.0, 0.0), ORIGIN)
        assert not in_future_lightcone(Event(1.0, 5.0), ORIGIN)
        assert in_future_lightcone(Event(1.0, 1.0), ORIGIN)  # boundary admitted

    @given(finite, finite, finite, finite)
    @settings(max_examples=100, deadline=None)
    def test_antisymmetric_for_timelike_pairs(self, t1, x1, t2, x2):
        e1, e2 = Event(t1, x1), Event(t2, x2)
        if interval_class(e1, e2) is IntervalClass.TIMELIKE:
            assert in_future_lightcone(e1, e2) != in_future_lightcone(e2, e1)


class TestValidateProtocol:
    def test_overlap_point_accepted(self):
        report = validate_protocol(wing_events() + [Event(4.0, 0.0, Role.COMPARISON, "C")])
        assert report.passed
        assert [c.passed for c in report.checks] == [True, True, True]

    def test_early_comparison_rejected(self):
        report = validate_protocol(wing_events() + [Event(2.0, 0.0, Role.COMPARISON, "C")])
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"comparison-in-future-cone-of-a", "comparison-in-future-cone-of-b"}

    def test_timelike_measurements_rejected(self):
        events = [
            Event(0.0, 0.0, Role.MEASUREMENT_A),
            Event(3.0, 0.0, Role.MEASUREMENT_B),
        ]
        report = validate_protocol(events)
        assert not report.passed
        assert report.checks[0].name == "measurements-spacelike"

    def test_role_multiset_enforced(self):
        with pytest.raises(RoleCountError):
            validate_protocol([Event(0.0, 0.0, Role.MEASUREMENT_A)])
        with pytest.raises(RoleCountError):
            validate_protocol(wing_events() + wing_events())

    @pytest.mark.parametrize("rapidity", [0.5, -0.5, 1.0, -1.0])
    @pytest.mark.parametrize("comparison_t", [4.0, 2.0])
    def test_boost_invariance(self, rapidity, comparison_t):
        events = wing_events() + [Event(comparison_t, 0.0, Role.COMPARISON, "C")]
        before = [c.passed for c in validate_protocol(events).checks]
        after = [c.passed for c in validate_protocol([boost(e, rapidity) for e in events]).checks]
        assert before == after


def cones_disjoint_oracle(ev_a, ev_b, t_lo):
    """Backward cones of radius t - t_lo are disjoint iff the wings lie farther apart than the summed radii."""
    return abs(ev_a.x - ev_b.x) > (ev_a.t - t_lo) + (ev_b.t - t_lo)


class TestRegion3:
    def test_worked_slab_passes(self):
        result = region3_screens(wing_events(t=2.0, x=2.0), (0.5, 1.0))
        assert result.name == "region3-screens"
        assert result.passed
        assert result.detail == "backward cones at t=0.5: A [-3.5, -0.5], B [0.5, 3.5]"

    def test_late_thin_slab_passes(self):
        result = region3_screens(wing_events(t=2.0, x=2.0), (1.8, 1.9))
        assert result.passed
        assert result.detail == "backward cones at t=1.8: A [-2.2, -1.8], B [1.8, 2.2]"

    def test_overlapping_cones_flagged(self):
        result = region3_screens(wing_events(t=2.0, x=2.0), (-0.5, 0.5))
        assert not result.passed
        assert result.detail == "backward cones at t=-0.5: A [-4.5, 0.5], B [-0.5, 4.5]"

    def test_touching_cones_overlap(self):
        result = region3_screens(wing_events(t=2.0, x=2.0), (0.0, 1.0))
        assert not result.passed
        assert result.detail == "backward cones at t=0: A [-4, 0], B [0, 4]"

    def test_slab_after_measurement_rejected(self):
        with pytest.raises(SlabError):
            region3_screens(wing_events(t=2.0, x=2.0), (1.0, 2.5))
        with pytest.raises(SlabError):
            region3_screens(wing_events(t=2.0, x=2.0), (1.0, 2.0))
        with pytest.raises(SlabError):
            region3_screens(wing_events(t=2.0, x=2.0), (1.0, 0.5))
        with pytest.raises(SlabError):
            region3_screens(wing_events(t=2.0, x=2.0), (float("nan"), 0.5))

    def test_matches_cone_oracle_on_seeded_layouts(self):
        # Quarter-grid coordinates keep every sum exact, so touching cones
        # (|dx| equal to the summed radii) are true ties on both sides of the
        # comparison. The wing separation is drawn near the summed radii so
        # that all three verdicts occur.
        rng = np.random.default_rng(20260418)
        quarters = np.arange(-40, 41) / 4.0
        verdicts = {"disjoint": 0, "touching": 0, "overlapping": 0}
        for _ in range(400):
            t_lo = float(rng.choice(quarters))
            t_hi = t_lo + float(rng.integers(0, 9)) / 4.0
            t_a, t_b = (t_hi + float(k) / 4.0 for k in rng.integers(1, 21, size=2))
            x_a = float(rng.choice(quarters))
            offset = float(rng.integers(-4, 5)) / 4.0
            x_b = x_a + float(rng.choice([-1.0, 1.0])) * ((t_a - t_lo) + (t_b - t_lo) + offset)
            ev_a = Event(t_a, x_a, Role.MEASUREMENT_A)
            ev_b = Event(t_b, x_b, Role.MEASUREMENT_B)
            expected = cones_disjoint_oracle(ev_a, ev_b, t_lo)
            assert region3_screens([ev_b, ev_a], (t_lo, t_hi)).passed is expected
            gap = abs(x_a - x_b) - (t_a - t_lo) - (t_b - t_lo)
            verdicts["disjoint" if gap > 0 else "touching" if gap == 0 else "overlapping"] += 1
        assert min(verdicts.values()) >= 20, verdicts
