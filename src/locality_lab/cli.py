"""Command-line surface: condition checks, inequality sweeps, protocol demos.

Subcommands:

  check      run locality-condition checkers over a behaviour/model JSON file
  chsh       CHSH tools: --optimize (quantum maximum search), --grid
             (correlator CSV for plotting), --classical (strategy enumeration)
  bell1964   original three-setting inequality slack at given angles
  everett    stage-by-stage branch tables and `ProtocolTrace.definiteness()`
  boxes      the one-particle two-box protocol and its condition reports
  signmodel  sampled sign-strategy ensemble and its correlators
  timeline   causal-structure validation of an event list from JSON, with an
             optional early-time slab ("region3") that screens both wings

Angles are radians everywhere. Output is deterministic: identical invocations
(including seeds) produce byte-identical output. Exit codes: 0 all requested
checks pass, 1 a check failed, 2 usage or input error. The environment
variable LOCALITY_LAB_TOL overrides the default check tolerance.

Only `behavior`, `inequalities` and `qstate` are imported with this module;
`causality`, `everett` and `spacetime` are imported by the subcommands that
use them, so `chsh`, `bell1964` and `signmodel` never load them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Sequence

from . import behavior as bh
from . import inequalities as ineq
from .qstate import singlet

if TYPE_CHECKING:
    from . import causality as ca, everett as ev

MAX_GRID_ANGLES = 1000  # per axis of `chsh --grid`, so at most 10**6 CSV rows


def _tolerance(flag: float | None) -> float:
    """The check tolerance: --tol, else LOCALITY_LAB_TOL (read only without --tol), else the checkers' default."""
    from . import causality as ca

    tol = flag
    if tol is None:
        raw = os.environ.get("LOCALITY_LAB_TOL")
        try:
            tol = ca.DEFAULT_TOL if raw is None else float(raw)
        except ValueError as exc:
            raise ValueError(f"LOCALITY_LAB_TOL is not a number: {raw!r}") from exc
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance (--tol or LOCALITY_LAB_TOL) must be finite and >= 0, got {tol!r}")
    return tol


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply") from exc


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# -- check ----------------------------------------------------------------------

_CHECKS = {  # each checker is read off the `causality` module passed in per call, so a wrapper installed later sees it
    "no-signalling": lambda ca, model, observable, tol: ca.check_no_signalling(observable, tol),
    "parameter-independence": lambda ca, model, observable, tol: ca.check_parameter_independence(model, tol),
    "outcome-independence": lambda ca, model, observable, tol: ca.check_outcome_independence(model, tol),
    "factorizability": lambda ca, model, observable, tol: ca.check_factorizability(model, tol),
    "determinism": lambda ca, model, observable, tol: ca.suppes_zanotti_reduction(model, tol),
}


def _parse_conditions(raw: str | None, is_model: bool) -> list[str]:
    if raw is None or raw == "all":
        base = ["no-signalling"]
        if is_model:
            base += ["parameter-independence", "outcome-independence", "factorizability"]
        return base
    names = [part.strip() for part in raw.split(",") if part.strip()]
    for name in names:
        if name not in _CHECKS:
            raise ValueError(f"unknown condition {name!r}; known: {', '.join(_CHECKS)}")
    if not names:
        raise ValueError("empty --conditions list")
    return names


def _report_status(report: ca.CheckReport) -> str:
    if report.passed is None:
        return "N/A "
    return "PASS" if report.passed else "FAIL"


def _print_reports_table(reports: list[ca.CheckReport]) -> None:
    width = max(len(r.condition.value) for r in reports)
    for r in reports:
        line = (
            f"{r.condition.value:<{width}}  {_report_status(r)}  "
            f"max_violation={bh.angle_label(r.max_violation)}  tol={bh.angle_label(r.tol)}"
        )
        if r.skipped_cells:
            line += f"  skipped_cells={r.skipped_cells}"
        print(line)
        if r.witness is not None and r.passed is False:
            print(f"  witness: {json.dumps(r.witness, sort_keys=True)}")
        for note in r.notes:
            print(f"  note: {note}")


def cmd_check(args) -> int:
    from . import causality as ca

    obj = bh.from_dict(_load_json(args.file))
    is_model = isinstance(obj, bh.HiddenVariableModel)
    tol = _tolerance(args.tol)
    names = _parse_conditions(args.conditions, is_model)
    if not is_model and any(n not in ("no-signalling",) for n in names):
        print("input is a behaviour; lambda-level checks use the empty hidden variable")
    if is_model:
        model, observable = obj, (bh.average(obj) if "no-signalling" in names else None)
    else:
        model, observable = bh.HiddenVariableModel.from_arrays(obj.scenario, [1.0], obj.table[None]), obj
    reports = [_CHECKS[name](ca, model, observable, tol) for name in names]
    if args.format == "json":
        _print_json(
            {
                "input": "model" if is_model else "behavior",
                "all_passed": all(r.passed is not False for r in reports),
                "reports": [r.to_dict() for r in reports],
            }
        )
    elif args.format == "csv":
        print("condition,passed,max_violation,skipped_cells,tol")
        for r in reports:
            passed = "" if r.passed is None else str(r.passed).lower()
            print(
                f"{r.condition.value},{passed},{format(r.max_violation, '.17g')},"
                f"{r.skipped_cells},{format(r.tol, '.17g')}"
            )
    else:
        _print_reports_table(reports)
    return 0 if all(r.passed is not False for r in reports) else 1


# -- chsh -------------------------------------------------------------------------


def _chsh_table(result: ineq.ChshResult) -> None:
    a, ap, b, bp = result.settings
    e_ab, e_abp, e_apb, e_apbp = result.terms
    print(f"S = {bh.angle_label(result.value)}   |S| = {bh.angle_label(result.magnitude)}")
    print(f"settings (radians): a={a} a'={ap} b={b} b'={bp}")
    print(
        f"correlators: E(a,b)={bh.angle_label(e_ab)} E(a,b')={bh.angle_label(e_abp)} "
        f"E(a',b)={bh.angle_label(e_apb)} E(a',b')={bh.angle_label(e_apbp)}"
    )


def cmd_chsh(args) -> int:
    if args.format == "json" and not args.optimize:
        raise ValueError("--format applies to --optimize only")
    state = singlet()
    if args.classical:
        enum = ineq.classical_bound()
        print("A(a) A(a') B(b) B(b')     S   |S|")
        for row in enum.strategies:
            ra, rb = row.responses_a, row.responses_b
            print(f"{ra[0]:+4d} {ra[1]:+5d} {rb[0]:+4d} {rb[1]:+5d} {row.s:+6.1f} {abs(row.s):5.1f}")
        print(f"classical bound: max |S| = {bh.angle_label(enum.bound)} over 16 deterministic strategies")
        return 0
    if args.grid:
        step = args.step
        if not math.isfinite(step) or step <= 0.0:
            raise ValueError(f"--step must be a positive angle, got {step!r}")
        turns = 2.0 * math.pi / step
        if turns + 1.0 > MAX_GRID_ANGLES:
            raise ValueError(f"--step {step!r} needs more than {MAX_GRID_ANGLES} angles per axis")
        n = math.ceil(turns) + 1
        angles = [i * step for i in range(n)]
        corr = ineq.CorrelatorSet.from_state(state, angles, angles)
        sys.stdout.write(ineq.correlators_to_csv(corr))
        return 0
    result = ineq.quantum_max(state)
    if args.format == "json":
        _print_json(result.to_dict())
    else:
        _chsh_table(result)
    return 0


# -- bell1964 ----------------------------------------------------------------------


def cmd_bell1964(args) -> int:
    corr = ineq.CorrelatorSet.from_state(singlet(), [args.a, args.b, args.c], [args.a, args.b, args.c])
    result = ineq.bell_1964(corr, 0, 1, 2)
    if args.format == "json":
        _print_json(result.to_dict())
        return 0
    print(f"slack = {bh.angle_label(result.slack)}  ({'satisfied' if result.satisfied else 'VIOLATED'})")
    for key in ("E(b,c)", "E(a,b)", "E(a,c)"):
        print(f"{key} = {bh.angle_label(result.terms[key])}")
    if not result.anticorrelation_ok:
        print(
            "warning: perfect anticorrelation at equal settings fails "
            f"(max deviation {bh.angle_label(result.max_equal_setting_deviation)}); slack computed anyway"
        )
    return 0


# -- everett / boxes ----------------------------------------------------------------


def _branch_rows(trace: ev.ProtocolTrace) -> tuple[list[str], list[list[str]]]:
    subsystems: list[str] = []
    for stage in trace.stages:
        for label in stage.state.labels:
            if label not in subsystems:
                subsystems.append(label)
    rows = []
    for stage in trace.stages:
        for branch in stage.branches:
            rows.append(
                [stage.name]
                + [branch.labels.get(sub, "") for sub in subsystems]
                + [
                    format(branch.amplitude.real, ".17g"),
                    format(branch.amplitude.imag, ".17g"),
                    format(branch.weight, ".17g"),
                ]
            )
    return ["stage"] + subsystems + ["re", "im", "weight"], rows


def _print_aligned(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i]) for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


def _trace_json(trace: ev.ProtocolTrace) -> dict:
    return {
        "stages": [
            {
                "name": stage.name,
                "event": stage.event.to_dict(),
                "subsystems": list(stage.state.labels),
                "branches": [
                    {
                        "labels": dict(branch.labels),
                        "re": branch.amplitude.real,
                        "im": branch.amplitude.imag,
                        "weight": branch.weight,
                    }
                    for branch in stage.branches
                ],
            }
            for stage in trace.stages
        ]
    }


def cmd_everett(args) -> int:
    from . import everett as ev

    trace = ev.run_parallel_epr() if args.theta == 0.0 else ev.run_nonparallel(args.theta)
    header, rows = _branch_rows(trace)
    if args.format == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(row))
        return 0
    dheader, drows = trace.definiteness()
    if args.format == "json":
        payload = _trace_json(trace)
        payload["theta"] = args.theta
        payload["definiteness"] = {
            "header": dheader,
            "rows": drows,
        }
        _print_json(payload)
        return 0
    print(f"branch tables (theta = {bh.angle_label(args.theta)} rad)")
    _print_aligned(header, rows)
    print()
    print("definiteness of the far region relative to a conditioning branch")
    _print_aligned(dheader, drows)
    return 0


def cmd_boxes(args) -> int:
    from . import causality as ca, everett as ev

    trace, induced = ev.einstein_boxes()
    one_lambda = bh.HiddenVariableModel.from_arrays(induced.scenario, [1.0], induced.table[None])
    ns_report, oi_report = ca.check_no_signalling(induced), ca.check_outcome_independence(one_lambda)
    if args.format == "json":
        _print_json(
            {
                "trace": _trace_json(trace),
                "behavior": bh.behavior_to_dict(induced),
                "reports": [ns_report.to_dict(), oi_report.to_dict()],
            }
        )
        return 0
    header, rows = _branch_rows(trace)
    _print_aligned(header, rows)
    print()
    sc = induced.scenario
    print("induced behaviour P(A,B|open,open):")
    for iA, a_out in enumerate(sc.outcomes_a):
        for iB, b_out in enumerate(sc.outcomes_b):
            print(f"  P({a_out},{b_out}) = {bh.angle_label(induced.table[0, 0, iA, iB])}")
    print()
    _print_reports_table([ns_report, oi_report])
    return 0


# -- signmodel ----------------------------------------------------------------------


def _closed_form_sign_correlator(a: float, b: float) -> float:
    gamma = abs(a - b) % (2.0 * math.pi)
    gamma = min(gamma, 2.0 * math.pi - gamma)
    return -1.0 + 2.0 * gamma / math.pi


def cmd_signmodel(args) -> int:
    angles = [float(part) for part in args.settings.split(",") if part.strip()]
    if not angles:
        raise ValueError("--settings needs at least one angle")
    model, correlators = bh.sign_model(angles, angles, args.n, args.seed)
    if args.format == "json":
        _print_json(
            {
                "n_samples": args.n,
                "seed": args.seed,
                "settings": angles,
                "n_lambdas": len(model.weights()),
                "correlators": [[float(x) for x in row] for row in correlators],
            }
        )
        return 0
    cells = [
        (bh.angle_label(a), bh.angle_label(b), correlators[ia, ib], _closed_form_sign_correlator(a, b))
        for ia, a in enumerate(angles)
        for ib, b in enumerate(angles)
    ]
    if args.format == "csv":
        print("a,b,E,expected")
        for a, b, e, expected in cells:
            print(f"{a},{b},{format(e, '.17g')},{format(expected, '.17g')}")
        return 0
    print(f"sampled {args.n} hidden directions (seed {args.seed}); {len(model.weights())} distinct strategies")
    rows = [[a, b, *(bh.angle_label(x) for x in (e, expected, abs(e - expected)))] for a, b, e, expected in cells]
    _print_aligned(["a", "b", "E", "expected", "|diff|"], rows)
    return 0


# -- timeline -----------------------------------------------------------------------

def _parse_slab(raw) -> tuple[float, float]:
    """The optional ``"region3": [t_lo, t_hi]`` slab; `region3_screens` checks finiteness and order."""
    error = "'region3' must be a list of two finite numbers [t_lo, t_hi]"
    if isinstance(raw, list) and len(raw) == 2:
        return bh.json_number(raw[0], error), bh.json_number(raw[1], error)
    raise ValueError(error)


def cmd_timeline(args) -> int:
    from . import spacetime as st

    roles = {r.value.replace("-", ""): r for r in st.Role}  # a role is named case-blind, with or without - and _
    data = _load_json(args.file)
    if not isinstance(data, dict) or not isinstance(data.get("timeline"), list):
        raise ValueError("timeline file must be an object with a 'timeline' list")
    slab = _parse_slab(data["region3"]) if "region3" in data else None
    events = []
    for k, entry in enumerate(data["timeline"]):
        try:
            t, x = (bh.json_number(entry[c], f"malformed timeline entry {k}: {c!r} must be a number") for c in "tx")
            role, label = entry.get("role", "other"), entry.get("label", "")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed timeline entry {k}: {exc}") from exc
        for key, value in (("role", role), ("label", label)):
            if not isinstance(value, str):
                raise ValueError(f"malformed timeline entry {k}: {key!r} must be a string")
        if (alias := role.replace("-", "").replace("_", "").lower()) not in roles:
            raise ValueError(f"unknown event role {role!r}")
        events.append(st.Event(t, x, roles[alias], label))
    report = st.validate_protocol(events)
    if slab is not None:
        report = st.ProtocolReport(report.checks + (st.region3_screens(events, slab),))
    if args.format == "json":
        _print_json(report.to_dict())
    else:
        for check in report.checks:
            print(f"{check.name:<32} {'PASS' if check.passed else 'FAIL'}  {check.detail}")
    return 0 if report.passed else 1


# -- parser -------------------------------------------------------------------------


@functools.cache  # parse_args neither mutates the parser nor keeps a result
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locality-lab",
        description="Locality-condition checkers, Bell/CHSH inequality tools, and branch-level protocol demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run condition checkers over a behaviour/model JSON file")
    p.add_argument("file")
    p.add_argument("--conditions", default=None, help="comma-separated condition names, or 'all'")
    p.add_argument("--tol", type=float, default=None, help="violation tolerance (default from LOCALITY_LAB_TOL or 1e-9)")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")

    p = sub.add_parser("chsh", help="CHSH optimisation, correlator grids, classical enumeration")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--optimize", action="store_true")
    mode.add_argument("--grid", action="store_true")
    mode.add_argument("--classical", action="store_true")
    p.add_argument("--step", type=float, default=0.1, help="grid step in radians (with --grid)")
    p.add_argument("--format", choices=("table", "json"), default="table", help="output format (with --optimize)")

    p = sub.add_parser("bell1964", help="original three-setting inequality slack on the singlet")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("everett", help="branch tables and definiteness matrix of the two-wing protocol")
    p.add_argument("--theta", type=float, required=True, help="relative measurement angle in radians")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")

    p = sub.add_parser("boxes", help="one-particle two-box protocol with condition reports")
    p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("signmodel", help="sampled sign-strategy ensemble and correlators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--settings", required=True, help="comma-separated angles in radians")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")

    p = sub.add_parser("timeline", help="validate the causal layout of an event list")
    p.add_argument("file")
    p.add_argument("--format", choices=("table", "json"), default="table")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]  # per call, so a cmd_* replaced after the parser was built runs
    try:
        return command(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
