"""locality-lab benchmark: three closed-loop workloads with oracle-checked operations.

    python3 bench/run.py --workload cli_session --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --seed 1            # every workload, untraced and traced

Run from the repository root; the package is imported from ./src. One run is
one fresh process holding one client: the next operation starts when the
previous one returns. Operations are timed from outside, around calls into
locality_lab's public functions, and each result is checked by an oracle in
bench/workloads.py; a mismatch, an exception or a broken exit-code contract
counts as a failed operation.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics, taken
from a traced replay of the operations of an untraced pass (see
bench/spans.py) and a third pass under tracemalloc. Spans are written to
bench/results/. Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = ("cli_session", "hv_check", "born_build")

# The arrays are tiny, so BLAS threads only add scheduling noise on a small
# shared machine; every run holds each of these to one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 9  # fresh processes that import the package and build inputs
COLD_STARTS = 15  # fresh `python -m locality_lab.cli` processes
CHILD_TIMEOUT_S = 60

# The machine is shared with other tenants and its speed changes within
# seconds by up to 1.6x (calibration_kernel takes about 1.5 ms or 2.5 ms).
# The end-to-end run therefore times the kernel between operations, at least
# every CALIBRATE_EVERY_S of operation time, and around each set-up probe,
# and reports each time scaled by REFERENCE_CALIBRATION_S over the mean of
# the kernel times just before and after it: the time the work would take at
# the reference speed. Cold starts get a reference of their own (see
# cold_starts). Raw times are printed to stderr next to the scaled ones.
CALIBRATE_EVERY_S = 0.05
MIN_OPS = 100  # a timed pass holds at least this many operations, so 10 lie above its p90
TRACE_TOL = 1e-3  # largest share of the traced wall time the trace accounting may miss
REFERENCE_CALIBRATION_S = 2.5e-3
REFERENCE_START_S = 0.15  # `python -c "import numpy"` at the reference speed


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup(workload: str, seed: int, workdir: Path):
    """Import locality_lab from ./src and build the workload's inputs; time both."""
    t0 = time.perf_counter()
    if not (SRC / "locality_lab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {SRC / 'locality_lab'}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import locality_lab

    if Path(locality_lab.__file__).resolve().parent != (SRC / "locality_lab").resolve():
        raise SystemExit(f"bench: locality_lab was imported from {locality_lab.__file__}, not from {SRC}")
    import workloads

    work = workloads.build(workload, seed, workdir)
    return locality_lab, workloads, work, time.perf_counter() - t0


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of small numpy, formatting and dict work."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.linspace(0.0, 1.0, 1024).reshape(32, 32)
    for i in range(8):
        float(np.abs(a[:, :, None] - a[:, None, :] * (1.0 + i)).max())
    ",".join(format(x * 1.000001, ".17g") for x in range(1000))
    d: dict[int, int] = {}
    for k in range(3000):
        d[k % 257] = d.get(k % 257, 0) + k
    return time.perf_counter() - t0


def setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds reported by a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def setup_samples(workload: str, seed: int) -> tuple[list[float], list[float]]:
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        before = calibration_kernel()
        seconds = setup_probe(workload, seed)
        factor = REFERENCE_CALIBRATION_S / ((before + calibration_kernel()) / 2.0)
        raw.append(seconds)
        scaled.append(seconds * factor)
    return raw, scaled


def cold_starts(workloads) -> tuple[list[float], list[float], list[str]]:
    """Raw and reference-speed times of fresh CLI processes, one at a time, and output mismatches.

    The calibration kernel speeds up more than a process start does when the
    machine is fast, so a cold start is scaled by a reference start instead:
    ``python -c "import numpy"`` just before and just after it, which does the
    same kind of work (interpreter start, module loading) without locality_lab.
    """
    golden = next(e for e in workloads.load_goldens()["invocations"] if e["argv"] == workloads.COLD_START_ARGV)
    cli_cmd = [sys.executable, "-m", "locality_lab.cli", *workloads.COLD_START_ARGV]
    reference_cmd = [sys.executable, "-c", "import numpy"]

    def start(cmd):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S)
        return time.perf_counter() - t0, proc

    raw, scaled, errors = [], [], []
    before, _ = start(reference_cmd)
    for _ in range(COLD_STARTS):
        seconds, proc = start(cli_cmd)
        after, _ = start(reference_cmd)
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_START_S / ((before + after) / 2.0))
        before = after
        if proc.returncode != golden["exit"] or workloads.sha256(proc.stdout.decode()) != golden["stdout_sha256"]:
            errors.append(f"cold start: exit {proc.returncode} or stdout differs from the golden")
    return raw, scaled, errors


class Loop:
    """Latencies, failures and wall time of one pass over whole cycles."""

    def __init__(self):
        self.latencies: list[float] = []
        self.scaled: list[float] = []  # latencies at the reference speed, when calibrating
        self.calibrations: list[float] = []
        self.names: list[str] = []
        self.failures: list[str] = []
        self.windows: list[tuple[float, float]] = []  # (start, end) of each timed call, if kept
        self.harness = 0.0  # time between timed calls: oracle checks, on_result, calibration, loop
        self.cycles = 0
        self.wall = 0.0


def run_cycles(ops, budget_s: float | None = None, cycles: int | None = None, on_result=None,
               calibrate: bool = False, keep_windows: bool = False) -> Loop:
    """Replay whole cycles until ``cycles`` are done, or else until ``budget_s``
    of operation time is used and at least MIN_OPS operations are done.

    Only the call itself is timed; the oracle check and the calibration
    kernel run between calls, and the time between calls is summed apart.
    """
    loop = Loop()
    clock = time.perf_counter
    busy = 0.0
    pending: list[float] = []

    def scale_pending() -> None:
        now = calibration_kernel()
        factor = REFERENCE_CALIBRATION_S / ((loop.calibrations[-1] + now) / 2.0)
        loop.scaled.extend(dt * factor for dt in pending)
        loop.calibrations.append(now)
        pending.clear()

    start = mark = clock()
    if calibrate:
        loop.calibrations.append(calibration_kernel())
    while True:
        for op in ops:
            t0 = clock()
            loop.harness += t0 - mark
            try:
                result = op.run()
                error = None
            except Exception as exc:  # counted as a failed operation, the run goes on
                result, error = None, f"{op.name}: raised {type(exc).__name__}: {exc}"
            mark = clock()
            dt = mark - t0
            if keep_windows:
                loop.windows.append((t0, mark))
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:
                    error = f"{op.name}: result unreadable by its oracle: {type(exc).__name__}: {exc}"
            if on_result is not None:
                on_result(result)
            loop.latencies.append(dt)
            loop.names.append(op.name)
            if error is not None:
                loop.failures.append(error)
            busy += dt
            if calibrate:
                pending.append(dt)
                if sum(pending) >= CALIBRATE_EVERY_S:
                    scale_pending()
        loop.cycles += 1
        if cycles is not None:
            if loop.cycles >= cycles:
                break
        elif busy >= budget_s and len(loop.latencies) >= MIN_OPS:
            break
    if pending:
        scale_pending()
    end = clock()
    loop.harness += end - mark
    loop.wall = end - start
    return loop


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": f"{platform.machine()}, shared with other tenants, no CPU reserved",
    }


def latency_table(loop: Loop) -> None:
    by_name: dict[str, list[float]] = {}
    for name, dt in zip(loop.names, loop.latencies):
        by_name.setdefault(name, []).append(dt)
    log(f"{'operation':<28} {'n':>6} {'p50 ms':>10} {'max ms':>10}")
    for name in sorted(by_name):
        v = by_name[name]
        log(f"{name:<28} {len(v):>6} {statistics.median(v) * 1e3:>10.3f} {max(v) * 1e3:>10.3f}")


def run_probes(work) -> tuple[int, int]:
    """Run the known contract breaks once; return (probes, breaks)."""
    breaks = 0
    for label, call in work.probes:
        verdict = call()
        breaks += verdict is not None
        log(f"contract probe  {label:<30} {'BREAK: ' + verdict if verdict else 'ok'}")
    return len(work.probes), breaks


def log_known_defects(work) -> None:
    if work.stats.get("plane_shortfall_states"):
        log(f"known defect: quantum_max fell short of the x-z plane closed form by more than 1e-9 on "
            f"{work.stats['plane_shortfall_states']} state(s), by up to {work.stats['plane_shortfall_max']:.3g}")


def _summary(values: list[float]) -> dict[str, float]:
    return {
        "ops_per_s": len(values) / sum(values),
        "op_p50_ms": statistics.median(values) * 1e3,
        "op_p90_ms": p90(values) * 1e3,
    }


def end_to_end(args, work, workloads) -> tuple[dict, int, int]:
    setup_raw, setup_scaled = setup_samples(args.workload, args.seed)
    start_raw, start_scaled, start_errors = cold_starts(workloads)
    loop = run_cycles(work.ops, budget_s=args.seconds, calibrate=True)
    lat = loop.latencies
    latency_table(loop)
    raw = _summary(lat)
    log(f"set-up s, raw: {[round(x, 4) for x in setup_raw]}; at reference speed: {[round(x, 4) for x in setup_scaled]}")
    log(f"cold start s, raw: {[round(x, 4) for x in start_raw]}; at reference speed: {[round(x, 4) for x in start_scaled]}")
    log(f"timed: {len(lat)} operations in {loop.cycles} cycles of {len(work.ops)}; op time {sum(lat):.3f} s, "
        f"wall {loop.wall:.3f} s; {len(lat) - math.ceil(0.9 * len(lat))} samples lie above the p90")
    log(f"calibration kernel: {len(loop.calibrations)} samples, median {statistics.median(loop.calibrations) * 1e3:.3f} ms "
        f"(reference {REFERENCE_CALIBRATION_S * 1e3:g} ms); raw ops_per_s {raw['ops_per_s']:.4g}, "
        f"op_p50_ms {raw['op_p50_ms']:.4g}, op_p90_ms {raw['op_p90_ms']:.4g}, "
        f"setup_s {statistics.median(setup_raw):.4g}, cold_start_s {statistics.median(start_raw):.4g}")
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        **_summary(loop.scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cold_start_s": statistics.median(start_scaled),
    }
    failures = loop.failures + start_errors
    for f in failures:
        log(f"FAILED {f}")
    log_known_defects(work)
    return metrics, len(lat) + len(start_raw), len(failures)


CHECKERS = {
    "causality.check_no_signalling": "ns",
    "causality.check_parameter_independence": "pi",
    "causality.check_outcome_independence": "oi",
    "causality.check_factorizability": "fact",
    "causality.suppes_zanotti_reduction": "sz",
}
SUBCOMMANDS = ("check", "chsh", "bell1964", "everett", "boxes", "signmodel", "timeline")
MEMORY_LAYERS = ("qstate", "behavior", "causality", "inequalities")


def _add(key: str, amount):
    def hook(tracer, sid, args, kwargs, result):
        tracer.counts[key] += amount(args, kwargs, result)

    return hook


def _scan_cells(args, kwargs, result):
    step = kwargs.get("grid_step", args[1] if len(args) > 1 else math.pi / 24)
    return math.ceil(2.0 * math.pi / step) ** 4


def _skipped(tracer, sid, args, kwargs, result):
    parent = tracer.parent[sid]
    if parent < 0 or tracer.span_name(parent) not in CHECKERS:
        tracer.counts["skipped_cells"] += result.skipped_cells


HOOKS = {
    "qstate.born_joint": _add("table_cells", lambda a, k, r: 1),
    "qstate.joint_probability_table": _add("table_cells", lambda a, k, r: r.size),
    "behavior.from_dict": _add("lambdas_built", lambda a, k, r: len(getattr(r, "lambdas", ()))),
    "behavior.sign_model": _add("lambdas_built", lambda a, k, r: len(r[0].lambdas)),
    "inequalities.quantum_max": _add("scan_cells", _scan_cells),
    "inequalities.correlators_to_csv": _add("csv_bytes", lambda a, k, r: len(r.encode())),
    "inequalities.landscape_slice_to_csv": _add("csv_bytes", lambda a, k, r: len(r.encode())),
    "everett.decompose": _add("branches", lambda a, k, r: len(r)),
    **{name: _skipped for name in CHECKERS},
}


def per_layer(args, pkg, work) -> tuple[dict, int, int]:
    import workloads

    untraced = run_cycles(work.ops, budget_s=args.seconds / 4.0, calibrate=True)

    stdout_bytes = 0

    def count_stdout(result):
        nonlocal stdout_bytes
        if isinstance(result, workloads.CliResult):
            stdout_bytes += len(result.out.encode())

    tracer = spans.Tracer(pkg, HOOKS)
    tracer.install()
    try:
        origin = time.perf_counter()
        traced = run_cycles(work.ops, cycles=untraced.cycles, on_result=count_stdout, calibrate=True,
                            keep_windows=True)
    finally:
        tracer.uninstall()
    untraced_again = run_cycles(work.ops, cycles=untraced.cycles, calibrate=True)

    memory = spans.Tracer(pkg, memory=True)
    tracemalloc.start()
    memory.install()
    try:
        measured = run_cycles(work.ops, cycles=1)
    finally:
        memory.uninstall()
        tracemalloc.stop()

    span_file = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    n_spans = tracer.write_jsonl(span_file, origin)

    self_s = tracer.self_times()
    names = tracer.by_name()
    c = tracer.counts

    def calls(q):
        return len(names.get(q, ()))

    def inclusive(*qs):
        return sum(tracer.duration(s) for q in qs for s in names.get(q, ()))

    checker_calls = sum(calls(q) for q in CHECKERS)
    requested = sum(1 for q in CHECKERS for s in names.get(q, ())
                    if tracer.parent[s] < 0 or tracer.span_name(tracer.parent[s]) not in CHECKERS)
    qmax = set(names.get("inequalities.quantum_max", ()))
    refine = sum(1 for s in names.get("qstate.correlator_matrix", ()) if tracer.parent[s] in qmax) - 2 * len(qmax)
    # Measured apart from the self times: the harness time between calls, plus
    # the part of each timed call that no span covers. A parent link gone wrong,
    # or an oracle that calls into the package, breaks the sum checked below.
    outside = traced.harness + sum(traced.latencies) - tracer.covered(traced.windows)
    accounted = sum(self_s.values()) + outside

    m = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in spans.MODULES}
    m.update({
        "qstate.born_joint_calls": calls("qstate.born_joint"),
        "qstate.table_cells": c["table_cells"],
        "qstate.correlator_matrix_calls": calls("qstate.correlator_matrix"),
        "behavior.validate_calls": calls("behavior.validate"),
        "behavior.validate_s": inclusive("behavior.validate"),
        "behavior.from_dict_s": inclusive("behavior.from_dict"),
        "behavior.model_to_dict_s": inclusive("behavior.model_to_dict"),
        "behavior.sign_model_s": inclusive("behavior.sign_model"),
        "behavior.lambdas_built": c["lambdas_built"],
        "behavior.stacked_tables_calls": calls("behavior.HiddenVariableModel.stacked_tables"),
        "behavior.average_calls": calls("behavior.average"),
        **{f"causality.{short}_s": inclusive(q) for q, short in CHECKERS.items()},
        "causality.checks_requested": requested,
        "causality.checker_calls": checker_calls,
        "causality.useful_work_ratio": requested / checker_calls if checker_calls else 0.0,
        "causality.skipped_cells": c["skipped_cells"],
        "inequalities.quantum_max_s": inclusive("inequalities.quantum_max"),
        "inequalities.scan_cells": c["scan_cells"],
        "inequalities.scan_bytes_computed": 4 * 8 * c["scan_cells"],
        "inequalities.refine_evals": refine,
        "inequalities.plane_gap_max": work.stats.get("plane_gap_max", 0.0),
        "inequalities.plane_shortfall_max": work.stats.get("plane_shortfall_max", 0.0),
        "inequalities.plane_shortfall_states": work.stats.get("plane_shortfall_states", 0),
        "inequalities.csv_s": inclusive("inequalities.correlators_to_csv", "inequalities.landscape_slice_to_csv"),
        "inequalities.csv_bytes": c["csv_bytes"],
        "cli.stdout_bytes": stdout_bytes,
        "everett.decompose_calls": calls("everett.decompose"),
        "everett.branches": c["branches"],
        "everett.relative_state_calls": calls("everett.relative_state"),
        "everett.definite_queries": calls("everett.is_definite_relative"),
        "spacetime.validate_protocol_calls": calls("spacetime.validate_protocol"),
        **{f"{layer}.peak_mb": memory.peak_bytes.get(layer, 0) / 2**20 for layer in MEMORY_LAYERS},
        "machine.calibration_ms": statistics.median(traced.calibrations) * 1e3,
        "trace.wall_s": traced.wall,
        "trace.outside_s": outside,
        "trace.overhead_s": sum(traced.scaled) - (sum(untraced.scaled) + sum(untraced_again.scaled)) / 2.0,
        "trace.spans": n_spans,
    })
    for sub in SUBCOMMANDS:
        durations = [tracer.duration(s) for s in names.get(f"cli.cmd_{sub}", ())]
        m[f"cli.{sub}_p50_ms"] = statistics.median(durations) * 1e3 if durations else 0.0

    loops = (untraced, traced, untraced_again, measured)
    attempted = sum(len(lp.latencies) for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    probes, breaks = run_probes(work)
    log_known_defects(work)
    m["cli.contract_probes"] = probes
    m["cli.contract_breaks"] = breaks
    m["bench.error_rate"] = len(failures) / attempted
    if abs(traced.wall - accounted) > TRACE_TOL * traced.wall:
        failures.append(f"trace: layer self times + outside time = {accounted:.6f} s, wall {traced.wall:.6f} s")
    for f in failures:
        log(f"FAILED {f}")
    log(f"traced {traced.cycles} cycles: wall {traced.wall:.4f} s; layer self times {sum(self_s.values()):.4f} s "
        f"+ outside any span {outside:.4f} s = {accounted:.4f} s (difference {traced.wall - accounted:.2e} s); "
        f"{n_spans} spans written to {span_file.relative_to(ROOT)}")
    return m, attempted, len(failures)


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU; return it.

    The CPUs of the machine run at different speeds at different times, so
    the calibration kernel only describes the CPU it ran on. Pinning acts on
    this process alone and changes no machine setting.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def worker(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    cpu = None if args.setup_probe else pin_to_one_cpu()
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix=f"{args.workload}-") as tmp:
        pkg, workloads, work, setup_s = setup(args.workload, args.seed, Path(tmp))
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        log(f"env: {json.dumps(dict(environment(), pinned_cpu=cpu), sort_keys=True)}")
        spec = json.loads(BENCHMARK.read_text())
        group = spec["per_layer"] if args.trace else spec["end_to_end"]
        if args.trace:
            metrics, attempted, failed = per_layer(args, pkg, work)
        else:
            log(f"set-up in this process: {setup_s:.4f} s")
            metrics, attempted, failed = end_to_end(args, work, workloads)
            run_probes(work)
    mismatch = {g["name"] for g in group} ^ set(metrics)
    if mismatch:
        raise SystemExit(f"bench: metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    for g in group:
        log(f"{g['name']:<36} {metrics[g['name']]:>16.6g} {g['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {g["name"]: {"value": metrics[g["name"]], "unit": g["unit"]} for g in group},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, untraced then traced."""
    spec = json.loads(BENCHMARK.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    summary = {"seed": args.seed, "seconds": seconds, "runs": {}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            summary["runs"][f"{w['name']}/trace{trace}"] = result
            print(f"\n{w['name']} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, v in result["metrics"].items():
                print(f"  {name:<36} {v['value']:>16.6g} {v['unit']}")
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"summary-seed{args.seed}.json"
    path.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\nwrote {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    return worker(args)


if __name__ == "__main__":
    sys.exit(main())
