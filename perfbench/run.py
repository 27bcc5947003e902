"""kzrat benchmark: closed-loop solves through the CLI entry point on one workload.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller in one single-threaded process calls `kzrat.cli.main(argv)`
in-process; the next solve starts only after the previous one returns, as
when a user runs a config and waits for the verified answer.  Every solve
writes its `--json` report, and stdout and stderr are captured.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics.  With --trace 1 untraced and traced solves alternate,
and it holds the per-layer metrics from the traced ones, whose spans are
also written to perfbench/out/<workload>.spans.jsonl.gz.  Before the loop,
the series is rebuilt through the library and checked with
`verify_recursion`, outside the timed solves; this also warms up the
process.  Solve times are scaled to a reference host speed by a
calibration workload timed around every solve (perfbench/README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import kzrat.cli  # noqa: E402

import gate  # noqa: E402
from spans import Tracer, median_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_config, report_check, write_config  # noqa: E402

# Set-up probes before and again after the solve loop, so that the median
# spans the run's changing machine load.
SETUP_REPEATS = 5
CHECK_SOLVE = -1

# On a shared machine the speed of the host drifts by up to 2x over minutes,
# and process CPU time drifts with wall time, so longer runs do not average
# it out.  Each solve's and set-up probe's wall time is therefore scaled to a
# reference speed: solve_s = wall * REFERENCE_CALIBRATION_S / c, where c is
# the mean time of a fixed calibration workload run just before and just
# after it.
CALIBRATION_TERMS = 5000
REFERENCE_CALIBRATION_S = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s.p50": "s",
    "solve_s.tail": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "scalars.format_scalar.calls": "count",
    "scalars.self_s": "s",
    "kzmodel.local_expansion.s": "s",
    "kzmodel.self_s": "s",
    "frobenius.indicial_data.s": "s",
    "frobenius.indicial_data.calls": "count",
    "frobenius.compute_series.s": "s",
    "frobenius.convolution_rhs.s": "s",
    "frobenius.convolution_rhs.calls": "count",
    "frobenius.verify_recursion.s": "s",
    "frobenius.self_s": "s",
    "matrix.mul.calls": "count",
    "matrix.solve_linear.s": "s",
    "matrix.solve_linear.calls": "count",
    "matrix.solve_linear.affine": "count",
    "matrix.charpoly.s": "s",
    "matrix.det.s": "s",
    "matrix.self_s": "s",
    "poly.poly_gcd.s": "s",
    "poly.poly_gcd.calls": "count",
    "poly.divmod.calls": "count",
    "poly.rational_roots.s": "s",
    "poly.rational_roots.calls": "count",
    "poly.self_s": "s",
    "ratfunc.canon.s": "s",
    "ratfunc.canon.calls": "count",
    "ratfunc.self_s": "s",
    "reconstruct.propose_denominator.s": "s",
    "reconstruct.suggest_numerator_degree.s": "s",
    "reconstruct.reconstruct.s": "s",
    "reconstruct.verify_ode.s": "s",
    "reconstruct.self_s": "s",
    "golden.compare.s": "s",
    "golden.self_s": "s",
    "size.order": "count",
    "size.n": "count",
    "size.points": "count",
    "size.peak_num_bits": "bits",
    "size.peak_den_bits": "bits",
    "trace.solve_s.p50": "s",
    "trace.overhead_s": "s",
    "fail_frac": "ratio",
    "host.wall_s.p50": "s",
    "host.calibration_s": "s",
}


def measure_setup(cfg_path: Path, repeats: int) -> tuple[list[float], list[float]]:
    """(scaled, unscaled) times from spawning a fresh process until it has
    imported kzrat.cli and loaded the config.

    Each probe is scaled like a solve, by the calibrations just before and
    after it.  The probes may write and read bytecode caches, as an
    installed program does, whatever PYTHONDONTWRITEBYTECODE says in the
    caller's environment.
    """
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(cfg_path)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    scaled, walls, calibrations = [], [], [calibration_s()]
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(probe, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        calibrations.append(calibration_s())
        scaled.append(wall * REFERENCE_CALIBRATION_S / statistics.mean(calibrations[-2:]))
        walls.append(wall)
    return scaled, walls


def timed_solve(argv: list[str]) -> tuple[float, object]:
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = kzrat.cli.main(argv)
    except Exception as exc:  # a traceback is a failed solve, not a crashed benchmark
        code = f"exception {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, code


def calibration_s() -> float:
    """Wall time of a fixed stdlib Fraction workload that shares no code with kzrat."""
    t0 = time.perf_counter()
    for k in range(1, CALIBRATION_TERMS):
        Fraction(k % 7 + 1, k % 5 + 2) * Fraction(3, k % 11 + 1) - Fraction(1, k % 13 + 1)
    return time.perf_counter() - t0


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten solves
    beyond it; the median when there are too few solves for that."""
    ordered = sorted(times)
    n = len(ordered)
    pct = 100 * (n - 10) / n
    if pct <= 50:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], pct


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[workload]
    cfg = make_config(w, seed)
    cfg_path = write_config(cfg, OUT / f"{w.name}.config.json")
    report_path = OUT / f"{w.name}.report.json"
    argv = [w.command[0], "--config", str(cfg_path), "--json", str(report_path), *w.command[1:]]
    check = report_check(w.command)
    pinned = gate.pinned_digests()[w.name] if cfg == make_config(w, DEFAULT_SEED) else None

    setup_times: list[float] = []
    setup_walls: list[float] = []
    if not trace:
        measure_setup(cfg_path, 1)  # fills the bytecode caches; not counted
        setup_times, setup_walls = measure_setup(cfg_path, SETUP_REPEATS)

    tracer = Tracer() if trace else None
    with tracer.solve(CHECK_SOLVE) if tracer else contextlib.nullcontext():
        expected, run_problems = gate.library_check(cfg)

    times: dict[bool, list[float]] = {False: [], True: []}  # scaled, by traced
    walls, calibrations, layer_rows = [], [calibration_s()], []
    failed = attempted = 0
    first = None
    loop_start = time.perf_counter()
    while True:
        traced = tracer is not None and attempted % 2 == 1
        if attempted >= (2 if trace else 1) and (
            time.perf_counter() - loop_start + walls[-1] + calibrations[-1] > seconds
        ):
            break
        report_path.unlink(missing_ok=True)
        with tracer.solve(attempted) if traced else contextlib.nullcontext():
            wall, code = timed_solve(argv)
        calibrations.append(calibration_s())
        scale = REFERENCE_CALIBRATION_S / statistics.mean(calibrations[-2:])
        walls.append(wall)
        times[traced].append(wall * scale)
        report = report_path.read_bytes() if report_path.exists() else b""
        problems = gate.report_problems(check, code, report)
        if first is None:
            first = report
            if not problems:
                problems += gate.series_problems(expected, report)
            if pinned is not None and gate.digest(report) != pinned:
                problems.append("report digest differs from the pinned digest")
        elif report != first:
            problems.append("report differs from the first report of this run")
        if traced:
            row = tracer.layer_metrics(attempted)
            layer_rows.append({k: v * scale if PER_LAYER_UNITS.get(k) == "s" else v for k, v in row.items()})
        if problems:
            failed += 1
            print(f"solve {attempted} failed: {'; '.join(problems)}", file=sys.stderr)
        attempted += 1
    if not trace:
        scaled, unscaled = measure_setup(cfg_path, SETUP_REPEATS)
        setup_times += scaled
        setup_walls += unscaled
    for problem in run_problems:
        print(f"library check failed: {problem}", file=sys.stderr)

    if not trace:
        value, pct = tail(times[False])
        print(f"solve_s.tail is p{pct:.1f} of {len(times[False])} solves")
        print(f"unscaled wall time p50 {statistics.median(walls)} s; "
              f"calibration p50 {statistics.median(calibrations)} s; "
              f"unscaled setup {statistics.median(setup_walls)} s")
        metrics = {
            "setup_s": statistics.median(setup_times),
            "solve_s.p50": statistics.median(times[False]),
            "solve_s.tail": value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        tracer.write_jsonl(OUT / f"{w.name}.spans.jsonl.gz")
        metrics = median_metrics(layer_rows)
        metrics["frobenius.verify_recursion.s"] = tracer.layer_metrics(CHECK_SOLVE)[
            "frobenius.verify_recursion.s"
        ] * REFERENCE_CALIBRATION_S / calibrations[0]
        metrics.update(gate.sizes(cfg, first))
        metrics["cli.report_bytes"] = len(first)
        metrics["trace.solve_s.p50"] = statistics.median(times[True])
        metrics["trace.overhead_s"] = metrics["trace.solve_s.p50"] - statistics.median(times[False])
        metrics["fail_frac"] = failed / attempted
        metrics["host.wall_s.p50"] = statistics.median(walls[::2])  # untraced solves
        metrics["host.calibration_s"] = statistics.median(calibrations)
        units = PER_LAYER_UNITS
    return {
        "correct": failed == 0 and not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
