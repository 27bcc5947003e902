"""Self-test of the benchmark, kept out of the tier-1 suite.

Usage: python3 perfbench/selftest.py

Runs every config in configs/ and every workload at a small order once
through the output gate (numeric configs with `verify`, symbolic ones with
`series --golden`), then one short benchmark run per mode, and checks that
its last line names every metric in BENCHMARK.json with its unit.  Prints
one PASS or FAIL line per check and exits 1 if any failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import kzrat.cli  # noqa: E402

import gate  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_config, report_check, write_config  # noqa: E402


def gate_once(command: tuple[str, ...], cfg: dict) -> list[str]:
    cfg_path = write_config(cfg, OUT / "selftest.config.json")
    report_path = OUT / "selftest.report.json"
    report_path.unlink(missing_ok=True)
    argv = [command[0], "--config", str(cfg_path), "--json", str(report_path), *command[1:]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = kzrat.cli.main(argv)
    report = report_path.read_bytes() if report_path.exists() else b""
    problems = gate.report_problems(report_check(command), code, report)
    if not problems:
        expected, library = gate.library_check(cfg)
        problems += library + gate.series_problems(expected, report)
    return problems


def metric_problems(trace: int, spec: list[dict]) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "large-coupling-series",
         "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        return [f"run.py exited with {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("run reported failed solves")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{name} has a non-numeric value")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    checks = []
    for path in sorted((ROOT / "configs").glob("*.json")):
        cfg = json.loads(path.read_text(encoding="utf-8"))
        command = ("series", "--golden") if cfg["mode"] == "symbolic" else ("verify",)
        checks.append((f"config {path.name}", lambda c=command, g=cfg: gate_once(c, g)))
    for w in WORKLOADS.values():
        cfg = make_config(w, DEFAULT_SEED, order=w.small_order)
        checks.append((f"workload {w.name} at order {w.small_order}", lambda w=w, c=cfg: gate_once(w.command, c)))
    checks.append((
        "BENCHMARK.json workloads",
        lambda: [] if [x["name"] for x in spec["workloads"]] == list(WORKLOADS) else ["names differ"],
    ))
    checks.append(("end-to-end metrics printed", lambda: metric_problems(0, spec["end_to_end"])))
    checks.append(("per-layer metrics printed", lambda: metric_problems(1, spec["per_layer"])))

    failed = 0
    for label, check in checks:
        problems = check()
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {label}" + "".join(f"\n  {p}" for p in problems))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
