"""Self-tests of the benchmark at a tiny configuration (n = 8).

    python3 perfbench/selftest.py

Run from the root of a hierlab checkout.  Exits 0 when every test passes.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
sys.path[:0] = [str(HERE), str(ROOT / "src")]  # the storage check reads with hierlab

import run  # noqa: E402
from checks import run_checks  # noqa: E402
from workload import TINY  # noqa: E402

SCRATCH = HERE / "out" / "selftest"

# One tolerance-breaking value per CLI command: (metric, bad value, check).
BREAKERS = {
    "picard": ("residual", "1.0", "picard.residual"),
    "duhamel-check": ("duh1_fitted_exponent", "3.5", "duhamel-check.fitted_exponents"),
    "simulate-nbody": ("norm_drift", "1e-6", "simulate-nbody.norm_drift"),
    "conservation": ("psd_defect_k2", "1e-3", "conservation.psd_defect"),
    "simulate-bbgky": ("trace_drift_k1", "nan", "simulate-bbgky.trace_drift"),
}


class Failure(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Failure(message)


def bench(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    expect(proc.returncode == 0, f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"result keys {sorted(result)}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1
           and isinstance(result["failed"], int), "attempted/failed not counts")
    return result


def test_metrics_emitted(declared: dict) -> None:
    for workload in TINY:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = result_line(bench(workload, trace))
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: {result['failed']} failed operations")
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace={trace}: metrics differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            for name, m in result["metrics"].items():
                expect(isinstance(m["value"], (int, float)), f"{name} not a number")
            if trace:
                check_self_times(workload)
        print(f"ok   {workload}: every metric emitted with its unit")


def check_self_times(workload: str) -> None:
    report = json.loads((HERE / "out" / workload / "report.json").read_text())
    traced = [it for it in report["iterations"] if "layers" in it]
    expect(len(traced) == 1, "no traced iteration")
    sums = traced[0]["call_self_sums"]
    expect(len(sums) == len(TINY[workload]), f"spans cover {len(sums)} calls")
    for call, (self_sum, wall) in sums.items():
        expect(0.0 < self_sum <= wall + 1e-9,
               f"{workload} call {call}: self times {self_sum} vs wall {wall}")
    print(f"ok   {workload}: layer self times of each call <= its wall time")


def test_checker_catches_failures() -> None:
    for workload, calls in TINY.items():
        rundir = HERE / "out" / workload / "run"
        for i, argv in enumerate(calls):
            command = argv[0]
            source = rundir / f"{i}-{command}"
            broken = SCRATCH / f"{i}-{command}"
            shutil.rmtree(broken, ignore_errors=True)
            shutil.copytree(source, broken)
            expect(all(c["ok"] for c in run_checks(command, broken)),
                   f"{command}: checks fail on the untouched copy")
            metric, bad, check = BREAKERS[command]
            csv_path = broken / f"{command.replace('-', '_')}.csv"
            with open(csv_path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            hits = [r for r in rows if r["metric"] == metric]
            expect(bool(hits), f"{command}: no {metric} row to break")
            hits[0]["value"] = bad
            with open(csv_path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
            results = run_checks(command, broken)
            failed = [c["check"] for c in results if not c["ok"]]
            expect(failed == [check], f"{command}: {metric}={bad} failed {failed}")
            calls_ok = [{"argv": argv, "error": None}]
            attempted, n_failed, _ = run.tally({"calls": calls_ok, "checks": results})
            expect(n_failed == 1 and attempted == 1 + len(results),
                   f"{command}: tally gave {n_failed} of {attempted}")
            print(f"ok   {command}: {metric} = {bad} counts one failed operation")


def test_refuses_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "series",
                           "--seed", "7", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok   run.py refuses a directory without hierlab sources")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        test_metrics_emitted(declared)
        test_checker_catches_failures()
        test_refuses_bare_directory()
    except Failure as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
