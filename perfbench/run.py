"""hierlab benchmark: time to a checked result for fixed CLI workloads.

    python3 perfbench/run.py --workload series --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; hierlab is imported from its ``src``.
Each iteration of a workload is a fresh process (workload.py), started from
this single-threaded process, which never imports numpy.  With --trace 0
the run repeats iterations for about --seconds and reports the end-to-end
metrics as medians.  With --trace 1 it makes one untraced and one traced
iteration and reports the per-layer metrics.  The last line of standard
output is one JSON object; a fuller report, with the provenance and every
sample, goes to perfbench/out/<workload>/report.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CHECKS  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workload import SIZES, WORKLOADS  # noqa: E402

END_TO_END = [("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# Set-up samples per run, besides the one every iteration gives.
SETUP_SAMPLES = 5
# Whole run, spawn to last exit; stays under the 180 s a run may take.
RUN_LIMIT_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts workload.py children for one workload and keeps their logs."""

    def __init__(self, root: Path, args, outdir: Path):
        self.root, self.args, self.outdir = root, args, outdir
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(root / "src") + (
            os.pathsep + pythonpath if pythonpath else ""))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0

    def spawn(self, *flags: str) -> dict:
        """Run one child and return its result, with the child's set-up time
        (start to first CLI call) and wall time (start to exit) added."""
        self.count += 1
        tag = f"{self.count:03d}"
        result_path = self.outdir / f"child-{tag}.json"
        rundir = self.outdir / "run"
        shutil.rmtree(rundir, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "workload.py"), "--root", str(self.root),
               "--workload", self.args.workload, "--size", self.args.size,
               "--seed", str(self.args.seed), "--outdir", str(rundir),
               "--result", str(result_path), *flags]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise ChildFailed("run time limit reached")
        with open(self.outdir / f"child-{tag}.log", "w") as log:
            t_spawn = time.monotonic()
            try:
                proc = subprocess.run(cmd, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=timeout)
            except subprocess.TimeoutExpired:  # run() has killed and reaped it
                raise ChildFailed(f"child {tag} timed out after {timeout:.0f} s")
            wall = time.monotonic() - t_spawn
        if proc.returncode != 0 or not result_path.exists():
            log_text = (self.outdir / f"child-{tag}.log").read_text()[-2000:]
            raise ChildFailed(f"child {tag} exited {proc.returncode}:\n{log_text}")
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["t_first"] - t_spawn
        result["wall_s"] = wall
        return result


def ops_per_iteration(args) -> int:
    calls = SIZES[args.size][args.workload]
    return sum(1 + len(CHECKS[argv[0]]) for argv in calls)


def tally(result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, failure lines) over one iteration's CLI calls and
    output checks."""
    attempted, failed, lines = 0, 0, []
    for call in result["calls"]:
        attempted += 1
        if call["error"] is not None:
            failed += 1
            lines.append(f"call {call['argv'][0]} raised: "
                         f"{call['error'].strip().splitlines()[-1]}")
    for check in result["checks"]:
        attempted += 1
        if not check["ok"]:
            failed += 1
            lines.append(f"check {check['check']} failed: {check['detail']}")
    return attempted, failed, lines


def machine_provenance(root: Path, seed: int) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git = {"commit": None, "dirty": None}
    if (root / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        status = subprocess.run(["git", "-C", str(root), "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True)
        if head.returncode == 0:
            git = {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "hierlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "ram_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "HLAB_BUDGET": os.environ.get("HLAB_BUDGET"),
        "git": git,
        "hierlab_source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def measure(runner: Runner, seconds: float, iterations: list[dict]) -> None:
    """Untraced iterations until the next one would end more than half an
    iteration after ``seconds``, so a run lasts about ``seconds``."""
    walls = []
    t_start = time.monotonic()
    while True:
        result = runner.spawn()
        iterations.append(result)
        walls.append(result["wall_s"])
        if time.monotonic() - t_start + statistics.median(walls) / 2 > seconds:
            return


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny: n = 8 call sequences for the self-tests")
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "hierlab" / "cli.py").is_file():
        print(f"no hierlab sources under {root / 'src'}; run from the root of "
              f"a hierlab checkout", file=sys.stderr)
        return 2
    outdir = HERE / "out" / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    runner = Runner(root, args, outdir)
    report = {"workload": args.workload, "size": args.size, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": machine_provenance(root, args.seed)}

    # The first child is not timed: it compiles bytecode and warms the file
    # cache, which a user pays once, not on every command.
    try:
        warm = runner.spawn("--setup-only", "--provenance")
        report["provenance"].update(warm["provenance"])
        setups = [runner.spawn("--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]
    except ChildFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 3
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))

    iterations, lost = [], 0
    try:
        if args.trace:
            iterations.append(runner.spawn())
            iterations.append(runner.spawn("--trace"))
        else:
            measure(runner, args.seconds, iterations)
    except ChildFailed as exc:
        print(f"iteration failed: {exc}", file=sys.stderr)
        lost = 1

    attempted = failed = lost * ops_per_iteration(args)
    failures = []
    for result in iterations:
        a, f, lines = tally(result)
        attempted, failed = attempted + a, failed + f
        failures.extend(lines)
    for line in failures:
        print(line, file=sys.stderr)
    for i, result in enumerate(iterations):
        print(f"iteration {i}: solve {result['solve_s']:.3f} s, set-up "
              f"{result['setup_s']:.3f} s, peak RSS {result['peak_rss_mb']:.1f} MB"
              + (", traced" if "layers" in result else ""))

    untraced = [r for r in iterations if "layers" not in r]
    traced = [r for r in iterations if "layers" in r]
    values, units = {}, {}
    if args.trace and untraced and traced:
        base, tr = untraced[0], traced[0]
        values = dict(tr["layers"])
        values["run.cpu_s"] = base["cpu_s"]
        values["run.cpu_util"] = base["cpu_s"] / base["solve_s"]
        values["run.trace_overhead_s"] = tr["solve_s"] - base["solve_s"]
        units = dict(PER_LAYER)
    elif not args.trace and untraced:
        setups += [r["setup_s"] for r in untraced]
        values = {
            "solve_s": statistics.median(r["solve_s"] for r in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        units = dict(END_TO_END)
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    report.update(setup_samples=setups, iterations=iterations, metrics=metrics,
                  attempted=attempted, failed=failed, failures=failures)
    (outdir / "report.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
