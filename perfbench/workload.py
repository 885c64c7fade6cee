"""One workload iteration in a fresh process.

run.py starts this script once per iteration, so every iteration pays
interpreter start and ``import hierlab.cli`` the way a user's command does.
It drives the workload's CLI calls in-process through ``hierlab.cli.main``,
times them, checks their outputs and writes one JSON result file.

    python3 perfbench/workload.py --root CHECKOUT --workload series --seed 7 \
        --outdir DIR --result FILE [--trace] [--setup-only [--provenance]]

``--setup-only`` stops just before the first CLI call: the set-up sample.
``--trace`` records spans around every layer (tracer.py) and adds the
per-layer figures to the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

# Why each workload exists is written up in NOTES.md.  Sizes are fixed: the
# benchmark's seed is the only input that varies between runs.
WORKLOADS = {
    "series": [
        ["picard", "--n", "16", "--big-n", "16"],
        ["duhamel-check", "--n", "8", "--j-max", "2"],
    ],
    "nbody": [
        ["simulate-nbody", "--n", "16", "--big-n", "5", "--t-final", "0.1",
         "--dt", "2e-3", "--k-marginals", "2"],
    ],
    "stepping": [
        ["conservation"],
        ["simulate-bbgky", "--t-final", "0.05"],
    ],
}

# The same call sequences at n = 8 and short horizons, for the self-tests.
TINY = {
    "series": [
        ["picard", "--n", "8", "--big-n", "16"],
        ["duhamel-check", "--n", "8", "--j-max", "1"],
    ],
    "nbody": [
        ["simulate-nbody", "--n", "8", "--big-n", "3", "--t-final", "0.02",
         "--dt", "2e-3", "--k-marginals", "2"],
    ],
    "stepping": [
        ["conservation", "--n", "8", "--t-final", "0.02", "--windows", "1"],
        ["simulate-bbgky", "--n", "8", "--t-final", "0.005"],
    ],
}

SIZES = {"full": WORKLOADS, "tiny": TINY}

FFT_MODULES = ("numpy.fft", "scipy.fft", "pyfftw")


def cli_calls(workload: str, size: str, seed: int, outdir: Path) -> list[list[str]]:
    """The workload's argv lists, each with the seed and, as its last
    argument, its own outdir."""
    return [argv + ["--seed", str(seed), "--outdir", str(outdir / f"{i}-{argv[0]}")]
            for i, argv in enumerate(SIZES[size][workload])]


def provenance(root: Path) -> dict:
    """Versions and libraries this process computes with."""
    import importlib.metadata
    import re

    import numpy as np

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    # The FFT modules hierlab's sources call; each iteration also records
    # the ones loaded once its calls have run.
    called = set()
    for path in sorted((root / "src" / "hierlab").glob("*.py")):
        text = path.read_text()
        for pattern, module in ((r"\bnp\.fft\.|\bnumpy\.fft\b", "numpy.fft"),
                                (r"\bscipy\.fft\b", "scipy.fft"),
                                (r"\bpyfftw\b", "pyfftw")):
            if re.search(pattern, text):
                called.add(module)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "fft_modules_called": sorted(called),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--provenance", action="store_true")
    args = parser.parse_args()

    import hierlab.cli
    src = (args.root / "src").resolve()
    if src not in Path(hierlab.cli.__file__).resolve().parents:
        print(f"hierlab imported from {hierlab.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    calls = cli_calls(args.workload, args.size, args.seed, args.outdir)
    args.outdir.mkdir(parents=True, exist_ok=True)
    rec = None
    if args.trace:
        import tracer
        rec = tracer.Recorder()
        tracer.install(rec)
    t_first = time.monotonic()
    if args.setup_only:
        result = {"t_first": t_first}
        if args.provenance:
            result["provenance"] = provenance(args.root)
        args.result.write_text(json.dumps(result))
        return 0

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    records = []
    for i, argv in enumerate(calls):
        error = None
        t0 = time.monotonic()
        try:
            if rec is None:
                hierlab.cli.main(argv)
            else:
                rec.call, rec.active = i, True
                with rec.span(f"cli.{argv[0]}"):
                    hierlab.cli.main(argv)
        except (Exception, SystemExit):  # a failed call is counted, not fatal
            error = traceback.format_exc()
        finally:
            if rec is not None:
                rec.active = False
        records.append({"argv": argv, "wall_s": time.monotonic() - t0,
                        "error": error})
    t_last = time.monotonic()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "t_first": t_first,
        "solve_s": t_last - t_first,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime)
                 + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
        "fft_modules_loaded": [m for m in FFT_MODULES if m in sys.modules],
        "calls": records,
    }

    import checks
    result["checks"] = [c for argv in calls
                        for c in checks.run_checks(argv[0], Path(argv[-1]))]
    if rec is not None:
        import tracer
        spans = rec.spans
        tracer.write_spans(args.outdir / "spans.csv", spans)
        sweeps = 0
        for argv, record in zip(calls, records):
            if argv[0] == "picard" and record["error"] is None:
                sweeps += sum(v for m, v in checks.read_csv(Path(argv[-1]) / "picard.csv")
                              if m == "iterations")
        extra = {"hierarchy_evolution.picard_fixed_point.sweeps": sweeps}
        result["layers"] = tracer.layer_metrics(tracer.aggregate(spans), extra)
        result["call_self_sums"] = {str(call): list(v) for call, v
                                    in tracer.call_self_sums(spans).items()}
        result["spans"] = len(spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
