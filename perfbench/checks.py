"""Output checks for the CLI calls a workload makes.

Every check reads the CSV or manifest a CLI call wrote and applies a
tolerance that hierlab's own test suite already fixes.  One check is one
operation: it passes or fails, and a check whose inputs are missing fails.

The N-body ``moment1_drift < 1e-8`` bound of the unit test is not applied:
it belongs to a different configuration.  At N = 5, dt = 2e-3 the drift is
second-order splitting error of a few 1e-8.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

# Absolute tolerance on a marginal's quadrature trace (tests/test_harness.py).
TRACE_TOL = 1e-10


def read_csv(path: Path) -> list[tuple[str, float]]:
    """(metric, value) per row, in file order."""
    with open(path, newline="") as fh:
        return [(row["metric"], float(row["value"])) for row in csv.DictReader(fh)]


def _values(rows, metric: str) -> list[float]:
    vals = [v for m, v in rows if m == metric]
    if not vals:
        raise ValueError(f"no {metric} row")
    return vals


def _matching(rows, pattern: str) -> list[tuple[str, float]]:
    hits = [(m, v) for m, v in rows if re.fullmatch(pattern, m)]
    if not hits:
        raise ValueError(f"no row matches {pattern}")
    return hits


def _all_below(rows, pattern: str, bound: float) -> str:
    hits = _matching(rows, pattern)
    for metric, value in hits:
        if not value < bound:  # NaN fails too
            raise ValueError(f"{metric} = {value:.3e} not < {bound:g}")
    return f"max {max(v for _, v in hits):.3e} < {bound:g}"


def _all_true(rows, metric: str) -> str:
    vals = _values(rows, metric)
    if not all(v == 1.0 for v in vals):
        raise ValueError(f"{metric} false in {vals.count(0.0)} of {len(vals)} rows")
    return f"{len(vals)} rows true"


def _picard_converged(rows, manifest, outdir):
    if _values(rows, "converged") != [1.0]:
        raise ValueError("picard did not converge")
    return "converged"


def _picard_ratios(rows, manifest, outdir):
    ratios = [v for m, v in rows if m.endswith("contraction_ratio")]
    if not all(r < 1.0 for r in ratios):
        raise ValueError(f"contraction ratios {ratios} not all < 1")
    return f"{len(ratios)} ratios < 1"


def _duhamel_exponents(rows, manifest, outdir):
    """The j-th iterate is O(T^j).  The lower edge j/2 - 0.6 is the test
    suite's.  Its upper edge j + 0.1 holds for the test's data but not for
    every seed: over the CLI's horizons 0.01-0.04 the T^(j+1) term lifts 4 of
    40 seeds above it (j = 2 fits up to 2.21), and seed 22's 2.13 there
    becomes 2.04 over horizons four times shorter.  The upper edge here is
    j + 0.5, halfway to the j + 1 that an iterate missing its leading order
    would fit."""
    j_max = manifest["config"]["j_max"]
    parts = []
    for j in range(1, j_max + 1):
        (slope,) = _values(rows, f"duh{j}_fitted_exponent")
        lo, hi = j / 2 - 0.6, j + 0.5
        if not lo <= slope <= hi:
            raise ValueError(f"duh{j} exponent {slope:.4f} outside [{lo}, {hi}]")
        parts.append(f"j={j}: {slope:.4f}")
    return ", ".join(parts)


def _nbody_marginal_traces(rows, manifest, outdir):
    k_max = manifest["config"]["k_marginals"]
    for k in range(1, k_max + 1):
        (tr,) = _values(rows, f"marginal_trace_k{k}")
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"marginal_trace_k{k} = {tr!r} not 1 +- {TRACE_TOL}")
    return f"k=1..{k_max} within {TRACE_TOL}"


def _stored_kernel_traces(rows, manifest, outdir):
    """Read every dumped kernel back and match its quadrature trace against
    what the run recorded: the manifest's per-step traces for hierarchy
    dumps, the CSV's marginal_trace_k for N-body dumps."""
    from hierlab.marginals import Marginal, trace
    from hierlab.storage import read_marginal

    results = manifest["results"]
    files = results["files"]
    if not files:
        raise ValueError("run dumped no kernel files")
    worst = 0.0
    for name in files:
        grid, k, kernel = read_marginal(outdir / name)
        got = trace(Marginal(grid, k, kernel)).real
        step = re.search(r"_k(\d+)_step(\d+)\.hlab$", name)
        if step:
            if int(step.group(1)) != k:
                raise ValueError(f"{name} holds level {k}")
            want = results["traces"][str(k)][int(step.group(2))]
        else:
            (want,) = _values(rows, f"marginal_trace_k{k}")
        worst = max(worst, abs(got - want))
        if not abs(got - want) <= TRACE_TOL:
            raise ValueError(f"{name}: trace {got!r} != recorded {want!r}")
    return f"{len(files)} files, max diff {worst:.1e}"


def _row_check(fn, *args):
    return lambda rows, manifest, outdir: fn(rows, *args)


# CLI command -> [(check name, check)].  A check returns a short detail
# string and raises on failure.
CHECKS = {
    "picard": [
        ("converged", _picard_converged),
        ("residual", _row_check(_all_below, "residual", 1e-7)),
        ("contraction_ratios", _picard_ratios),
    ],
    "duhamel-check": [
        ("fitted_exponents", _duhamel_exponents),
    ],
    "simulate-nbody": [
        ("norm_drift", _row_check(_all_below, "norm_drift", 1e-10)),
        ("marginal_traces", _nbody_marginal_traces),
        ("storage_read", _stored_kernel_traces),
    ],
    "conservation": [
        ("functional_drift", _row_check(_all_below, r"functional_m\d+_drift", 1e-7)),
        ("admissibility_defect", _row_check(_all_below, r"admissibility_defect.*", 1e-10)),
        ("psd_defect", _row_check(_all_below, r"psd_defect_k\d+", 1e-10)),
        ("norm_bound_satisfied", _row_check(_all_true, "norm_bound_satisfied")),
        ("window_within_bound", _row_check(_all_true, "window_within_bound")),
    ],
    "simulate-bbgky": [
        ("trace_drift", _row_check(_all_below, r"trace_drift_k\d+", 1e-10)),
        ("storage_read", _stored_kernel_traces),
    ],
}


def run_checks(command: str, outdir: Path) -> list[dict]:
    """Apply every check of ``command`` to the outputs in ``outdir``."""
    stem = command.replace("-", "_")
    results = []
    try:
        rows = read_csv(outdir / f"{stem}.csv")
        manifest = json.loads((outdir / f"{stem}_manifest.json").read_text())
    except (OSError, ValueError, KeyError) as exc:
        rows = manifest = None
        missing = f"outputs unreadable: {exc}"
    for name, check in CHECKS[command]:
        if rows is None:
            results.append({"check": f"{command}.{name}", "ok": False,
                            "detail": missing})
            continue
        try:
            detail, ok = check(rows, manifest, outdir), True
        except (ValueError, KeyError, IndexError, OSError) as exc:
            detail, ok = f"{type(exc).__name__}: {exc}", False
        results.append({"check": f"{command}.{name}", "ok": ok, "detail": detail})
    return results
