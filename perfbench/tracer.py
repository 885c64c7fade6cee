"""Outside-in span recorder for hierlab's layers.

The recorder wraps the public functions of each layer module, plus the few
public methods in METHODS, and swaps the wrapper into every ``hierlab.*``
namespace that holds the original: modules import each other's functions by
name, and the harness reaches experiments and potential profiles through the
``EXPERIMENTS`` and ``PROFILES`` dicts.  No hierlab source changes.

Each span records its name, start, end, parent span and the CLI call it
belongs to.  Spans stay in memory; the caller writes them out when the run
ends.  Self time is a span's duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

LAYERS = ("grid", "marginals", "interactions", "hierarchy_evolution", "nbody",
          "definetti", "storage", "harness", "budget")

# (module, class, method) -> span name.  The three Marginal operators share
# one span name: elementwise kernel arithmetic.
METHODS = {
    ("hierarchy_evolution", "MixtureClosure", "top_collision"):
        "hierarchy_evolution.MixtureClosure.top_collision",
    ("marginals", "Marginal", "__add__"): "marginals.Marginal.arith",
    ("marginals", "Marginal", "__sub__"): "marginals.Marginal.arith",
    ("marginals", "Marginal", "__mul__"): "marginals.Marginal.arith",
    ("marginals", "Marginal", "__rmul__"): "marginals.Marginal.arith",
    ("budget", "TensorBudget", "check_elements"):
        "budget.TensorBudget.check_elements",
}

COMPLEX_BYTES = 16  # complex128, the only dtype hierlab stores


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _evolve_steps(args, kwargs):
    config = _arg(args, kwargs, 1, "config")
    return round(config.t_final / config.dt)


# Span attributes read from the call's arguments, never from its work:
# tensor rank and entry count, the budget's requested count, step counts.
ATTRS = {
    "grid.apply_multiplier": lambda a, kw: (_arg(a, kw, 0, "f").rank,
                                            _arg(a, kw, 0, "f").data.size),
    "storage.write_field": lambda a, kw: _arg(a, kw, 1, "f").data.size,
    "budget.TensorBudget.check_elements": lambda a, kw: _arg(a, kw, 1, "count"),
    "hierarchy_evolution.gp_evolve": _evolve_steps,
    "hierarchy_evolution.bbgky_evolve": _evolve_steps,
    "nbody.nbody_evolve": lambda a, kw: round(_arg(a, kw, 2, "t_final")
                                              / _arg(a, kw, 1, "dt")),
}

# Every per-layer metric, in report order, with its unit.  The suffix names
# the statistic; see layer_metrics.  Entry and byte figures are computed from
# array sizes, not measured, and their units say so.
PER_LAYER = [
    ("grid.apply_multiplier.calls", "count"),
    ("grid.apply_multiplier.self_s", "s"),
    ("grid.apply_multiplier.mentries", "Mentry_computed"),
    *[(f"grid.apply_multiplier.r{r}.{stat}", unit)
      for r in (1, 2, 4, 6) for stat, unit in (("calls", "count"), ("self_s", "s"))],
    ("grid.free_propagate.calls", "count"),
    ("grid.bessel_multiply.calls", "count"),
    ("marginals.free_propagate_marginal.calls", "count"),
    ("marginals.sobolev_norm.calls", "count"),
    ("marginals.sobolev_norm.total_s", "s"),
    ("marginals.hierarchy_norm.calls", "count"),
    ("marginals.partial_trace_at.calls", "count"),
    ("marginals.partial_trace_at.self_s", "s"),
    ("marginals.psd_defect.calls", "count"),
    ("marginals.psd_defect.self_s", "s"),
    ("marginals.trace_sobolev_norm.calls", "count"),
    ("marginals.trace_sobolev_norm.self_s", "s"),
    ("marginals.pure_product_marginal.calls", "count"),
    ("marginals.pure_product_marginal.self_s", "s"),
    ("marginals.Marginal.arith.calls", "count"),
    ("marginals.Marginal.arith.self_s", "s"),
    ("marginals.zero_marginal.calls", "count"),
    ("interactions.potential_difference_tensor.calls", "count"),
    ("interactions.potential_difference_tensor.self_s", "s"),
    ("interactions.bbgky_main_level.calls", "count"),
    ("interactions.bbgky_main_level.total_s", "s"),
    ("interactions.bbgky_error_level.calls", "count"),
    ("interactions.bbgky_error_level.total_s", "s"),
    ("interactions.bbgky_rhs.calls", "count"),
    ("interactions.bbgky_rhs.total_s", "s"),
    ("interactions.gp_collision_level.calls", "count"),
    ("interactions.gp_collision_level.self_s", "s"),
    ("interactions.realize_potential.calls", "count"),
    ("interactions.realize_potential.self_s", "s"),
    ("hierarchy_evolution.picard_fixed_point.total_s", "s"),
    ("hierarchy_evolution.picard_fixed_point.self_s", "s"),
    ("hierarchy_evolution.picard_fixed_point.sweeps", "count"),
    ("hierarchy_evolution.duhamel_iterate.calls", "count"),
    ("hierarchy_evolution.duhamel_iterate.total_s", "s"),
    ("hierarchy_evolution.duhamel_iterate.self_s", "s"),
    ("hierarchy_evolution.free_flow.calls", "count"),
    ("hierarchy_evolution.free_flow_series.total_s", "s"),
    ("hierarchy_evolution.gp_evolve.total_s", "s"),
    ("hierarchy_evolution.gp_evolve.self_s", "s"),
    ("hierarchy_evolution.gp_evolve.step_ms", "ms"),
    ("hierarchy_evolution.bbgky_evolve.total_s", "s"),
    ("hierarchy_evolution.bbgky_evolve.self_s", "s"),
    ("hierarchy_evolution.bbgky_evolve.step_ms", "ms"),
    ("hierarchy_evolution.MixtureClosure.top_collision.calls", "count"),
    ("hierarchy_evolution.MixtureClosure.top_collision.self_s", "s"),
    ("nbody.nbody_evolve.total_s", "s"),
    ("nbody.nbody_evolve.self_s", "s"),
    ("nbody.nbody_evolve.step_ms", "ms"),
    ("nbody.hamiltonian_apply.calls", "count"),
    ("nbody.hamiltonian_apply.self_s", "s"),
    ("nbody.extract_marginal.calls", "count"),
    ("nbody.extract_marginal.self_s", "s"),
    ("definetti.nls_evolve.calls", "count"),
    ("definetti.nls_evolve.self_s", "s"),
    ("definetti.flow_mixture.calls", "count"),
    ("definetti.flow_mixture.total_s", "s"),
    ("definetti.gwp_window_chain.total_s", "s"),
    ("storage.write_field.calls", "count"),
    ("storage.write_field.self_s", "s"),
    ("storage.write_field.mbytes", "MB_computed"),
    ("harness.run_experiment.calls", "count"),
    ("harness.run_experiment.self_s", "s"),
    ("budget.TensorBudget.check_elements.calls", "count"),
    ("budget.TensorBudget.check_elements.max_entries", "entries"),
    ("run.cpu_s", "s"),
    ("run.cpu_util", "ratio"),
    ("run.trace_overhead_s", "s"),
]


class Recorder:
    """Holds the spans of one traced run in memory."""

    def __init__(self):
        # (name, start, end, parent index or -1, CLI call index, attribute)
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.call: int | None = None
        self.active = False

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, t0, t1, info) -> None:
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, parent, self.call, info)

    @contextlib.contextmanager
    def span(self, name: str):
        idx, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, t0, time.perf_counter(), None)

    def wrap(self, name: str, fn, attr=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            info = attr(args, kwargs) if attr else None
            idx, parent = self._open()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, parent, name, t0, clock(), info)
        return traced


def install(rec: Recorder) -> None:
    """Wrap every layer's public functions and the METHODS in place.
    hierlab must already be imported."""
    modules = {name: mod for name, mod in list(sys.modules.items())
               if name == "hierlab" or name.startswith("hierlab.")}
    wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        mod = modules[f"hierlab.{layer}"]
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            wrapped[id(obj)] = (obj, rec.wrap(name, obj, ATTRS.get(name)))
    for (layer, cls, meth), name in METHODS.items():
        klass = getattr(modules[f"hierlab.{layer}"], cls)
        fn = klass.__dict__[meth]
        if id(fn) not in wrapped:
            wrapped[id(fn)] = (fn, rec.wrap(name, fn, ATTRS.get(name)))
        setattr(klass, meth, wrapped[id(fn)][1])

    def swap(obj):
        hit = wrapped.get(id(obj))
        return hit[1] if hit is not None and hit[0] is obj else None

    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, dict) and attr != "__builtins__":
                for key, val in list(obj.items()):
                    new = swap(val)
                    if new is not None:
                        obj[key] = new
            else:
                new = swap(obj)
                if new is not None:
                    setattr(mod, attr, new)


def _self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [t1 - t0 for _, t0, t1, _, _, _ in spans]
    for _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= t1 - t0
    return own


def _bucket() -> dict:
    return {"calls": 0, "self_s": 0.0, "total_s": 0.0, "attr_sum": 0, "attr_max": 0}


def aggregate(spans) -> dict[str, dict]:
    """Per span name: calls, self_s, total_s (outermost spans of that name
    only), and the sum / max of the recorded attribute.

    apply_multiplier spans are also bucketed by tensor rank."""
    own = _self_times(spans)
    stats: dict[str, dict] = {}
    for i, (name, t0, t1, parent, _, info) in enumerate(spans):
        dur = t1 - t0
        up, outermost = parent, True
        while up >= 0:
            if spans[up][0] == name:
                outermost = False
                break
            up = spans[up][3]
        keys = [name]
        if name == "grid.apply_multiplier":
            rank, info = info
            keys.append(f"{name}.r{rank}")
        for key in keys:
            b = stats.setdefault(key, _bucket())
            b["calls"] += 1
            b["self_s"] += own[i]
            if outermost:
                b["total_s"] += dur
            if info is not None:
                b["attr_sum"] += info
                b["attr_max"] = max(b["attr_max"], info)
    return stats


def layer_metrics(stats: dict[str, dict], extra: dict[str, float]) -> dict[str, float]:
    """Evaluate every PER_LAYER metric but the run.* ones, which compare a
    traced with an untraced process and so belong to the caller.  ``extra``
    supplies metrics not read from spans.  A layer a workload never enters
    reports 0."""
    out = {}
    for metric, _ in PER_LAYER:
        if metric in extra:
            out[metric] = extra[metric]
            continue
        if metric.startswith("run."):
            continue
        group, stat = metric.rsplit(".", 1)
        b = stats.get(group) or _bucket()
        if stat in ("calls", "self_s", "total_s"):
            out[metric] = b[stat]
        elif stat == "mentries":
            out[metric] = b["attr_sum"] / 1e6
        elif stat == "mbytes":
            out[metric] = b["attr_sum"] * COMPLEX_BYTES / 1e6
        elif stat == "max_entries":
            out[metric] = b["attr_max"]
        elif stat == "step_ms":
            out[metric] = 1e3 * b["total_s"] / b["attr_sum"] if b["attr_sum"] else 0.0
        else:
            raise KeyError(f"no source for per-layer metric {metric}")
    return out


def call_self_sums(spans) -> dict[int, tuple[float, float]]:
    """Per CLI call: (sum of layer self times, wall time of the call span).

    The call span is the root span of each call; layer spans are the rest."""
    sums = {}
    for (_, t0, t1, parent, call, _), own in zip(spans, _self_times(spans)):
        layer_self, wall = sums.get(call, (0.0, 0.0))
        sums[call] = (layer_self + own, wall) if parent >= 0 else (layer_self, wall + t1 - t0)
    return sums


def write_spans(path, spans) -> None:
    """One line per span: index, parent, call, name, start, end, attribute."""
    with open(path, "w") as fh:
        fh.write("index,parent,call,name,start,end,attr\n")
        for i, (name, t0, t1, parent, call, info) in enumerate(spans):
            if info is None:
                info = ""
            elif isinstance(info, tuple):
                info = ":".join(map(str, info))
            fh.write(f"{i},{parent},{call},{name},{t0:.9f},{t1:.9f},{info}\n")
