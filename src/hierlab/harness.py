"""Experiment orchestration, reporting, and persistence.

Every run is driven by one ExperimentConfig (defaults, optionally overlaid
with an INI file and flag overrides), draws all randomness from one seeded
generator, and emits a fixed-schema CSV plus a JSON manifest that echoes the
configuration.  Identical config and seed give bit-identical CSV output;
ladder entries are executed in a fixed order for that reason.
Each reported quantity is computed once per run; ``convergence`` evolves the
contact hierarchy, and takes its collision sums, once per distinct K, shared
by its ladder.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import math
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .budget import default_budget
from .definetti import (Mixture, energy_functional_mixture, flow_mixture,
                        gwp_window_chain, random_mixture)
from .grid import (Field, GridSpec, _check_count, _check_finite, make_grid,
                   random_low_mode_field, step_count)
from .hierarchy_evolution import (EvolutionConfig, HierarchyTrajectory,
                                  bbgky_evolve, duhamel_tower, gp_evolve,
                                  gp_residual_row, k_schedule,
                                  picard_fixed_point, t0_gate)
from .interactions import (PROFILES, PotentialSpec, bbgky_main_level,
                           bbgky_rhs, check_profile, collision_fourier_oracle,
                           gp_collision, gp_collision_sum, realize_potential,
                           bbgky_collision_main)
from .marginals import (HierarchyState, admissibility_defect, factorized_state,
                        hierarchy_norm, mixture_marginal, mixture_state,
                        free_propagate_marginal, psd_defect,
                        random_hermitian_marginal, sobolev_norm, trace)
from .nbody import extract_marginal, factorized_state as nbody_factorized, \
    nbody_evolve, energy_moments, symmetry_defect
from .storage import read_field, write_marginal

try:
    import resource
except ImportError:  # no getrusage on Windows; telemetry then holds wall_s
    resource = None

# ru_maxrss counts KiB on Linux and bytes on macOS
_MAXRSS_PER_MB = 2**20 if sys.platform == "darwin" else 2**10


# config field type -> conversion of its INI or flag text
_FROM_TEXT = {"int": int, "float": float, "str": str,
              "tuple[int, ...]": lambda raw: tuple(
                  int(x) for x in raw.replace(",", " ").split())}


@dataclass
class ExperimentConfig:
    dim: int = 1
    n: int = 16
    box_length: float = 2.0 * np.pi
    profile: str = "gaussian"
    profile_width: float = 0.6
    beta: float = 0.2
    big_n: int = 16
    ladder: tuple[int, ...] = (2, 3, 4, 5)
    collision_ladder: tuple[int, ...] = (4, 16, 64, 256)
    b1: float = 2.0
    k_max: int = 2
    xi: float = 0.5
    xi_prime: float = 0.7
    xi1: float = 0.3
    dt: float = 1e-3
    t_final: float = 0.1
    k_marginals: int = 2
    m_max: int = 2
    windows: int = 1
    atoms: int = 3
    j_max: int = 2
    seed: int = 7
    outdir: str = "out"

    def __post_init__(self):
        """Reject a bad field with a ValueError that names it, before any
        experiment computes with it.  An int field and each ladder entry
        must be an integer, not a bool or a float (``_check_count``), of at
        least 1 (4 for n, 0 for windows and seed); a float field, box_length
        included, must be a finite number, not a bool."""
        def need(ok: bool, name: str, rule: str) -> None:
            if not ok:
                raise ValueError(f"{name} {rule}, got {getattr(self, name)!r}")

        for f in dataclasses.fields(self):  # a bool passes every rule below
            if f.type == "float":
                need(not isinstance(getattr(self, f.name), bool), f.name,
                     "must be a number, not a bool")
        need(math.isfinite(self.box_length) and self.box_length > 0,
             "box_length", "L must be positive and finite")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                _check_count(f.name, value,
                             {"n": 4, "windows": 0, "seed": 0}.get(f.name, 1))
            elif f.type == "tuple[int, ...]":
                need(len(value) > 0, f.name, "must be a nonempty list")
                for entry in value:
                    _check_count(f.name, entry, 1)
            elif f.type == "float":
                need(math.isfinite(value), f.name, "must be finite")
        need(self.dim <= 3, "dim", "must be 1, 2 or 3")
        need(self.n % 2 == 0, "n", "must be even and >= 4")
        need(self.profile in PROFILES or self.profile.endswith(".hlab"),
             "profile", f"must name one of {sorted(PROFILES)} or a .hlab file")
        need(self.profile_width > 0, "profile_width", "must be positive")
        need(self.dt > 0, "dt", "must be positive")
        need(self.t_final >= 0, "t_final", "must be nonnegative")
        if not 0 < self.xi1 < self.xi < self.xi_prime < 1:
            raise ValueError("weights must satisfy 0 < xi1 < xi < xi_prime < 1")

    @classmethod
    def from_ini(cls, path: str | Path, **overrides) -> "ExperimentConfig":
        """Load `key = value` sections; any section name is accepted, and a
        file without a section header is read as one section.  Keys map to
        config fields with dashes normalized to underscores, and values are
        read as written (no `%` interpolation).  A key that names no field,
        a line that is not `key = value`, a repeated section and a key
        repeated in one section or across sections raise ValueError.
        `[DEFAULT]` is a section like any other."""
        text = Path(path).read_text()
        # no header matches "", so no section feeds its keys into the others
        parser = configparser.ConfigParser(interpolation=None,
                                           default_section="")
        shift = 0  # lines put in front of a file without a section header
        try:
            try:
                parser.read_string(text, source=str(path))
            except configparser.MissingSectionHeaderError:
                shift = 1
                parser.read_string("[config]\n" + text, source=str(path))
        except configparser.DuplicateOptionError as err:
            raise ValueError(f"{path}: key {err.option!r} is given twice") from None
        except configparser.DuplicateSectionError as err:
            raise ValueError(f"{path}: section [{err.section}] is given twice") from None
        except configparser.ParsingError as err:
            lines = text.splitlines()
            bad = "; ".join(f"line {n - shift} {lines[n - shift - 1].strip()!r}"
                            for n, _ in err.errors)
            raise ValueError(f"{path}: {bad} is not a key = value line") from None
        values: dict = {}
        given_in: dict[str, str] = {}  # key -> the section that gave it
        for section in parser.sections():
            for key, raw in parser.items(section):
                name = key.replace("-", "_")
                if name in given_in:
                    raise ValueError(f"{path}: key {name!r} is given twice, in "
                                     f"[{given_in[name]}] and in [{section}]")
                values[name], given_in[name] = raw, section
        values.update({k: v for k, v in overrides.items() if v is not None})
        return cls.from_mapping(values)

    @classmethod
    def from_mapping(cls, values: dict) -> "ExperimentConfig":
        """Build from field-name keys; a key that names no field raises.
        A text value (an INI value or a flag) is converted to its field's
        type, and one that fails to convert raises a ValueError naming the
        field."""
        fields = dataclasses.fields(cls)
        unknown = sorted(set(values) - {f.name for f in fields})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        kwargs = {}
        for f in fields:
            if f.name not in values or values[f.name] is None:
                continue
            raw = values[f.name]
            if isinstance(raw, str):
                try:
                    kwargs[f.name] = _FROM_TEXT[f.type](raw)
                except ValueError:
                    raise ValueError(f"{f.name} must be {f.type}, "
                                     f"got {raw!r}") from None
            elif f.type == "tuple[int, ...]":
                kwargs[f.name] = tuple(raw)
            else:
                kwargs[f.name] = raw
        return cls(**kwargs)

    def grid(self) -> GridSpec:
        return make_grid(self.dim, self.n, self.box_length)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def profile_field(self, grid: GridSpec | None = None) -> Field:
        """Built-in profile by name, or a rank-1 field loaded from a tensor
        file when the name ends in .hlab.  A loaded profile is checked here
        (``check_profile``), so a run that reads it first fails before it
        draws or computes anything."""
        grid = grid or self.grid()
        if self.profile.endswith(".hlab"):
            field, _ = read_field(self.profile)
            if field.grid != grid or field.rank != 1:
                raise ValueError(f"profile file {self.profile} does not match "
                                 f"the configured grid")
            check_profile(field)
            return field
        return PROFILES[self.profile](grid, self.profile_width)

    def potential(self, profile: Field, big_n: int | None = None) -> PotentialSpec:
        """The potential of ``profile``, the run's ``profile_field``,
        realized at N = ``big_n``, by default the configured N."""
        return realize_potential(profile, self.beta, big_n or self.big_n,
                                 width=self.profile_width)


CSV_HEADER = "experiment,id,N,K,t,metric,value"


class Report:
    """Accumulates fixed-schema rows: experiment,id,N,K,t,metric,value."""

    def __init__(self):
        self.rows: list[tuple] = []

    def add(self, experiment: str, metric: str, value, N=None, K=None, t=None):
        _check_finite(f"{experiment} metric {metric}", value)
        self.rows.append((experiment, len(self.rows), N, K, t, metric, value))

    @staticmethod
    def _fmt(v) -> str:
        if v is None:
            return ""
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return f"{float(v):.17g}"

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for exp, rid, N, K, t, metric, value in self.rows:
            lines.append(",".join([exp, str(rid), self._fmt(N), self._fmt(K),
                                   self._fmt(t), metric, self._fmt(value)]))
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str | Path) -> Path:
        """Write the CSV; a report with no rows raises instead of writing a
        header-only file."""
        if not self.rows:
            raise ValueError(f"report for {path} has no rows")
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_csv())
        return path


def write_manifest(path: str | Path, cfg: ExperimentConfig, experiment: str,
                   extra: dict | None = None,
                   telemetry: dict | None = None) -> Path:
    budget = default_budget()
    manifest = {
        "experiment": experiment,
        "config": dataclasses.asdict(cfg),
        "versions": {"hierlab": __version__, "numpy": np.__version__},
        "budget": {"max_elements": budget.max_elements,
                   "max_eig_rows": budget.max_eig_rows},
    }
    if extra:
        manifest["results"] = extra
    if telemetry:
        manifest["telemetry"] = telemetry
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str))
    return path


# ---------------------------------------------------------------------------
# Experiments


def run_convergence(cfg: ExperimentConfig) -> tuple[Report, dict]:
    """Ladder over N: evolve the N-body system and the contact hierarchy from
    the same factorized data, then report weighted-norm distances between the
    extracted marginal stack and the hierarchy, and between the two collision
    terms."""
    grid = cfg.grid()
    profile = cfg.profile_field(grid)
    rng = cfg.rng()
    phi0 = random_low_mode_field(grid, 1, rng, max_mode=2)
    mixture = Mixture([(1.0, phi0)])
    report = Report()
    n_steps = step_count(cfg.t_final, cfg.dt)
    stride = max(1, n_steps // 2)
    evo = EvolutionConfig(dt=cfg.dt, t_final=cfg.t_final)
    # K -> {step: (GP state, its collision sum)}; neither depends on N
    gp_runs = {}
    for big_n in cfg.ladder:
        pot = cfg.potential(profile, big_n)
        K = k_schedule(big_n, cfg.b1, cap=min(cfg.k_max, big_n))
        nstate = nbody_factorized(phi0, big_n, pot)
        ntraj = nbody_evolve(nstate, cfg.dt, cfg.t_final, store_every=stride)
        if K not in gp_runs:
            gtraj = gp_evolve(factorized_state(phi0, K), evo, mixture=mixture,
                              store_every=stride)
            gp_runs[K] = {step: (s, gp_collision_sum(s))
                          for step, s in zip(gtraj.stored_steps, gtraj.states)
                          if step}
        gp_at = gp_runs[K]
        for step, psi in zip(ntraj.stored_steps, ntraj.psis):
            if step not in gp_at:
                continue
            t = step * cfg.dt
            extracted = HierarchyState([extract_marginal(psi, k) for k in range(1, K + 1)])
            gp_state, gp_coll = gp_at[step]
            dist = hierarchy_norm(extracted - gp_state, 1.0, cfg.xi)
            report.add("convergence", "hierarchy_h1_distance", dist,
                       N=big_n, K=K, t=t)
            coll = bbgky_rhs(extracted, pot) - gp_coll
            report.add("convergence", "collision_h1_distance",
                       hierarchy_norm(coll, 1.0, cfg.xi), N=big_n, K=K, t=t)
    return report, {}


def run_conservation(cfg: ExperimentConfig) -> tuple[Report, dict]:
    """Mixture battery: functional drift, positivity and admissibility
    transport, and the weighted-norm bound, optionally chained over windows."""
    grid = cfg.grid()
    rng = cfg.rng()
    mix = random_mixture(grid, cfg.atoms, rng, max_mode=2)
    report = Report()

    # each frame continues the previous one, bit-identical to a flow from 0
    samples = 5
    times = [cfg.t_final * i / samples for i in range(1, samples + 1)]
    steps = [0] + [step_count(t, cfg.dt) for t in times]
    frames = [mix]
    for a, b in zip(steps, steps[1:]):
        frames.append(flow_mixture(frames[-1], (b - a) * cfg.dt, cfg.dt))

    for m in range(1, cfg.m_max + 1):
        at0 = energy_functional_mixture(mix, m)
        at1 = energy_functional_mixture(frames[-1], m)
        report.add("conservation", f"functional_m{m}_drift",
                   abs(at1 - at0) / max(1.0, abs(at0)), t=cfg.t_final)

    # the t_final frame's kernels are state1's entries, built once
    state1 = mixture_state(frames[-1], 2)
    for t, frame in zip(times, frames[1:]):
        for k in (1, 2):
            gamma = state1.entry(k) if frame is frames[-1] \
                else mixture_marginal(frame, k)
            report.add("conservation", f"psd_defect_k{k}", psd_defect(gamma),
                       K=k, t=t)

    state0 = mixture_state(mix, 2)
    report.add("conservation", "admissibility_defect_t0",
               max(admissibility_defect(state0)), t=0.0)
    report.add("conservation", "admissibility_defect",
               max(admissibility_defect(state1)), t=cfg.t_final)

    bound = hierarchy_norm(state0, 1.0, cfg.xi_prime, flavor="trace")
    h1 = hierarchy_norm(state1, 1.0, cfg.xi1)
    report.add("conservation", "h1_norm_flowed", h1, t=cfg.t_final)
    report.add("conservation", "trace_norm_bound", bound, t=0.0)
    report.add("conservation", "norm_bound_satisfied", h1 <= bound + 1e-9,
               t=cfg.t_final)

    chain = None
    if cfg.windows >= 1:
        chain = gwp_window_chain(mix, state0, bound, window=cfg.t_final,
                                 windows=cfg.windows, xi=cfg.xi, dt=cfg.dt)
        for row in chain["rows"]:
            report.add("conservation", "window_h1_norm", row["h1_norm"],
                       t=row["t_end"])
            report.add("conservation", "window_within_bound",
                       row["within_bound"], t=row["t_end"])
    return report, {"window_chain_passed": None if chain is None else chain["passed"]}


def run_collision_limit(cfg: ExperimentConfig) -> tuple[Report, dict]:
    """Distance of the weighted finite-N plus-main operator from the contact
    target along the potential ladder, plus momentum-domain oracle agreement."""
    grid = cfg.grid()
    profile = cfg.profile_field(grid)
    rng = cfg.rng()
    phi = random_low_mode_field(grid, 1, rng, max_mode=1)
    gamma2 = mixture_marginal([(1.0, phi)], 2)
    target_plus = gp_collision(gamma2, 1, "+")
    flowed = {t: free_propagate_marginal(gamma2, t) for t in (0.0, 0.1)}
    report = Report()
    for big_n in cfg.collision_ladder:
        pot = cfg.potential(profile, big_n)
        lhs = bbgky_main_level(gamma2, pot, plus_only=True)
        dist = sobolev_norm(lhs - target_plus, 0.0)
        report.add("collision_limit", "main_minus_contact_hs", dist, N=big_n)
        for t, gamma_t in flowed.items():
            spatial = bbgky_collision_main(gamma_t, 1, "+", pot)
            oracle = collision_fourier_oracle(gamma2, t, pot)
            rel = sobolev_norm(oracle - spatial, 0.0) / max(sobolev_norm(spatial, 0.0), 1e-300)
            report.add("collision_limit", "fourier_oracle_rel_err", rel,
                       N=big_n, t=t)
    return report, {}


def run_duhamel_check(cfg: ExperimentConfig) -> tuple[Report, dict]:
    """Norms of the nested collision integrals over a doubling horizon ladder
    and the fitted growth exponent per depth."""
    grid = cfg.grid()
    pot = cfg.potential(cfg.profile_field(grid))
    rng = cfg.rng()
    phi = random_low_mode_field(grid, 1, rng, max_mode=2)
    report = Report()
    fitted = {}
    horizons = (0.01, 0.02, 0.04)
    depths = range(1, cfg.j_max + 1)
    # one tower per horizon gives every depth, read from the flowed atom
    norms = {j: [] for j in depths}
    for T in horizons:
        for j, state in duhamel_tower(phi, cfg.j_max, pot, T, 16).items():
            norms[j].append(hierarchy_norm(state, 1.0, cfg.xi))
    for j in depths:
        for T, norm in zip(horizons, norms[j]):
            report.add("duhamel", f"duh{j}_h1_norm", norm, t=T)
        slope = float(np.polyfit(np.log(horizons), np.log(norms[j]), 1)[0])
        fitted[j] = slope
        report.add("duhamel", f"duh{j}_fitted_exponent", slope)
    return report, {"fitted_exponents": fitted}


def run_picard(cfg: ExperimentConfig) -> tuple[Report, dict]:
    """Fixed point of the collision integral equation on a horizon inside the
    contraction gate; reports convergence, ratio, and the independent-quadrature
    residual."""
    grid = cfg.grid()
    pot = cfg.potential(cfg.profile_field(grid))
    rng = cfg.rng()
    horizon = t0_gate(cfg.xi) / 4.0
    steps = 128
    entries = [random_hermitian_marginal(grid, k, rng, max_mode=2, symmetric=True)
               for k in (1, 2)]
    result = picard_fixed_point(HierarchyState(entries), pot, cfg.xi, horizon,
                                steps)
    report = Report()
    report.add("picard", "iterations", result.iterations, N=pot.big_n, t=horizon)
    report.add("picard", "converged", result.converged, N=pot.big_n, t=horizon)
    if result.contraction_ratios:
        report.add("picard", "last_contraction_ratio",
                   result.contraction_ratios[-1], N=pot.big_n, t=horizon)
    report.add("picard", "final_update", result.update_norms[-1],
               N=pot.big_n, t=horizon)
    report.add("picard", "residual", result.residual, N=pot.big_n, t=horizon)
    return report, {"converged": result.converged, "residual": result.residual,
                    "telemetry": {
                        "picard_worker_busy_s": result.worker_busy_s,
                        "picard_result_wait_s": result.result_wait_s}}


# ---------------------------------------------------------------------------
# Simulation commands with tensor dumps


class _KernelFiles:
    """Store (``hierarchy_evolution.Store``) of ``simulate-<name>``: writes
    each stored state's kernels to the outdir as the time loop hands it over,
    one ``<name>_k<k>_step<step>.hlab`` file per level, and records the file
    names and two norms per level in order: ``hs_norms[k]`` lists level k's
    Hilbert-Schmidt norm, one per state handed over, and ``collision_h1[k]``
    the order-1 norm of level k's collision term, one per state after step
    0.  It keeps no hierarchy state."""

    held = 0

    def __init__(self, outdir: Path, name: str):
        self.outdir, self.name = outdir, name
        self.files: list[str] = []
        self.hs_norms: dict[int, list[float]] = {}
        self.collision_h1: dict[int, list[float]] = {}
        outdir.mkdir(parents=True, exist_ok=True)

    def __call__(self, step: int, state: HierarchyState,
                 deriv: HierarchyState) -> None:
        for k, gamma in enumerate(state.entries, start=1):
            fname = f"{self.name}_k{k}_step{step:05d}.hlab"
            write_marginal(self.outdir / fname, state.grid, k, gamma.kernel)
            self.files.append(fname)
            self.hs_norms.setdefault(k, []).append(sobolev_norm(gamma, 0.0))
            coll = self.collision_h1.setdefault(k, [])
            if step >= 1:
                coll.append(sobolev_norm(deriv.entry(k), 1.0))


class _KernelFilesAndResidual(_KernelFiles):
    """``_KernelFiles`` that also keeps the last three stored states, every
    step being stored, and takes the contact-hierarchy residual at the middle
    one (``gp_residual_row``): ``residual[k]`` lists level k's defects at
    the interior steps in order."""

    held = 3

    def __init__(self, outdir: Path, name: str, dt: float):
        super().__init__(outdir, name)
        self.dt = dt
        self.window: deque[HierarchyState] = deque(maxlen=self.held)
        self.residual: dict[int, list[float]] = {}

    def __call__(self, step: int, state: HierarchyState,
                 deriv: HierarchyState) -> None:
        super().__call__(step, state, deriv)
        self.window.append(state)
        if len(self.window) == self.held:
            row = gp_residual_row(*self.window, self.dt)
            for k, v in enumerate(row, start=1):
                self.residual.setdefault(k, []).append(v)


def _report_hierarchy_run(cfg: ExperimentConfig, traj: HierarchyTrajectory,
                          store: _KernelFiles, N: int | None = None
                          ) -> tuple[Report, dict]:
    """Trace-drift and collision-norm rows of ``simulate-<name>``, and the
    manifest's files, traces and hs_norms.  ``store`` wrote the kernels and
    took both norms during the time loop, which hands it every step with its
    right-hand side."""
    experiment = f"simulate_{store.name}"
    report = Report()
    for k, vals in traj.traces.items():
        report.add(experiment, f"trace_drift_k{k}",
                   float(np.max(np.abs(vals - vals[0]))), N=N, K=k,
                   t=cfg.t_final)
    for k, vals in store.collision_h1.items():
        report.add(experiment, f"collision_h1_max_k{k}",
                   float(np.max(vals)) if vals else 0.0, N=N, K=k)
    return report, {"files": store.files,
                    "traces": {k: v.tolist() for k, v in traj.traces.items()},
                    "hs_norms": store.hs_norms}


def run_simulate_gp(cfg: ExperimentConfig) -> tuple[Report, dict]:
    grid = cfg.grid()
    rng = cfg.rng()
    phi = random_low_mode_field(grid, 1, rng, max_mode=2)
    mixture = Mixture([(1.0, phi)])
    state0 = factorized_state(phi, cfg.k_max)
    evo = EvolutionConfig(dt=cfg.dt, t_final=cfg.t_final)
    store = _KernelFilesAndResidual(Path(cfg.outdir), "gp", cfg.dt)
    traj = gp_evolve(state0, evo, mixture=mixture, store=store)
    report, extra = _report_hierarchy_run(cfg, traj, store)
    for k, vals in store.residual.items():
        report.add("simulate_gp", f"residual_max_k{k}", float(np.max(vals)), K=k)
    extra["residual_max"] = {k: float(np.max(v))
                             for k, v in store.residual.items()}
    return report, extra


def run_simulate_bbgky(cfg: ExperimentConfig) -> tuple[Report, dict]:
    grid = cfg.grid()
    pot = cfg.potential(cfg.profile_field(grid))
    rng = cfg.rng()
    phi = random_low_mode_field(grid, 1, rng, max_mode=2)
    K = min(cfg.k_max, pot.big_n)
    state0 = factorized_state(phi, K)
    evo = EvolutionConfig(dt=cfg.dt, t_final=cfg.t_final)
    store = _KernelFiles(Path(cfg.outdir), "bbgky")
    traj = bbgky_evolve(state0, evo, pot, store=store)
    return _report_hierarchy_run(cfg, traj, store, N=pot.big_n)


def run_simulate_nbody(cfg: ExperimentConfig) -> tuple[Report, dict]:
    grid = cfg.grid()
    pot = cfg.potential(cfg.profile_field(grid))
    rng = cfg.rng()
    phi = random_low_mode_field(grid, 1, rng, max_mode=2)
    state = nbody_factorized(phi, cfg.big_n, pot)
    moments = energy_moments(state, 2)
    moments0 = {k: moments[k] for k in (1, 2)}
    # the report reads the norms and the final wavefunction only, so the
    # trajectory and the initial state go before the final moments
    traj = nbody_evolve(state, cfg.dt, cfg.t_final, store_every=0)
    final, norms = traj.psis[-1], traj.norms
    final_state = state.with_psi(final)
    del traj, state
    report = Report()
    report.add("simulate_nbody", "norm_drift",
               float(np.max(np.abs(norms - norms[0]))),
               N=cfg.big_n, t=cfg.t_final)
    moments = energy_moments(final_state, 2)
    moments1 = {k: moments[k] for k in (1, 2)}
    for k in (1, 2):
        report.add("simulate_nbody", f"moment{k}_drift",
                   abs(moments1[k] - moments0[k]) / max(1.0, abs(moments0[k])),
                   N=cfg.big_n, t=cfg.t_final)
    report.add("simulate_nbody", "symmetry_defect", symmetry_defect(final),
               N=cfg.big_n, t=cfg.t_final)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for k in range(1, cfg.k_marginals + 1):
        gamma = extract_marginal(final, k)
        name = f"nbody_k{k}_final.hlab"
        write_marginal(outdir / name, grid, k, gamma.kernel)
        files.append(name)
        report.add("simulate_nbody", f"marginal_trace_k{k}",
                   trace(gamma).real, N=cfg.big_n, K=k)
    extra = {"files": files, "moments_initial": moments0,
             "moments_final": moments1}
    return report, extra


EXPERIMENTS = {
    "convergence": run_convergence,
    "conservation": run_conservation,
    "collision-limit": run_collision_limit,
    "duhamel-check": run_duhamel_check,
    "picard": run_picard,
    "simulate-gp": run_simulate_gp,
    "simulate-bbgky": run_simulate_bbgky,
    "simulate-nbody": run_simulate_nbody,
}


def run_experiment(name: str, cfg: ExperimentConfig) -> tuple[Path, Path]:
    """Run one named experiment and write CSV + manifest into the outdir.
    The manifest's ``telemetry`` holds the experiment's wall time
    (``wall_s``), the CPU time of all the process's threads over it
    (``cpu_s``, user plus system) and its minor page faults
    (``minor_faults``), and the process's peak resident set so far
    (``peak_rss_mb``); the CSV holds none of it.  A ``cpu_s`` above
    ``wall_s`` shows threads that ran at once.  An experiment may add its
    own timings under its results' ``telemetry`` key, which moves into the
    manifest's ``telemetry``: ``picard`` adds each worker thread's busy
    time (``picard_worker_busy_s``) and the calling thread's wait for the
    workers' samples (``picard_result_wait_s``)."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    usage0 = resource.getrusage(resource.RUSAGE_SELF) if resource else None
    t0 = time.perf_counter()
    report, extra = EXPERIMENTS[name](cfg)
    telemetry = {"wall_s": time.perf_counter() - t0}
    telemetry.update(extra.pop("telemetry", {}))
    if resource:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        telemetry["cpu_s"] = (usage.ru_utime + usage.ru_stime
                              - usage0.ru_utime - usage0.ru_stime)
        telemetry["peak_rss_mb"] = usage.ru_maxrss / _MAXRSS_PER_MB
        telemetry["minor_faults"] = usage.ru_minflt - usage0.ru_minflt
    outdir = Path(cfg.outdir)
    stem = name.replace("-", "_")
    csv_path = report.write_csv(outdir / f"{stem}.csv")
    manifest_path = write_manifest(outdir / f"{stem}_manifest.json", cfg, name,
                                   extra, telemetry)
    return csv_path, manifest_path
