"""Time evolution of truncated hierarchies.

The free part is exponentiated exactly (it is a Fourier multiplier), the
level-coupling collision term is integrated in the interaction picture by the
classical fourth-order Runge-Kutta scheme anchored at the step midpoint.

The collision term annihilates traces identically on the grid (the plus and
minus restrictions agree on the kernel diagonal), so per-level traces are
conserved to rounding by construction and a drifting trace signals an
integrator failure, which aborts the run.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .budget import default_budget
from .grid import (Field, GridSpec, place_axes, sobolev_weight, step_count,
                   stored_steps)
from .interactions import (PotentialSpec, bbgky_main_level, bbgky_rhs,
                           gp_collision_level, gp_collision_sum)
from .marginals import (HierarchyState, Marginal, flow_symbol,
                        free_generator, free_propagate_marginal,
                        marginal_from_spectrum, marginal_spectrum,
                        pure_product_marginal, sobolev_norm, trace)


# relative trace drift of any level that aborts an evolution
TRACE_DRIFT_ABORT = 0.01


class InstabilityError(RuntimeError):
    """Trace drift exceeded the abort threshold during evolution."""


@dataclass
class EvolutionConfig:
    dt: float = 1e-3
    t_final: float = 0.1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")


def t0_gate(xi: float) -> float:
    """Heuristic contraction horizon xi^2 of the H^1_xi-weighted Picard map."""
    if not 0 < xi < 1:
        raise ValueError("xi must lie in (0, 1)")
    return xi**2


def truncate(state: HierarchyState, K: int) -> HierarchyState:
    """Keep the first K levels."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return HierarchyState([m.copy() for m in state.entries[:K]])


def k_schedule(big_n: int, b1: float, cap: int = 8) -> int:
    """Truncation level floor(b1 * ln N), clamped to [1, cap]."""
    if big_n < 2:
        raise ValueError("N must be >= 2")
    if b1 <= 0:
        raise ValueError("b1 must be positive")
    return int(np.clip(math.floor(b1 * math.log(big_n)), 1, cap))


def free_flow(state: HierarchyState, t: float) -> HierarchyState:
    return HierarchyState([free_propagate_marginal(m, t) for m in state.entries])


# ---------------------------------------------------------------------------
# Closures for the top level


class MixtureClosure:
    """Supply the missing top-level collision term from a mixture whose atoms
    are advanced alongside the hierarchy (cubic flow at half-step resolution).

    ``top_collision(t)`` returns the level-K collision kernel computed on the
    mixture side without materializing the (K+1)-level kernel.

    Only the latest atom frame is kept: the steppers query half-step indices
    in non-decreasing order, so an earlier index raises ``ValueError``.
    """

    def __init__(self, mixture, K: int, dt_half: float, coupling: float = 1.0):
        self.K = K
        self.dt_half = dt_half
        self.coupling = coupling
        self._index = 0
        self._atoms: list[tuple[float, Field]] = list(mixture.pairs())

    def _atoms_at(self, index: int) -> list[tuple[float, Field]]:
        from .definetti import nls_evolve
        if index < self._index:
            raise ValueError(f"closure queried at half-step {index} after "
                             f"{self._index}; frames are not kept")
        while self._index < index:
            self._atoms = [(w, nls_evolve(phi, self.dt_half, self.dt_half,
                                          self.coupling)) for w, phi in self._atoms]
            self._index += 1
        return self._atoms

    def top_collision(self, t: float) -> Marginal:
        atoms = self._atoms_at(step_count(t, self.dt_half))
        K, grid = self.K, atoms[0][1].grid
        ndim = 2 * K * grid.dim
        out = None
        for w, phi in atoms:
            prod = pure_product_marginal(phi, K)
            dens = np.abs(phi.data) ** 2
            mult = np.zeros(grid.slot_shape(2 * K))
            for j in range(K):
                mult = (mult + place_axes(dens, grid.slot_axes(j), ndim)
                        - place_axes(dens, grid.slot_axes(K + j), ndim))
            term = Marginal(grid, K, prod.kernel * mult) * w
            out = term if out is None else out + term
        return out


# ---------------------------------------------------------------------------
# Steppers


# Hierarchy states a step holds beyond the stored samples, the current state
# being the next one stored: state_i, k1..k3 and k4's argument while k4's
# right-hand side runs, which holds up to 5 more with a mixture closure (its
# sum, an atom's product kernel, two copies of it and the multiplier).
RK4IP_WORKING_STATES = 10


def _rk4ip_step(state: HierarchyState, t: float, dt: float,
                rhs: Callable[[HierarchyState, float], HierarchyState]) -> HierarchyState:
    half = lambda s: free_flow(s, dt / 2.0)
    state_i = half(state)
    k1 = half(rhs(state, t) * dt)
    k2 = rhs(state_i + k1 * 0.5, t + dt / 2.0) * dt
    k3 = rhs(state_i + k2 * 0.5, t + dt / 2.0) * dt
    k4 = rhs(half(state_i + k3), t + dt) * dt
    return half(state_i + (k1 + 2.0 * k2 + 2.0 * k3) * (1.0 / 6.0)) + k4 * (1.0 / 6.0)


@dataclass
class HierarchyTrajectory:
    """States at ``stored_steps``; traces and norms at every step."""

    states: list[HierarchyState]
    stored_steps: list[int]
    traces: dict[int, np.ndarray]
    hs_norms: dict[int, np.ndarray]
    collision_h1: dict[int, np.ndarray]
    dt: float
    kappa0: float = 1.0

    def final(self) -> HierarchyState:
        return self.states[-1]


def _evolve(state0: HierarchyState, config: EvolutionConfig,
            rhs: Callable[[HierarchyState, float], HierarchyState],
            store_every: int = 1,
            log_collision_norms: bool = False,
            kappa0: float = 1.0) -> HierarchyTrajectory:
    n_steps = step_count(config.t_final, config.dt)
    keep = stored_steps(n_steps, store_every)
    check_series_budget(state0.grid, state0.K, len(keep), RK4IP_WORKING_STATES)
    dt = config.dt
    K = state0.K
    state = state0.copy()
    base_traces = [trace(m).real for m in state.entries]

    states = [state.copy()]
    traces = {k: [base_traces[k - 1]] for k in range(1, K + 1)}
    hs = {k: [sobolev_norm(m, 0.0)] for k, m in enumerate(state.entries, start=1)}
    coll = {k: [] for k in range(1, K + 1)}

    for step in range(1, n_steps + 1):
        t = (step - 1) * dt
        state = _rk4ip_step(state, t, dt, rhs)
        for k in range(1, K + 1):
            tr = trace(state.entry(k)).real
            traces[k].append(tr)
            hs[k].append(sobolev_norm(state.entry(k), 0.0))
            drift = abs(tr - base_traces[k - 1])
            # the collision term is traceless on the grid, so a drifting or
            # non-finite trace is an integrator blow-up, not physics
            if not np.isfinite(tr) or \
                    drift > TRACE_DRIFT_ABORT * max(1.0, abs(base_traces[k - 1])):
                raise InstabilityError(
                    f"trace of level {k} drifted by {drift:.3e} at t={step * dt:.4f} "
                    f"(dt={dt})")
        if log_collision_norms:  # the derivative is dropped before the next step
            norms = [sobolev_norm(m, 1.0) for m in rhs(state, step * dt).entries]
            for k, v in enumerate(norms, start=1):
                coll[k].append(v)
        if step == keep[len(states)]:  # the next step to store
            states.append(state.copy())
    return HierarchyTrajectory(
        states=states, stored_steps=keep,
        traces={k: np.array(v) for k, v in traces.items()},
        hs_norms={k: np.array(v) for k, v in hs.items()},
        collision_h1={k: np.array(v) for k, v in coll.items()},
        dt=dt, kappa0=kappa0)


def gp_evolve(state0: HierarchyState, config: EvolutionConfig,
              kappa0: float = 1.0, mixture=None, store_every: int = 1,
              log_collision_norms: bool = False) -> HierarchyTrajectory:
    """Evolve the K-truncated contact hierarchy.

    Without a mixture the (K+1)-level is zero.  A mixture supplies that level
    (``MixtureClosure``) from its atoms advanced by the cubic flow, which
    keeps the truncated system exact on de Finetti data up to integrator
    error.
    """
    closure = None if mixture is None else \
        MixtureClosure(mixture, state0.K, config.dt / 2.0, coupling=kappa0)

    def rhs(state: HierarchyState, t: float) -> HierarchyState:
        if closure is None:
            return gp_collision_sum(state, -1j * kappa0)
        levels = [gp_collision_level(g) for g in state.entries[1:]]
        levels.append(closure.top_collision(t))
        return HierarchyState(levels) * (-1j * kappa0)

    return _evolve(state0, config, rhs, store_every=store_every,
                   log_collision_norms=log_collision_norms, kappa0=kappa0)


def bbgky_evolve(state0: HierarchyState, config: EvolutionConfig,
                 pot: PotentialSpec, store_every: int = 1,
                 log_collision_norms: bool = False) -> HierarchyTrajectory:
    """Evolve the K-truncated finite-N hierarchy (levels above K stay zero,
    so the top level sees only its same-level interaction term)."""
    if state0.K > pot.big_n:
        raise ValueError(f"K={state0.K} exceeds N={pot.big_n}")

    def rhs(state: HierarchyState, t: float) -> HierarchyState:
        return bbgky_rhs(state, pot) * (-1j)

    return _evolve(state0, config, rhs, store_every=store_every,
                   log_collision_norms=log_collision_norms, kappa0=pot.kappa0)


def gp_residual(traj: HierarchyTrajectory) -> dict[int, np.ndarray]:
    """Central-difference defect of the stored trajectory against the contact
    hierarchy with the trajectory's coupling, per level k < K, at interior
    stored steps.  Requires every step stored (stride one)."""
    steps = traj.stored_steps
    if len(steps) < 3 or any(b - a != 1 for a, b in zip(steps, steps[1:])):
        raise ValueError("residual needs a trajectory stored at every step")
    K = traj.states[0].K
    out: dict[int, list[float]] = {k: [] for k in range(1, K)}
    dt = traj.dt
    for i in range(1, len(traj.states) - 1):
        prev_s, cur, nxt = traj.states[i - 1], traj.states[i], traj.states[i + 1]
        for k in range(1, K):
            dgamma = (nxt.entry(k) - prev_s.entry(k)) * (1.0 / (2.0 * dt))
            lhs = dgamma * 1j
            rhs = free_generator(cur.entry(k)) + gp_collision_level(cur.entry(k + 1)) * traj.kappa0
            out[k].append(sobolev_norm(lhs - rhs, 0.0))
    return {k: np.array(v) for k, v in out.items()}


# ---------------------------------------------------------------------------
# Time series, iterated collision integrals, fixed point


@dataclass
class TimeSeries:
    """Hierarchy states sampled on the uniform grid j * dt, j = 0..len-1."""

    dt: float
    states: list[HierarchyState]

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not self.states:
            raise ValueError("series must not be empty")

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.states))

    @property
    def horizon(self) -> float:
        return self.dt * (len(self.states) - 1)


def check_series_budget(grid: GridSpec, K: int, samples: int, working: int = 0) -> None:
    """Raise ``BudgetExceeded`` unless ``samples`` + ``working`` states of a
    level-1..K hierarchy, sum_k n^(2kd) complex entries each, fit the budget:
    a time series, or a stored trajectory and the states its time loop works
    in.  Allocates nothing."""
    default_budget().check_elements(
        (samples + working) * sum(grid.num_points ** (2 * k) for k in range(1, K + 1)),
        f"hierarchy series of {samples} samples and {working} working states")


def free_flow_series(state0: HierarchyState, dt: float, n_steps: int) -> TimeSeries:
    """Free flow of ``state0`` sampled at j * dt, j = 0..n_steps.

    One forward transform per level; the spectrum then steps by the one-step
    phase exp(-i dt S_k) and each later sample costs one inverse transform.
    Sample 0 is a copy of ``state0``.  The entries of the whole series are
    checked against the budget before the first transform.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    grid = state0.grid
    check_series_budget(grid, state0.K, n_steps + 1)
    levels = []
    for m in state0.entries:
        phase = np.exp(-1j * dt * flow_symbol(grid, m.k))
        spec = marginal_spectrum(m)
        samples = [m.copy()]
        for _ in range(n_steps):
            spec = spec * phase
            samples.append(marginal_from_spectrum(grid, m.k, spec))
        levels.append(samples)
    return TimeSeries(dt, [HierarchyState(list(entries)) for entries in zip(*levels)])


def _flowed_prefix(spectra: Iterable[np.ndarray], phase: np.ndarray, dt: float,
                   simpson: bool = False) -> Iterator[np.ndarray]:
    """Spectra of A_i = U(t_i) int_0^t_i U(-s) theta(s) ds for t_i = i * dt,
    from the spectra of theta(t_i); ``phase`` is exp(-i dt S), one step of U.

    Since U(t_i) = U(dt) U(t_(i-1)), the forward-propagated trapezoid prefix
    obeys A_i = E (A_(i-1) + dt/2 theta_(i-1)) + dt/2 theta_i; composite
    Simpson's even points use E^2 with weights dt/3, 4 dt/3, dt/3 and its odd
    points close with one trapezoid step.  Spectra are read lazily, one
    sample at a time.
    """
    a_prev = a_prev2 = th_prev = th_prev2 = None
    for i, th in enumerate(spectra):
        if i == 0:
            acc = np.zeros_like(th)
        elif simpson and i % 2 == 0:
            acc = (phase * (phase * (a_prev2 + (dt / 3.0) * th_prev2)
                            + (4.0 * dt / 3.0) * th_prev)
                   + (dt / 3.0) * th)
        else:
            acc = phase * (a_prev + (dt / 2.0) * th_prev) + (dt / 2.0) * th
        yield acc
        a_prev2, a_prev = a_prev, acc
        th_prev2, th_prev = th_prev, th


def duhamel_iterate(series: TimeSeries, j: int, pot: PotentialSpec,
                    t: float) -> HierarchyState:
    """j-fold nested time-ordered integral interleaving the weighted main
    collision operator with free flows, evaluated by composite trapezoid on
    the ordered simplex (the same grid as the series).

    Each integral layer is accumulated on spectra: one forward transform per
    sample, the running prefix stepped by the free-flow phase (see
    ``_flowed_prefix``), and one inverse transform per sample feeding the
    collision operator; the last layer inverts only the sample at t.

    j = 0 returns the series value at t.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    dt = series.dt
    n_idx = step_count(t, dt)
    if n_idx >= len(series.states):
        raise ValueError(f"t={t} lies beyond the series horizon {series.horizon}")
    n_pts = n_idx + 1
    base = series.states[0]
    K = base.K
    grid = base.grid
    k_out = K - j
    if k_out < 1:
        raise ValueError(f"series truncated at {K} is too shallow for j={j}")
    default_budget().check_elements(grid.num_points ** (2 * K),
                                    f"duhamel level {K}")

    comps = []
    for k in range(1, k_out + 1):
        current = [series.states[i].entry(k + j) for i in range(n_pts)]
        for depth in range(j):
            # push through one integral layer: i * int_0^s B U(s-sigma) current
            level = k + j - depth
            phase = np.exp(-1j * dt * flow_symbol(grid, level))
            prefix = _flowed_prefix((marginal_spectrum(m) for m in current),
                                    phase, dt)
            if depth == j - 1:  # the last layer is needed only at t
                prefix = deque(prefix, maxlen=1)
            current = [
                bbgky_main_level(marginal_from_spectrum(grid, level, a), pot) * 1j
                for a in prefix
            ]
        comps.append(current[-1])
    return HierarchyState(comps)


@dataclass
class PicardResult:
    series: TimeSeries
    iterations: int
    update_norms: list[float]
    contraction_ratios: list[float]
    converged: bool
    residual: float


def picard_fixed_point(xi_series: TimeSeries, pot: PotentialSpec, xi: float,
                       tol: float = 1e-8, max_iter: int = 50) -> PicardResult:
    """Iterate Theta <- Xi + i Int_0^t B_N U(t-s) Theta(s) ds on the series
    grid (trapezoid in s) until successive iterates are closer than ``tol``
    in the weighted order-1 norm.

    The iterate is carried as spectra.  A sweep steps the forward-propagated
    prefix integral through the samples (see ``_flowed_prefix``), inverts it
    once per sample and level to apply B_N, and transforms the new iterate
    once; that spectrum gives the update norm by Parseval and feeds the next
    sweep.

    ``xi_series`` is the free term Xi(t), capital Xi; ``xi`` is the H^1_xi
    level weight in (0, 1), which sets both the update norms and the
    heuristic contraction gate ``t0_gate(xi)`` the horizon must sit inside.
    A ratio of successive updates >= 1 three times in a row aborts: the
    horizon is too large for the discrete surrogate.  The reported residual
    re-checks the converged iterate with an independent (Simpson) quadrature.
    """
    T = xi_series.horizon
    dt = xi_series.dt
    grid = xi_series.states[0].grid
    K = xi_series.states[0].K
    gate = t0_gate(xi)
    if T >= gate:
        raise ValueError(f"horizon T={T} is not below the gate T0={gate}")
    phases = [np.exp(-1j * dt * flow_symbol(grid, k)) for k in range(1, K + 1)]
    weights = [sobolev_weight(grid, 2 * k, 1.0) for k in range(1, K + 1)]

    def spectra(state: HierarchyState) -> list[np.ndarray]:
        return [marginal_spectrum(m) for m in state.entries]

    def sweep(theta_hat: list[list[np.ndarray]], simpson: bool):
        """New iterate, its spectra, and its max-over-samples distance to
        theta in hierarchy_norm(., 1.0, xi), by Parseval."""
        # B_N U(t-s) Theta(s) = B_N U(t) [U(-s) Theta(s)], so one running
        # prefix per level replaces the quadratic double loop over (t, s).
        prefixes = zip(*[_flowed_prefix([s[k] for s in theta_hat], phases[k],
                                        dt, simpson) for k in range(K)])
        states, hats, dist = [], [], 0.0
        for xi_state, old_hat, prefix in zip(xi_series.states, theta_hat, prefixes):
            acc = HierarchyState([marginal_from_spectrum(grid, k, a)
                                  for k, a in enumerate(prefix, start=1)])
            new = xi_state + bbgky_rhs(acc, pot) * 1j
            new_hat = spectra(new)
            dist = max(dist, sum(
                xi**k * math.sqrt(np.sum(w * np.abs(a - b) ** 2))
                for k, (a, b, w) in enumerate(zip(new_hat, old_hat, weights),
                                              start=1)))
            states.append(new)
            hats.append(new_hat)
        return states, hats, dist

    theta = [s.copy() for s in xi_series.states]
    theta_hat = [spectra(s) for s in theta]
    update_norms: list[float] = []
    ratios: list[float] = []
    converged = False
    rising = 0
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        new_theta, new_hat, delta = sweep(theta_hat, simpson=False)
        update_norms.append(delta)
        if len(update_norms) >= 2 and update_norms[-2] > 0:
            ratio = delta / update_norms[-2]
            ratios.append(ratio)
            rising = rising + 1 if ratio >= 1.0 else 0
            if rising >= 3:
                raise RuntimeError(
                    f"no contraction after {it} sweeps (last ratios "
                    f"{ratios[-3:]}); the horizon is too large for the "
                    f"discrete surrogate")
        theta, theta_hat = new_theta, new_hat
        if delta < tol:
            converged = True
            break

    residual = sweep(theta_hat, simpson=True)[2]
    return PicardResult(TimeSeries(dt, theta), iterations, update_norms,
                        ratios, converged, residual)
