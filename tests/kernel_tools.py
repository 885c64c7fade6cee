"""Test tools: symmetry defects of density kernels, the zero potential, a
non-factorized bosonic N-body state, the contact residual of a whole stored
trajectory, one finite-N error term, out-of-place references for the
in-place RK4 step, finite-N error sum and prefix steps, a Picard sweep
that stores full spectra, the time loops'
right-hand side formed afresh at a state, a guard that fails
a test when an n-d transform runs, a counter of n-d transforms by rank, and
an executor that runs each call on the calling thread."""

import threading
from collections import Counter
from concurrent.futures import Future
from typing import Callable

import numpy as np
import pytest

from hierlab.grid import Field, normalized, place_axes
from hierlab.hierarchy_evolution import (HierarchyTrajectory, MixtureClosure,
                                         free_flow, gp_residual_row)
from hierlab.interactions import PotentialSpec, bbgky_rhs, gp_collision_level
from hierlab.marginals import (HierarchyState, Marginal, flow_symbol,
                               marginal_from_spectrum, marginal_spectrum,
                               zero_marginal)
from hierlab.nbody import NBodyState, factorized_state


def hermiticity_defect(gamma: Marginal) -> float:
    """Max deviation of the kernel from its adjoint."""
    k, d = gamma.k, gamma.grid.dim
    swap = list(range(k * d, 2 * k * d)) + list(range(k * d))
    adj = np.conj(np.transpose(gamma.kernel, swap))
    return float(np.max(np.abs(gamma.kernel - adj)))


def permutation_defect(gamma: Marginal) -> float:
    """Max deviation under adjacent transpositions of either variable block."""
    k, d = gamma.k, gamma.grid.dim
    worst = 0.0
    for first in (0, k):  # the unprimed block, then the primed one
        for i in range(first, first + k - 1):
            axes = list(range(2 * k * d))
            for ax in range(d):
                a, b = i * d + ax, (i + 1) * d + ax
                axes[a], axes[b] = axes[b], axes[a]
            moved = np.transpose(gamma.kernel, axes)
            worst = max(worst, float(np.max(np.abs(gamma.kernel - moved))))
    return worst


def zero_potential(grid, big_n=4) -> PotentialSpec:
    """V = 0: an all-zero finite-N collision term and N-body pair
    potential."""
    return PotentialSpec(grid=grid, big_n=big_n,
                         realized=Field(grid, 1, np.zeros(grid.slot_shape(1))))


def perturbed_product_state(phi: Field, bump: Field, eps: float, big_n: int,
                            pot: PotentialSpec) -> NBodyState:
    """Non-factorized but exactly bosonic data: a product state modulated by
    the symmetric polynomial 1 + eps * sum_j bump(x_j)."""
    state = factorized_state(phi, big_n, pot)
    grid = phi.grid
    mod = np.zeros(grid.slot_shape(big_n), dtype=np.complex128)
    for slot in range(big_n):
        mod = mod + place_axes(bump.data, grid.slot_axes(slot), mod.ndim)
    data = state.psi.data * (1.0 + eps * mod)
    return NBodyState(grid, big_n, normalized(Field(grid, big_n, data)), pot)


def gp_residual(traj: HierarchyTrajectory, dt: float) -> dict[int, np.ndarray]:
    """Central-difference defect of the stored trajectory, taken with time
    step ``dt``, against the contact hierarchy, per level k < K, at interior
    stored steps (``gp_residual_row``).  Requires every step stored (stride
    one)."""
    steps = traj.stored_steps
    if len(steps) < 3 or any(b - a != 1 for a, b in zip(steps, steps[1:])):
        raise ValueError("residual needs a trajectory stored at every step")
    K = traj.states[0].K
    out: dict[int, list[float]] = {k: [] for k in range(1, K)}
    for triple in zip(traj.states, traj.states[1:], traj.states[2:]):
        row = gp_residual_row(*triple, dt)
        for k, v in enumerate(row, start=1):
            out[k].append(v)
    return {k: np.array(v) for k, v in out.items()}


def rk4ip_step_reference(state: HierarchyState, deriv: HierarchyState,
                         t: float, dt: float,
                         rhs: Callable[[HierarchyState, float], HierarchyState]
                         ) -> HierarchyState:
    """One RK4 interaction-picture step from ``deriv`` = rhs(state, t) as the
    plain out-of-place formula; ``hierarchy_evolution._rk4ip_step`` must
    match it bit for bit."""
    half = lambda s: free_flow(s, dt / 2.0)
    state_i = half(state)
    k1 = half(deriv * dt)
    k2 = rhs(state_i + k1 * 0.5, t + dt / 2.0) * dt
    k3 = rhs(state_i + k2 * 0.5, t + dt / 2.0) * dt
    k4 = rhs(half(state_i + k3), t + dt) * dt
    return half(state_i + (k1 + 2.0 * k2 + 2.0 * k3) * (1.0 / 6.0)) + k4 * (1.0 / 6.0)


def bbgky_collision_error(gamma: Marginal, i: int, j: int, sign: str,
                          pot: PotentialSpec) -> Marginal:
    """One same-level term: the kernel times V(x_i - x_j) (or the primed
    pair)."""
    k, grid = gamma.k, gamma.grid
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if not (1 <= i < j <= k):
        raise ValueError(f"need 1 <= i < j <= k, got i={i}, j={j}, k={k}")
    offset = 0 if sign == "+" else k
    axes = grid.slot_axes(offset + i - 1) + grid.slot_axes(offset + j - 1)
    w = place_axes(pot.difference_table, axes, gamma.kernel.ndim)
    return Marginal(gamma.grid, k, gamma.kernel * w)


def bbgky_error_level_reference(gamma: Marginal, pot: PotentialSpec) -> Marginal:
    """The finite-N error sum term by term, out of place;
    ``interactions.bbgky_error_level`` must match it bit for bit."""
    if gamma.k < 2:
        return zero_marginal(gamma.grid, gamma.k)
    out = None
    for i in range(1, gamma.k + 1):
        for j in range(i + 1, gamma.k + 1):
            plus = bbgky_collision_error(gamma, i, j, "+", pot)
            out = plus if out is None else out + plus
            out = out - bbgky_collision_error(gamma, i, j, "-", pot)
    return out * (1.0 / pot.big_n)


def flowed_prefix_reference(spectra: list[np.ndarray], phase: np.ndarray,
                            dt: float, simpson: bool = False
                            ) -> list[np.ndarray]:
    """The forward-propagated prefixes of ``spectra`` with each step one
    expression, as its formula is written, every product by the phase with
    the bracket first; ``hierarchy_evolution._flowed_prefix`` must match it
    bit for bit."""
    acc: list[np.ndarray] = []
    for i, th in enumerate(spectra):
        if i == 0:
            acc.append(np.zeros_like(th))
        elif simpson and i % 2 == 0:
            acc.append(((acc[i - 2] + (dt / 3.0) * spectra[i - 2]) * phase
                        + (4.0 * dt / 3.0) * spectra[i - 1]) * phase
                       + (dt / 3.0) * th)
        else:
            acc.append((acc[i - 1] + (dt / 2.0) * spectra[i - 1]) * phase
                       + (dt / 2.0) * th)
    return acc


def picard_sweep_reference(start: HierarchyState, pot: PotentialSpec,
                           t: float, n_steps: int) -> list[list[np.ndarray]]:
    """Picard's first trapezoid sweep from its first iterate Xi, the free
    flow of ``start``, with every sample's spectra stored in full: level
    k's new spectra at the samples i * t / n_steps.  The unpacked samples
    of ``hierarchy_evolution.picard_fixed_point`` after one sweep must
    match them to rounding."""
    grid, dt = start.grid, t / n_steps
    xi, prefixes = [], []
    for k, m in enumerate(start.entries, start=1):
        phase = np.exp(-1j * dt * flow_symbol(grid, k))
        samples = [marginal_spectrum(m)]
        for _ in range(n_steps):
            samples.append(samples[-1] * phase)
        xi.append(samples)
        prefixes.append(flowed_prefix_reference(samples, phase, dt))
    new: list[list[np.ndarray]] = [[] for _ in start.entries]
    for i in range(n_steps + 1):
        rhs = bbgky_rhs(HierarchyState(
            [marginal_from_spectrum(grid, k, level[i])
             for k, level in enumerate(prefixes, start=1)]), pot)
        for level, m, x in zip(new, rhs.entries, xi):
            level.append(marginal_spectrum(m * 1j) + x[i])
    return new


class SerialExecutor:
    """Stands in for ``concurrent.futures.ThreadPoolExecutor``: each
    submitted call runs at once on the calling thread, and its future holds
    the result or the exception."""

    def __init__(self, max_workers: int | None = None):
        pass

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def submit(self, fn, *args, **kwargs) -> Future:
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as err:  # the future re-raises it on result()
            future.set_exception(err)
        return future


def loop_rhs(state: HierarchyState, step: int, dt: float, *, mixture=None,
             pot: PotentialSpec | None = None) -> HierarchyState:
    """The right-hand side of ``bbgky_evolve`` with ``pot``, else of
    ``gp_evolve`` with ``mixture``, at ``state``, the state of step ``step``,
    formed afresh: the mixture's closure is a new one, queried at step * dt.
    """
    if pot is not None:
        rhs = bbgky_rhs(state, pot)
    else:
        levels = [gp_collision_level(g) for g in state.entries[1:]]
        levels.append(MixtureClosure(mixture, state.K, dt / 2.0)
                      .top_collision(step * dt))
        rhs = HierarchyState(levels)
    for m in rhs.entries:
        m.kernel *= -1j
    return rhs


def bits(state: HierarchyState) -> list[np.ndarray]:
    """The raw bits of every level, for bit-for-bit comparisons."""
    return [m.kernel.view(np.uint64) for m in state.entries]


def forbid_transforms(monkeypatch) -> None:
    """Fail the test if ``np.fft.fftn`` or ``ifftn`` runs from here on."""
    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, lambda *a, **k: pytest.fail(
            "a transform ran before the call's checks"))


def count_transforms(monkeypatch):
    """Count np.fft.fftn / ifftn calls by the rank of the array transformed,
    from any thread."""
    counts = Counter()
    lock = threading.Lock()
    for name in ("fftn", "ifftn"):
        def spy(a, *args, _real=getattr(np.fft, name), _name=name, **kwargs):
            with lock:
                counts[_name, np.ndim(a)] += 1
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, spy)
    return counts
