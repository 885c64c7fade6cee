"""Exact small-N bosonic dynamics on the torus.

The wavefunction is a rank-N field; the generator is the per-slot Laplacian
plus the pair interaction (1/N) sum_{i<j} V_N(x_i - x_j).  Sizes grow like
n^(N*d), so every constructor checks the tensor budget and the interesting
regime is a ladder of small N rather than any single large run.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .budget import default_budget
from .grid import (Field, GridSpec, _check_count, apply_symbol,
                   bessel_multiply, check_same_grid, free_propagate,
                   free_symbol, inner, l2_norm, normalized, place_axes,
                   step_count, stored_steps)
from .interactions import PotentialSpec
from .marginals import Marginal, _tensor_product

# relative imaginary residue of <psi, H^j psi> tolerated as rounding
MOMENT_IMAG_TOL = 1e-9


def _pair_potential_total(grid: GridSpec, big_n: int, pot: PotentialSpec) -> np.ndarray:
    """sum_{i<j} V(x_i - x_j) over the full rank-N grid (no 1/N factor)."""
    total = np.zeros(grid.slot_shape(big_n))
    for i in range(big_n):
        for j in range(i + 1, big_n):
            axes = grid.slot_axes(i) + grid.slot_axes(j)
            total += place_axes(pot.difference_table, axes, total.ndim)
    return total


@dataclass
class NBodyState:
    grid: GridSpec
    big_n: int
    psi: Field
    pot: PotentialSpec

    def __post_init__(self):
        if self.psi.rank != self.big_n:
            raise ValueError("wavefunction rank must equal the particle number")

    @cached_property
    def pair_potential(self) -> np.ndarray:
        return _pair_potential_total(self.grid, self.big_n, self.pot)

    @cached_property
    def kinetic(self) -> np.ndarray:
        return free_symbol(self.grid, [1] * self.big_n)

    def with_psi(self, psi: Field) -> "NBodyState":
        """The same system in another state; the cached pair potential and
        kinetic symbol are shared, not rebuilt."""
        other = copy.copy(self)  # shallow: keeps the cached_property values
        other.psi = psi
        other.__post_init__()
        return other


def factorized_state(phi: Field, big_n: int, pot: PotentialSpec) -> NBodyState:
    """Product wavefunction phi tensored N times (normalized)."""
    check_same_grid(phi=phi, pot=pot)
    _check_count("big_n", big_n, 1)
    grid = phi.grid
    default_budget().check_elements(grid.num_points**big_n,
                                    f"N-body state N={big_n}")
    data = _tensor_product([phi.data] * big_n)
    return NBodyState(grid, big_n, normalized(Field(grid, big_n, data)), pot)


def symmetry_defect(psi: Field) -> float:
    """Max deviation of the wavefunction under adjacent slot transpositions."""
    rank, d = psi.rank, psi.grid.dim
    if rank == 1:
        return 0.0
    worst = 0.0
    for i in range(rank - 1):
        axes = list(range(rank * d))
        for ax in range(d):
            a, b = i * d + ax, (i + 1) * d + ax
            axes[a], axes[b] = axes[b], axes[a]
        moved = np.transpose(psi.data, axes)
        worst = max(worst, float(np.max(np.abs(psi.data - moved))))
    return worst


# ---------------------------------------------------------------------------
# Generator, evolution, reductions


# Wavefunctions hamiltonian_apply works in: the result, the potential term
# and its real factor V/N (2.5), and the real kinetic symbol and pair
# potential (0.5 each) when the call builds them.
HAMILTONIAN_WORKING_FIELDS = 4


def hamiltonian_apply(state: NBodyState, psi: Field) -> Field:
    """H psi for the system of ``state``: kinetic part spectrally, pair
    potential pointwise with the 1/N weight, added into the kinetic part's
    buffer."""
    default_budget().check_elements(
        HAMILTONIAN_WORKING_FIELDS * psi.data.size,
        f"N-body Hamiltonian of {HAMILTONIAN_WORKING_FIELDS} working "
        f"wavefunctions")
    out = apply_symbol(psi, state.kinetic).data
    out += (state.pair_potential / state.big_n) * psi.data
    return Field(state.grid, state.big_n, out)


@dataclass
class NBodyTrajectory:
    """Wavefunctions at ``stored_steps``; norms at every step."""

    stored_steps: list[int]
    psis: list[Field]
    norms: np.ndarray


# Wavefunctions a split step holds beyond the stored samples, the one it
# works in being the next one stored: the free flow's scratch buffer, the
# half-step phase, the real pair potential if the call builds it (0.5) and
# l2_norm's real temporary (0.5).
SPLIT_STEP_WORKING_FIELDS = 3


def nbody_evolve(state: NBodyState, dt: float, t_final: float,
                 store_every: int = 1) -> NBodyTrajectory:
    """Symmetric split-step trajectory (pointwise potential halves around the
    exact kinetic step, grid.free_propagate).  Unitary, so the norm is
    conserved to rounding; energy drift is bounded at second order.

    The step works in one wavefunction and the flow's scratch buffer and
    leaves state.psi alone: psis[0] is state.psi itself, later samples are
    copies, and the last is the working wavefunction."""
    n_steps = step_count(t_final, dt)
    keep = stored_steps(n_steps, store_every)
    default_budget().check_elements(
        (len(keep) + SPLIT_STEP_WORKING_FIELDS) * state.psi.data.size,
        f"N-body trajectory of {len(keep)} samples and "
        f"{SPLIT_STEP_WORKING_FIELDS} working wavefunctions")
    grid, big_n = state.grid, state.big_n
    vhalf = -0.5j * dt * state.pair_potential
    vhalf /= big_n
    np.exp(vhalf, out=vhalf)
    psi = state.psi.data.copy()
    scratch = np.empty_like(psi)
    norms, psis = [l2_norm(state.psi)], [state.psi]
    for step in range(1, n_steps + 1):
        np.multiply(vhalf, psi, out=psi)
        flowed = free_propagate(Field(grid, big_n, psi), dt, scratch=scratch)
        if np.may_share_memory(flowed.data, scratch):  # an odd N*d passes
            psi, scratch = scratch, psi
        np.multiply(vhalf, psi, out=psi)
        norms.append(l2_norm(Field(grid, big_n, psi)))
        if step == keep[len(psis)]:  # the next step to store
            psis.append(Field(grid, big_n,
                              psi if step == n_steps else psi.copy()))
    return NBodyTrajectory(keep, psis, np.array(norms))


def extract_marginal(psi: Field, k: int) -> Marginal:
    """k-particle reduction: contract the trailing slots of psi (x) conj(psi)
    with quadrature weights.  Unit-norm input gives a unit-trace kernel."""
    grid, big_n = psi.grid, psi.rank
    _check_count("k", k, 1)
    if k > big_n:
        raise ValueError(f"k must lie in 1..{big_n}")
    default_budget().check_elements(grid.num_points ** (2 * k), f"marginal k={k}")
    rows = grid.num_points**k
    mat = psi.data.reshape(rows, -1)
    kern = (mat @ mat.conj().T) * grid.h ** (grid.dim * (big_n - k))
    return Marginal(grid, k, kern.reshape(grid.slot_shape(2 * k)))


def energy_moments(state: NBodyState, k: int) -> list[float]:
    """[<psi, H^j psi> for j = 0..k] from k successive applications of H; each
    imaginary part is checked against the Hermiticity tolerance."""
    _check_count("k", k, 0)
    if k > 3:
        raise ValueError("moments above k=3 are outside the budget")
    vec = state.psi
    out = []
    for j in range(k + 1):
        if j:
            vec = hamiltonian_apply(state, vec)
        val = inner(state.psi, vec)
        if abs(val.imag) > MOMENT_IMAG_TOL * max(1.0, abs(val.real)):
            raise ArithmeticError(f"moment {j} has imaginary part {val.imag}")
        out.append(float(val.real))
    return out


def energy_estimate_check(state: NBodyState, k: int, c: float) -> float:
    """Ratio <psi,(H+N)^k psi> / (c^k N^k <psi, R psi>) where R dresses the
    first k slots with the order-2 multiplier.  A value >= 1 confirms the
    lower-bound instance."""
    if not 0 < c < 1:
        raise ValueError("c must lie in (0, 1)")
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    big_n = state.big_n
    vec = state.psi
    for _ in range(k):
        vec = Field(state.grid, big_n,
                    hamiltonian_apply(state, vec).data + big_n * vec.data)
    numerator = inner(state.psi, vec).real
    dressed = bessel_multiply(state.psi, 2.0, slots=range(k))
    denominator = inner(state.psi, dressed).real
    return float(numerator / (c**k * big_n**k * denominator))
