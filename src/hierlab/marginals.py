"""k-particle density kernels and truncated hierarchy states.

A Marginal stores the kernel gamma(x_1..x_k; x'_1..x'_k) as a complex tensor
whose first k slots are the unprimed variables and last k slots the primed
ones.  The quadrature-weighted matrix h^(d*k) * reshape((n^d)^k, (n^d)^k) is
the operator acting on one-slot L^2, so its trace, eigenvalues and singular
values are the operator-level quantities.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .budget import default_budget
from .grid import (Field, GridSpec, _check_count, _check_finite,
                   _check_open_unit, apply_symbol, bessel_multiply,
                   dft_forward, dft_inverse, free_propagate, free_symbol,
                   random_low_mode_field, sobolev_norm_field)


@dataclass
class Marginal:
    grid: GridSpec
    k: int
    kernel: np.ndarray

    def __post_init__(self):
        expected = self.grid.slot_shape(2 * self.k)
        if self.kernel.shape != expected:
            self.kernel = self.kernel.reshape(expected)
        if self.kernel.dtype != np.complex128:
            self.kernel = self.kernel.astype(np.complex128)

    @property
    def rows(self) -> int:
        return self.grid.num_points**self.k

    def as_field(self) -> Field:
        return Field(self.grid, 2 * self.k, self.kernel)

    def as_matrix(self) -> np.ndarray:
        return self.kernel.reshape(self.rows, self.rows)

    def weighted_matrix(self) -> np.ndarray:
        """Matrix of the integral operator, quadrature weight included."""
        return self.as_matrix() * self.grid.h ** (self.grid.dim * self.k)

    def copy(self) -> "Marginal":
        return Marginal(self.grid, self.k, self.kernel.copy())

    def __add__(self, other: "Marginal") -> "Marginal":
        self._check_compatible(other)
        return Marginal(self.grid, self.k, self.kernel + other.kernel)

    def __sub__(self, other: "Marginal") -> "Marginal":
        self._check_compatible(other)
        return Marginal(self.grid, self.k, self.kernel - other.kernel)

    def __mul__(self, c) -> "Marginal":
        return Marginal(self.grid, self.k, self.kernel * c)

    __rmul__ = __mul__

    def _check_compatible(self, other: "Marginal") -> None:
        if self.grid != other.grid or self.k != other.k:
            raise ValueError("marginals live on different grids or levels")


def zero_marginal(grid: GridSpec, k: int) -> Marginal:
    return Marginal(grid, k, np.zeros(grid.slot_shape(2 * k), dtype=np.complex128))


_LABELS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def pair_subscripts(k: int, d: int, pair: int, tie: int) -> tuple[str, str]:
    """Einsum input and output subscripts that consume particle pair ``pair``
    (slots pair and k + pair) of a level-k kernel in dimension d.

    Both halves of the pair take the labels of slot ``tie`` and drop out of
    the output: tie = pair is the partial trace, any other slot restricts the
    pair to that slot's variable (the contact contraction).
    """
    labels = list(_LABELS[: 2 * k * d])
    for i in range(d):
        labels[pair * d + i] = labels[(k + pair) * d + i] = labels[tie * d + i]
    out = [lab for ax, lab in enumerate(labels) if ax // d not in (pair, k + pair)]
    return "".join(labels), "".join(out)


def _tensor_product(factors: Sequence[np.ndarray]) -> np.ndarray:
    out = factors[0]
    for f in factors[1:]:
        out = np.tensordot(out, f, axes=0)
    return out


# ---------------------------------------------------------------------------
# Constructors


def pure_product_marginal(phi: Field, k: int) -> Marginal:
    """Rank-one product kernel, prod_j phi(x_j) * conj(phi(x'_j))."""
    if phi.rank != 1:
        raise ValueError("phi must be a rank-1 field")
    _check_count("k", k, 1)
    default_budget().check_elements(phi.grid.num_points ** (2 * k),
                                    f"product kernel k={k}")
    kern = _tensor_product([phi.data] * k + [np.conj(phi.data)] * k)
    return Marginal(phi.grid, k, kern)


def mixture_marginal(atoms: Iterable[tuple[float, Field]], k: int) -> Marginal:
    """Convex combination of product kernels from (weight, wavefunction)
    pairs, such as a de Finetti mixture's."""
    out = None
    for w, phi in atoms:
        if not (np.isfinite(w) and w >= 0):
            raise ValueError(f"mixture weights must be finite and >= 0, got {w}")
        term = pure_product_marginal(phi, k)
        out = term * w if out is None else out + term * w
    if out is None:
        raise ValueError("mixture must have at least one atom")
    return out


# ---------------------------------------------------------------------------
# Reductions and norms


def partial_trace_at(gamma: Marginal, pos: int) -> Marginal:
    """Trace out the particle at 0-based position ``pos`` (weight h^d)."""
    k, d = gamma.k, gamma.grid.dim
    if k < 2:
        raise ValueError("partial trace needs k >= 2 (use trace for k = 1)")
    if not 0 <= pos < k:
        raise ValueError(f"position {pos} out of range for k={k}")
    inp, out = pair_subscripts(k, d, pos, pos)
    contracted = np.einsum(f"{inp}->{out}", gamma.kernel)
    return Marginal(gamma.grid, k - 1, contracted * gamma.grid.h**d)


def partial_trace(gamma: Marginal) -> Marginal:
    """Trace out the last particle pair."""
    return partial_trace_at(gamma, gamma.k - 1)


def trace(gamma: Marginal) -> complex:
    w = gamma.grid.h ** (gamma.grid.dim * gamma.k)
    return complex(np.trace(gamma.as_matrix()) * w)


def sobolev_norm(gamma: Marginal, alpha: float) -> float:
    """Hilbert-Schmidt Sobolev norm, the order-alpha multiplier on all slots."""
    return sobolev_norm_field(gamma.as_field(), alpha)


def _hermitian_eigenvalues(gamma: Marginal, what: str,
                           alpha: float = 0.0) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of gamma's operator,
    dressed first by the order-alpha multiplier on every slot.  The
    eigensolve budget is checked before the dressing, and a non-finite
    kernel raises a ValueError naming ``what`` where eigvalsh would fail
    to converge."""
    default_budget().check_eig_rows(gamma.rows, f"{what} k={gamma.k}")
    kernel = (bessel_multiply(gamma.as_field(), alpha).data if alpha
              else gamma.kernel)
    _check_finite(f"{what} kernel", kernel)
    m = Marginal(gamma.grid, gamma.k, kernel).weighted_matrix()
    return np.linalg.eigvalsh(0.5 * (m + m.conj().T))


def trace_sobolev_norm(gamma: Marginal, alpha: float) -> float:
    """Trace norm of the Hermitian part of the multiplier-dressed operator."""
    return float(np.sum(np.abs(_hermitian_eigenvalues(gamma, "trace norm",
                                                      alpha))))


def psd_defect(gamma: Marginal) -> float:
    """max(0, -lambda_min) of the Hermitized operator; 0 means psd."""
    return max(0.0, -float(_hermitian_eigenvalues(gamma, "psd defect")[0]))


def _permute_kernel(kernel: np.ndarray, k: int, d: int,
                    perm_unprimed: Sequence[int], perm_primed: Sequence[int]) -> np.ndarray:
    axes = []
    for slot in perm_unprimed:
        axes.extend(range(slot * d, (slot + 1) * d))
    for slot in perm_primed:
        axes.extend(range((k + slot) * d, (k + slot + 1) * d))
    return np.transpose(kernel, axes)


def hermitize(gamma: Marginal) -> Marginal:
    k, d = gamma.k, gamma.grid.dim
    swap = list(range(k * d, 2 * k * d)) + list(range(k * d))
    adj = np.conj(np.transpose(gamma.kernel, swap))
    return Marginal(gamma.grid, k, 0.5 * (gamma.kernel + adj))


def symmetrize(gamma: Marginal) -> Marginal:
    """Project onto the kernels invariant under independent slot permutations
    of the unprimed and primed blocks, then Hermitize.  Idempotent.  A
    non-finite kernel raises a ValueError before the sum is allocated."""
    _check_finite("symmetrize kernel", gamma.kernel)
    k, d = gamma.k, gamma.grid.dim
    perms = list(itertools.permutations(range(k)))
    acc = np.zeros_like(gamma.kernel)
    for pu in perms:
        for pp in perms:
            acc += _permute_kernel(gamma.kernel, k, d, pu, pp)
    acc /= len(perms) ** 2
    return hermitize(Marginal(gamma.grid, k, acc))


def free_propagate_marginal(gamma: Marginal, t: float,
                            scratch: np.ndarray | None = None) -> Marginal:
    """Conjugate by the free flow: +1 signs on unprimed, -1 on primed slots.
    With ``scratch`` (an array like the kernel) the flow overwrites gamma's
    kernel, which then holds the result: a kernel has an even number of
    axes, so free_propagate's last pass writes the kernel, not scratch."""
    signs = [1] * gamma.k + [-1] * gamma.k
    return Marginal(gamma.grid, gamma.k,
                    free_propagate(gamma.as_field(), t, signs, scratch).data)


def flow_symbol(grid: GridSpec, k: int) -> np.ndarray:
    """Level-k free-flow symbol S_k = sum |xi_j|^2 - sum |xi'_j|^2:
    free_propagate_marginal(gamma, t) multiplies the spectrum by exp(-i t S_k)."""
    return free_symbol(grid, [1] * k + [-1] * k)


def marginal_spectrum(gamma: Marginal) -> np.ndarray:
    """Quadrature-weighted DFT of the kernel over all 2k slots."""
    return dft_forward(gamma.as_field()).data


def marginal_from_spectrum(grid: GridSpec, k: int, spec: np.ndarray,
                           out: np.ndarray | None = None) -> Marginal:
    """Inverse of marginal_spectrum, into ``out`` (which may be spec) or one
    new array."""
    return Marginal(grid, k, dft_inverse(Field(grid, 2 * k, spec), out).data)


def free_generator(gamma: Marginal) -> Marginal:
    """Kernel of the commutator with the (negative) Laplacian: the additive
    symbol sum |xi_j|^2 - sum |xi'_j|^2 applied in Fourier space."""
    out = apply_symbol(gamma.as_field(), flow_symbol(gamma.grid, gamma.k))
    return Marginal(gamma.grid, gamma.k, out.data)


def weakstar_metric(gamma_a: Marginal, gamma_b: Marginal,
                    observables: Sequence[Marginal]) -> float:
    """Sum of 2^(-i) |Tr J_i (a - b)| over a finite test-operator family.

    Observables are rescaled to operator norm <= 1 before pairing.
    """
    diff = (gamma_a - gamma_b).weighted_matrix()
    total = 0.0
    for i, obs in enumerate(observables, start=1):
        m = obs.weighted_matrix()
        norm = np.linalg.norm(m, 2)
        if norm > 1.0:
            m = m / norm
        total += 2.0 ** (-i) * abs(np.trace(m @ diff))
    return float(total)


# ---------------------------------------------------------------------------
# Hierarchy states


@dataclass
class HierarchyState:
    """Finite truncated sequence (gamma^(1), ..., gamma^(K)) of kernels on one
    grid, level k holding a k-particle kernel."""

    entries: list[Marginal]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("hierarchy state needs at least one level")
        grid = self.entries[0].grid
        for j, m in enumerate(self.entries, start=1):
            if m.grid != grid:
                raise ValueError("all levels must share one grid")
            if m.k != j:
                raise ValueError(f"entry {j} has particle number {m.k}")

    @property
    def grid(self) -> GridSpec:
        return self.entries[0].grid

    @property
    def K(self) -> int:
        return len(self.entries)

    def entry(self, k: int) -> Marginal:
        """1-based accessor of the levels 1..K."""
        if not 1 <= k <= self.K:
            raise ValueError(f"level {k} outside 1..{self.K}")
        return self.entries[k - 1]

    def copy(self) -> "HierarchyState":
        return HierarchyState([m.copy() for m in self.entries])

    def __add__(self, other: "HierarchyState") -> "HierarchyState":
        return self._levelwise(operator.add, other)

    def __sub__(self, other: "HierarchyState") -> "HierarchyState":
        return self._levelwise(operator.sub, other)

    def _levelwise(self, op, other: "HierarchyState") -> "HierarchyState":
        if self.K != other.K:
            raise ValueError("states truncated at different levels")
        return HierarchyState([op(a, b) for a, b in zip(self.entries, other.entries)])

    def __mul__(self, c) -> "HierarchyState":
        return HierarchyState([m * c for m in self.entries])

    __rmul__ = __mul__


def factorized_state(phi: Field, K: int) -> HierarchyState:
    _check_count("K", K, 1)
    return HierarchyState([pure_product_marginal(phi, k) for k in range(1, K + 1)])


def mixture_state(atoms, K: int) -> HierarchyState:
    _check_count("K", K, 1)
    return HierarchyState([mixture_marginal(atoms, k) for k in range(1, K + 1)])


def hierarchy_norm(state: HierarchyState, alpha: float, xi: float, *,
                   flavor: str = "hilbert_schmidt") -> float:
    """Weighted hierarchy norm sum_k xi^k ||gamma^(k)||, the level norm of
    order alpha in the chosen flavor; xi is the H_xi weight, in (0, 1)."""
    _check_open_unit("xi", xi)
    if flavor == "hilbert_schmidt":
        per_k = (sobolev_norm(m, alpha) for m in state.entries)
    elif flavor == "trace":
        per_k = (trace_sobolev_norm(m, alpha) for m in state.entries)
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    return float(sum(xi**k * v for k, v in enumerate(per_k, start=1)))


def admissibility_defect(state: HierarchyState) -> list[float]:
    """HS norms of Tr_(k+1) gamma^(k+1) - gamma^(k) for k = 1..K-1.  A
    non-finite level raises a ``ValueError`` naming it before any trace."""
    if state.K < 2:
        raise ValueError("admissibility needs K >= 2")
    for k, m in enumerate(state.entries, start=1):
        _check_finite(f"state level {k}", m.kernel)
    out = []
    for k in range(1, state.K):
        residual = partial_trace(state.entry(k + 1)) - state.entry(k)
        out.append(sobolev_norm(residual, 0.0))
    return out


def random_hermitian_marginal(grid: GridSpec, k: int, rng: np.random.Generator,
                              max_mode: int | None = None,
                              symmetric: bool = False) -> Marginal:
    """Seeded smooth Hermitian test kernel (optionally permutation symmetric)."""
    raw = random_low_mode_field(grid, 2 * k, rng, max_mode=max_mode,
                                unit_norm=False)
    gamma = hermitize(Marginal(grid, k, raw.data))
    if symmetric and k > 1:
        gamma = symmetrize(gamma)
    nrm = sobolev_norm(gamma, 0.0)
    return gamma * (1.0 / nrm) if nrm > 0 else gamma
