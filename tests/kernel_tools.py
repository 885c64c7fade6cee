"""Test tools: symmetry defects of density kernels, and a non-factorized
bosonic N-body state."""

import numpy as np

from hierlab.grid import Field, normalized, place_axes
from hierlab.marginals import Marginal
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


def perturbed_product_state(phi: Field, bump: Field, eps: float, big_n: int,
                            pot=None) -> NBodyState:
    """Non-factorized but exactly bosonic data: a product state modulated by
    the symmetric polynomial 1 + eps * sum_j bump(x_j)."""
    state = factorized_state(phi, big_n, pot)
    grid = phi.grid
    mod = np.zeros(grid.slot_shape(big_n), dtype=np.complex128)
    for slot in range(big_n):
        mod = mod + place_axes(bump.data, grid.slot_axes(slot), mod.ndim)
    data = state.psi.data * (1.0 + eps * mod)
    return NBodyState(grid, big_n, normalized(Field(grid, big_n, data)), pot)
