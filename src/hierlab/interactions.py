"""Collision operators coupling hierarchy levels.

Contact (delta-limit) operators restrict the consumed particle pair to the
diagonal; finite-N operators convolve with a rescaled potential instead.
Both follow one convention: integrals are h^d-weighted sums, and the delta
surrogate is a single grid-point mass of height 1/h^d, so the two factors
cancel and the delta-potential case reproduces the contact operator exactly.

Primed-variable (minus) operators reuse the unprimed index logic with the
potential argument moved to the primed slot; plus and minus parts are mutual
adjoints.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .budget import default_budget
from .grid import (Field, GridSpec, _check_count, _check_finite,
                   _check_positive, check_same_grid, place_axes)
from .marginals import HierarchyState, Marginal, pair_subscripts, zero_marginal

# boxes summed on each side when a Gaussian profile is periodized
PERIODIC_IMAGES = 3


# ---------------------------------------------------------------------------
# Scaled potentials


@dataclass
class PotentialSpec:
    """Strength-scaled, argument-compressed realization N^(d*beta) * V(N^beta x)
    of a base profile, sampled back onto the grid."""

    grid: GridSpec
    big_n: int
    realized: Field

    @cached_property
    def difference_table(self) -> np.ndarray:
        """Dense W[a, b] = V(x_a - x_b), built on first use and kept."""
        default_budget().check_elements(self.grid.num_points ** 2,
                                        "potential difference table")
        return potential_difference_tensor(self.realized)


def gaussian_profile(grid: GridSpec, width: float) -> Field:
    """Centered Gaussian of the given width, periodized per axis over
    PERIODIC_IMAGES boxes on each side."""
    _check_positive("profile width", width)
    x = grid.points
    offsets = np.arange(-PERIODIC_IMAGES, PERIODIC_IMAGES + 1) * grid.L
    axis_val = np.exp(-0.5 * ((x[:, None] - offsets[None, :]) / width) ** 2).sum(axis=1)
    val = axis_val
    for _ in range(grid.dim - 1):
        val = np.multiply.outer(val, axis_val)
    return Field(grid, 1, val.astype(np.complex128))


def bump_profile(grid: GridSpec, width: float) -> Field:
    """Compactly supported smooth bump of the given radius."""
    _check_positive("profile width", width)
    x = grid.points
    centered = np.minimum(x, grid.L - x)  # torus distance to the origin
    axes = np.meshgrid(*([centered] * grid.dim), indexing="ij")
    r2 = sum(ax**2 for ax in axes)
    val = np.zeros_like(r2)
    inside = r2 < width**2
    val[inside] = np.exp(-1.0 / (1.0 - r2[inside] / width**2))
    return Field(grid, 1, val.astype(np.complex128))


PROFILES = {"gaussian": gaussian_profile, "bump": bump_profile}


def check_profile(profile: Field) -> None:
    """Raise a ``ValueError`` unless ``profile`` is finite, real,
    nonnegative and even under x -> -x, as a potential profile must be."""
    data = profile.data
    _check_finite("potential profile", data)  # NaN fails every comparison below
    if np.max(np.abs(data.imag)) > 1e-12 * max(np.max(np.abs(data)), 1e-300):
        raise ValueError("potential profile must be real")
    if np.min(data.real) < -1e-12 * max(np.max(data.real), 1e-300):
        raise ValueError("potential profile must be nonnegative")
    flipped = data
    for ax in range(data.ndim):
        flipped = np.flip(np.roll(flipped, -1, axis=ax), axis=ax)
    if np.max(np.abs(data - flipped)) > 1e-10 * max(np.max(np.abs(data)), 1e-300):
        raise ValueError("potential profile must be even under x -> -x")


def realize_potential(profile: Field, beta: float, big_n: int,
                      width: float | None = None) -> PotentialSpec:
    """Build the desk realization of N^(d*beta) * V(N^beta x): the profile's
    spectral data, evaluated at frequencies shrunk by N^(-beta), inverted back
    to the grid.

    Compressing the bump in space is stretching its spectrum; doing the
    scaling on the spectral side keeps the quadrature mass of the realization
    equal to the profile's mass exactly (the zero mode is untouched), which is
    what makes the concentration limit measurable on a fixed grid.  The
    profile is first rescaled to unit quadrature mass: the coupling of the
    contact hierarchy it converges to, the mass, is 1.
    """
    if not 0 < beta < 0.25:
        raise ValueError(f"beta must lie in (0, 1/4), got {beta}")
    _check_count("big_n", big_n, 1)
    check_profile(profile)
    grid = profile.grid
    d = grid.dim
    base = profile.data.real.astype(np.float64)
    mass = float(grid.h**d * base.sum())
    if mass <= 0:
        raise ValueError("potential profile must have positive mass")
    base = base / mass

    scale = float(big_n) ** beta
    # Centered coordinates put the bump at the origin, so the spectral sum
    # below is the quadrature transform of the bump itself.
    centered = (grid.points + grid.L / 2.0) % grid.L - grid.L / 2.0
    # A[m, i] = h * exp(-i (freq_m / scale) x_i), one axis at a time.
    eval_mat = grid.h * np.exp(-1j * np.outer(grid.frequencies / scale, centered))
    spec = base.astype(np.complex128)
    for ax in range(d):
        spec = np.tensordot(eval_mat, spec, axes=([1], [ax]))
        spec = np.moveaxis(spec, 0, ax)
    # enforce an exactly even (hence real) realization; the grid point at
    # -L/2 has no mirror partner and would otherwise leave odd residue
    for ax in range(d):
        spec = 0.5 * (spec + np.roll(np.flip(spec, axis=ax), 1, axis=ax))
    realized = np.fft.ifftn(spec.real).real / grid.h**d

    # support heuristic: the bump spans about 4*width, under-resolved when
    # the compressed support covers fewer than 4 mesh cells
    if width is not None and 4.0 * width / scale < 4.0 * grid.h:
        warnings.warn(
            f"scaled potential support {4.0 * width / scale:.3g} is below 4 "
            f"mesh cells; the realization is under-resolved at N={big_n}",
            RuntimeWarning, stacklevel=2)
    return PotentialSpec(grid=grid, big_n=big_n, realized=Field(grid, 1, realized))


def delta_surrogate(grid: GridSpec, big_n: int = 1) -> PotentialSpec:
    """Unit-mass point potential: one grid-point spike of height 1/h^d.

    Contracting against it reduces the finite-N operator to the contact one.
    """
    data = np.zeros(grid.slot_shape(1), dtype=np.complex128)
    data[(0,) * grid.dim] = 1.0 / grid.h**grid.dim
    return PotentialSpec(grid=grid, big_n=big_n, realized=Field(grid, 1, data))


def potential_difference_tensor(realized: Field) -> np.ndarray:
    """W[a, b] = V(x_a - x_b) on the torus, shape (n,)*(2d)."""
    grid = realized.grid
    n, d = grid.n, grid.dim
    diff = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return realized.data.real[tuple(place_axes(diff, (ax, d + ax), 2 * d)
                                    for ax in range(d))]


# ---------------------------------------------------------------------------
# Contact (delta-limit) collision operators


def _target_slot(gamma_next: Marginal, j: int, sign: str) -> int:
    """Slot x_j ('+') or x'_j ('-') that the consumed last pair lands on."""
    k = gamma_next.k - 1
    if not 1 <= j <= k:
        raise ValueError(f"j={j} out of range for k={k}")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    return j - 1 if sign == "+" else gamma_next.k + j - 1


def _sum_over_j(gamma_next: Marginal, contract, plus_only: bool = False) -> Marginal:
    """sum_{j=1..k} [contract(j, '+') - contract(j, '-')] for a level-(k+1)
    kernel, accumulated in increasing j; ``plus_only`` drops the minus part."""
    out = None
    for j in range(1, gamma_next.k):
        term = contract(j, "+")
        if not plus_only:
            term = term - contract(j, "-")
        out = term if out is None else out + term
    if out is None:
        raise ValueError("a collision term needs a kernel of at least 2 particles")
    return out


def gp_collision(gamma_next: Marginal, j: int, sign: str) -> Marginal:
    """Contact contraction of a (k+1)-particle kernel down to k particles.

    '+' restricts the consumed pair to x_j, '-' to x'_j; the difference of the
    two is the level-coupling term of the contact hierarchy.
    """
    k = gamma_next.k - 1
    inp, out = pair_subscripts(gamma_next.k, gamma_next.grid.dim, k,
                               _target_slot(gamma_next, j, sign))
    return Marginal(gamma_next.grid, k,
                    np.einsum(f"{inp}->{out}", gamma_next.kernel))


def gp_collision_level(gamma_next: Marginal) -> Marginal:
    """Sum over j of the full contact operator, one hierarchy level down."""
    return _sum_over_j(gamma_next,
                       lambda j, sign: gp_collision(gamma_next, j, sign))


def gp_collision_sum(state: HierarchyState) -> HierarchyState:
    """Contact collision term of the whole state; level k reads level k+1.
    The top level has no level above it, so it is zero.  A non-finite
    level raises a ``ValueError`` naming it before any term is formed."""
    for k, m in enumerate(state.entries, start=1):
        _check_finite(f"state level {k}", m.kernel)
    comps = [gp_collision_level(gamma_next) for gamma_next in state.entries[1:]]
    comps.append(zero_marginal(state.grid, state.K))
    return HierarchyState(comps)


# ---------------------------------------------------------------------------
# Finite-N collision operators


def bbgky_collision_main(gamma_next: Marginal, j: int, sign: str,
                         pot: PotentialSpec) -> Marginal:
    """Finite-N analogue of the contact contraction: h^d sum_y V(x_s - y)
    gamma(..., y; ..., y), the diagonal of the consumed pair convolved with
    the realized potential centered at x_s = x_j ('+') or x'_j ('-')."""
    kp1, d = gamma_next.k, gamma_next.grid.dim
    k = kp1 - 1
    slot = _target_slot(gamma_next, j, sign)
    # the last pair's diagonal y is the partial-trace pattern; V reads (x_s, y)
    inp, out = pair_subscripts(kp1, d, k, k)
    v = inp[slot * d:(slot + 1) * d] + inp[k * d:kp1 * d]
    contracted = np.einsum(f"{v},{inp}->{out}", pot.difference_table,
                           gamma_next.kernel)
    return Marginal(gamma_next.grid, k, contracted * gamma_next.grid.h**d)


def bbgky_main_level(gamma_next: Marginal, pot: PotentialSpec,
                     plus_only: bool = False) -> Marginal:
    """Sum over j of the finite-N main operator, with the (N-k)/N weight."""
    check_same_grid(gamma_next=gamma_next, pot=pot)
    k = gamma_next.k - 1
    out = _sum_over_j(gamma_next,
                      lambda j, sign: bbgky_collision_main(gamma_next, j, sign, pot),
                      plus_only)
    out.kernel *= (pot.big_n - k) / pot.big_n
    return out


def product_collision_level(atoms: Sequence[tuple[float, Field]], k: int,
                            pot: PotentialSpec | None = None) -> Marginal:
    """Collision level k of the mixture of products
    sum_a w_a |phi_a^(tensor k+1)><phi_a^(tensor k+1)|, formed from the
    atoms without the level-(k+1) kernel.

    On such data the level is sum_a w_a Q_a(x) conj Q_a(x') (S_a(x) -
    S_a(x')), with Q_a = phi_a^(tensor k) and S_a(x) = sum_j rho_a(x_j).
    Without ``pot`` rho = |phi|^2, the contact density, and this is
    ``gp_collision_level``; with it rho = h^d sum_y V_N(x - y) |phi(y)|^2
    and the weights carry (N - k)/N, and this is ``bbgky_main_level``.
    With the atoms stacked as the rows of Q, S and R = conj Q (A rows of
    n^(kd) entries each) it is one matrix product,
    [w S Q ; -w Q]^T @ [R ; S R]; it holds those 2A-row factors and the one
    level-k kernel the product writes, checked against the budget before it
    is formed.
    """
    if not atoms or any(p.rank != 1 for _, p in atoms):
        raise ValueError("atoms must be one or more (weight, rank-1 field) pairs")
    operands = {f"atom {i}": p for i, (_, p) in enumerate(atoms)}
    if pot is not None:
        operands["pot"] = pot
    check_same_grid(**operands)
    grid = atoms[0][1].grid
    default_budget().check_elements(grid.num_points ** (2 * k),
                                    f"product collision kernel k={k}")
    weights = np.array([w for w, _ in atoms])[:, None]
    phi = np.stack([p.data.reshape(-1) for _, p in atoms])
    dens = np.abs(phi) ** 2
    if pot is not None:
        table = pot.difference_table.reshape(grid.num_points, -1)
        dens = grid.h ** grid.dim * (dens @ table.T)
        weights = weights * ((pot.big_n - k) / pot.big_n)
    q, s = phi, dens
    for _ in range(k - 1):  # one more slot: Q times phi, S plus rho
        q = (q[:, :, None] * phi[:, None, :]).reshape(len(atoms), -1)
        s = (s[:, :, None] + dens[:, None, :]).reshape(len(atoms), -1)
    r = np.conj(q)
    left = np.concatenate([weights * s * q, -weights * q])
    right = np.concatenate([r, s * r])
    return Marginal(grid, k, left.T @ right)


# Largest slab, in entries, that bbgky_error_level forms its sum in, one
# slab of the kernel's leading axes at a time: a slab's terms stay in cache,
# and the sum holds one level-k kernel, not two.
ERROR_SLAB_ENTRIES = 2**12


def bbgky_error_level(gamma: Marginal, pot: PotentialSpec) -> Marginal:
    """Sum over pairs i<j of plus-minus error terms, with the 1/N weight.

    The sum is formed one slab of the kernel's leading axes at a time (the
    first axis or more, so that a slab holds at most ERROR_SLAB_ENTRIES
    entries): the first term is written into the sum and each
    later one formed in a slab-sized buffer and added or subtracted, in the
    order of the pairs, plus before minus.  So the sum works in one level-k
    kernel beside its input, the products broadcast the potential over a
    slab, not the kernel, and every entry sees the operations of the
    term-by-term sum.  The weight is applied in place."""
    check_same_grid(gamma=gamma, pot=pot)
    k, grid, kernel = gamma.k, gamma.grid, gamma.kernel
    if k < 2:
        return zero_marginal(grid, k)
    lead = 1
    while math.prod(kernel.shape[lead:]) > ERROR_SLAB_ENTRIES:
        lead += 1

    def weight(i: int, j: int, offset: int) -> np.ndarray:
        # V(x_i - x_j) on the unprimed (offset 0) or primed (offset k) slots,
        # broadcast to the kernel; i < j, so the target axes increase
        axes = grid.slot_axes(offset + i - 1) + grid.slot_axes(offset + j - 1)
        return np.broadcast_to(
            place_axes(pot.difference_table, axes, kernel.ndim), kernel.shape)

    (first, _), *rest = [(weight(i, j, offset), accumulate)
                         for i in range(1, k + 1) for j in range(i + 1, k + 1)
                         for offset, accumulate in ((0, np.add), (k, np.subtract))]
    out = np.empty_like(kernel)
    product = np.empty(kernel.shape[lead:], complex)
    for idx in np.ndindex(kernel.shape[:lead]):
        np.multiply(kernel[idx], first[idx], out=out[idx])
        for w, accumulate in rest:
            np.multiply(kernel[idx], w[idx], out=product)
            accumulate(out[idx], product, out=out[idx])
    out *= 1.0 / pot.big_n
    return Marginal(grid, k, out)


def bbgky_rhs(state: HierarchyState, pot: PotentialSpec) -> HierarchyState:
    """Collision part of the finite-N hierarchy: at each level k the weighted
    same-level error term (``bbgky_error_level``), which is zero at level 1,
    plus, below the top level, the weighted main term reading level k+1,
    added in the error term's buffer.  Levels above N are zero."""
    check_same_grid(state=state, pot=pot)
    if state.K > pot.big_n:
        raise ValueError(f"state truncated at K={state.K} > N={pot.big_n}")
    comps = []
    for k in range(1, state.K + 1):
        term = bbgky_error_level(state.entry(k), pot)
        if k < state.K:
            term.kernel += bbgky_main_level(state.entry(k + 1), pot).kernel
        comps.append(term)
    return HierarchyState(comps)


# ---------------------------------------------------------------------------
# Momentum-space oracle


def collision_fourier_oracle(gamma_next: Marginal, t: float,
                             pot: PotentialSpec | None = None) -> Marginal:
    """Evaluate (plus-main at j=1) applied to the freely propagated kernel
    entirely in the momentum domain.

    The free flow is a phase, the pair diagonal becomes a convolution against
    the potential's spectrum at the summed dual variable, and the consumed
    momentum re-enters the first unprimed slot as a shift.  With no potential
    the spectrum factor is identically one (the delta limit).  Used as an
    independent cross-check of the spatial-domain path.
    """
    grid = gamma_next.grid
    kp1, d, n = gamma_next.k, grid.dim, grid.n
    k = kp1 - 1
    if k < 1:
        raise ValueError("need a kernel with at least 2 particles")
    if kp1 > 3:
        raise ValueError("oracle supports up to 3 particles upstairs")
    default_budget().check_elements(grid.num_points ** (2 * kp1),
                                    "fourier oracle input")

    spec = np.fft.fftn(gamma_next.kernel)
    if t != 0.0:
        forward, backward = np.exp(-1j * t * grid.k2), np.exp(+1j * t * grid.k2)
        for slot in range(2 * kp1):
            phase = forward if slot < kp1 else backward
            spec = spec * place_axes(phase, grid.slot_axes(slot), spec.ndim)

    if pot is None:
        vhat = np.ones(grid.slot_shape(1))
    else:
        vhat = (grid.h**d) * np.fft.fftn(pot.realized.data.real)

    u1_axes = tuple(range(d))
    out_spec = np.zeros(grid.slot_shape(2 * k), dtype=np.complex128)
    # slice out the consumed slots: unprimed slot k, primed slot 2k+1
    consumed_u = grid.slot_axes(k)
    consumed_p = grid.slot_axes(2 * kp1 - 1)
    for v_idx in np.ndindex(*([n] * d)):
        for vp_idx in np.ndindex(*([n] * d)):
            slicer = [slice(None)] * (2 * kp1 * d)
            for ax, iv in zip(consumed_u, v_idx):
                slicer[ax] = iv
            for ax, ivp in zip(consumed_p, vp_idx):
                slicer[ax] = ivp
            piece = spec[tuple(slicer)]
            shift = tuple((iv + ivp) % n for iv, ivp in zip(v_idx, vp_idx))
            coeff = vhat[shift] / (n ** (2 * d))
            out_spec += coeff * np.roll(piece, shift, axis=u1_axes)
    return Marginal(grid, k, np.fft.ifftn(out_spec))
