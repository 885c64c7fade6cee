"""Discrete de Finetti mixtures, the cubic flow of their atoms, and the
higher-order energy functionals evaluated both by explicit kernel algebra and
by the closed mixture-side formula.

A mixture is a finite convex combination of unit-norm one-particle
wavefunctions: the de Finetti measure of a hierarchy whose marginals keep
trace one lives on the unit sphere of L^2.  Its k-level kernels are positive
semidefinite with trace one, and its m-th energy functional collapses to
sum_i w_i (1/2 + E[phi_i])^m where E is the conserved one-particle energy.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .grid import (Field, GridSpec, _check_count, _check_finite,
                   bessel_multiply, free_propagate, l2_norm,
                   random_low_mode_field, sobolev_norm_field, step_count)
from .marginals import (HierarchyState, Marginal, hierarchy_norm,
                        mixture_state, pair_subscripts, partial_trace_at,
                        trace)

# relative imaginary residue of the energy functional tolerated as rounding
FUNCTIONAL_IMAG_TOL = 1e-10
# relative slack of the window chain's norm bound
WINDOW_SLACK = 1e-6


@dataclass
class Mixture:
    """Weighted list of unit-norm one-particle wavefunctions.

    Weights must be a probability vector and every atom must have L^2 norm
    one.  Iterating a mixture yields its (weight, atom) pairs.
    """

    atoms: list[tuple[float, Field]]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("mixture needs at least one atom")
        if not all(math.isfinite(w) and w >= 0 for w, _ in self.atoms):
            raise ValueError("weights must be finite and nonnegative")
        total = sum(w for w, _ in self.atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {total}")
        for _, phi in self.atoms:
            nrm = l2_norm(phi)
            if not abs(nrm - 1.0) <= 1e-10:  # a NaN norm fails too
                raise ValueError(f"atom has norm {nrm}, not 1")

    def __iter__(self) -> Iterator[tuple[float, Field]]:
        return iter(self.atoms)


def random_mixture(grid: GridSpec, n_atoms: int, rng: np.random.Generator,
                   max_mode: int = 2) -> Mixture:
    """Seeded mixture of smooth low-mode atoms with random simplex weights."""
    _check_count("n_atoms", n_atoms, 1)
    raw = rng.random(n_atoms) + 0.25
    weights = raw / raw.sum()
    return Mixture([(float(w), random_low_mode_field(grid, 1, rng,
                                                     max_mode=max_mode))
                    for w in weights])


# ---------------------------------------------------------------------------
# Cubic flow


def nls_evolve(phi: Field, dt: float, t_final: float) -> Field:
    """Cubic defocusing flow i dphi/dt = -Lap phi + |phi|^2 phi, the unit
    coupling of the contact hierarchy, over t_final by symmetric splitting;
    both substeps are exact, so mass is conserved to rounding and energy
    drift (of ``nls_energy``) is bounded at second order.  Samples along a
    flow are chained calls, bit-identical to one long call."""
    if phi.rank != 1:
        raise ValueError("flow acts on one-particle fields")
    data = phi.data.copy()
    for _ in range(step_count(t_final, dt)):
        data = data * np.exp(-0.5j * dt * np.abs(data) ** 2)
        data = free_propagate(Field(phi.grid, 1, data), dt).data
        data = data * np.exp(-0.5j * dt * np.abs(data) ** 2)
    return Field(phi.grid, 1, data)


def nls_energy(phi: Field) -> float:
    """One-particle energy 0.5*|phi|_{H1}^2*|phi|_{L2}^2 + 0.25*|phi|_{L4}^4.
    A non-finite atom raises a ``ValueError`` naming phi."""
    _check_finite("phi", phi.data)
    grid = phi.grid
    h1 = sobolev_norm_field(phi, 1.0)
    mass = l2_norm(phi)
    l4_4 = float(grid.h**grid.dim * np.sum(np.abs(phi.data) ** 4))
    return 0.5 * h1**2 * mass**2 + 0.25 * l4_4


def flow_mixture(mix: Mixture, t: float, dt: float) -> Mixture:
    """Evolve every atom by the cubic flow; the weights are untouched."""
    return Mixture([(w, nls_evolve(phi, dt, t)) for w, phi in mix])


# ---------------------------------------------------------------------------
# Energy functionals


def energy_functional_mixture(mix: Mixture, m: int) -> float:
    """Mixture-side value sum_i w_i (1/2 + E[phi_i])^m."""
    _check_count("m", m, 0)
    return float(sum(w * (0.5 + nls_energy(phi)) ** m for w, phi in mix))


def energy_functional_direct(state: HierarchyState, m: int) -> float:
    """Evaluate the m-th energy functional by explicit kernel algebra.

    Starting from the 2m-particle kernel, each stage consumes one particle:
    half of (identity plus the order-2 multiplier on the surviving unprimed
    slot) applied to the partial trace, plus a quarter of the plus-type
    contact contraction.  The trace of the remaining m-particle kernel is the
    value; on mixture kernels it reproduces the closed formula.
    """
    _check_count("m", m, 0)
    if m == 0:
        return 1.0
    if state.K < 2 * m:
        raise ValueError(f"functional of order {m} needs level {2 * m}, "
                         f"state holds {state.K}")
    cur = state.entry(2 * m)
    for ell in range(2 * m - 1, 0, -2):
        reduced = partial_trace_at(cur, ell)
        dressed = bessel_multiply(reduced.as_field(), 2.0, slots=[ell - 1])
        # plus-type contact contraction of pair ell onto the unprimed x_ell
        inp, out = pair_subscripts(cur.k, cur.grid.dim, ell, ell - 1)
        contact = np.einsum(f"{inp}->{out}", cur.kernel)
        cur = Marginal(cur.grid, cur.k - 1,
                       0.5 * dressed.data + 0.5 * reduced.kernel + 0.25 * contact)
    val = trace(cur)
    if abs(val.imag) > FUNCTIONAL_IMAG_TOL * max(1.0, abs(val.real)):
        raise ArithmeticError(f"energy functional has imaginary residue {val.imag}")
    return float(val.real)


# ---------------------------------------------------------------------------
# Windowed global-flow battery


def gwp_window_chain(mix: Mixture, state0: HierarchyState, bound: float,
                     window: float, windows: int, xi: float,
                     dt: float = 1e-3) -> dict:
    """Run the truncated contact hierarchy window by window from ``state0``,
    the hierarchy of ``mix``, re-anchoring on the flowed mixture after each
    window, and log each window's H^1_xi norm against ``bound``.

    Any window whose norm exceeds the bound beyond ``WINDOW_SLACK`` (relative)
    flags failure.  ``windows`` and ``bound`` are checked before the first
    window.
    """
    # imported here: hierarchy_evolution imports this module
    from .hierarchy_evolution import EvolutionConfig, gp_evolve

    _check_count("windows", windows, 0)
    _check_finite("bound", bound)
    cfg = EvolutionConfig(dt=dt, t_final=window)
    current, state = mix, state0
    rows = []
    for w in range(windows):
        if w > 0:  # re-anchor on the mixture flowed through the last window
            current = flow_mixture(current, window, dt)
            state = mixture_state(current, state0.K)
        traj = gp_evolve(state, cfg, mixture=current, store_every=0)
        h1 = hierarchy_norm(traj.states[-1], 1.0, xi)
        within = h1 <= bound + WINDOW_SLACK * max(1.0, bound)
        rows.append({"window": w, "t_end": (w + 1) * window, "h1_norm": h1,
                     "within_bound": within})
    return {"rows": rows, "passed": all(row["within_bound"] for row in rows)}
