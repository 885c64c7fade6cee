"""Time evolution of truncated hierarchies, and the integral equations
on free flows.

The free part is exponentiated exactly (it is a Fourier multiplier), the
level-coupling collision term is integrated in the interaction picture by the
classical fourth-order Runge-Kutta scheme anchored at the step midpoint.

The collision term annihilates traces identically on the grid (the plus and
minus restrictions agree on the kernel diagonal), so per-level traces are
conserved to rounding by construction and a drifting trace signals an
integrator failure, which aborts the run.

``picard_fixed_point`` integrates along the free flow of its start state,
and ``duhamel_tower`` along the free flow of a product state, read from its
one-particle atom; both sample it on ``n_steps`` uniform steps of t.  The
time step and horizon come from the caller; the Picard stopping rule is the
module constants ``PICARD_TOL`` and ``PICARD_MAX_SWEEPS``.  The coupling of
the contact hierarchy is 1, the mass of a realized potential.

The time loops and the integral equations reject non-finite start data,
the start state's levels or the atom, before their first step or
transform; Picard also rejects a start level that is not Hermitian, since
it holds every sample as half its entries.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Protocol, Sequence

import numpy as np

from .budget import default_budget
from .definetti import nls_evolve
from .grid import (Field, GridSpec, _check_count, _check_finite,
                   _check_open_unit, _check_positive, check_same_grid,
                   dft_forward, free_propagate, reflect, sobolev_weight,
                   spectral_norm, step_count, stored_steps)
from .interactions import (PotentialSpec, bbgky_main_level, bbgky_rhs,
                           gp_collision_level, product_collision_level)
from .marginals import (HierarchyState, Marginal, flow_symbol,
                        free_generator, free_propagate_marginal,
                        marginal_from_spectrum, marginal_spectrum,
                        sobolev_norm, trace, zero_marginal)


# relative trace drift of any level that aborts an evolution
TRACE_DRIFT_ABORT = 0.01


class InstabilityError(RuntimeError):
    """Trace drift exceeded the abort threshold during evolution."""


@dataclass
class EvolutionConfig:
    dt: float = 1e-3
    t_final: float = 0.1

    def __post_init__(self):
        _check_positive("dt", self.dt)


def t0_gate(xi: float) -> float:
    """Heuristic contraction horizon xi^2 of the H^1_xi-weighted Picard map."""
    _check_open_unit("xi", xi)
    return xi**2


def k_schedule(big_n: int, b1: float, cap: int = 8) -> int:
    """Truncation level floor(b1 * ln N), clamped to [1, cap]."""
    _check_count("big_n", big_n, 2)
    _check_positive("b1", b1)
    _check_count("cap", cap, 1)
    return int(np.clip(math.floor(b1 * math.log(big_n)), 1, cap))


def free_flow(state: HierarchyState, t: float) -> HierarchyState:
    return HierarchyState([free_propagate_marginal(m, t) for m in state.entries])


# ---------------------------------------------------------------------------
# Closures for the top level


class MixtureClosure:
    """Supply the missing top-level collision term from a mixture whose atoms
    are advanced alongside the hierarchy (cubic flow at half-step resolution).

    ``top_collision(t)`` returns the level-K collision kernel of the mixture
    at t, formed from the atoms without materializing the (K+1)-level kernel
    (``product_collision_level``).

    Only the latest atom frame is kept: the steppers query half-step indices
    in non-decreasing order, so an earlier index raises ``ValueError``.
    """

    def __init__(self, mixture, K: int, dt_half: float):
        self.K = K
        self.dt_half = dt_half
        self._index = 0
        self._atoms: list[tuple[float, Field]] = list(mixture)

    def _atoms_at(self, index: int) -> list[tuple[float, Field]]:
        if index < self._index:
            raise ValueError(f"closure queried at half-step {index} after "
                             f"{self._index}; frames are not kept")
        while self._index < index:
            self._atoms = [(w, nls_evolve(phi, self.dt_half, self.dt_half))
                           for w, phi in self._atoms]
            self._index += 1
        return self._atoms

    def top_collision(self, t: float) -> Marginal:
        return product_collision_level(
            self._atoms_at(step_count(t, self.dt_half)), self.K)


# ---------------------------------------------------------------------------
# Steppers


# Hierarchy states a step holds besides those its store keeps: the current
# state, state_i, k1, k2, k3's argument and k3 while k3's right-hand side
# runs.  A flow adds one level of scratch, the finite-N error sum a slab and
# a mixture closure its atoms' factors.  tracemalloc puts the peak of a loop
# whose store keeps nothing at 6.0-6.5 states, and of one that stores its
# two ends at 7.0-7.5 (d = 1 and 2, K = 2 and 3, contact with and without a
# closure, and finite N).
RK4IP_WORKING_STATES = 7


def _scaled(state: HierarchyState, c: complex) -> HierarchyState:
    """``state`` with every level multiplied by c in place."""
    for m in state.entries:
        m.kernel *= c
    return state


def _rk4ip_step(state: HierarchyState, deriv: HierarchyState,
                t: float, dt: float,
                rhs: Callable[[HierarchyState, float], HierarchyState]) -> HierarchyState:
    """One classical RK4 step in the interaction picture, anchored at the
    step midpoint, from ``deriv`` = rhs(state, t), which the caller forms:

        state_i = U(dt/2) state
        k1 = U(dt/2) (deriv dt)
        k2 = rhs(state_i + k1/2, t + dt/2) dt
        k3 = rhs(state_i + k2/2, t + dt/2) dt
        k4 = rhs(U(dt/2) (state_i + k3), t + dt) dt
        out = U(dt/2) (state_i + (k1 + 2 k2 + 2 k3)/6) + k4/6

    ``state`` is left alone.  ``deriv`` and ``rhs``'s results must hold
    arrays nothing else holds: the scalings, sums and flows work in them.  A
    flow overwrites its argument, working in one new level of scratch at a
    time, and (k1 + 2 k2 + 2 k3)/6 forms in k1, which k2 and k3 leave
    before the last flow.  Each operation is the one of the plain formula,
    with the array as its first operand or in a single commutative sum, so
    the result is bit for bit the formula's."""
    def half(s: HierarchyState) -> HierarchyState:  # U(dt/2) s, in s
        return HierarchyState([free_propagate_marginal(m, dt / 2.0,
                                                       np.empty_like(m.kernel))
                               for m in s.entries])

    def plus_state_i(s: HierarchyState) -> HierarchyState:
        for m, base in zip(s.entries, state_i.entries):
            m.kernel += base.kernel
        return s

    state_i = free_flow(state, dt / 2.0)
    k1 = half(_scaled(deriv, dt))
    k2 = _scaled(rhs(plus_state_i(k1 * 0.5), t + dt / 2.0), dt)
    k3 = _scaled(rhs(plus_state_i(k2 * 0.5), t + dt / 2.0), dt)
    arg4 = state_i + k3
    for a, b, c in zip(k1.entries, k2.entries, k3.entries):
        b.kernel *= 2.0
        a.kernel += b.kernel
        c.kernel *= 2.0
        a.kernel += c.kernel
        a.kernel *= 1.0 / 6.0
    del k2, k3, b, c  # the loop variables would keep the top level alive
    combined = plus_state_i(k1)
    del state_i
    k4 = _scaled(rhs(half(arg4), t + dt), dt)
    del arg4
    out = half(combined)
    for m, m4 in zip(out.entries, _scaled(k4, 1.0 / 6.0).entries):
        m.kernel += m4.kernel
    return out


@dataclass
class HierarchyTrajectory:
    """States at ``stored_steps`` and each level's trace at every step.  Any
    other per-step figure is the store's to take.

    ``states`` holds the stored states only when the time loop ran with its
    default store; a loop given its own ``store`` hands each stored state to
    that store instead and leaves ``states`` empty.
    """

    states: list[HierarchyState]
    stored_steps: list[int]
    traces: dict[int, np.ndarray]


class Store(Protocol):
    """Takes each stored sample of a time loop as ``store(step, state,
    deriv)``, in step order, where ``deriv`` is the right-hand side at
    ``state``.  The next step works in ``deriv``'s arrays, so a store reads
    it before it returns and keeps none of it.  ``held`` is the number of
    hierarchy states it keeps at once; the loop's budget check counts those
    as its stored samples."""

    held: int

    def __call__(self, step: int, state: HierarchyState,
                 deriv: HierarchyState) -> None: ...


def _evolve(state0: HierarchyState, config: EvolutionConfig,
            rhs: Callable[[HierarchyState, float], HierarchyState],
            store_every: int, store: Store | None) -> HierarchyTrajectory:
    state0.check_finite("start")
    n_steps = step_count(config.t_final, config.dt)
    keep = stored_steps(n_steps, store_every)
    states: list[HierarchyState] = []
    held = len(keep) if store is None else store.held
    check_series_budget(state0.grid, state0.K, held, RK4IP_WORKING_STATES)
    if store is None:  # the default store keeps every sample in the trajectory
        def store(step: int, s: HierarchyState, deriv: HierarchyState) -> None:
            states.append(s)
    kept = set(keep)
    dt = config.dt
    K = state0.K
    state = state0.copy()
    base_traces = [trace(m).real for m in state.entries]
    traces = {k: [base_traces[k - 1]] for k in range(1, K + 1)}

    deriv = rhs(state, 0.0)
    store(0, state, deriv)
    for step in range(1, n_steps + 1):
        t = (step - 1) * dt
        state = _rk4ip_step(state, deriv, t, dt, rhs)
        for k in range(1, K + 1):
            tr = trace(state.entry(k)).real
            traces[k].append(tr)
            drift = abs(tr - base_traces[k - 1])
            # the collision term is traceless on the grid, so a drifting or
            # non-finite trace is an integrator blow-up, not physics
            if not np.isfinite(tr) or \
                    drift > TRACE_DRIFT_ABORT * max(1.0, abs(base_traces[k - 1])):
                raise InstabilityError(
                    f"trace of level {k} drifted by {drift:.3e} at t={step * dt:.4f} "
                    f"(dt={dt})")
        deriv = rhs(state, step * dt)  # the next step's k1
        if step in kept:
            store(step, state, deriv)
    return HierarchyTrajectory(
        states=states, stored_steps=keep,
        traces={k: np.array(v) for k, v in traces.items()})


def gp_evolve(state0: HierarchyState, config: EvolutionConfig,
              mixture=None, store_every: int = 1,
              store: Store | None = None) -> HierarchyTrajectory:
    """Evolve the K-truncated contact hierarchy, with unit coupling.

    Level k's collision term reads level k+1.  Without a mixture the
    (K+1)-level is zero, and so is the top level's term.  A mixture supplies
    that term (``MixtureClosure``) from its atoms advanced by the cubic
    flow, which keeps the truncated system exact on de Finetti data up to
    integrator error.  A ``store`` takes the stored samples in place of the
    trajectory's ``states`` (see ``Store``).
    """
    closure = None if mixture is None else \
        MixtureClosure(mixture, state0.K, config.dt / 2.0)

    def rhs(state: HierarchyState, t: float) -> HierarchyState:
        levels = [gp_collision_level(g) for g in state.entries[1:]]
        levels.append(zero_marginal(state.grid, state.K) if closure is None
                      else closure.top_collision(t))
        return _scaled(HierarchyState(levels), -1j)

    return _evolve(state0, config, rhs, store_every, store)


def bbgky_evolve(state0: HierarchyState, config: EvolutionConfig,
                 pot: PotentialSpec, store_every: int = 1,
                 store: Store | None = None) -> HierarchyTrajectory:
    """Evolve the K-truncated finite-N hierarchy (levels above K stay zero,
    so the top level sees only its same-level interaction term).  A
    ``store`` takes the stored samples as in ``gp_evolve``."""
    check_same_grid(state0=state0, pot=pot)
    if state0.K > pot.big_n:
        raise ValueError(f"K={state0.K} exceeds N={pot.big_n}")

    def rhs(state: HierarchyState, t: float) -> HierarchyState:
        return _scaled(bbgky_rhs(state, pot), -1j)

    return _evolve(state0, config, rhs, store_every, store)


def gp_residual_row(prev_s: HierarchyState, cur: HierarchyState,
                    nxt: HierarchyState, dt: float) -> list[float]:
    """Central-difference defect at ``cur`` of three states dt apart against
    the contact hierarchy, per level k < K."""
    row = []
    for k in range(1, cur.K):
        dgamma = (nxt.entry(k) - prev_s.entry(k)) * (1.0 / (2.0 * dt))
        lhs = dgamma * 1j
        rhs = free_generator(cur.entry(k)) + gp_collision_level(cur.entry(k + 1))
        row.append(sobolev_norm(lhs - rhs, 0.0))
    return row


# ---------------------------------------------------------------------------
# Iterated collision integrals, fixed point


def check_series_budget(grid: GridSpec, K: int, samples: int, working: int = 0,
                        packed: bool = False, fixed: int = 0) -> None:
    """Raise ``BudgetExceeded`` unless ``samples`` + ``working`` states of a
    level-1..K hierarchy, sum_k n^(2kd) complex entries each, and ``fixed``
    entries more fit the budget: a stored trajectory, or a Picard iterate,
    the states its loop works in and what it holds that does not grow with
    n.  With ``packed`` the samples are held as half their entries
    (``HermitianPacking``), sum_k m_k (m_k + 1) / 2 for m_k = n^(kd), as
    Picard's iterate is.  Allocates nothing."""
    rows = [grid.num_points ** k for k in range(1, K + 1)]
    state = sum(m * m for m in rows)
    sample = sum(m * (m + 1) // 2 for m in rows) if packed else state
    default_budget().check_elements(
        samples * sample + working * state + fixed,
        f"hierarchy series of {samples} {'packed ' if packed else ''}samples, "
        f"{working} working states and {fixed} fixed entries")


def _flowed_prefix(spectra: Iterable[np.ndarray], phase: np.ndarray, dt: float,
                   simpson: bool = False) -> Iterator[np.ndarray]:
    """Spectra of A_i = U(t_i) int_0^t_i U(-s) theta(s) ds for t_i = i * dt,
    from the spectra of theta(t_i); ``phase`` is exp(-i dt S), one step of U.

    Since U(t_i) = U(dt) U(t_(i-1)), the forward-propagated trapezoid prefix
    obeys A_i = (A_(i-1) + dt/2 theta_(i-1)) E + dt/2 theta_i; composite
    Simpson's even points use E twice with weights dt/3, 4 dt/3, dt/3 and
    its odd points close with one trapezoid step.  Each step forms in the
    new prefix's array, every product by the phase as acc *= phase, so the
    rounding is the same at every size.  Spectra are read lazily, one
    sample at a time: theta_i has been read when A_i is yielded, and no
    earlier prefix or sample than the next step needs is held.  A step
    lets go of the prefix it starts from once it has added it, unless the
    next step reads it too (Simpson's odd points, whose last product then
    forms one row at a time), so no step holds three prefix-sized arrays;
    and no later step reads an odd Simpson prefix, so it is not held once
    yielded.
    """
    # a step starts from the prefix and sample at i - 1, or at i - 2 for
    # Simpson's even points: a_from, th_from; th_prev is the sample at i - 1
    a_from = th_from = th_prev = None
    for i, th in enumerate(spectra):
        if i == 0:
            acc = np.zeros_like(th)
        elif simpson and i % 2 == 0:
            acc = (dt / 3.0) * th_from
            acc += a_from
            a_from = None
            acc *= phase
            acc += (4.0 * dt / 3.0) * th_prev
            acc *= phase
            acc += (dt / 3.0) * th
        elif simpson:
            acc = (dt / 2.0) * th_prev
            acc += a_from
            acc *= phase
            for r in range(len(acc)):
                np.add(acc[r], (dt / 2.0) * th[r], out=acc[r])
        else:
            acc = (dt / 2.0) * th_prev
            acc += a_from
            a_from = None
            acc *= phase
            acc += (dt / 2.0) * th
        th_prev = th
        if not simpson or i % 2 == 0:
            a_from, th_from = acc, th
            yield acc
        else:
            odd, acc = [acc], None  # the generator holds no reference
            yield odd.pop()


# Hierarchy states of levels 1..j_max a Duhamel tower holds besides its atom.
# Its peak comes in the layer that reads level j_max: the phase, the prefix
# and the spectrum a trapezoid step starts from, the spectrum it reads, the
# new prefix and one temporary while that forms, and the returned kernel at
# t.  The prefix steps form in place at every size, so for j_max = 2 and 3
# tracemalloc puts it at 6.95-7.2 states at n = 8 and 7.0 at n = 16 (d = 1;
# d = 2 at n = 4 also 7.0; 4 and 16 steps): the n = 8 excess is about 10 KB
# that does not grow with n, most of it cached flow matrices.  At
# j_max = 1 it reads 2.8-6.1 states with 16 steps and, where a state is
# 1 KiB (n = 8, 4 steps), up to 9.2.
DUHAMEL_WORKING_STATES = 9


def _duhamel_pass(phi: Field, top: int, pot: PotentialSpec, dt: float,
                  n_pts: int) -> list[Marginal]:
    """Push the free flow of |phi^(tensor top)><phi^(tensor top)|, sampled
    at i * dt for i < n_pts, through top - 1 integral layers, each
    i int_0^s B U(s - sigma) (.) d sigma, and return depth j's level
    top - j kernel at the last sample, j = 1..top - 1.

    On a free flow U(-s) theta(s) is constant, so the first layer's prefix
    at t_i is t_i U(t_i) gamma_top, whose collision level is read off the
    flowed atom (``product_collision_level``): no kernel of level top is
    formed.  The later layers chain as generators over the samples: a layer
    reads the spectrum of each kernel of the layer above (one transform
    each), steps the forward-propagated prefix (``_flowed_prefix``) and
    inverts it once per sample to apply the collision operator.  The
    deepest layer evaluates only the sample at t.
    """
    grid, last = phi.grid, n_pts - 1
    at_t: list[Marginal] = []

    def emit(i: int, out: Marginal, deepest: bool) -> np.ndarray | None:
        """Keep the kernel at t; hand the next layer the kernel's spectrum."""
        if i == last:
            at_t.append(out)
        return None if deepest else marginal_spectrum(out)

    def first_layer(deepest: bool) -> Iterator[np.ndarray | None]:
        for i in range(last if deepest else 0, n_pts):
            flowed = [(1.0, free_propagate(phi, i * dt))]
            yield emit(i, product_collision_level(flowed, top - 1, pot)
                       * (1j * i * dt), deepest)

    def layer(spectra: Iterable[np.ndarray], level: int,
              deepest: bool) -> Iterator[np.ndarray | None]:
        phase = np.exp(-1j * dt * flow_symbol(grid, level))
        for i, a in enumerate(_flowed_prefix(spectra, phase, dt)):
            if not deepest or i == last:
                yield emit(i, bbgky_main_level(
                    marginal_from_spectrum(grid, level, a), pot) * 1j, deepest)

    stream = first_layer(top == 2)
    for depth in range(2, top):
        stream = layer(stream, top - depth + 1, depth == top - 1)
    deque(stream, maxlen=0)  # drives every layer through the samples
    return at_t


def duhamel_tower(phi: Field, j_max: int, pot: PotentialSpec, t: float,
                  n_steps: int) -> dict[int, HierarchyState]:
    """The j-fold nested time-ordered integrals at t, j = 1..j_max, on the
    free flow of the product hierarchy of ``phi`` truncated at j_max + 1,
    each interleaving the weighted main collision operator with free flows
    and evaluated by composite trapezoid on the ordered simplex over
    ``n_steps`` uniform steps of t.

    Depth j's level k reads level k + j of the product state, so one pass
    per top level (``_duhamel_pass``) gives every depth at once: the level-2
    component of j = 1 is the last sample of the first layer that j = 2
    pushes level 3 through.  No pass forms a kernel above level j_max, and
    the tower's working states are checked against the budget before its
    first kernel, after a non-finite atom has been refused.
    """
    check_same_grid(phi=phi, pot=pot)
    _check_count("j_max", j_max, 1)
    _check_positive("t", t)
    _check_count("n_steps", n_steps, 1)
    _check_finite("atom", phi.data)
    check_series_budget(phi.grid, j_max, 0, DUHAMEL_WORKING_STATES)
    comps: dict[int, list[Marginal]] = {j: [] for j in range(1, j_max + 1)}
    for top in range(2, j_max + 2):
        for j, m in enumerate(_duhamel_pass(phi, top, pot, t / n_steps,
                                            n_steps + 1), start=1):
            comps[j].append(m)
    return {j: HierarchyState(c) for j, c in comps.items()}


class HermitianPacking:
    """Level k's spectra held as half their entries.

    A kernel is Hermitian when gamma(x; x') = conj(gamma(x'; x)), and then
    its spectrum obeys ghat(p, q') = conj(ghat(-q', -p)).  So the matrix
    G(p, q') = ghat(p, -q'), with the unprimed frequencies p and the primed
    q' each flattened and -q' flipped on every primed axis, is Hermitian.
    ``pack`` keeps G's upper triangle, diagonal included, row by row, with
    the diagonal's imaginary part set to zero: m (m + 1) / 2 entries for
    m = n^(kd), held as one C-contiguous (m / 2, m + 1) array (n is even).
    ``unpack`` rebuilds the full spectrum from it, exactly Hermitian, so
    packing a spectrum keeps its Hermitian part.

    Two packed Hermitian spectra a and b travel as one full spectrum,
    G = G_a + i G_b, which is Hermitian in neither: ``unpack_pair`` forms
    it, and ``split`` takes a and b back from it (or from any full spectrum
    whose G is such a sum) as G's Hermitian part (G + G^H) / 2 and
    (G - G^H) / (2i).

    An entrywise sum or product of packed arrays is the packing of the same
    operation on the full spectra, both being Hermitian in G: the free-flow
    phase exp(-i dt S_k) is, since S_k(p, -q') = |p|^2 - |q'|^2 changes
    sign under p <-> q'.  The level's one index map is built once and only
    read afterwards, so one packing serves every thread.
    """

    def __init__(self, grid: GridSpec, k: int):
        block = grid.slot_shape(k)  # the unprimed slots, or the primed ones
        m = grid.num_points ** k
        self.shape = grid.slot_shape(2 * k)
        self.packed_shape = (m // 2, m + 1)
        # the flat primed index of -q' for each q'
        flip = reflect(np.arange(m).reshape(block), range(len(block))).ravel()
        rows, cols = np.triu_indices(m)
        # where G(i, j) = ghat(i, -j) (row 0) and its mirror G(j, i) (row 1)
        # sit in the flattened spectrum, for each packed entry (i <= j)
        self.places = np.stack([rows * m + flip[cols], cols * m + flip[rows]])
        self.diagonal = np.flatnonzero(rows == cols)

    def pack(self, spec: np.ndarray) -> np.ndarray:
        """G's upper triangle of the C-contiguous spectrum ``spec``, its
        diagonal made real, as a new array."""
        packed = np.take(spec.reshape(-1), self.places[0])
        packed.imag[self.diagonal] = 0.0
        return packed.reshape(self.packed_shape)

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """The full spectrum of a packed one, as a new array: each entry
        written to its place in the triangle, and conjugated to its
        mirror's; the diagonal, its own mirror, keeps the entry."""
        spec = np.empty(self.shape, complex)
        flat, packed = spec.reshape(-1), packed.reshape(-1)
        flat[self.places[1]] = packed.conj()
        flat[self.places[0]] = packed
        return spec

    def unpack_pair(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """unpack(a) + 1j * unpack(b), as a new array: a + ib at each
        place in the triangle and conj(a) + i conj(b) at its mirror, each
        formed in one packed-sized buffer from the parts of a and b."""
        spec = np.empty(self.shape, complex)
        flat, a, b = spec.reshape(-1), a.reshape(-1), b.reshape(-1)
        part = np.empty_like(a)
        np.add(a.real, b.imag, out=part.real)
        np.subtract(b.real, a.imag, out=part.imag)
        flat[self.places[1]] = part
        np.subtract(a.real, b.imag, out=part.real)
        np.add(a.imag, b.real, out=part.imag)
        flat[self.places[0]] = part
        return spec

    def split(self, spec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The packed a and b of a full spectrum G = G_a + i G_b with G_a
        and G_b Hermitian, as new arrays: (G + G^H) / 2 and
        (G - G^H) / (2i) at each place in the triangle, where G^H is the
        conjugate of G at the mirror.  The diagonals come out real."""
        flat = spec.reshape(-1)
        a = np.take(flat, self.places[0])
        mirror = np.take(flat, self.places[1])
        np.conjugate(mirror, out=mirror)
        b = a - mirror
        b *= -0.5j
        a += mirror
        a *= 0.5
        return a.reshape(self.packed_shape), b.reshape(self.packed_shape)

    def parseval_weight(self, weight: np.ndarray) -> np.ndarray:
        """A real weight on the full spectrum, even under G's transpose (as
        ``sobolev_weight`` is), on the packed entries with those off the
        diagonal doubled: on an exactly Hermitian spectrum,
        spectral_norm(packed, the result) equals spectral_norm(spec,
        weight) in exact arithmetic."""
        w = 2.0 * np.take(weight.reshape(-1), self.places[0])
        w[self.diagonal] *= 0.5
        return w.reshape(self.packed_shape)


@dataclass
class PicardResult:
    """The fixed point Theta, held as its packed spectra:
    ``packed[k - 1]`` is one array of level k's samples,
    ``packed[k - 1][i]`` the spectrum at sample i as ``packings[k - 1]``
    holds it, which ``spectrum(k, i)`` unpacks; with the record of the
    sweeps.  ``worker_busy_s`` is the time each worker thread spent forming
    samples, in the order the workers first finished one, and
    ``result_wait_s`` the time the calling thread waited for them; neither
    changes what is computed."""

    packings: list[HermitianPacking]
    packed: list[np.ndarray]
    iterations: int
    update_norms: list[float]
    contraction_ratios: list[float]
    converged: bool
    residual: float
    worker_busy_s: list[float]
    result_wait_s: float

    def spectrum(self, k: int, i: int) -> np.ndarray:
        """Level k's full spectrum at sample i, as a new array."""
        return self.packings[k - 1].unpack(self.packed[k - 1][i])


# What a Picard call holds besides its packed iterate, on its three threads
# together, in states of levels 1..K and in entries that do not grow with n.
# The start's packed spectra, the packed phases, Xi's stepped spectra (0.5
# each), the packed norm weights (0.25) and the packings' index maps (0.5:
# two places of 8 bytes per packed entry), so 2.25.  On the calling thread,
# the two samples of the job it reads back (1), the prefix the next step
# starts from (0.5) and the norm's |.|^2 (0.25), so 1.75.  In flight, the
# PICARD_WORKERS jobs submitted beyond the one read back, each of two
# samples: a job holds its two packed prefixes (1) while it waits, and at
# most 2.5 while a worker forms it: the two prefixes, the full array
# ``unpack_pair`` writes and its packed-sized buffer; then that array
# inverted in place and B_N's result (2); then the array transformed
# forward and the two packed halves of its split, with one packed
# temporary.  That is 2.25 + 1.75 + 2.5 + 2.5 = 9 states.  tracemalloc puts
# the peak of the whole call at 8.55-8.8 states at n = 16 and at d = 2,
# n = 4 (32 and 128 steps), up to 9.06 at n = 16 on one CPU, where both
# workers peak at once, and 9.05-9.6 at n = 8, where a state is 66 KB:
# about 80 KB, and up to 100 KB in a process's first call, of interpreter
# objects and B_N's slab buffers do not grow with n.  So 10 states and 8192
# entries (128 KiB) hold the call at every size.
PICARD_WORKING_STATES = 10
PICARD_FIXED_ENTRIES = 8192

# Picard's worker threads, each forming two samples of a sweep at a time
# (one job): a fixed count, whatever the CPU count, so the working states
# stay fixed.  The calling thread keeps this many jobs submitted beyond the
# one it reads back, so a worker that finishes finds the next one queued,
# and no more.
PICARD_WORKERS = 2


# the update norm below which the Picard iteration has converged, and the
# sweeps it may take to get there
PICARD_TOL = 1e-8
PICARD_MAX_SWEEPS = 50

# the largest max |M - M^H| / max |M| a level of Picard's start may have
PICARD_HERMITIAN_TOL = 1e-12


def _check_hermitian(state: HierarchyState) -> None:
    """Raise a ``ValueError`` naming the first level of ``state`` whose
    matrix M has max |M - M^H| > PICARD_HERMITIAN_TOL * max |M|."""
    for k, m in enumerate(state.entries, start=1):
        mat = m.as_matrix()
        defect = np.max(np.abs(mat - mat.conj().T))
        if defect > PICARD_HERMITIAN_TOL * np.max(np.abs(mat)):
            raise ValueError(
                f"start level {k} must be Hermitian: max |M - M^H| = "
                f"{defect:.3e} exceeds {PICARD_HERMITIAN_TOL} max |M|")


def _picard_pair(packings: Sequence[HermitianPacking], pot: PotentialSpec,
                 first: list[np.ndarray],
                 second: list[np.ndarray]) -> tuple[list[np.ndarray],
                                                    list[np.ndarray]]:
    """F(i B_N A) and F(i B_N B), packed, from the packed spectra of two
    Hermitian prefixes A and B, one per level in ``first`` and ``second``.

    The transforms and B_N are complex-linear and i B_N maps a Hermitian
    kernel to a Hermitian one, so the spectrum of i B_N (A + iB) is
    F(i B_N A) + i F(i B_N B), two spectra Hermitian in G, which
    ``HermitianPacking.split`` takes apart.  So each level is unpacked into
    one array (``unpack_pair``), inverted in place, B_N is applied once,
    and its result is transformed forward into the same array and split:
    one transform per level each way for two samples.  ``first`` and
    ``second`` are emptied once they are unpacked, so the job holds A and B
    no longer than it needs them."""
    spectra = [p.unpack_pair(a, b) for p, a, b in zip(packings, first, second)]
    first.clear()
    second.clear()
    grid = pot.grid
    new = _scaled(bbgky_rhs(HierarchyState(
        [marginal_from_spectrum(grid, k, a, out=a)
         for k, a in enumerate(spectra, start=1)]), pot), 1j)
    for m, a in zip(new.entries, spectra):
        dft_forward(m.as_field(), out=a)
    del new, m, a  # the loop variables would keep the top level alive
    halves = [p.split(a) for p, a in zip(packings, spectra)]
    return [h[0] for h in halves], [h[1] for h in halves]


def picard_fixed_point(start: HierarchyState, pot: PotentialSpec, xi: float,
                       t: float, n_steps: int) -> PicardResult:
    """Iterate Theta <- Xi + i Int_0^t B_N U(t-s) Theta(s) ds on the
    ``n_steps`` uniform steps of t (trapezoid in s) until successive
    iterates are closer than ``PICARD_TOL`` in the weighted order-1 norm,
    for at most ``PICARD_MAX_SWEEPS`` sweeps.

    The start must be Hermitian: a level whose matrix M has
    max |M - M^H| > ``PICARD_HERMITIAN_TOL`` (1e-12) * max |M| raises a
    ``ValueError`` naming the level.  Every sample of the iterate is then
    Hermitian too, and is held packed, as half its entries
    (``HermitianPacking``): the calling thread works on packed arrays only,
    and a worker unpacks the two samples it forms as one full array.

    The free term Xi(s) = U(s) start, capital Xi, is the free flow of the
    start state.  The call holds the start's packed spectra, one packed
    phase exp(-i dt S_k) per level, and the iterate, one array of packed
    spectra per level and the only series-sized thing held; level k of Xi at
    sample i is the start's spectrum stepped i times by the phase.  The
    operands' grids, the time grid, the gate, what the call holds and then
    the start's entries (finite, then Hermitian) are checked before the
    first transform, so a start too large for the budget is refused before
    anything of its size is formed.  The first iterate is Xi's packed
    spectra, written as they are.  A sweep steps the forward-propagated
    prefix integral through the samples by the same phases (see
    ``_flowed_prefix``), on packed arrays, and inverts it once per pair of
    samples and level to apply B_N.  The new sample's spectra are
    F(i B_N A) + Xi_hat, packed; they give the update norm by Parseval, with
    the packed weights of ``HermitianPacking.parseval_weight``, and
    overwrite the old ones, which the prefix has read by then.

    A sweep's samples are formed on a pool of ``PICARD_WORKERS`` = 2
    worker threads, and numpy's transforms release the interpreter lock, so
    the three threads overlap.  A worker forms two samples per job, 2j and
    2j + 1, fixed by their index, with the last sample of an odd count
    paired with zeros: B_N and the transforms are complex-linear, so one
    full array carries the prefixes A + iB of both, with one inverse and
    one forward transform per level and one B_N for the two
    (``_picard_pair``).  Every job reads only the old iterate, so jobs
    j + 1 and j + 2 can be formed at once; when the calling thread reads
    back job j it has submitted jobs up to j + 2, no further, so a worker
    that finishes finds the next job queued and the memory in flight is
    bounded.  The calling thread steps the prefixes and hands them over in
    pairs, then reads the jobs back in order, adds Xi's spectra to each
    sample, takes each gap and writes each sample's spectra into the
    iterate; samples 2j and 2j + 1 are written only after the prefix has
    stepped past them.  Every operation keeps its operands and their
    order, so the bits are those of one thread doing all of it.  The
    pool is started and joined inside the call, before it returns or
    raises.  The iterate is allocated once, on the calling thread, and
    written in place: the C library may give each worker a heap of its
    own, and long-lived spectra allocated there would leave the memory of
    the ones they replace unused.

    ``xi`` is the H^1_xi level weight in (0, 1), which sets both the update
    norms and the heuristic contraction gate ``t0_gate(xi)`` that t must
    sit inside.  A ratio of successive updates >= 1 three times in a row
    aborts: the horizon is too large for the discrete surrogate.  So does a
    non-finite update, which ``max`` would otherwise drop.  The reported
    residual re-checks the converged iterate with an independent (Simpson)
    quadrature, in a sweep that stores nothing.
    """
    check_same_grid(start=start, pot=pot)
    _check_positive("t", t)
    _check_count("n_steps", n_steps, 1)
    gate = t0_gate(xi)
    if t >= gate:
        raise ValueError(f"horizon t={t} is not below the gate T0={gate}")
    grid, K, dt = start.grid, start.K, t / n_steps
    check_series_budget(grid, K, n_steps + 1, PICARD_WORKING_STATES,
                        packed=True, fixed=PICARD_FIXED_ENTRIES)
    start.check_finite("start")
    _check_hermitian(start)
    packings = [HermitianPacking(grid, k) for k in range(1, K + 1)]
    bases = [p.pack(marginal_spectrum(m))
             for p, m in zip(packings, start.entries)]
    phases = [p.pack(np.exp(-1j * dt * flow_symbol(grid, k)))
              for k, p in enumerate(packings, start=1)]
    weights = [p.parseval_weight(sobolev_weight(grid, 2 * k, 1.0))
               for k, p in enumerate(packings, start=1)]
    busy: dict[int, float] = {}  # worker thread -> seconds in combine
    waited = 0.0  # seconds the calling thread waited for a sample

    def xi_spectra() -> Iterator[list[np.ndarray]]:
        """Xi's packed spectra in sample order, each level stepped once
        more by its phase, without end: each is formed only when it is
        asked for, and from the second on in one set of arrays, stepped in
        place, so a sample's spectra are used before the next is asked
        for."""
        yield bases
        spectra = [a * phase for a, phase in zip(bases, phases)]
        while True:
            yield spectra
            for a, phase in zip(spectra, phases):
                a *= phase

    def combine(first: list[np.ndarray], second: list[np.ndarray]
                ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """``_picard_pair`` of two samples' packed prefixes, timed.  Runs
        on a worker."""
        t0 = time.perf_counter()
        halves = _picard_pair(packings, pot, first, second)
        worker = threading.get_ident()
        busy[worker] = busy.get(worker, 0.0) + time.perf_counter() - t0
        return halves

    def absorb(i: int, spectra: Sequence[np.ndarray],
               xs: Sequence[np.ndarray], keep: bool) -> float:
        """Add Xi's packed spectra ``xs`` to a worker's ``spectra``, giving
        the next iterate's sample i, and return its distance to theta's
        sample i in hierarchy_norm(., 1.0, xi), by Parseval on the packed
        arrays.  With ``keep`` the
        difference forms in theta's sample, which the new one then
        replaces; without it, in the new sample."""
        gap = 0.0
        for k, (spec, x, level, w) in enumerate(
                zip(spectra, xs, theta, weights), start=1):
            spec += x
            diff = np.subtract(spec, level[i], out=level[i] if keep else spec)
            gap += xi**k * spectral_norm(diff, w)
            if keep:
                level[i] = spec
        return gap

    def sweep(pool: ThreadPoolExecutor, simpson: bool) -> float:
        """Max-over-samples distance of the next iterate to theta.  The
        trapezoid sweep overwrites theta with the next iterate; the Simpson
        sweep keeps it.  Job j forms samples 2j and 2j + 1, the last sample
        of an odd count paired with zeros.  Job j is read back once jobs up
        to j + PICARD_WORKERS have been submitted, or all of them: the
        prefix has stepped past sample 2j + 5 before theta's samples 2j and
        2j + 1 are overwritten, and no more than that is in flight."""
        nonlocal waited
        # B_N U(t-s) Theta(s) = B_N U(t) [U(-s) Theta(s)], so one running
        # prefix per level replaces the quadratic double loop over (t, s)
        prefixes = [_flowed_prefix(level, phase, dt, simpson)
                    for level, phase in zip(theta, phases)]
        xis = xi_spectra()
        pending: deque[Future] = deque()
        gaps: list[float] = []
        drawn = True
        while drawn or pending:
            # no zip, whose result tuple would keep the prefixes of two
            # samples back
            first = [next(level, None) for level in prefixes]
            drawn = first[0] is not None
            if drawn:
                second = [next(level, None) for level in prefixes]
                if second[0] is None:
                    second = [np.zeros_like(a) for a in first]
                pending.append(pool.submit(combine, first, second))
            if not drawn or len(pending) > PICARD_WORKERS:
                t0 = time.perf_counter()
                pair = list(pending.popleft().result())
                waited += time.perf_counter() - t0
                del pair[n_steps + 1 - len(gaps):]  # the zeros' half
                while pair:
                    # popped, each sample's spectra are freed when absorb
                    # returns
                    gap = absorb(len(gaps), pair.pop(0), next(xis),
                                 keep=not simpson)
                    if not math.isfinite(gap):
                        raise RuntimeError(
                            f"Picard update at sample {len(gaps)} is {gap}")
                    gaps.append(gap)
        return max(gaps)

    update_norms: list[float] = []
    ratios: list[float] = []
    theta = [np.empty((n_steps + 1,) + p.packed_shape, complex)
             for p in packings]
    # the first iterate is Xi, stepped as xi_spectra steps it
    for level, base, phase in zip(theta, bases, phases):
        level[0] = base
        for i in range(n_steps):
            np.multiply(level[i], phase, out=level[i + 1])
    with ThreadPoolExecutor(max_workers=PICARD_WORKERS) as pool:
        for it in range(1, PICARD_MAX_SWEEPS + 1):
            delta = sweep(pool, simpson=False)
            update_norms.append(delta)
            if len(update_norms) >= 2 and update_norms[-2] > 0:
                ratios.append(delta / update_norms[-2])
                if len(ratios) >= 3 and min(ratios[-3:]) >= 1.0:
                    raise RuntimeError(
                        f"no contraction after {it} sweeps (last ratios "
                        f"{ratios[-3:]}); the horizon is too large for the "
                        f"discrete surrogate")
            if delta < PICARD_TOL:
                break
        residual = sweep(pool, simpson=True)
    return PicardResult(packings, theta, len(update_norms), update_norms,
                        ratios, update_norms[-1] < PICARD_TOL, residual,
                        list(busy.values()), waited)
