"""Spot checks that the slot/axis bookkeeping survives d > 1."""

import warnings

import numpy as np
import pytest

from hierlab.definetti import Mixture, nls_evolve
from hierlab.grid import (Field, make_grid, normalized, place_axes,
                          random_low_mode_field)
from hierlab.hierarchy_evolution import MixtureClosure
from hierlab.interactions import (PotentialSpec, bbgky_collision_main,
                                  collision_fourier_oracle, delta_surrogate,
                                  gaussian_profile, gp_collision,
                                  realize_potential)
from hierlab.marginals import (Marginal, free_propagate_marginal,
                               partial_trace, partial_trace_at,
                               pure_product_marginal, sobolev_norm, trace)
from hierlab.nbody import factorized_state as nbody_factorized_state

from kernel_tools import bbgky_collision_error

G2 = make_grid(2, 6, 2 * np.pi)
# d = 2, n = 4: a level-2 kernel has 4^8 entries, small enough for loop
# references written on flat slot points a = ix * n + iy
G24 = make_grid(2, 4, 2 * np.pi)
P = G24.num_points


def test_planar_product_kernel_algebra():
    phi = random_low_mode_field(G2, 1, np.random.default_rng(0), max_mode=1)
    g2 = pure_product_marginal(phi, 2)
    assert trace(g2).real == pytest.approx(1.0, abs=1e-12)
    reduced = partial_trace(g2)
    assert sobolev_norm(reduced - pure_product_marginal(phi, 1), 0.0) < 1e-13


def test_planar_delta_surrogate_contraction():
    phi = random_low_mode_field(G2, 1, np.random.default_rng(1), max_mode=1)
    g2 = pure_product_marginal(phi, 2)
    a = bbgky_collision_main(g2, 1, "+", delta_surrogate(G2))
    b = gp_collision(g2, 1, "+")
    assert np.max(np.abs(a.kernel - b.kernel)) < 1e-14


def test_planar_fourier_oracle_agreement():
    phi = random_low_mode_field(G2, 1, np.random.default_rng(2), max_mode=1)
    g2 = pure_product_marginal(phi, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pot = realize_potential(gaussian_profile(G2, 0.8), 0.2, 9, width=0.8)
    mass = G2.h**2 * pot.realized.data.real.sum()
    assert mass == pytest.approx(1.0, abs=1e-12)
    oracle = collision_fourier_oracle(g2, 0.07, pot)
    spatial = bbgky_collision_main(free_propagate_marginal(g2, 0.07), 1, "+", pot)
    rel = sobolev_norm(oracle - spatial, 0.0) / sobolev_norm(spatial, 0.0)
    assert rel < 1e-12


def test_cubic_flow_in_three_dimensions():
    g3 = make_grid(3, 4, 2 * np.pi)
    c = 0.3 + 0.2j
    phi = Field(g3, 1, np.full(g3.slot_shape(1), c))
    out = nls_evolve(phi, 1e-3, 0.4)
    expected = c * np.exp(-1j * abs(c) ** 2 * 0.4)
    assert np.max(np.abs(out.data - expected)) < 1e-12


# -- slot placement and pair consumption at d = 2 against loop references ------


def _coords(a):
    return divmod(a, G24.n)


def _random_complex(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_level2(seed):
    """Non-symmetric, non-Hermitian level-2 kernel and its (P,)*4 flat view."""
    gamma = Marginal(G24, 2, _random_complex(G24.slot_shape(4), seed))
    return gamma, gamma.kernel.reshape(P, P, P, P)


def _random_potential(seed):
    """Arbitrary real realization, neither even nor isotropic, so a factor
    on swapped or transposed axes changes the product."""
    v = np.random.default_rng(seed).standard_normal(G24.slot_shape(1))
    field = Field(G24, 1, v)
    pot = PotentialSpec(grid=G24, big_n=3, realized=field.copy())
    return pot, v


def _difference_table(v):
    """W[a, b] = V(x_a - x_b) on flat points, by loops."""
    w = np.empty((P, P))
    for a in range(P):
        ax, ay = _coords(a)
        for b in range(P):
            bx, by = _coords(b)
            w[a, b] = v[(ax - bx) % G24.n, (ay - by) % G24.n]
    return w


def _assert_close(actual, expected):
    assert np.max(np.abs(actual - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("pos", [0, 1])
def test_planar_partial_trace_at_against_loops(pos):
    gamma, g = _random_level2(40)
    ref = np.zeros((P, P), dtype=complex)
    for u in range(P):
        for up in range(P):
            for y in range(P):
                ref[u, up] += g[y, u, y, up] if pos == 0 else g[u, y, up, y]
    ref *= G24.h ** 2
    out = partial_trace_at(gamma, pos)
    assert out.k == 1
    _assert_close(out.kernel.reshape(P, P), ref)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_planar_gp_collision_against_loops(sign):
    gamma, g = _random_level2(41)
    ref = np.empty((P, P), dtype=complex)
    for a in range(P):
        for ap in range(P):
            # the consumed pair (x_2, x'_2) sits on x_1 ('+') or x'_1 ('-')
            s = a if sign == "+" else ap
            ref[a, ap] = g[a, s, ap, s]
    _assert_close(gp_collision(gamma, 1, sign).kernel.reshape(P, P), ref)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_planar_collision_error_against_loops(sign):
    gamma, g = _random_level2(42)
    pot, v = _random_potential(43)
    w = _difference_table(v)
    a, b, ap, bp = np.indices((P, P, P, P))
    factor = w[a, b] if sign == "+" else w[ap, bp]
    out = bbgky_collision_error(gamma, 1, 2, sign, pot)
    _assert_close(out.kernel.reshape(P, P, P, P), g * factor)


def test_planar_nbody_symbols_against_loops():
    pot, v = _random_potential(44)
    w = _difference_table(v)
    phi = Field(G24, 1, _random_complex(G24.slot_shape(1), 45))
    state = nbody_factorized_state(phi, 3, pot)
    pair = np.empty((P, P, P))
    kinetic = np.empty((P, P, P))
    k2 = [G24.frequencies[x] ** 2 + G24.frequencies[y] ** 2
          for x, y in map(_coords, range(P))]
    f = phi.data.reshape(P)
    product = np.empty((P, P, P), dtype=complex)
    for a in range(P):
        for b in range(P):
            for c in range(P):
                pair[a, b, c] = w[a, b] + w[a, c] + w[b, c]
                kinetic[a, b, c] = k2[a] + k2[b] + k2[c]
                product[a, b, c] = f[a] * f[b] * f[c]
    _assert_close(state.pair_potential.reshape(P, P, P), pair)
    _assert_close(state.kinetic.reshape(P, P, P), kinetic)
    expected_psi = normalized(Field(G24, 3, product)).data.reshape(P, P, P)
    _assert_close(state.psi.data.reshape(P, P, P), expected_psi)


def test_planar_mixture_top_collision_against_loops():
    atoms = [(w, normalized(Field(G24, 1, _random_complex(G24.slot_shape(1), s))))
             for w, s in ((0.3, 46), (0.7, 47))]
    closure = MixtureClosure(Mixture(atoms), 2, dt_half=1e-3)
    a, b, ap, bp = np.indices((P, P, P, P))
    ref = np.zeros((P, P, P, P), dtype=complex)
    for w, phi in atoms:
        f = phi.data.reshape(P)
        dens = np.abs(f) ** 2
        prod = f[a] * f[b] * np.conj(f[ap]) * np.conj(f[bp])
        ref += w * prod * (dens[a] + dens[b] - dens[ap] - dens[bp])
    _assert_close(closure.top_collision(0.0).kernel.reshape(P, P, P, P), ref)


@pytest.mark.parametrize("dim,n,K", [(1, 8, 1), (1, 8, 2), (1, 8, 3),
                                     (2, 4, 1), (2, 4, 2)])
def test_mixture_top_collision_is_product_times_multiplier(dim, n, K):
    # the closure's kernel is sum_a w_a (product kernel of phi_a) times
    # (sum_j |phi_a(x_j)|^2 - sum_j |phi_a(x'_j)|^2), built here term by term
    grid = make_grid(dim, n, 2 * np.pi)
    atoms = [(w, random_low_mode_field(grid, 1, np.random.default_rng(s),
                                       max_mode=1))
             for w, s in ((0.5, 48), (0.3, 49), (0.2, 50))]
    ndim = 2 * K * dim
    ref = np.zeros(grid.slot_shape(2 * K), dtype=complex)
    for w, phi in atoms:
        dens = np.abs(phi.data) ** 2
        mult = sum(place_axes(dens, grid.slot_axes(j), ndim)
                   - place_axes(dens, grid.slot_axes(K + j), ndim)
                   for j in range(K))
        ref += w * pure_product_marginal(phi, K).kernel * mult
    closure = MixtureClosure(Mixture(atoms), K, dt_half=1e-3)
    _assert_close(closure.top_collision(0.0).kernel, ref)
