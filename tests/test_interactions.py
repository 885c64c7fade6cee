import numpy as np
import pytest

import hierlab.grid as grid_mod
import hierlab.interactions as interactions_mod
import hierlab.marginals as marginals_mod
from hierlab.budget import BudgetExceeded
from hierlab.definetti import random_mixture
from hierlab.grid import Field, make_grid, normalized, random_low_mode_field
from hierlab.interactions import (bbgky_collision_main, bbgky_error_level,
                                  bbgky_main_level, bbgky_rhs, bump_profile,
                                  collision_fourier_oracle, delta_surrogate,
                                  gaussian_profile, gp_collision,
                                  gp_collision_level, gp_collision_sum,
                                  potential_difference_tensor,
                                  product_collision_level, realize_potential)
from hierlab.marginals import (HierarchyState, Marginal, factorized_state,
                               free_propagate_marginal, hierarchy_norm,
                               mixture_marginal, pure_product_marginal,
                               random_hermitian_marginal, sobolev_norm, trace,
                               zero_marginal)

from kernel_tools import (bbgky_collision_error, bbgky_error_level_reference,
                          hermiticity_defect)

G16 = make_grid(1, 16, 2 * np.pi)
G8 = make_grid(1, 8, 2 * np.pi)


def unit_atom(grid, seed, max_mode=2):
    return random_low_mode_field(grid, 1, np.random.default_rng(seed),
                                 max_mode=max_mode)


def hermitian_mixture(grid, seed, k):
    rng = np.random.default_rng(seed)
    raw = rng.random(2) + 0.5
    w = raw / raw.sum()
    atoms = [(float(wi), random_low_mode_field(grid, 1, rng, max_mode=2))
             for wi in w]
    return mixture_marginal(atoms, k)


# -- potential realization -----------------------------------------------------


def test_realize_identity_at_n1():
    prof = gaussian_profile(G16, 0.6)
    mass = G16.h * prof.data.real.sum()
    pot = realize_potential(prof, 0.2, 1)
    assert np.max(np.abs(pot.realized.data - prof.data / mass)) < 1e-10
    assert G16.h * pot.realized.data.real.sum() == pytest.approx(1.0, rel=1e-12)


def test_realize_normalized_mass_is_one():
    pot = realize_potential(gaussian_profile(G16, 0.6), 0.2, 16)
    mass = G16.h * pot.realized.data.real.sum()
    assert abs(mass - 1.0) < 0.05


def test_realize_sup_scaling():
    prof = gaussian_profile(G16, 0.8)
    mass = G16.h * prof.data.real.sum()
    pot = realize_potential(prof, 0.2, 4)
    expected = 4 ** 0.2 * np.max(prof.data.real) / mass
    assert np.max(pot.realized.data.real) == pytest.approx(expected, rel=1e-4)


def test_realize_warns_when_under_resolved():
    with pytest.warns(RuntimeWarning, match="under-resolved"):
        realize_potential(gaussian_profile(G16, 0.3), 0.2, 64, width=0.3)


def test_realize_rejects_bad_inputs():
    prof = gaussian_profile(G16, 0.6)
    with pytest.raises(ValueError):
        realize_potential(prof, 0.3, 16)  # beta out of range
    odd = Field(G16, 1, np.roll(prof.data, 3))
    with pytest.raises(ValueError):
        realize_potential(odd, 0.2, 16)
    with pytest.raises(ValueError):
        realize_potential(Field(G16, 1, -prof.data), 0.2, 16)


def test_bump_profile_is_valid_input():
    pot = realize_potential(bump_profile(G16, 1.2), 0.2, 8)
    assert G16.h * pot.realized.data.real.sum() == pytest.approx(1.0)


def test_difference_tensor_periodicity():
    prof = gaussian_profile(G8, 0.7)
    w = potential_difference_tensor(prof)
    v = prof.data.real
    assert w[3, 3] == pytest.approx(v[0])
    assert w[1, 4] == pytest.approx(v[(1 - 4) % 8])


# -- contact operators ----------------------------------------------------------


def test_gp_collision_factorized_plus():
    phi = unit_atom(G16, 0)
    g2 = pure_product_marginal(phi, 2)
    out = gp_collision(g2, 1, "+")
    expected = (np.abs(phi.data) ** 2 * phi.data)[:, None] * np.conj(phi.data)[None, :]
    assert np.max(np.abs(out.kernel - expected)) < 1e-12


def test_gp_collision_full_factorized():
    phi = unit_atom(G16, 1)
    g2 = pure_product_marginal(phi, 2)
    out = gp_collision_level(g2)
    dens = np.abs(phi.data) ** 2
    expected = (dens[:, None] - dens[None, :]) * phi.data[:, None] \
        * np.conj(phi.data)[None, :]
    assert np.max(np.abs(out.kernel - expected)) < 1e-12


def test_gp_collision_real_atom_diagonal_vanishes():
    data = np.cos(G16.points) + 1.2
    phi = normalized(Field(G16, 1, data))
    out = gp_collision_level(pure_product_marginal(phi, 2))
    assert np.max(np.abs(np.diag(out.kernel))) < 1e-13


def test_gp_collision_trace_annihilation():
    gamma = hermitian_mixture(G16, 2, 2)
    out = gp_collision_level(gamma)
    assert abs(trace(out)) < 1e-10 * sobolev_norm(gamma, 0.0)


def test_gp_collision_plus_minus_adjoint():
    gamma = hermitian_mixture(G8, 3, 2)
    plus = gp_collision(gamma, 1, "+")
    minus = gp_collision(gamma, 1, "-")
    adj = Marginal(G8, 1, np.conj(plus.kernel.T))
    assert np.max(np.abs(adj.kernel - minus.kernel)) < 1e-12


def test_gp_collision_rejects_bad_j():
    gamma = hermitian_mixture(G8, 4, 2)
    with pytest.raises(ValueError):
        gp_collision(gamma, 2, "+")


def test_gp_collision_sum_zero_state():
    state = HierarchyState([Marginal(G8, 1, np.zeros((8, 8))),
                            Marginal(G8, 2, np.zeros((8,) * 4))])
    out = gp_collision_sum(state)
    assert hierarchy_norm(out, 0.0, 0.5) == 0.0


def test_gp_collision_sum_k1_factorized():
    phi = unit_atom(G16, 5)
    state = factorized_state(phi, 2)
    out = gp_collision_sum(state)
    gamma2 = state.entry(2)
    expected = gp_collision(gamma2, 1, "+") - gp_collision(gamma2, 1, "-")
    assert sobolev_norm(out.entry(1) - expected, 0.0) < 1e-12


@pytest.mark.parametrize("K", [1, 2])
def test_gp_collision_sum_top_level_without_upper_kernel(monkeypatch, K):
    state = factorized_state(unit_atom(G8, 6), K)
    levels = []
    for mod in (marginals_mod, interactions_mod):
        monkeypatch.setattr(mod, "zero_marginal",
                            lambda grid, k: levels.append(k) or zero_marginal(grid, k))
    out = gp_collision_sum(state)
    assert max(levels) <= K
    # the old path: every level, the top one included, contracts level k+1
    for k in range(1, K + 1):
        upper = state.entry(k + 1) if k < K else zero_marginal(G8, K + 1)
        old = gp_collision_level(upper)
        assert np.array_equal(out.entry(k).kernel, old.kernel)


# -- finite-N operators -----------------------------------------------------------


def test_bbgky_main_factorized_convolution_oracle():
    phi = unit_atom(G16, 6)
    pot = realize_potential(gaussian_profile(G16, 0.6), 0.2, 16)
    g2 = pure_product_marginal(phi, 2)
    out = bbgky_collision_main(g2, 1, "+", pot)
    v = pot.realized.data.real
    dens = np.abs(phi.data) ** 2
    conv = G16.h * np.array([np.sum(v[(i - np.arange(16)) % 16] * dens)
                             for i in range(16)])
    expected = conv[:, None] * phi.data[:, None] * np.conj(phi.data)[None, :]
    assert np.max(np.abs(out.kernel - expected)) < 1e-12


def test_bbgky_main_delta_surrogate_reduces_to_contact():
    gamma = hermitian_mixture(G16, 7, 2)
    pot = delta_surrogate(G16)
    for sign in ("+", "-"):
        a = bbgky_collision_main(gamma, 1, sign, pot)
        b = gp_collision(gamma, 1, sign)
        assert np.max(np.abs(a.kernel - b.kernel)) < 1e-12


def test_bbgky_error_multiplies_kernel():
    phi = unit_atom(G8, 8)
    pot = realize_potential(gaussian_profile(G8, 0.7), 0.2, 4)
    g2 = pure_product_marginal(phi, 2)
    out = bbgky_collision_error(g2, 1, 2, "+", pot)
    w = potential_difference_tensor(pot.realized)
    expected = g2.kernel * w[:, :, None, None]
    assert np.max(np.abs(out.kernel - expected)) < 1e-13
    bound = np.max(pot.realized.data.real) * sobolev_norm(g2, 0.0)
    assert sobolev_norm(out, 0.0) <= bound * (1 + 1e-12)


@pytest.mark.parametrize("finite_n", [False, True], ids=["contact", "finite-N"])
@pytest.mark.parametrize("n_atoms", [1, 3])
@pytest.mark.parametrize("dim,n,k", [(1, 8, 1), (1, 8, 2), (2, 4, 1)],
                         ids=["d1-k1", "d1-k2", "d2-k1"])
def test_product_collision_level_matches_the_dense_operator(dim, n, k,
                                                            n_atoms, finite_n):
    grid = make_grid(dim, n)
    rng = np.random.default_rng(40 + 10 * dim + k + n_atoms)
    atoms = list(random_mixture(grid, n_atoms, rng))
    upper = mixture_marginal(atoms, k + 1)
    if finite_n:  # N = 4 puts a weight (N - k)/N below one on every level
        pot = realize_potential(gaussian_profile(grid, 0.7), 0.2, 4)
        got = product_collision_level(atoms, k, pot)
        ref = bbgky_main_level(upper, pot)
    else:
        got, ref = product_collision_level(atoms, k), gp_collision_level(upper)
    assert got.k == k and got.grid == grid
    assert np.max(np.abs(got.kernel - ref.kernel)) <= \
        1e-12 * np.max(np.abs(ref.kernel))


def test_product_collision_level_checks_its_kernel_first(monkeypatch):
    monkeypatch.setenv("HLAB_BUDGET", str(8**4 - 1))
    with pytest.raises(BudgetExceeded, match="product collision kernel k=2"):
        product_collision_level([(1.0, unit_atom(G8, 9))], 2)


def test_potential_table_built_once_and_budget_checked(monkeypatch):
    pot = realize_potential(gaussian_profile(G8, 0.7), 0.2, 4)
    table = pot.difference_table
    assert pot.difference_table is table
    assert np.array_equal(table, potential_difference_tensor(pot.realized))
    monkeypatch.setenv("HLAB_BUDGET", str(8 * 8 - 1))
    fresh = realize_potential(gaussian_profile(G8, 0.7), 0.2, 4)
    with pytest.raises(BudgetExceeded):
        fresh.difference_table


# slabs of one axis (d1-n8-K2, d1-n16-K2) and of two (the rest); the bump's
# potential has exact zeros
@pytest.mark.parametrize("dim,n,K", [(1, 8, 2), (1, 16, 2), (1, 8, 3),
                                     (2, 4, 2), (1, 4, 4)],
                         ids=["d1-n8-K2", "d1-n16-K2", "d1-n8-K3", "d2-n4-K2",
                              "d1-n4-K4"])
@pytest.mark.parametrize("profile", [gaussian_profile, bump_profile])
def test_bbgky_error_level_is_bitwise_the_term_by_term_sum(profile, dim, n, K):
    grid = make_grid(dim, n, 2 * np.pi)
    pot = realize_potential(profile(grid, 0.6), 0.2, 5)
    gamma = random_hermitian_marginal(grid, K, np.random.default_rng(44))
    got = bbgky_error_level(gamma, pot).kernel
    want = bbgky_error_level_reference(gamma, pot).kernel
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_bbgky_error_index_order_enforced():
    phi = unit_atom(G8, 9)
    pot = realize_potential(gaussian_profile(G8, 0.7), 0.2, 4)
    g2 = pure_product_marginal(phi, 2)
    with pytest.raises(ValueError):
        bbgky_collision_error(g2, 2, 1, "+", pot)


@pytest.mark.parametrize("dim,n,K", [(1, 8, 1), (1, 8, 2), (1, 8, 3),
                                     (2, 4, 2)],
                         ids=["d1-n8-K1", "d1-n8-K2", "d1-n8-K3", "d2-n4-K2"])
def test_bbgky_rhs_levels_are_error_plus_main_bit_for_bit(dim, n, K):
    """Level 1 of B_N is the main term from level 2; a middle level is its
    error term with the main term from the level above added in the error
    term's buffer; the top level is its error term alone."""
    grid = make_grid(dim, n, 2 * np.pi)
    pot = realize_potential(gaussian_profile(grid, 0.6), 0.2, 5)
    rng = np.random.default_rng(45)
    state = HierarchyState([random_hermitian_marginal(grid, k, rng,
                                                      symmetric=True)
                            for k in range(1, K + 1)])
    rhs = bbgky_rhs(state, pot)
    for k in range(1, K + 1):
        if k == 1 and K > 1:
            want = bbgky_main_level(state.entry(2), pot).kernel
        else:
            want = bbgky_error_level(state.entry(k), pot).kernel
            if k < K:
                want += bbgky_main_level(state.entry(k + 1), pot).kernel
        got = rhs.entry(k).kernel
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_bbgky_rhs_trace_annihilation_and_hermitian_adjointness():
    phi = unit_atom(G8, 10)
    pot = realize_potential(gaussian_profile(G8, 0.7), 0.2, 8)
    state = factorized_state(phi, 2)
    rhs = bbgky_rhs(state, pot)
    for k in (1, 2):
        assert abs(trace(rhs.entry(k))) < 1e-12
        # i * (collision term) must be Hermitian for a Hermitian state
        assert hermiticity_defect(rhs.entry(k) * 1j) < 1e-12


def test_bbgky_rhs_top_level_weight_vanishes():
    phi = unit_atom(G8, 11)
    pot = realize_potential(gaussian_profile(G8, 0.7), 0.2, 2)
    state = factorized_state(phi, 2)
    rhs = bbgky_rhs(state, pot)
    expected_top = bbgky_collision_error(state.entry(2), 1, 2, "+", pot) \
        - bbgky_collision_error(state.entry(2), 1, 2, "-", pot)
    diff = rhs.entry(2) - expected_top * (1.0 / 2.0)
    assert sobolev_norm(diff, 0.0) < 1e-12


def test_bbgky_rhs_converges_to_contact_sum():
    phi = unit_atom(G16, 12, max_mode=1)
    prof = gaussian_profile(G16, 0.8)
    state = factorized_state(phi, 2)
    target = gp_collision_sum(state)
    dists = []
    for big_n in (100, 1000, 10000):
        with np.errstate(all="ignore"):
            import warnings as _w
            with _w.catch_warnings():
                _w.simplefilter("ignore")
                pot = realize_potential(prof, 0.2, big_n, width=0.8)
        dists.append(hierarchy_norm(bbgky_rhs(state, pot) - target, 0.0, 0.5))
    assert dists[0] > dists[1] > dists[2]


def test_full_collision_distance_monotone_on_geometric_ladder():
    phi = unit_atom(G16, 13, max_mode=1)
    prof = gaussian_profile(G16, 0.6)
    state = factorized_state(phi, 2)
    target = gp_collision_sum(state)
    import warnings as _w
    dists = []
    for big_n in (4, 16, 64, 256):
        with _w.catch_warnings():
            _w.simplefilter("ignore")
            pot = realize_potential(prof, 0.2, big_n, width=0.6)
        dists.append(hierarchy_norm(bbgky_rhs(state, pot) - target, 0.0, 0.5))
    for a, b in zip(dists, dists[1:]):
        assert b <= a + 1e-10


# -- momentum-domain oracle -------------------------------------------------------


def test_oracle_matches_contact_at_t0():
    gamma = hermitian_mixture(G16, 14, 2)
    oracle = collision_fourier_oracle(gamma, 0.0, None)
    direct = gp_collision(gamma, 1, "+")
    rel = sobolev_norm(oracle - direct, 0.0) / sobolev_norm(direct, 0.0)
    assert rel < 1e-10


def test_oracle_matches_spatial_path_with_potential():
    gamma = hermitian_mixture(G16, 15, 2)
    pot = realize_potential(gaussian_profile(G16, 0.6), 0.2, 16)
    for t in (0.0, 0.1):
        oracle = collision_fourier_oracle(gamma, t, pot)
        spatial = bbgky_collision_main(free_propagate_marginal(gamma, t),
                                       1, "+", pot)
        rel = sobolev_norm(oracle - spatial, 0.0) / sobolev_norm(spatial, 0.0)
        assert rel < 1e-9


GRID_TRANSFORMS = ("dft_forward", "dft_inverse", "apply_symbol",
                   "bessel_multiply", "free_propagate", "flow_matrix",
                   "apply_axes")


def test_oracle_calls_no_flow_matrix(monkeypatch):
    """The oracle stays independent: it calls no grid transform."""
    calls = []
    for mod in (grid_mod, marginals_mod, interactions_mod):
        for name in GRID_TRANSFORMS:
            monkeypatch.setattr(mod, name, lambda *a, _n=name: calls.append(_n),
                                raising=False)
    gamma = hermitian_mixture(G8, 15, 2)
    pot = realize_potential(gaussian_profile(G8, 0.7), 0.2, 8)
    collision_fourier_oracle(gamma, 0.1, pot)
    assert calls == []


def test_oracle_flat_spectrum_equals_contact_case():
    gamma = hermitian_mixture(G16, 16, 2)
    pot = delta_surrogate(G16)  # unit spectrum on every mode
    a = collision_fourier_oracle(gamma, 0.05, pot)
    b = collision_fourier_oracle(gamma, 0.05, None)
    assert np.max(np.abs(a.kernel - b.kernel)) < 1e-12


def test_oracle_three_particle_level():
    rng = np.random.default_rng(17)
    raw = rng.random(2) + 0.5
    w = raw / raw.sum()
    atoms = [(float(wi), random_low_mode_field(G8, 1, rng, max_mode=2))
             for wi in w]
    gamma3 = mixture_marginal(atoms, 3)
    pot = realize_potential(gaussian_profile(G8, 0.7), 0.2, 8)
    oracle = collision_fourier_oracle(gamma3, 0.1, pot)
    spatial = bbgky_collision_main(free_propagate_marginal(gamma3, 0.1),
                                   1, "+", pot)
    rel = sobolev_norm(oracle - spatial, 0.0) / sobolev_norm(spatial, 0.0)
    assert rel < 1e-9
