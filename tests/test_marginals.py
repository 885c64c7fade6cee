import tracemalloc

import numpy as np
import pytest

from hierlab.grid import (Field, bessel_multiply, l2_norm, make_grid,
                          normalized, random_low_mode_field,
                          sobolev_norm_field)
from hierlab.marginals import (HierarchyState, Marginal, admissibility_defect,
                               factorized_state, free_propagate_marginal,
                               hierarchy_norm, mixture_marginal, mixture_state,
                               partial_trace, partial_trace_at, psd_defect,
                               pure_product_marginal, random_hermitian_marginal,
                               sobolev_norm, symmetrize, trace,
                               trace_sobolev_norm, weakstar_metric,
                               zero_marginal)

from kernel_tools import hermiticity_defect, permutation_defect

G8 = make_grid(1, 8, 2 * np.pi)
G16 = make_grid(1, 16, 2 * np.pi)


def unit_atom(grid, seed, max_mode=2):
    return random_low_mode_field(grid, 1, np.random.default_rng(seed),
                                 max_mode=max_mode)


def orthonormal_pair(grid):
    x = grid.points
    phi = normalized(Field(grid, 1, np.ones(grid.n)))
    psi = normalized(Field(grid, 1, np.exp(1j * (2 * np.pi / grid.L) * x)))
    return phi, psi


def random_atoms(grid, count, seed):
    rng = np.random.default_rng(seed)
    raw = rng.random(count) + 0.5
    weights = raw / raw.sum()
    return [(float(w), random_low_mode_field(grid, 1, rng, max_mode=2))
            for w in weights]


# -- constructors -----------------------------------------------------------


def test_pure_product_unit_trace():
    phi = unit_atom(G16, 0)
    for k in (1, 2):
        assert trace(pure_product_marginal(phi, k)) == pytest.approx(1.0, abs=1e-12)


def test_pure_product_partial_trace_factorizes():
    phi = unit_atom(G8, 1)
    g3 = pure_product_marginal(phi, 3)
    g2 = pure_product_marginal(phi, 2)
    diff = partial_trace(g3) - g2
    assert sobolev_norm(diff, 0.0) < 1e-12


def test_pure_product_rank_one_psd():
    phi = unit_atom(G16, 2)
    assert psd_defect(pure_product_marginal(phi, 1)) < 1e-12


def test_mixture_single_atom_equals_product():
    phi = unit_atom(G8, 3)
    a = mixture_marginal([(1.0, phi)], 2)
    b = pure_product_marginal(phi, 2)
    assert sobolev_norm(a - b, 0.0) < 1e-14


def test_mixture_two_orthonormal_atoms_spectrum():
    phi, psi = orthonormal_pair(G16)
    gamma = mixture_marginal([(0.5, phi), (0.5, psi)], 1)
    assert trace(gamma) == pytest.approx(1.0, abs=1e-12)
    eigs = np.linalg.eigvalsh(gamma.weighted_matrix())
    top_two = np.sort(eigs)[-2:]
    assert top_two == pytest.approx([0.5, 0.5], abs=1e-12)


def test_mixture_admissibility_oracle():
    # oracle: both sides constructed independently from the same atoms
    atoms = random_atoms(G8, 3, 4)
    g3 = mixture_marginal(atoms, 3)
    g2 = mixture_marginal(atoms, 2)
    assert sobolev_norm(partial_trace(g3) - g2, 0.0) < 1e-12


def test_mixture_rejects_negative_weight():
    phi = unit_atom(G8, 5)
    with pytest.raises(ValueError):
        mixture_marginal([(-0.5, phi), (1.5, phi)], 1)


# -- trace, partial trace ----------------------------------------------------


def test_trace_zero_and_linearity():
    assert trace(zero_marginal(G8, 2)) == 0
    phi = unit_atom(G8, 6)
    gamma = pure_product_marginal(phi, 2)
    assert trace(gamma * (2.5 + 1j)) == pytest.approx((2.5 + 1j), abs=1e-12)


def test_partial_trace_preserves_trace():
    atoms = random_atoms(G8, 2, 7)
    g2 = mixture_marginal(atoms, 2)
    assert trace(partial_trace(g2)) == pytest.approx(trace(g2), rel=1e-12)


def test_partial_trace_rejects_k1():
    phi = unit_atom(G8, 8)
    with pytest.raises(ValueError):
        partial_trace(pure_product_marginal(phi, 1))


def test_partial_trace_position_immaterial_on_symmetric_state():
    atoms = random_atoms(G8, 2, 9)
    g3 = mixture_marginal(atoms, 3)
    first = partial_trace_at(g3, 0)
    last = partial_trace_at(g3, 2)
    assert sobolev_norm(first - last, 0.0) < 1e-12


# -- norms --------------------------------------------------------------------


def test_sobolev_alpha0_is_hilbert_schmidt():
    gamma = random_hermitian_marginal(G8, 1, np.random.default_rng(10))
    direct = np.sqrt(np.sum(np.abs(gamma.weighted_matrix()) ** 2))
    assert sobolev_norm(gamma, 0.0) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
def test_sobolev_pure_product_factorizes(k, alpha):
    grid = G16 if k <= 2 else G8
    phi = unit_atom(grid, 11 + k)
    val = sobolev_norm(pure_product_marginal(phi, k), alpha)
    assert val == pytest.approx(sobolev_norm_field(phi, alpha) ** (2 * k),
                                rel=1e-10)


def test_sobolev_constant_kernel_alpha_invariant():
    gamma = Marginal(G16, 1, np.full((16, 16), 1.0 / (2 * np.pi)))
    assert sobolev_norm(gamma, 1.0) == pytest.approx(sobolev_norm(gamma, 0.0),
                                                     rel=1e-12)


def test_trace_sobolev_pure_product_unit():
    phi = unit_atom(G16, 14)
    assert trace_sobolev_norm(pure_product_marginal(phi, 1), 0.0) == \
        pytest.approx(1.0, abs=1e-10)


def test_trace_sobolev_equals_trace_for_psd():
    atoms = random_atoms(G16, 3, 15)
    gamma = mixture_marginal(atoms, 1)
    assert trace_sobolev_norm(gamma, 0.0) == pytest.approx(trace(gamma).real,
                                                           abs=1e-10)


def test_trace_norm_dominates_hs_norm():
    gamma = random_hermitian_marginal(G8, 2, np.random.default_rng(16))
    assert trace_sobolev_norm(gamma, 0.0) >= sobolev_norm(gamma, 0.0) - 1e-12


def test_hierarchy_norm_factorized_geometric():
    phi = unit_atom(G8, 17)
    state = factorized_state(phi, 3)
    c2 = sobolev_norm_field(phi, 1.0) ** 2
    expected = sum(0.4**k * c2**k for k in (1, 2, 3))
    assert hierarchy_norm(state, 1.0, 0.4) == pytest.approx(expected, rel=1e-10)


def test_hierarchy_norm_weights_one_state_at_any_xi():
    state = mixture_state(random_atoms(G8, 2, 19), 3)
    for xi in (0.3, 0.7):
        expected = sum(xi**k * sobolev_norm(state.entry(k), 1.0)
                       for k in (1, 2, 3))
        assert hierarchy_norm(state, 1.0, xi) == pytest.approx(expected,
                                                               rel=1e-14)


@pytest.mark.parametrize("xi", [0.0, 1.0, -0.1])
def test_hierarchy_norm_rejects_xi_outside_unit_interval(xi):
    state = HierarchyState([zero_marginal(G8, 1)])
    with pytest.raises(ValueError, match="xi"):
        hierarchy_norm(state, 1.0, xi)


def test_hierarchy_norm_zero_state():
    state = HierarchyState([zero_marginal(G8, 1), zero_marginal(G8, 2)])
    assert hierarchy_norm(state, 1.0, 0.5) == 0.0


def test_hierarchy_trace_flavor_dominates_hs_flavor():
    atoms = random_atoms(G8, 2, 18)
    state = mixture_state(atoms, 2)
    assert hierarchy_norm(state, 0.0, 0.5, flavor="trace") >= \
        hierarchy_norm(state, 0.0, 0.5, flavor="hilbert_schmidt") - 1e-12


# -- positivity ---------------------------------------------------------------


def test_psd_defect_signed_combination():
    phi, psi = orthonormal_pair(G16)
    gamma = pure_product_marginal(phi, 1) - pure_product_marginal(psi, 1) * 0.5
    assert psd_defect(gamma) == pytest.approx(0.5, abs=1e-10)


def test_psd_defect_mixture_nonnegative_weights():
    atoms = random_atoms(G16, 3, 19)
    assert psd_defect(mixture_marginal(atoms, 2)) < 1e-10


# -- admissibility ------------------------------------------------------------


def test_admissibility_factorized_zero():
    phi = unit_atom(G8, 20)
    defects = admissibility_defect(factorized_state(phi, 3))
    assert max(defects) < 1e-12


def test_admissibility_scaled_level_two():
    phi = unit_atom(G8, 21)
    state = factorized_state(phi, 2)
    state.entries[1] = state.entries[1] * 2.0
    defect = admissibility_defect(state)[0]
    assert defect == pytest.approx(sobolev_norm(state.entry(1), 0.0), rel=1e-10)


def test_admissibility_mixture_state():
    atoms = random_atoms(G8, 3, 22)
    assert max(admissibility_defect(mixture_state(atoms, 3))) < 1e-12


# -- weak-* metric -------------------------------------------------------------


def observables(grid, count, seed):
    rng = np.random.default_rng(seed)
    return [random_hermitian_marginal(grid, 1, rng) for _ in range(count)]


def test_weakstar_zero_for_equal_arguments():
    phi = unit_atom(G16, 23)
    gamma = pure_product_marginal(phi, 1)
    assert weakstar_metric(gamma, gamma, observables(G16, 4, 24)) == 0.0


def test_weakstar_identity_observable_equal_traces():
    phi, psi = orthonormal_pair(G16)
    eye = Marginal(G16, 1, np.eye(16) / G16.h)  # identity operator kernel
    a = pure_product_marginal(phi, 1)
    b = pure_product_marginal(psi, 1)
    assert weakstar_metric(a, b, [eye]) < 1e-12


def test_weakstar_hs_convergent_sequence_decreases():
    phi = unit_atom(G16, 25)
    limit = pure_product_marginal(phi, 1)
    dev = random_hermitian_marginal(G16, 1, np.random.default_rng(26))
    obs = observables(G16, 6, 27)
    vals = [weakstar_metric(limit + dev * (0.8 * 0.5**j), limit, obs)
            for j in range(30)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-6


# -- symmetrization and free flow ----------------------------------------------


def test_symmetrize_fixes_random_kernel():
    rng = np.random.default_rng(28)
    raw = random_hermitian_marginal(G8, 2, rng)
    sym = symmetrize(raw)
    assert permutation_defect(sym) < 1e-12
    assert hermiticity_defect(sym) < 1e-12
    twice = symmetrize(sym)
    assert sobolev_norm(twice - sym, 0.0) < 1e-12


def test_symmetrize_leaves_symmetric_kernel():
    atoms = random_atoms(G8, 2, 29)
    gamma = mixture_marginal(atoms, 2)
    assert sobolev_norm(symmetrize(gamma) - gamma, 0.0) < 1e-12


def test_free_flow_marginal_isometries():
    atoms = random_atoms(G8, 2, 30)
    gamma = mixture_marginal(atoms, 2)
    moved = free_propagate_marginal(gamma, 0.37)
    assert trace(moved).real == pytest.approx(trace(gamma).real, abs=1e-10)
    for alpha in (0.0, 1.0):
        assert sobolev_norm(moved, alpha) == pytest.approx(
            sobolev_norm(gamma, alpha), rel=1e-10)
    assert psd_defect(moved) < 1e-10
    assert hermiticity_defect(moved) < 1e-10


def test_free_flow_t0_identity():
    gamma = random_hermitian_marginal(G8, 1, np.random.default_rng(31))
    out = free_propagate_marginal(gamma, 0.0)
    assert sobolev_norm(out - gamma, 0.0) == 0.0


def test_free_flow_preserves_admissibility():
    atoms = random_atoms(G8, 2, 32)
    state = mixture_state(atoms, 3)
    moved = HierarchyState([free_propagate_marginal(m, 0.21)
                            for m in state.entries])
    assert max(admissibility_defect(moved)) < 1e-10


def test_mixture_state_full_invariant_battery():
    atoms = random_atoms(G8, 3, 33)
    state = mixture_state(atoms, 2)
    total = sum(w for w, _ in atoms)
    for k in (1, 2):
        gamma = state.entry(k)
        assert hermiticity_defect(gamma) < 1e-12
        assert permutation_defect(gamma) < 1e-12
        assert psd_defect(gamma) < 1e-10
        assert trace(gamma).real == pytest.approx(total, abs=1e-12)
    assert max(admissibility_defect(state)) < 1e-12


def test_eigensolver_budget_guard(monkeypatch):
    import hierlab.marginals as marginals_mod
    from hierlab.budget import BudgetExceeded, TensorBudget
    gamma = random_hermitian_marginal(G8, 1, np.random.default_rng(34))
    monkeypatch.setattr(marginals_mod, "default_budget",
                        lambda: TensorBudget(max_eig_rows=4))
    with pytest.raises(BudgetExceeded):
        psd_defect(gamma)
    with pytest.raises(BudgetExceeded):
        trace_sobolev_norm(gamma, 0.0)


def test_entry_outside_the_levels_raises():
    state = factorized_state(random_atoms(G8, 1, 35)[0][1], 2)
    assert state.entry(2) is state.entries[1]
    for k in (0, 3, -1):
        with pytest.raises(ValueError, match="outside 1..2"):
            state.entry(k)


def test_order_zero_sobolev_norm_copies_no_kernel():
    g = make_grid(1, 16)
    gamma = pure_product_marginal(random_low_mode_field(
        g, 1, np.random.default_rng(9)), 2)  # 16^4 entries
    # the value of the copying path, bit for bit
    expected = l2_norm(bessel_multiply(gamma.as_field(), 0.0))
    tracemalloc.start()
    try:
        got = sobolev_norm(gamma, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # |gamma| squared in one real array, half a kernel
    assert peak <= 0.6 * gamma.kernel.nbytes
    assert got == expected
