import numpy as np
import pytest

from hierlab.grid import (Field, inner, l2_norm, make_grid, normalized,
                          random_low_mode_field)
from hierlab.interactions import gaussian_profile, realize_potential
from hierlab.marginals import (admissibility_defect, HierarchyState,
                               pure_product_marginal, sobolev_norm)
from hierlab.nbody import (NBodyState, energy_estimate_check, energy_moments,
                           extract_marginal, factorized_state,
                           hamiltonian_apply, nbody_evolve, symmetry_defect)

from kernel_tools import perturbed_product_state, zero_potential

G16 = make_grid(1, 16, 2 * np.pi)
G8 = make_grid(1, 8, 2 * np.pi)


def plane_wave_atom(grid, mode):
    return normalized(Field(grid, 1, np.exp(1j * mode * (2 * np.pi / grid.L)
                                            * grid.points)))


def smooth_atom(grid, seed, max_mode=2):
    return random_low_mode_field(grid, 1, np.random.default_rng(seed),
                                 max_mode=max_mode)


def smooth_symmetric_state(grid, big_n, pot, seed, eps=0.2):
    rng = np.random.default_rng(seed)
    phi = random_low_mode_field(grid, 1, rng, max_mode=2)
    bump = random_low_mode_field(grid, 1, rng, max_mode=1, unit_norm=False)
    return perturbed_product_state(phi, bump, eps, big_n, pot)


def two_mode_state(phi, chi, big_n, pot, amplitudes=(1.0, 0.5)):
    """Superposition of two product states, bosonic and non-factorized."""
    a = factorized_state(phi, big_n, pot)
    b = factorized_state(chi, big_n, pot)
    data = amplitudes[0] * a.psi.data + amplitudes[1] * b.psi.data
    return NBodyState(phi.grid, big_n, normalized(Field(phi.grid, big_n, data)), pot)


def pot16(big_n=2):
    return realize_potential(gaussian_profile(G16, 0.6), 0.2, big_n)


def pot8(big_n):
    return realize_potential(gaussian_profile(G8, 0.7), 0.2, big_n)


# -- generator -------------------------------------------------------------------


def test_hamiltonian_plane_wave_eigenvector():
    state = factorized_state(plane_wave_atom(G16, 2), 3, zero_potential(G16))
    out = hamiltonian_apply(state, state.psi)
    eigenvalue = 3 * 2.0**2
    assert np.max(np.abs(out.data - eigenvalue * state.psi.data)) < 1e-10


def test_hamiltonian_constant_state_pair_energy():
    big_n = 3
    pot = pot16(big_n)
    const = normalized(Field(G16, 1, np.ones(16)))
    state = factorized_state(const, big_n, pot)
    val = inner(state.psi, hamiltonian_apply(state, state.psi)).real
    pairs = big_n * (big_n - 1) / 2
    expected = pairs / big_n / G16.L
    assert val == pytest.approx(expected, rel=1e-10)
    assert val >= 0


def test_hamiltonian_hermitian_on_random_pair():
    pot = pot16(2)
    a = smooth_symmetric_state(G16, 2, pot, 0)
    b = smooth_symmetric_state(G16, 2, pot, 1)
    lhs = inner(a.psi, hamiltonian_apply(a, b.psi))
    rhs = np.conj(inner(b.psi, hamiltonian_apply(a, a.psi)))
    assert abs(lhs - rhs) / abs(lhs) < 1e-10


# -- constructors ------------------------------------------------------------------


def test_factorized_state_is_symmetric_and_normalized():
    state = factorized_state(smooth_atom(G16, 2), 3, zero_potential(G16))
    assert symmetry_defect(state.psi) < 1e-12
    assert l2_norm(state.psi) == pytest.approx(1.0, abs=1e-12)


def test_perturbed_and_two_mode_states_are_bosonic():
    pot = pot8(3)
    pert = smooth_symmetric_state(G8, 3, pot, 3)
    assert symmetry_defect(pert.psi) < 1e-12
    duo = two_mode_state(smooth_atom(G8, 4), smooth_atom(G8, 5), 3, pot)
    assert symmetry_defect(duo.psi) < 1e-12


# -- evolution ----------------------------------------------------------------------


def test_evolve_free_matches_spectral_flow():
    state = factorized_state(smooth_atom(G16, 6), 2, zero_potential(G16))
    traj = nbody_evolve(state, 1e-3, 0.05, store_every=0)
    from hierlab.grid import free_propagate
    exact = free_propagate(state.psi, 0.05)
    assert np.max(np.abs(traj.psis[-1].data - exact.data)) < 1e-11


def test_evolve_matches_fft_split_step():
    # reference: the split step with the kinetic factor as an fftn round trip
    pot = pot8(3)
    state = smooth_symmetric_state(G8, 3, pot, 30)
    dt, n_steps = 2e-3, 25
    vhalf = np.exp(-0.5j * dt * state.pair_potential / 3)
    kfull = np.exp(-1j * dt * state.kinetic)
    data = state.psi.data.copy()
    for _ in range(n_steps):
        data = vhalf * np.fft.ifftn(kfull * np.fft.fftn(vhalf * data))
    traj = nbody_evolve(state, dt, n_steps * dt, store_every=0)
    assert np.max(np.abs(traj.psis[-1].data - data)) <= 1e-12


@pytest.mark.parametrize("dim,big_n", [(1, 3), (2, 2)])  # odd, even passes
def test_evolve_in_place_loop_leaves_its_input_and_samples_apart(dim, big_n):
    from hierlab.grid import free_propagate
    grid = make_grid(dim, 8, 2 * np.pi)
    pot = realize_potential(gaussian_profile(grid, 0.7), 0.2, big_n)
    state = smooth_symmetric_state(grid, big_n, pot, 33)
    before = state.psi.data.copy()
    dt, n_steps = 2e-3, 4
    # the allocate-per-step formula the in-place loop must reproduce
    vhalf = np.exp(-0.5j * dt * state.pair_potential / big_n)
    psi, want = state.psi, [state.psi.data]
    for _ in range(n_steps):
        psi = Field(grid, big_n,
                    vhalf * free_propagate(Field(grid, big_n, vhalf * psi.data),
                                           dt).data)
        want.append(psi.data)
    traj = nbody_evolve(state, dt, n_steps * dt, store_every=1)
    assert np.array_equal(state.psi.data, before)
    assert traj.psis[0] is state.psi
    assert len(traj.psis) == len(want)
    for i, (got, ref) in enumerate(zip(traj.psis, want)):
        assert np.array_equal(got.data, ref)
        assert not any(np.shares_memory(got.data, other.data)
                       for other in traj.psis[i + 1:])
    ends = nbody_evolve(state, dt, n_steps * dt, store_every=0)
    assert np.array_equal(state.psi.data, before)
    assert np.array_equal(ends.psis[-1].data, want[-1])
    assert not np.shares_memory(ends.psis[-1].data, state.psi.data)


def test_with_psi_shares_cached_operators():
    pot = pot8(3)
    state = smooth_symmetric_state(G8, 3, pot, 31)
    energy_moments(state, 1)  # builds both cached operators
    final = nbody_evolve(state, 1e-3, 0.01, store_every=0).psis[-1]
    moved = state.with_psi(final)
    assert moved.psi is final and state.psi is not final
    assert moved.pair_potential is state.pair_potential
    assert moved.kinetic is state.kinetic
    fresh = NBodyState(G8, 3, final, pot)
    for k in (1, 2):
        assert energy_moments(moved, k)[k] == energy_moments(fresh, k)[k]
    with pytest.raises(ValueError):
        state.with_psi(smooth_atom(G8, 32))


def test_evolve_norm_and_symmetry_preserved():
    pot = pot16(2)
    state = smooth_symmetric_state(G16, 2, pot, 7)
    traj = nbody_evolve(state, 1e-3, 0.1, store_every=0)
    assert np.max(np.abs(traj.norms - traj.norms[0])) < 1e-12
    assert symmetry_defect(traj.psis[-1]) < 1e-11


def test_evolve_second_order_richardson():
    pot = pot16(2)
    state = smooth_symmetric_state(G16, 2, pot, 8)
    ref = nbody_evolve(state, 0.05 / 512, 0.05, store_every=0).psis[-1].data
    errs = []
    for dt in (2e-3, 1e-3):
        psi = nbody_evolve(state, dt, 0.05, store_every=0).psis[-1]
        errs.append(l2_norm(Field(G16, 2, psi.data - ref)))
    assert 3.2 < errs[0] / errs[1] < 4.8


def test_evolve_energy_moment_conserved():
    pot = pot16(2)
    state = factorized_state(smooth_atom(G16, 9), 2, pot)
    m0 = energy_moments(state, 1)[1]
    traj = nbody_evolve(state, 1e-3, 0.1, store_every=0)
    m1 = energy_moments(NBodyState(G16, 2, traj.psis[-1], pot), 1)[1]
    assert abs(m1 - m0) / abs(m0) < 1e-8


# -- marginal extraction ---------------------------------------------------------------


def test_extract_product_state_marginal():
    phi = smooth_atom(G16, 10)
    state = factorized_state(phi, 3, zero_potential(G16))
    for k in (1, 2):
        got = extract_marginal(state.psi, k)
        want = pure_product_marginal(phi, k)
        assert sobolev_norm(got - want, 0.0) < 1e-12


def test_extract_top_marginal_is_projector():
    pot = pot8(2)
    state = smooth_symmetric_state(G8, 2, pot, 11)
    got = extract_marginal(state.psi, 2)
    outer = np.tensordot(state.psi.data, np.conj(state.psi.data), axes=0)
    assert np.max(np.abs(got.kernel - outer)) < 1e-13


def test_extract_admissibility_chain():
    pot = pot8(4)
    state = smooth_symmetric_state(G8, 4, pot, 12)
    stack = HierarchyState([extract_marginal(state.psi, k) for k in (1, 2, 3)])
    assert max(admissibility_defect(stack)) < 1e-12


def test_extract_unit_trace_and_psd():
    from hierlab.marginals import psd_defect, trace
    pot = pot8(3)
    state = smooth_symmetric_state(G8, 3, pot, 13)
    gamma = extract_marginal(state.psi, 2)
    assert trace(gamma).real == pytest.approx(1.0, abs=1e-12)
    assert psd_defect(gamma) < 1e-10


# -- moments and the lower-bound instance ----------------------------------------------


def test_energy_moment_free_plane_waves():
    state = factorized_state(plane_wave_atom(G16, 1), 3, zero_potential(G16))
    assert energy_moments(state, 0)[0] == pytest.approx(1.0, abs=1e-12)
    assert energy_moments(state, 1)[1] == pytest.approx(3.0, rel=1e-10)
    assert energy_moments(state, 2)[2] == pytest.approx(9.0, rel=1e-10)


def test_energy_moment_growth_constant_stable():
    ratios = {}
    for big_n in (2, 3, 4):
        pot = pot8(big_n)
        state = factorized_state(smooth_atom(G8, 14), big_n, pot)
        for k in (1, 2):
            ratios.setdefault(k, []).append(
                (energy_moments(state, k)[k] / big_n**k) ** (1.0 / k))
    for k, vals in ratios.items():
        assert max(vals) / min(vals) < 2.0


def test_energy_estimate_free_plane_waves():
    big_n = 4
    state = factorized_state(plane_wave_atom(G8, 1), big_n, zero_potential(G8))
    ratio = energy_estimate_check(state, 1, 0.5)
    expected = (big_n * 1.0 + big_n) / (0.5 * big_n * (1.0 + 1.0))
    assert ratio == pytest.approx(expected, rel=1e-10)
    assert ratio >= 1.0


@pytest.mark.parametrize("big_n,k", [(4, 1), (4, 2), (6, 1), (6, 2)])
def test_energy_estimate_instances(big_n, k):
    pot = pot8(big_n)
    state = smooth_symmetric_state(G8, big_n, pot, 20 + big_n + k)
    assert energy_estimate_check(state, k, 0.5) >= 1.0


def test_energy_estimate_rejects_bad_arguments():
    state = factorized_state(smooth_atom(G8, 15), 2, zero_potential(G8))
    with pytest.raises(ValueError):
        energy_estimate_check(state, 3, 0.5)
    with pytest.raises(ValueError):
        energy_estimate_check(state, 1, 1.5)


def test_budget_guards_large_state(monkeypatch):
    from hierlab.budget import BudgetExceeded
    monkeypatch.setenv("HLAB_BUDGET", "100")
    with pytest.raises(BudgetExceeded):
        factorized_state(smooth_atom(G8, 16), 3, zero_potential(G8))
