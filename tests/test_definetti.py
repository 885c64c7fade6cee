import numpy as np
import pytest

from hierlab.definetti import (Mixture, energy_functional_direct,
                               energy_functional_mixture, flow_mixture,
                               gwp_window_chain, nls_energy, nls_evolve,
                               random_mixture)
from hierlab.grid import Field, l2_norm, make_grid, random_low_mode_field
from hierlab.hierarchy_evolution import EvolutionConfig, gp_evolve
from hierlab.marginals import (admissibility_defect, hierarchy_norm,
                               mixture_marginal, mixture_state, psd_defect,
                               pure_product_marginal, sobolev_norm,
                               trace_sobolev_norm)

G16 = make_grid(1, 16, 2 * np.pi)
G8 = make_grid(1, 8, 2 * np.pi)


def constant_atom(grid):
    return Field(grid, 1, np.full(grid.slot_shape(1), 1.0 / np.sqrt(grid.L)))


# -- cubic flow ------------------------------------------------------------------


def test_nls_zero_data_stays_zero():
    phi = Field(G16, 1, np.zeros(16))
    out = nls_evolve(phi, 1e-3, 0.2)
    assert np.max(np.abs(out.data)) == 0.0


def test_nls_constant_data_exact_phase():
    c = 0.7 + 0.1j
    phi = Field(G16, 1, np.full(16, c))
    out = nls_evolve(phi, 1e-3, 0.5)
    expected = c * np.exp(-1j * abs(c) ** 2 * 0.5)
    assert np.max(np.abs(out.data - expected)) < 1e-10


def test_nls_second_order_richardson():
    phi = random_low_mode_field(G16, 1, np.random.default_rng(0), max_mode=2)
    ref = nls_evolve(phi, 0.1 / 1024, 0.1)
    errs = []
    for dt in (2e-3, 1e-3):
        out = nls_evolve(phi, dt, 0.1)
        errs.append(l2_norm(Field(G16, 1, out.data - ref.data)))
    ratio = errs[0] / errs[1]
    assert 3.2 < ratio < 4.8


def test_nls_matches_fft_split_step():
    # reference: the split step with the kinetic factor as an fft round trip
    phi = random_low_mode_field(G16, 1, np.random.default_rng(2), max_mode=3)
    dt, n_steps = 1e-3, 200
    kinetic = np.exp(-1j * dt * G16.k2)
    data = phi.data.copy()
    for _ in range(n_steps):
        data = data * np.exp(-0.5j * dt * np.abs(data) ** 2)
        data = np.fft.ifftn(kinetic * np.fft.fftn(data))
        data = data * np.exp(-0.5j * dt * np.abs(data) ** 2)
    out = nls_evolve(phi, dt, n_steps * dt)
    assert np.max(np.abs(out.data - data)) <= 1e-12


def test_nls_mass_and_energy_drift():
    phi = random_low_mode_field(G16, 1, np.random.default_rng(1), max_mode=1)
    fields = [phi]
    for _ in range(8):
        fields.append(nls_evolve(fields[-1], 5e-4, 0.125))
    e0 = nls_energy(fields[0])
    assert max(abs(l2_norm(f) - 1.0) for f in fields) < 1e-10
    assert max(abs(nls_energy(f) - e0) for f in fields) / abs(e0) < 1e-8


def test_nls_energy_constant_closed_form():
    for grid in (G16, G8):
        val = nls_energy(constant_atom(grid))
        assert val == pytest.approx(0.5 + 1.0 / (4.0 * grid.L), rel=1e-12)


def test_nls_energy_zero():
    assert nls_energy(Field(G16, 1, np.zeros(16))) == 0.0


def test_nls_sphere_energy_conserved():
    phi = random_low_mode_field(G16, 1, np.random.default_rng(2), max_mode=1)
    e0 = nls_energy(phi)
    e1 = nls_energy(nls_evolve(phi, 5e-4, 1.0))
    assert abs(e1 - e0) / abs(e0) < 1e-8


# -- mixtures ----------------------------------------------------------------------


def test_mixture_validation():
    phi = constant_atom(G16)
    with pytest.raises(ValueError):
        Mixture([(0.5, phi)])  # weights must sum to one
    with pytest.raises(ValueError):
        Mixture([(1.0, Field(G16, 1, phi.data * 1.5))])  # off the sphere
    with pytest.raises(ValueError, match="atom has norm 0.5"):
        Mixture([(1.0, Field(G16, 1, phi.data * 0.5))])  # inside the ball


def test_flow_mixture_identity_at_t0():
    mix = random_mixture(G16, 2, np.random.default_rng(3))
    out = flow_mixture(mix, 0.0, 1e-3)
    for (w0, a0), (w1, a1) in zip(mix.atoms, out.atoms):
        assert w0 == w1
        assert np.array_equal(a0.data, a1.data)


def test_flow_mixture_single_atom_tensor_power():
    phi = random_low_mode_field(G16, 1, np.random.default_rng(4), max_mode=2)
    mix = Mixture([(1.0, phi)])
    flowed = flow_mixture(mix, 0.3, 1e-3)
    direct = pure_product_marginal(nls_evolve(phi, 1e-3, 0.3), 2)
    via_mixture = mixture_marginal(flowed, 2)
    assert sobolev_norm(via_mixture - direct, 0.0) < 1e-13


def test_flowed_mixture_marginals_stay_psd():
    mix = random_mixture(G16, 3, np.random.default_rng(5))
    for t in (0.1, 0.5):
        flowed = flow_mixture(mix, t, 1e-3)
        assert psd_defect(mixture_marginal(flowed, 2)) < 1e-10


# -- energy functionals --------------------------------------------------------------


def test_functional_m0_is_one():
    mix = random_mixture(G16, 2, np.random.default_rng(6))
    assert energy_functional_mixture(mix, 0) == pytest.approx(1.0, abs=1e-14)


def test_functional_point_mass_m1():
    phi = random_low_mode_field(G16, 1, np.random.default_rng(7), max_mode=2)
    mix = Mixture([(1.0, phi)])
    assert energy_functional_mixture(mix, 1) == pytest.approx(
        0.5 + nls_energy(phi), rel=1e-12)


def test_functional_direct_constant_atom_closed_form():
    mix = Mixture([(1.0, constant_atom(G16))])
    state = mixture_state(mix, 2)
    val = energy_functional_direct(state, 1)
    assert val == pytest.approx(1.0 + 1.0 / (8.0 * np.pi), abs=1e-10)
    assert energy_functional_mixture(mix, 1) == pytest.approx(val, rel=1e-12)


def test_functional_direct_matches_mixture_m1():
    mix = random_mixture(G16, 3, np.random.default_rng(8))
    state = mixture_state(mix, 2)
    a = energy_functional_direct(state, 1)
    b = energy_functional_mixture(mix, 1)
    assert abs(a - b) / abs(b) < 1e-9


def test_functional_direct_matches_mixture_m2():
    mix = random_mixture(G8, 2, np.random.default_rng(9))
    state = mixture_state(mix, 4)
    a = energy_functional_direct(state, 2)
    b = energy_functional_mixture(mix, 2)
    assert abs(a - b) / abs(b) < 1e-9


def test_functional_direct_requires_deep_state():
    mix = random_mixture(G8, 2, np.random.default_rng(10))
    state = mixture_state(mix, 2)
    with pytest.raises(ValueError):
        energy_functional_direct(state, 2)


def test_functional_conserved_along_flow():
    mix = random_mixture(G16, 3, np.random.default_rng(11))
    for m in (1, 2):
        before = energy_functional_mixture(mix, m)
        after = energy_functional_mixture(flow_mixture(mix, 0.5, 1e-3), m)
        assert abs(after - before) / abs(before) < 1e-7


# -- norm ordering chain -------------------------------------------------------------


def test_norm_chain_termwise():
    mix = random_mixture(G8, 2, np.random.default_rng(14))
    xi = 0.4
    state = mixture_state(mix, 2)
    for m in (1, 2):
        hs = sobolev_norm(state.entry(m), 1.0)
        tr = trace_sobolev_norm(state.entry(m), 1.0)
        func = energy_functional_mixture(mix, m)
        assert xi**m * hs <= xi**m * tr + 1e-12
        assert xi**m * tr <= (2 * xi) ** m * func + 1e-12


# -- window chain ---------------------------------------------------------------------


def window_chain(mix, **kw):
    """The chain from the K = 2 hierarchy of ``mix`` at xi = 0.5, against the
    trace-flavor bound at xi' = 0.7, as ``conservation`` runs it."""
    state0 = mixture_state(mix, 2)
    bound = hierarchy_norm(state0, 1.0, 0.7, flavor="trace")
    return gwp_window_chain(mix, state0, bound, xi=0.5, **kw)


def test_window_chain_rows_are_direct_runs_from_the_reanchored_mixture():
    mix = random_mixture(G8, 2, np.random.default_rng(15))
    out = window_chain(mix, window=0.02, windows=2, dt=2e-3)
    cfg = EvolutionConfig(dt=2e-3, t_final=0.02)
    current = mix
    for w, row in enumerate(out["rows"]):
        if w > 0:
            current = flow_mixture(current, 0.02, 2e-3)
        traj = gp_evolve(mixture_state(current, 2), cfg, mixture=current,
                         store_every=0)
        assert row["h1_norm"] == hierarchy_norm(traj.states[-1], 1.0, 0.5)


def test_window_chain_four_windows_within_bound():
    mix = random_mixture(G8, 3, np.random.default_rng(16))
    out = window_chain(mix, window=0.05, windows=4, dt=1e-3)
    assert out["passed"]
    bound = hierarchy_norm(mixture_state(mix, 2), 1.0, 0.7, flavor="trace")
    cfg = EvolutionConfig(dt=1e-3, t_final=0.05)
    current = mix
    for w, row in enumerate(out["rows"]):
        assert row["h1_norm"] <= bound + 1e-6 * bound
        if w > 0:
            current = flow_mixture(current, 0.05, 1e-3)
        terminal = gp_evolve(mixture_state(current, 2), cfg, mixture=current,
                             store_every=0).states[-1]
        assert max(psd_defect(gamma) for gamma in terminal.entries) < 1e-9
        assert max(admissibility_defect(terminal)) < 1e-8


def test_window_chain_flows_between_windows_only(monkeypatch):
    import hierlab.definetti as definetti_mod
    calls = []
    real = definetti_mod.flow_mixture

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)
    monkeypatch.setattr(definetti_mod, "flow_mixture", counting)
    mix = random_mixture(G8, 2, np.random.default_rng(17))
    out = window_chain(mix, window=0.01, windows=2, dt=2e-3)
    assert calls == [0.01] and len(out["rows"]) == 2


def test_flow_mixture_continued_frame_is_bit_identical():
    mix = random_mixture(G8, 2, np.random.default_rng(18))
    direct = flow_mixture(mix, 0.01, 1e-3)
    continued = flow_mixture(flow_mixture(mix, 0.004, 1e-3), 0.006, 1e-3)
    for (_, a), (_, b) in zip(direct.atoms, continued.atoms):
        assert np.array_equal(a.data, b.data)
