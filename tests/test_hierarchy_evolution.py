import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hierlab import hierarchy_evolution

from hierlab.definetti import Mixture, nls_evolve, random_mixture
from hierlab.grid import (Field, free_propagate, l2_norm, make_grid,
                          random_low_mode_field)
from hierlab.harness import (ExperimentConfig, run_duhamel_check,
                             run_simulate_bbgky, run_simulate_gp,
                             run_simulate_nbody)
from hierlab.hierarchy_evolution import (DUHAMEL_WORKING_STATES,
                                         PICARD_FIXED_ENTRIES,
                                         PICARD_WORKING_STATES,
                                         RK4IP_WORKING_STATES,
                                         EvolutionConfig, HierarchyTrajectory,
                                         MixtureClosure, bbgky_evolve,
                                         check_series_budget, duhamel_tower,
                                         free_flow, gp_evolve, k_schedule,
                                         picard_fixed_point, t0_gate)
from hierlab.interactions import (PotentialSpec, bbgky_main_level, bbgky_rhs,
                                  gaussian_profile, realize_potential)
from hierlab.marginals import (HierarchyState, admissibility_defect,
                               factorized_state, free_propagate_marginal,
                               hierarchy_norm, marginal_spectrum,
                               mixture_state, psd_defect,
                               pure_product_marginal, random_hermitian_marginal,
                               sobolev_norm, zero_marginal)
from hierlab.nbody import (HAMILTONIAN_WORKING_FIELDS,
                           SPLIT_STEP_WORKING_FIELDS, extract_marginal,
                           factorized_state as nb_factorized,
                           hamiltonian_apply, nbody_evolve)

from kernel_tools import (SerialExecutor, bits, forbid_transforms, gp_residual,
                          hermiticity_defect, loop_rhs, permutation_defect,
                          rk4ip_step_reference, zero_potential)

G16 = make_grid(1, 16, 2 * np.pi)
G8 = make_grid(1, 8, 2 * np.pi)


def atom(grid, seed, max_mode=2):
    return random_low_mode_field(grid, 1, np.random.default_rng(seed),
                                 max_mode=max_mode)


def pot16(big_n):
    return realize_potential(gaussian_profile(G16, 0.6), 0.2, big_n)


# -- schedule ------------------------------------------------------------------------


def test_k_schedule_examples():
    assert k_schedule(10, 2.0) == 4
    assert k_schedule(2, 0.1) == 1
    vals = [k_schedule(n, 1.5, cap=10) for n in range(2, 60)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    for big_n in (3, 10, 100):
        K = k_schedule(big_n, 1.5, cap=100)
        x = 1.5 * np.log(big_n)
        if K > 1:
            assert 0.5 * x <= K <= x


def test_k_schedule_rejects():
    with pytest.raises(ValueError):
        k_schedule(1, 2.0)
    with pytest.raises(ValueError):
        k_schedule(10, 0.0)


# -- contact hierarchy evolution -----------------------------------------------------


def test_gp_evolve_tracks_cubic_flow():
    phi = atom(G16, 2)
    mix = Mixture([(1.0, phi)])
    cfg = EvolutionConfig(dt=1e-3, t_final=0.05)
    traj = gp_evolve(factorized_state(phi, 2), cfg, mixture=mix,
                     store_every=0)
    oracle = pure_product_marginal(nls_evolve(phi, 1e-5, 0.05), 1)
    assert sobolev_norm(traj.states[-1].entry(1) - oracle, 0.0) < 1e-9


def test_gp_evolve_second_order_against_same_dt_oracle():
    phi = atom(G16, 3)
    mix = Mixture([(1.0, phi)])
    errs = []
    for dt in (2e-3, 1e-3):
        cfg = EvolutionConfig(dt=dt, t_final=0.05)
        traj = gp_evolve(factorized_state(phi, 2), cfg,
                         mixture=mix, store_every=0)
        oracle = pure_product_marginal(nls_evolve(phi, dt, 0.05), 1)
        errs.append(sobolev_norm(traj.states[-1].entry(1) - oracle, 0.0))
    assert 3.2 < errs[0] / errs[1] < 4.8


def test_gp_evolve_structure_preserved_each_step():
    phi = atom(G16, 4)
    mix = Mixture([(1.0, phi)])
    cfg = EvolutionConfig(dt=1e-3, t_final=0.02)
    traj = gp_evolve(factorized_state(phi, 2), cfg, mixture=mix,
                     store_every=1)
    for k, vals in traj.traces.items():
        assert np.max(np.abs(vals - vals[0])) < 1e-8
    for state in traj.states:
        for k in (1, 2):
            assert hermiticity_defect(state.entry(k)) < 1e-9
        assert permutation_defect(state.entry(2)) < 1e-9
        assert psd_defect(state.entry(1)) < 1e-9


def test_gp_evolve_admissibility_transport():
    mix = random_mixture(G8, 2, np.random.default_rng(21), max_mode=2)
    state0 = mixture_state(mix, 3)
    dt = 2e-3
    cfg = EvolutionConfig(dt=dt, t_final=0.04)
    traj = gp_evolve(state0, cfg, mixture=mix, store_every=5)
    # transport constant fitted on this configuration once, then frozen
    C_FROZEN = 2e-6
    for state in traj.states:
        assert admissibility_defect(state)[0] <= C_FROZEN * dt**2


def test_gp_evolve_zero_top_closure_runs():
    state = factorized_state(atom(G16, 5), 2)
    cfg = EvolutionConfig(dt=1e-3, t_final=0.01)
    traj = gp_evolve(state, cfg, store_every=0)
    assert traj.states[-1].K == 2


@pytest.mark.parametrize("t_final", [-0.1, 0.0105])
def test_gp_evolve_rejects_a_final_time_off_the_grid(t_final):
    state = factorized_state(atom(G8, 4), 2)
    with pytest.raises(ValueError, match="nonnegative multiple"):
        gp_evolve(state, EvolutionConfig(dt=1e-3, t_final=t_final))


def test_mixture_closure_rejects_an_earlier_half_step():
    closure = MixtureClosure(Mixture([(1.0, atom(G8, 5))]), 2, dt_half=1e-3)
    closure.top_collision(2e-3)
    closure.top_collision(2e-3)  # the latest frame may be queried again
    with pytest.raises(ValueError):
        closure.top_collision(1e-3)


def test_gp_evolve_with_mixture_builds_no_zero_top_level(monkeypatch):
    import hierlab.hierarchy_evolution as evolution_mod
    import hierlab.interactions as interactions_mod
    import hierlab.marginals as marginals_mod
    for mod in (evolution_mod, interactions_mod, marginals_mod):
        monkeypatch.setattr(mod, "zero_marginal",
                            lambda *a: pytest.fail("zero kernel built"))
    phi = atom(G8, 6)
    cfg = EvolutionConfig(dt=1e-3, t_final=4e-3)
    traj = gp_evolve(factorized_state(phi, 2), cfg,
                     mixture=Mixture([(1.0, phi)]), store_every=0)
    assert traj.states[-1].K == 2


# -- finite-N hierarchy evolution ------------------------------------------------------


def test_bbgky_zero_mass_potential_is_free_flow():
    state = factorized_state(atom(G16, 7), 2)
    cfg = EvolutionConfig(dt=1e-3, t_final=0.02)
    traj = bbgky_evolve(state, cfg, zero_potential(G16), store_every=0)
    exact = free_flow(state, 0.02)
    assert hierarchy_norm(traj.states[-1] - exact, 0.0, 0.5) < 1e-11


def test_bbgky_two_body_von_neumann_oracle():
    phi = atom(G16, 8)
    pot = pot16(2)
    dt, t_final = 1e-3, 0.05
    nstate = nb_factorized(phi, 2, pot)
    ntraj = nbody_evolve(nstate, dt, t_final, store_every=0)
    state0 = HierarchyState([extract_marginal(nstate.psi, 1),
                             extract_marginal(nstate.psi, 2)])
    cfg = EvolutionConfig(dt=dt, t_final=t_final)
    btraj = bbgky_evolve(state0, cfg, pot, store_every=0)
    for k in (1, 2):
        diff = sobolev_norm(btraj.states[-1].entry(k)
                            - extract_marginal(ntraj.psis[-1], k), 0.0)
        assert diff < 1e-6


def test_bbgky_trace_conserved():
    phi = atom(G16, 9)
    pot = pot16(8)
    cfg = EvolutionConfig(dt=1e-3, t_final=0.05)
    traj = bbgky_evolve(factorized_state(phi, 2), cfg, pot, store_every=0)
    for vals in traj.traces.values():
        assert np.max(np.abs(vals - vals[0])) < 1e-8


def test_bbgky_approaches_contact_hierarchy_along_ladder():
    import warnings
    phi = atom(G16, 5)
    state = factorized_state(phi, 2)
    cfg = EvolutionConfig(dt=2e-3, t_final=0.04)
    ref = gp_evolve(state, cfg, store_every=0).states[-1]
    dists = []
    for big_n in (16, 64, 256):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pot = realize_potential(gaussian_profile(G16, 0.6), 0.2, big_n,
                                    width=0.6)
        traj = bbgky_evolve(state, cfg, pot, store_every=0)
        dists.append(hierarchy_norm(traj.states[-1] - ref, 1.0, 0.5))
    assert dists[0] > dists[1] > dists[2]


# n = 8 at d = 1, K = 2 puts the level-2 kernel (64 KiB) below numpy's
# 256 KiB temporary-elision threshold; the other sizes lie above it
@pytest.mark.parametrize("dim,n,K", [(1, 8, 2), (1, 16, 2), (1, 8, 3), (2, 4, 2)],
                         ids=["d1-n8-K2", "d1-n16-K2", "d1-n8-K3", "d2-n4-K2"])
@pytest.mark.parametrize("loop", ["gp", "gp_mixture", "bbgky"])
def test_rk4ip_steps_are_bitwise_the_out_of_place_formula(monkeypatch, loop,
                                                         dim, n, K):
    import hierlab.hierarchy_evolution as evolution
    grid = make_grid(dim, n, 2 * np.pi)
    mix = random_mixture(grid, 2, np.random.default_rng(40))
    state = mixture_state(mix, K)
    pot = realize_potential(gaussian_profile(grid, 0.6), 0.2, 4)
    # a step large enough that regrouping the stage sum changes bits
    cfg = EvolutionConfig(dt=0.02, t_final=0.04)
    run = {"gp": lambda: gp_evolve(state, cfg, store_every=0),
           "gp_mixture": lambda: gp_evolve(state, cfg, mixture=mix,
                                           store_every=0),
           "bbgky": lambda: bbgky_evolve(state, cfg, pot, store_every=0)}[loop]
    got = run().states[-1]
    monkeypatch.setattr(evolution, "_rk4ip_step", rk4ip_step_reference)
    want = run().states[-1]
    assert all(np.array_equal(a, b) for a, b in zip(bits(got), bits(want)))


@pytest.mark.parametrize("store_every", [0, 1])
@pytest.mark.parametrize("loop", ["gp_mixture", "bbgky"])
def test_time_loop_forms_four_right_hand_sides_a_step_and_one(monkeypatch,
                                                              loop,
                                                              store_every):
    # the loop forms rhs at the start state and after every step, each the
    # next step's k1 and the derivative handed to the store; the step forms
    # three more.  How many steps are stored does not change the count
    import hierlab.hierarchy_evolution as evolution
    calls = []
    if loop == "bbgky":
        real = evolution.bbgky_rhs
        monkeypatch.setattr(evolution, "bbgky_rhs",
                            lambda *a: calls.append(1) or real(*a))
    else:
        real = MixtureClosure.top_collision
        monkeypatch.setattr(MixtureClosure, "top_collision",
                            lambda self, t: calls.append(1) or real(self, t))
    phi = atom(G8, 42)
    state, steps = factorized_state(phi, 2), 5
    cfg = EvolutionConfig(dt=1e-3, t_final=steps * 1e-3)
    if loop == "bbgky":
        pot = realize_potential(gaussian_profile(G8, 0.6), 0.2, 4)
        bbgky_evolve(state, cfg, pot, store_every=store_every)
    else:
        gp_evolve(state, cfg, mixture=Mixture([(1.0, phi)]),
                  store_every=store_every)
    assert len(calls) == 4 * steps + 1


class _Recording:
    """A store that keeps a copy of every sample and of its derivative."""

    def __init__(self, held):
        self.held, self.samples = held, []

    def __call__(self, step, state, deriv):
        self.samples.append((step, state.copy(), deriv.copy()))


@pytest.mark.parametrize("loop", ["gp_mixture", "bbgky"])
def test_store_gets_the_right_hand_side_at_each_state(loop):
    # the derivative handed over with a state is the loop's right-hand side
    # at that state and time, bit for bit
    mix = random_mixture(G8, 2, np.random.default_rng(43))
    state, steps, dt = mixture_state(mix, 2), 4, 1e-3
    cfg = EvolutionConfig(dt=dt, t_final=steps * dt)
    store = _Recording(steps + 1)
    if loop == "bbgky":
        kw = {"pot": realize_potential(gaussian_profile(G8, 0.6), 0.2, 4)}
        bbgky_evolve(state, cfg, kw["pot"], store=store)
    else:
        kw = {"mixture": mix}
        gp_evolve(state, cfg, mixture=mix, store=store)
    assert [step for step, _, _ in store.samples] == list(range(steps + 1))
    for step, s, deriv in store.samples:
        want = loop_rhs(s, step, dt, **kw)
        assert all(np.array_equal(a, b)
                   for a, b in zip(bits(deriv), bits(want)))


def test_gp_evolve_builds_each_half_step_matrix_once(monkeypatch):
    import hierlab.grid as grid_mod
    grid = make_grid(1, 8, 5.0)  # a grid and step no other test flows with
    state = factorized_state(atom(grid, 41), 2)
    built, asked = [], []
    real_ifft, real_flow_matrix = np.fft.ifft, grid_mod.flow_matrix
    monkeypatch.setattr(np.fft, "ifft",
                        lambda a: built.append(1) or real_ifft(a))
    monkeypatch.setattr(grid_mod, "flow_matrix",
                        lambda g, t: asked.append(t) or real_flow_matrix(g, t))
    steps, dt = 3, 1.25e-3
    gp_evolve(state, EvolutionConfig(dt=dt, t_final=steps * dt), store_every=0)
    # four half flows a step, each of K = 2 levels asks for M(dt/2) and
    # M(-dt/2); the two are built once
    assert len(asked) == 4 * steps * 2 * 2
    assert sorted(set(asked)) == [-dt / 2, dt / 2]
    assert len(built) == 2


def test_bbgky_rejects_k_above_n():
    state = factorized_state(atom(G16, 10), 3)
    cfg = EvolutionConfig(dt=1e-3, t_final=0.01)
    with pytest.raises(ValueError):
        bbgky_evolve(state, cfg, pot16(2))


# -- residual diagnostics ----------------------------------------------------------------


def _injected_trajectory(phi, dt, t_final):
    n_steps = int(round(t_final / dt))
    states = []
    for i in range(n_steps + 1):
        p = nls_evolve(phi, 1e-5, i * dt) if i else phi
        states.append(HierarchyState([pure_product_marginal(p, 1),
                                      pure_product_marginal(p, 2)]))
    return HierarchyTrajectory(states=states,
                               stored_steps=list(range(n_steps + 1)),
                               traces={})


def test_residual_quarters_when_dt_halves():
    phi = atom(G16, 11)
    r_coarse = gp_residual(_injected_trajectory(phi, 2e-3, 0.02), 2e-3)
    r_fine = gp_residual(_injected_trajectory(phi, 1e-3, 0.02), 1e-3)
    ratio = np.max(r_coarse[1]) / np.max(r_fine[1])
    assert 3.0 < ratio < 5.0


def test_residual_zero_state():
    zero = HierarchyState([zero_marginal(G16, 1), zero_marginal(G16, 2)])
    traj = HierarchyTrajectory(states=[zero.copy() for _ in range(4)],
                               stored_steps=list(range(4)), traces={})
    res = gp_residual(traj, 1e-3)
    assert np.max(res[1]) == 0.0


def test_residual_free_flow_equals_collision_norm():
    phi = atom(G16, 12)
    state = factorized_state(phi, 2)
    dt = 1e-3
    states = [free_flow(state, i * dt) for i in range(5)]
    traj = HierarchyTrajectory(states=states,
                               stored_steps=list(range(5)), traces={})
    res = gp_residual(traj, dt)
    from hierlab.interactions import gp_collision_level
    # the free part of the central difference cancels to O(dt^2), leaving
    # the un-modelled collision term at each interior time
    for i, got in zip((1, 2, 3), res[1]):
        expected = sobolev_norm(gp_collision_level(states[i].entry(2)), 0.0)
        assert abs(got - expected) < 1e-4 * expected


def test_residual_needs_stride_one():
    phi = atom(G16, 13)
    mix = Mixture([(1.0, phi)])
    cfg = EvolutionConfig(dt=1e-3, t_final=0.02)
    traj = gp_evolve(factorized_state(phi, 2), cfg, mixture=mix,
                     store_every=5)
    with pytest.raises(ValueError):
        gp_residual(traj, 1e-3)


@pytest.mark.parametrize("store_every, steps", [(2, [0, 2, 4, 5]), (0, [0, 5])])
def test_time_loops_store_the_same_steps(store_every, steps):
    # without interaction the finite-N and N-body loops are the free flow, so
    # the sample they store for a step must be the free flow to that step's
    # time
    phi = atom(G8, 20)
    state, nstate = factorized_state(phi, 2), nb_factorized(phi, 3,
                                                            zero_potential(G8))
    cfg = EvolutionConfig(dt=1e-3, t_final=5e-3)
    gp = gp_evolve(state, cfg, store_every=store_every)
    bb = bbgky_evolve(state, cfg, zero_potential(G8), store_every=store_every)
    nb = nbody_evolve(nstate, 1e-3, 5e-3, store_every=store_every)
    assert gp.stored_steps == bb.stored_steps == nb.stored_steps == steps
    assert len(gp.states) == len(bb.states) == len(nb.psis) == len(steps)
    for step, b, psi in zip(steps, bb.states, nb.psis):
        exact = free_flow(state, step * 1e-3)
        assert hierarchy_norm(b - exact, 0.0, 0.5) < 1e-11
        exact_psi = free_propagate(nstate.psi, step * 1e-3)
        assert l2_norm(Field(G8, 3, psi.data - exact_psi.data)) < 1e-11


def _counting(calls, fn):
    def wrapper(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return wrapper


def test_trajectory_budget_counts_every_stored_sample(monkeypatch):
    import hierlab.hierarchy_evolution as evolution
    import hierlab.nbody as nbody_mod
    from hierlab.budget import BudgetExceeded
    calls = []
    for mod, name in ((evolution, "bbgky_rhs"), (nbody_mod, "free_propagate")):
        monkeypatch.setattr(mod, name, _counting(calls, getattr(mod, name)))
    phi = atom(G8, 21)
    pot = realize_potential(gaussian_profile(G8, 0.6), 0.2, 3)
    state, nstate = factorized_state(phi, 2), nb_factorized(phi, 3, pot)
    cfg = EvolutionConfig(dt=1e-3, t_final=5e-3)
    # store_every=2 over 5 steps stores 4 samples; the RK4 step works in 7
    # more hierarchy states (its current state among them), the split step
    # in 3 more wavefunctions
    runs = [(11 * (8**2 + 8**4), lambda: bbgky_evolve(state, cfg, pot, store_every=2)),
            (7 * 8**3, lambda: nbody_evolve(nstate, 1e-3, 5e-3, store_every=2))]
    for need, run in runs:
        monkeypatch.setenv("HLAB_BUDGET", str(need - 1))
        with pytest.raises(BudgetExceeded, match="of 4 samples"):
            run()
        assert calls == []
        monkeypatch.setenv("HLAB_BUDGET", str(need))
        run()
        assert calls
        calls.clear()


def _peak_and_checked(monkeypatch, run, marker="samples"):
    """tracemalloc peak of run() in bytes, and the entries asked for by its
    budget checks whose description holds ``marker`` (by default the
    trajectory checks)."""
    from hierlab.budget import TensorBudget
    checked = []
    real = TensorBudget.check_elements

    def spy(self, count, what):
        if marker in what:
            checked.append(count)
        return real(self, count, what)
    monkeypatch.setattr(TensorBudget, "check_elements", spy)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, checked


class _KeepNothing:
    """A store that drops every sample, as a writing store does."""

    held = 0

    def __call__(self, step, state, deriv):
        pass


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("loop,atoms", [
    pytest.param(loop, atoms, id=loop if atoms == 2 else f"{loop}-{atoms}atoms")
    for atoms in (2, 3) for loop in ("gp", "gp_mixture", "bbgky",
                                     "gp_mixture_kept_nothing",
                                     "bbgky_kept_nothing")])
def test_hierarchy_loop_peak_fits_its_budget_check(monkeypatch, loop, K, atoms):
    mix = random_mixture(G8, atoms, np.random.default_rng(25))
    state = mixture_state(mix, K)
    pot = realize_potential(gaussian_profile(G8, 0.6), 0.2, 4)
    cfg = EvolutionConfig(dt=1e-3, t_final=5e-3)
    runs = {"gp": lambda: gp_evolve(state, cfg, store_every=0),
            "gp_mixture": lambda: gp_evolve(state, cfg, mixture=mix,
                                            store_every=0),
            "bbgky": lambda: bbgky_evolve(state, cfg, pot, store_every=0),
            # the loop still holds its current state when its store keeps
            # none, as the simulate commands' stores do
            "gp_mixture_kept_nothing": lambda: gp_evolve(
                state, cfg, mixture=mix, store=_KeepNothing()),
            "bbgky_kept_nothing": lambda: bbgky_evolve(
                state, cfg, pot, store=_KeepNothing())}
    peak, checked = _peak_and_checked(monkeypatch, runs[loop])
    assert len(checked) == 1
    assert peak <= 16 * checked[0]


def test_bbgky_loop_peaks_no_higher_than_gp_loop(monkeypatch):
    # the error sum releases each plus term before it forms the minus one,
    # so at K = 3 (three pairs) it works in three level-K kernels, not four;
    # one more level-3 kernel would add 0.97 of a state to the peak
    state = mixture_state(random_mixture(G8, 2, np.random.default_rng(25)), 3)
    pot = realize_potential(gaussian_profile(G8, 0.6), 0.2, 4)
    cfg = EvolutionConfig(dt=1e-3, t_final=5e-3)
    gp_peak, _ = _peak_and_checked(
        monkeypatch, lambda: gp_evolve(state, cfg, store_every=0))
    bbgky_peak, _ = _peak_and_checked(
        monkeypatch, lambda: bbgky_evolve(state, cfg, pot, store_every=0))
    one_state = 16 * (8**2 + 8**4 + 8**6)
    assert bbgky_peak <= gp_peak + 0.1 * one_state


def picard_need(n: int, samples: int, working: int) -> int:
    """Entries of ``samples`` packed level-1..2 samples at d = 1,
    ``working`` full states and Picard's fixed entries."""
    packed = n * (n + 1) // 2 + n**2 * (n**2 + 1) // 2
    return samples * packed + working * (n**2 + n**4) + PICARD_FIXED_ENTRIES


@pytest.mark.parametrize("grid,steps", [(G16, 32), (G8, 128)],
                         ids=["n16-32steps", "n8-128steps"])
def test_picard_peak_is_one_series_list_and_fixed_kernels(monkeypatch, grid,
                                                          steps):
    # n = 8 with 128 steps is what `hierlab picard --n 8` runs; its peak,
    # 9.1-10.0 states beside the packed iterate, is the highest measured
    start, pot = picard_setup(27, grid)
    peak, checked = _peak_and_checked(
        monkeypatch, lambda: picard_fixed_point(start, pot, 0.5, PICARD_T, steps))
    assert checked == [picard_need(grid.n, steps + 1, PICARD_WORKING_STATES)]
    assert peak <= 16 * checked[0]


def test_picard_working_states_are_not_overcounted(monkeypatch):
    # the call's peak beside the 33-sample packed iterate is 8.5-8.65
    # states at n = 16, so a count two states above it means the constant
    # drifted upwards
    start, pot = picard_setup(27)
    peak, _ = _peak_and_checked(
        monkeypatch, lambda: picard_fixed_point(start, pot, 0.5, PICARD_T, 32))
    assert peak > 16 * picard_need(16, 33, PICARD_WORKING_STATES - 2)


@pytest.mark.parametrize("K", [2, 3])
def test_duhamel_tower_peak_fits_its_budget_check(monkeypatch, K):
    # the tower of depth K - 1 forms no kernel above level K - 1, and its
    # budget check counts states of levels 1..K - 1
    pot = realize_potential(gaussian_profile(G8, 0.6), 0.2, 16)
    phi = atom(G8, 28)
    peak, checked = _peak_and_checked(
        monkeypatch, lambda: duhamel_tower(phi, K - 1, pot, 0.04, 16))
    state = sum(8 ** (2 * k) for k in range(1, K))
    assert checked == [DUHAMEL_WORKING_STATES * state]
    assert peak <= 16 * checked[0]


def test_duhamel_working_states_are_not_overcounted(monkeypatch):
    # the tower's peak at n = 8 and depth 2 is 7.2 states of levels 1 and
    # 2, so a count two states above it means the constant drifted upwards
    pot = realize_potential(gaussian_profile(G8, 0.6), 0.2, 16)
    phi = atom(G8, 28)
    peak, _ = _peak_and_checked(
        monkeypatch, lambda: duhamel_tower(phi, 2, pot, 0.04, 16))
    assert peak > 16 * (DUHAMEL_WORKING_STATES - 2) * (8**2 + 8**4)


def test_default_duhamel_check_peak_fits_its_budget_check(monkeypatch, tmp_path):
    # n = 16, j_max = 2: one tower per horizon, each checked for its levels
    # 1 and 2 (16^2 + 16^4 entries a state); the norms and the fit read the
    # towers' kernels, so the run's peak is the towers'.  A first run pays
    # the lazy imports and the FFT's plan caches
    run_duhamel_check(ExperimentConfig(n=8, outdir=str(tmp_path / "warm")))
    cfg = ExperimentConfig(outdir=str(tmp_path / "run"))
    assert (cfg.n, cfg.j_max) == (16, 2)
    peak, checked = _peak_and_checked(monkeypatch, lambda: run_duhamel_check(cfg))
    assert checked == [DUHAMEL_WORKING_STATES * (16**2 + 16**4)] * 3
    assert peak <= 16 * checked[0]


def test_nbody_loop_peak_fits_its_budget_check(monkeypatch):
    # the pair potential is built inside the call, as in convergence
    nstate = nb_factorized(atom(G16, 26), 3, pot16(3))
    peak, checked = _peak_and_checked(
        monkeypatch, lambda: nbody_evolve(nstate, 1e-3, 5e-3, store_every=0))
    assert len(checked) == 1
    assert peak <= 16 * checked[0]


def test_hamiltonian_budget_counts_its_working_fields(monkeypatch):
    import hierlab.nbody as nbody_mod
    from hierlab.budget import BudgetExceeded
    calls = []
    monkeypatch.setattr(nbody_mod, "apply_symbol",
                        _counting(calls, nbody_mod.apply_symbol))
    nstate = nb_factorized(atom(G8, 29), 3, realize_potential(
        gaussian_profile(G8, 0.6), 0.2, 3))
    need = HAMILTONIAN_WORKING_FIELDS * 8**3
    monkeypatch.setenv("HLAB_BUDGET", str(need - 1))
    with pytest.raises(BudgetExceeded, match="Hamiltonian"):
        hamiltonian_apply(nstate, nstate.psi)
    assert calls == []
    monkeypatch.setenv("HLAB_BUDGET", str(need))
    hamiltonian_apply(nstate, nstate.psi)
    assert calls == ["apply_symbol"]


def test_hamiltonian_peak_fits_its_budget_check(monkeypatch):
    # 16^4 entries (1 MB) per wavefunction; a first state pays the FFT's
    # plan caches, the traced one builds its kinetic symbol and pair
    # potential inside the call
    pot = pot16(4)
    warm = nb_factorized(atom(G16, 30), 4, pot)
    hamiltonian_apply(warm, warm.psi)
    nstate = nb_factorized(atom(G16, 31), 4, pot)
    peak, checked = _peak_and_checked(
        monkeypatch, lambda: hamiltonian_apply(nstate, nstate.psi),
        marker="Hamiltonian")
    assert checked == [HAMILTONIAN_WORKING_FIELDS * 16**4]
    assert peak <= 16 * checked[0]


@pytest.mark.parametrize("run, held", [(run_simulate_bbgky, 0),
                                       (run_simulate_gp, 3)])
def test_simulate_peak_does_not_grow_with_stored_steps(monkeypatch, tmp_path,
                                                       run, held):
    # each stored state goes to its files as it is stored, so 35 more stored
    # steps must not add a hierarchy state to the peak; the budget check
    # counts what the store holds, not the 41 stored steps
    state = 16 * (8**2 + 8**4)
    peaks = []
    # a first run pays the lazy imports (about 0.9 MB of module objects)
    run(ExperimentConfig(n=8, dt=1e-3, t_final=1e-3, outdir=str(tmp_path)))
    for steps in (5, 40):
        cfg = ExperimentConfig(n=8, dt=1e-3, t_final=steps * 1e-3, seed=11,
                               outdir=str(tmp_path / str(steps)))
        peak, checked = _peak_and_checked(monkeypatch, lambda: run(cfg))
        assert checked == [(held + RK4IP_WORKING_STATES) * state // 16]
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) < state


def test_simulate_nbody_peak_in_wavefunctions(monkeypatch, tmp_path):
    # n = 16, N = 4: one wavefunction is 16^4 entries, 1 MB.  The run holds
    # the wavefunction, the cached operators (1) and the Hamiltonian's or the
    # split step's working fields, never the initial state beside the final
    # one: about 5.6 wavefunctions, where holding both and copying each step
    # made 8
    wavefunction = 16 * 16**4
    # a first run pays the lazy imports and the FFT's plan caches
    run_simulate_nbody(ExperimentConfig(n=16, big_n=2, dt=2e-3, t_final=4e-3,
                                        outdir=str(tmp_path / "warm")))
    cfg = ExperimentConfig(n=16, big_n=4, dt=2e-3, t_final=0.01, seed=11,
                           k_marginals=2, outdir=str(tmp_path / "run"))
    peak, checked = _peak_and_checked(monkeypatch,
                                      lambda: run_simulate_nbody(cfg))
    assert checked == [(2 + SPLIT_STEP_WORKING_FIELDS) * 16**4]
    assert peak <= 6 * wavefunction


def test_series_budget_estimator_allocates_nothing():
    from hierlab.budget import BudgetExceeded
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            check_series_budget(make_grid(1, 64, 2 * np.pi), 3, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_series_budget_counts_every_sample_and_level(monkeypatch):
    from hierlab.budget import BudgetExceeded
    need = 4 * (8**2 + 8**4)  # 4 samples of the k = 1 and k = 2 kernels
    monkeypatch.setenv("HLAB_BUDGET", str(need))
    check_series_budget(G8, 2, 4)
    monkeypatch.setenv("HLAB_BUDGET", str(need - 1))
    with pytest.raises(BudgetExceeded, match="4 samples"):
        check_series_budget(G8, 2, 4)


# -- nested collision integrals ------------------------------------------------------------


def test_duhamel_j1_matches_independent_quadrature():
    pot = pot16(16)
    phi = atom(G16, 15)
    gamma2 = pure_product_marginal(phi, 2)
    T = 0.04
    got = duhamel_tower(phi, 1, pot, T, 128)[1]

    def integrand(s):  # the dense level-2 kernel, flowed to s and on to T
        g2 = free_propagate_marginal(free_propagate_marginal(gamma2, s), T - s)
        return bbgky_main_level(g2, pot) * 1j

    n_f, h = 256, T / 256
    vals = [integrand(i * h) for i in range(n_f + 1)]
    acc = vals[0] * 0.0
    for i in range(0, n_f, 2):
        acc = acc + (vals[i] + vals[i + 1] * 4.0 + vals[i + 2]) * (h / 3.0)
    rel = sobolev_norm(got.entry(1) - acc, 0.0) / sobolev_norm(acc, 0.0)
    assert rel < 1e-6


def test_duhamel_horizon_scaling_exponent():
    pot = realize_potential(gaussian_profile(G8, 0.7), 0.2, 16)
    phi = atom(G8, 16)
    for j in (1, 2):
        norms = []
        horizons = (0.01, 0.02, 0.04)
        for T in horizons:
            tower = duhamel_tower(phi, j, pot, T, 16)
            norms.append(hierarchy_norm(tower[j], 1.0, 0.5))
        slope = float(np.polyfit(np.log(horizons), np.log(norms), 1)[0])
        assert j / 2 - 0.6 <= slope <= j + 0.1


@pytest.mark.parametrize("j_max", [0, -1])
def test_duhamel_rejects_depth_below_one(j_max):
    with pytest.raises(ValueError, match="j_max"):
        duhamel_tower(atom(G16, 17), j_max, pot16(16), 4e-3, 4)


def test_duhamel_rejects_negative_time():
    with pytest.raises(ValueError, match="t must"):
        duhamel_tower(atom(G16, 17), 1, pot16(16), -1e-3, 4)


@pytest.mark.parametrize("t", [0.0, float("nan"), float("inf")])
def test_duhamel_rejects_a_zero_or_non_finite_time(t):
    with pytest.raises(ValueError, match="t must"):
        duhamel_tower(atom(G16, 17), 1, pot16(16), t, 4)


@pytest.mark.parametrize("n_steps", [0, 2.5, True])
def test_duhamel_rejects_a_bad_step_count(n_steps):
    with pytest.raises(ValueError, match="n_steps"):
        duhamel_tower(atom(G16, 17), 1, pot16(16), 4e-3, n_steps)


# -- fixed point ------------------------------------------------------------------------------


PICARD_T = t0_gate(0.5) / 4.0  # the horizon `hierlab picard` runs at xi = 0.5


def picard_setup(seed, grid=G16):
    """A symmetric level-1..2 start state on ``grid`` and the N = 16
    potential."""
    pot = realize_potential(gaussian_profile(grid, 0.6), 0.2, 16)
    rng = np.random.default_rng(seed)
    start = HierarchyState([random_hermitian_marginal(grid, k, rng, max_mode=2,
                                                      symmetric=True)
                            for k in (1, 2)])
    return start, pot


def test_picard_zero_input_fixed_at_zero():
    start, pot = picard_setup(18)
    result = picard_fixed_point(start * 0.0, pot, 0.5, PICARD_T, 64)
    assert result.converged
    assert all(np.array_equal(a, np.zeros_like(a))
               for level in result.packed for a in level)


def test_picard_raises_on_a_non_finite_update():
    # a finite start (a non-finite one is refused before the sweep) under a
    # NaN potential: the first update is NaN
    start, pot = picard_setup(18)
    nan_v = PotentialSpec(grid=G16, big_n=pot.big_n, realized=Field(
        G16, 1, np.full(G16.slot_shape(1), np.nan)))
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="sample 0 is nan"):
        picard_fixed_point(start, nan_v, 0.5, PICARD_T, 8)
    assert threading.active_count() == threads  # the worker was joined


@pytest.mark.parametrize("grid", [G16, G8], ids=["n16", "n8"])
def test_picard_worker_moves_no_bit(monkeypatch, grid):
    # a level-2 kernel is 1 MiB at n = 16 and 64 KiB at n = 8, above and
    # below the size from which numpy reuses a temporary's buffer
    start, pot = picard_setup(27, grid)
    ran_on = []

    def recorded_rhs(state, pot):
        ran_on.append(threading.current_thread())
        return bbgky_rhs(state, pot)
    monkeypatch.setattr(hierarchy_evolution, "bbgky_rhs", recorded_rhs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the threads trade the lock at every chance
    try:
        threaded = picard_fixed_point(start, pot, 0.5, PICARD_T, 32)
    finally:
        sys.setswitchinterval(interval)
    # the samples were formed on the pool's two workers, never the caller
    assert len(set(ran_on)) == 2
    assert threading.main_thread() not in ran_on
    assert len(threaded.worker_busy_s) == 2
    monkeypatch.setattr(hierarchy_evolution, "ThreadPoolExecutor",
                        SerialExecutor)
    serial = picard_fixed_point(start, pot, 0.5, PICARD_T, 32)
    assert threaded.converged and serial.converged
    assert threaded.iterations == serial.iterations
    for a, b in zip(threaded.packed, serial.packed):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    assert threaded.update_norms == serial.update_norms
    assert threaded.contraction_ratios == serial.contraction_ratios
    assert threaded.residual == serial.residual


def test_picard_reads_sample_i_back_with_i_plus_workers_plus_2_submitted(
        monkeypatch):
    # the prefix has stepped past sample i + 3 when theta's sample i is
    # written, and no further, in the trapezoid sweeps and in Simpson's
    start, pot = picard_setup(27, G8)
    steps, threads = 16, set()
    submitted = 0
    read_at: dict[int, int] = {}  # future -> futures submitted when first read

    class LoggedFuture:
        def __init__(self, future, index):
            self.future, self.index = future, index

        def result(self):
            threads.add(threading.current_thread())
            read_at.setdefault(self.index, submitted)
            return self.future.result()

    class LoggedPool(ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            nonlocal submitted
            threads.add(threading.current_thread())
            submitted += 1
            return LoggedFuture(super().submit(fn, *args, **kwargs),
                                submitted - 1)
    monkeypatch.setattr(hierarchy_evolution, "ThreadPoolExecutor", LoggedPool)
    result = picard_fixed_point(start, pot, 0.5, PICARD_T, steps)
    assert threads == {threading.main_thread()}
    sweeps = result.iterations + 1  # the trapezoid sweeps, then Simpson's
    assert submitted == sweeps * (steps + 1)
    assert list(read_at) == list(range(submitted))  # read back in order
    for i, at in read_at.items():
        sweep, sample = divmod(i, steps + 1)
        assert at - sweep * (steps + 1) == min(
            sample + hierarchy_evolution.PICARD_WORKERS + 2, steps + 1)


def test_picard_joins_its_worker_on_return_and_on_a_worker_error(monkeypatch):
    start, pot = picard_setup(18)
    threads = threading.active_count()
    picard_fixed_point(start, pot, 0.5, PICARD_T, 8)
    assert threading.active_count() == threads
    ran_on = []

    def broken_rhs(state, pot):
        ran_on.append(threading.current_thread())
        raise ArithmeticError("B_N failed")
    monkeypatch.setattr(hierarchy_evolution, "bbgky_rhs", broken_rhs)
    with pytest.raises(ArithmeticError, match="B_N failed"):
        picard_fixed_point(start, pot, 0.5, PICARD_T, 8)
    assert ran_on and threading.main_thread() not in ran_on
    assert threading.active_count() == threads

    # one worker raises while the other is inside B_N: the first call
    # raises only once the second has started, and the second finishes
    # after the error was raised
    second_started, first_raised = threading.Event(), threading.Event()
    lock, ran_on = threading.Lock(), []

    def rhs_raising_mid_sample(state, pot):
        with lock:
            ran_on.append(threading.current_thread())
            call = len(ran_on)
        if call == 1:
            assert second_started.wait(timeout=30)
            first_raised.set()
            raise ArithmeticError("B_N failed mid-sample")
        if call == 2:
            second_started.set()
            assert first_raised.wait(timeout=30)
        return bbgky_rhs(state, pot)
    monkeypatch.setattr(hierarchy_evolution, "bbgky_rhs",
                        rhs_raising_mid_sample)
    with pytest.raises(ArithmeticError, match="B_N failed mid-sample"):
        picard_fixed_point(start, pot, 0.5, PICARD_T, 8)
    assert len(set(ran_on[:2])) == 2
    assert threading.main_thread() not in ran_on
    assert threading.active_count() == threads


def test_picard_aborts_after_three_rising_updates(monkeypatch):
    # a B_N that multiplies by 1e4 makes the map expand: each update is
    # about 1e4 * t = 625 times the last, so sweeps 2, 3 and 4 rise
    start, pot = picard_setup(18, G8)
    monkeypatch.setattr(hierarchy_evolution, "bbgky_rhs",
                        lambda state, pot: state * 1e4)
    with pytest.raises(RuntimeError, match="no contraction after 4 sweeps"):
        picard_fixed_point(start, pot, 0.5, PICARD_T, 8)


def test_picard_zero_potential_returns_input():
    start, _ = picard_setup(19)
    result = picard_fixed_point(start, zero_potential(G16, 16), 0.5, PICARD_T, 64)
    # the first sweep leaves Xi, the free flow of the start, as it was
    assert result.converged and result.update_norms == [0.0]
    for i in range(65):
        flowed = free_flow(start, i * PICARD_T / 64)
        for k in (1, 2):
            want = marginal_spectrum(flowed.entry(k))
            got = result.spectrum(k, i)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.slow
def test_picard_converges_with_contraction_and_small_residual():
    start, pot = picard_setup(20)
    result = picard_fixed_point(start, pot, 0.5, PICARD_T, 128)
    assert result.converged
    assert result.update_norms[-1] < 1e-8
    assert all(r < 1.0 for r in result.contraction_ratios)
    assert result.residual < 1e-7


def test_picard_rejects_horizon_beyond_gate(monkeypatch):
    start, pot = picard_setup(21)
    forbid_transforms(monkeypatch)
    for t in (t0_gate(0.5), 2 * t0_gate(0.5)):  # at the gate and past it
        with pytest.raises(ValueError, match="gate"):
            picard_fixed_point(start, pot, 0.5, t, 64)


def test_picard_below_its_need_raises_before_a_transform(monkeypatch):
    from hierlab.budget import BudgetExceeded
    start, pot = picard_setup(21, G8)
    need = picard_need(8, 129, PICARD_WORKING_STATES)
    monkeypatch.setenv("HLAB_BUDGET", str(need - 1))
    forbid_transforms(monkeypatch)
    with pytest.raises(BudgetExceeded, match="129 packed samples"):
        picard_fixed_point(start, pot, 0.5, PICARD_T, 128)


@pytest.mark.parametrize("level", [1, 2])
def test_picard_refuses_a_non_hermitian_start_before_a_transform(
        monkeypatch, level):
    # the tolerance is max |M - M^H| <= 1e-12 max |M|: an entry moved by
    # half of it off its mirror is accepted, by twice it refused
    start, _ = picard_setup(21, G8)
    kernel = start.entry(level).kernel
    scale = np.max(np.abs(kernel))
    corner = (0,) * (kernel.ndim - 1) + (1,)  # off the diagonal
    kernel[corner] += 0.5e-12 * scale
    picard_fixed_point(start, zero_potential(G8, 16), 0.5, PICARD_T, 4)
    kernel[corner] += 1.5e-12 * scale
    forbid_transforms(monkeypatch)
    with pytest.raises(ValueError, match=f"start level {level} must be Hermitian"):
        picard_fixed_point(start, zero_potential(G8, 16), 0.5, PICARD_T, 4)


@pytest.mark.parametrize("seed", [11, 7])
def test_run_picard_start_passes_the_hermitian_check(seed):
    # the start `hierlab picard` draws, at the golden n = 8 and the default n
    for n in (8, 16):
        grid = make_grid(1, n)
        rng = ExperimentConfig(n=n, seed=seed).rng()
        for k in (1, 2):
            gamma = random_hermitian_marginal(grid, k, rng, max_mode=2,
                                              symmetric=True)
            assert hermiticity_defect(gamma) <= 1e-12 * np.max(
                np.abs(gamma.kernel))


def test_picard_gate_follows_the_xi_argument():
    start, _ = picard_setup(24)
    # 0.3 is past the gate of xi = 0.5 (0.25) and inside that of 0.6 (0.36)
    with pytest.raises(ValueError):
        picard_fixed_point(start, zero_potential(G16, 16), 0.5, 0.3, 8)
    result = picard_fixed_point(start, zero_potential(G16, 16), 0.6, 0.3, 8)
    assert result.converged
    with pytest.raises(ValueError):
        picard_fixed_point(start, zero_potential(G16, 16), 0.6, 0.4, 8)


def test_instability_detector_aborts_blowup():
    from hierlab.hierarchy_evolution import InstabilityError
    state = factorized_state(atom(G16, 23), 2)
    # absurd step size makes the explicit stage amplification catastrophic
    cfg = EvolutionConfig(dt=100.0, t_final=10000.0)
    with pytest.raises(InstabilityError):
        bbgky_evolve(state, cfg, pot16(4), store_every=0)
