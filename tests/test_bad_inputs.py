"""Entry points reject a bad value with a ValueError that names it, before
they compute with it."""

import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hierlab.cli import EXPERIMENT_ONLY, main
from hierlab.definetti import (Mixture, energy_functional_direct,
                               energy_functional_mixture, gwp_window_chain,
                               nls_energy, random_mixture)
from hierlab.grid import (Field, bessel_multiply, free_propagate, inner,
                          make_grid, random_low_mode_field, sobolev_norm_field)
from hierlab.harness import ExperimentConfig, Report
from hierlab.hierarchy_evolution import (EvolutionConfig, bbgky_evolve,
                                         duhamel_tower, gp_evolve, k_schedule,
                                         picard_fixed_point)
from hierlab.interactions import (bbgky_error_level, bbgky_main_level,
                                  bbgky_rhs, bump_profile, gaussian_profile,
                                  gp_collision_sum, product_collision_level,
                                  realize_potential)
from hierlab.marginals import (Marginal, admissibility_defect,
                               factorized_state, hierarchy_norm,
                               mixture_marginal, mixture_state, psd_defect,
                               pure_product_marginal, sobolev_norm,
                               symmetrize, trace_sobolev_norm)
from hierlab.nbody import energy_moments, extract_marginal, nbody_evolve
from hierlab.nbody import factorized_state as nbody_factorized_state

from kernel_tools import forbid_transforms, zero_potential

G8 = make_grid(1, 8)
PHI = random_low_mode_field(G8, 1, np.random.default_rng(0), max_mode=2)
STATE = factorized_state(PHI, 2)
PAIR = STATE.entry(1).as_field()  # rank 2
NAN_ATOM = Field(G8, 1, np.full(G8.slot_shape(1), math.nan, dtype=complex))
NAN_STATE = STATE.copy()  # level 2 holds one NaN entry
NAN_STATE.entry(2).kernel[(0,) * 4] = math.nan
NAN_KERNEL = Marginal(G8, 1, np.full(G8.slot_shape(2), math.nan, dtype=complex))
SKEW_STATE = STATE.copy()  # level 2 is not Hermitian
SKEW_STATE.entry(2).kernel[(0,) * 3 + (1,)] += 1e-3
ZERO_V = zero_potential(G8)
EVOLUTION = EvolutionConfig(dt=1e-3, t_final=1e-2)
# the same n on another box, and another n on the same box
G8_L3 = make_grid(1, 8, 3.0)
PHI_L3 = random_low_mode_field(G8_L3, 1, np.random.default_rng(0), max_mode=2)
PHI_N16 = random_low_mode_field(make_grid(1, 16), 1, np.random.default_rng(0))
V_L3 = zero_potential(G8_L3)
NBODY = nbody_factorized_state(PHI, 3, ZERO_V)
MIX = Mixture([(1.0, PHI)])


def window_chain(bound=1.0, windows=1):
    """One n = 8 window of one step from the product state of PHI."""
    return gwp_window_chain(MIX, STATE, bound, window=1e-3, windows=windows,
                            xi=0.5, dt=1e-3)


def profile_with(value: float) -> Field:
    """The n = 8 Gaussian profile with one entry set to ``value``."""
    data = gaussian_profile(G8, 0.6).data.copy()
    data[3] = value
    return Field(G8, 1, data)


PROBES = {
    "grid-L-nan": (lambda: make_grid(1, 8, math.nan), "L must"),
    "grid-L-inf": (lambda: make_grid(1, 8, math.inf), "L must"),
    "gaussian-width-0": (lambda: gaussian_profile(G8, 0.0), "width"),
    "gaussian-width-nan": (lambda: gaussian_profile(G8, math.nan), "width"),
    "bump-width-negative": (lambda: bump_profile(G8, -0.5), "width"),
    "bump-width-inf": (lambda: bump_profile(G8, math.inf), "width"),
    "nbody-N-0": (lambda: nbody_factorized_state(PHI, 0, zero_potential(G8)),
                  "big_n"),
    "grid-n-float": (lambda: make_grid(1, 8.0), "n must"),
    "grid-dim-bool": (lambda: make_grid(True, 8), "dim must"),
    "potential-N-float": (
        lambda: realize_potential(gaussian_profile(G8, 0.6), 0.2, 2.5), "big_n"),
    "potential-N-bool": (
        lambda: realize_potential(gaussian_profile(G8, 0.6), 0.2, True), "big_n"),
    "nbody-N-bool": (
        lambda: nbody_factorized_state(PHI, True, zero_potential(G8)), "big_n"),
    "k-schedule-N-float": (lambda: k_schedule(2.5, 0.5), "big_n"),
    "product-marginal-k-float": (lambda: pure_product_marginal(PHI, 2.0),
                                 "k must"),
    "bbgky-main-level-foreign-pot": (
        lambda: bbgky_main_level(STATE.entry(2), V_L3), "gamma_next and pot"),
    "bbgky-error-level-foreign-pot": (
        lambda: bbgky_error_level(STATE.entry(2), V_L3), "gamma and pot"),
    "bbgky-rhs-foreign-pot": (lambda: bbgky_rhs(STATE, V_L3), "state and pot"),
    "product-collision-foreign-atom": (
        lambda: product_collision_level([(0.5, PHI), (0.5, PHI_L3)], 1),
        "atom 0 and atom 1"),
    "product-collision-foreign-pot": (
        lambda: product_collision_level([(1.0, PHI)], 1, V_L3),
        "atom 0 and pot"),
    "picard-foreign-pot": (
        lambda: picard_fixed_point(STATE, V_L3, 0.5, 0.01, 4), "start and pot"),
    "duhamel-foreign-pot": (lambda: duhamel_tower(PHI, 1, V_L3, 0.01, 4),
                            "phi and pot"),
    "bbgky-evolve-foreign-pot": (
        lambda: bbgky_evolve(STATE, EVOLUTION, V_L3), "state0 and pot"),
    "nbody-foreign-pot": (lambda: nbody_factorized_state(PHI, 3, V_L3),
                          "phi and pot"),
    "inner-foreign-box": (lambda: inner(PHI, PHI_L3), "f and g"),
    "inner-foreign-n": (lambda: inner(PHI, PHI_N16), "f and g"),
    "hierarchy-norm-alpha-nan": (lambda: hierarchy_norm(STATE, math.nan, 0.5),
                                 "alpha"),
    "hierarchy-trace-norm-alpha-nan": (
        lambda: hierarchy_norm(STATE, math.nan, 0.5, flavor="trace"), "alpha"),
    "sobolev-norm-alpha-inf": (lambda: sobolev_norm(STATE.entry(2), math.inf),
                               "alpha"),
    "trace-sobolev-norm-alpha-inf": (
        lambda: trace_sobolev_norm(STATE.entry(1), math.inf), "alpha"),
    "field-sobolev-norm-alpha-nan": (lambda: sobolev_norm_field(PHI, math.nan),
                                     "alpha"),
    "bessel-slot-above-rank": (lambda: bessel_multiply(PAIR, 1.0, slots=[5]),
                               "slots"),
    "bessel-slot-negative": (lambda: bessel_multiply(PAIR, 0.0, slots=[-1]),
                             "slots"),
    "psd-defect-kernel-nan": (lambda: psd_defect(NAN_KERNEL), "kernel"),
    "trace-sobolev-norm-kernel-nan": (
        lambda: trace_sobolev_norm(NAN_KERNEL, 1.0), "kernel"),
    "symmetrize-kernel-nan": (lambda: symmetrize(NAN_KERNEL),
                              "symmetrize kernel"),
    "picard-t-nan": (
        lambda: picard_fixed_point(STATE, ZERO_V, 0.5, math.nan, 4), "t must"),
    "picard-t-inf": (
        lambda: picard_fixed_point(STATE, ZERO_V, 0.5, math.inf, 4), "t must"),
    "picard-steps-float": (
        lambda: picard_fixed_point(STATE, ZERO_V, 0.5, 0.01, 2.5), "n_steps"),
    "picard-steps-bool": (
        lambda: picard_fixed_point(STATE, ZERO_V, 0.5, 0.01, True), "n_steps"),
    "picard-t-zero": (
        lambda: picard_fixed_point(STATE, ZERO_V, 0.5, 0.0, 4), "t must"),
    "picard-t-negative": (
        lambda: picard_fixed_point(STATE, ZERO_V, 0.5, -0.01, 4), "t must"),
    "picard-steps-zero": (
        lambda: picard_fixed_point(STATE, ZERO_V, 0.5, 0.01, 0), "n_steps"),
    "free-propagate-t-nan": (lambda: free_propagate(PHI, math.nan), "t must"),
    "free-propagate-t-inf": (lambda: free_propagate(PHI, -math.inf), "t must"),
    "mixture-weight-nan": (lambda: Mixture([(math.nan, PHI)]), "weights"),
    "mixture-weight-inf": (lambda: Mixture([(math.inf, PHI)]), "weights"),
    "mixture-atom-nan": (lambda: Mixture([(1.0, NAN_ATOM)]), "norm nan"),
    "profile-nan": (lambda: realize_potential(profile_with(math.nan), 0.2, 4),
                    "profile must be finite"),
    "profile-inf": (lambda: realize_potential(profile_with(math.inf), 0.2, 4),
                    "profile must be finite"),
    "picard-start-nan": (
        lambda: picard_fixed_point(NAN_STATE, ZERO_V, 0.5, 0.01, 4),
        "start level 2"),
    "picard-start-not-hermitian": (
        lambda: picard_fixed_point(SKEW_STATE, ZERO_V, 0.5, 0.01, 4),
        "start level 2 must be Hermitian"),
    "admissibility-kernel-nan": (lambda: admissibility_defect(NAN_STATE),
                                 "state level 2 must be finite"),
    "gp-collision-sum-kernel-nan": (lambda: gp_collision_sum(NAN_STATE),
                                    "state level 2 must be finite"),
    "nls-energy-atom-nan": (lambda: nls_energy(NAN_ATOM), "phi must be finite"),
    "duhamel-atom-nan": (lambda: duhamel_tower(NAN_ATOM, 2, ZERO_V, 0.01, 4),
                         "atom"),
    "duhamel-j-max-bool": (lambda: duhamel_tower(PHI, True, ZERO_V, 0.01, 4),
                           "j_max"),
    "duhamel-j-max-float": (lambda: duhamel_tower(PHI, 2.0, ZERO_V, 0.01, 4),
                            "j_max"),
    "duhamel-j-max-zero": (lambda: duhamel_tower(PHI, 0, ZERO_V, 0.01, 4),
                           "j_max"),
    "duhamel-steps-bool": (lambda: duhamel_tower(PHI, 2, ZERO_V, 0.01, True),
                           "n_steps"),
    "gp-evolve-start-nan": (lambda: gp_evolve(NAN_STATE, EVOLUTION),
                            "start level 2"),
    "bbgky-evolve-start-nan": (
        lambda: bbgky_evolve(NAN_STATE, EVOLUTION, ZERO_V), "start level 2"),
    "mixture-marginal-weight-nan": (
        lambda: mixture_marginal([(math.nan, PHI)], 1), "weights"),
    "product-collision-no-atoms": (lambda: product_collision_level([], 1),
                                   "atoms"),
    "product-collision-rank-2-atom": (
        lambda: product_collision_level([(1.0, PAIR)], 1), "atoms"),
    "k-schedule-b1-nan": (lambda: k_schedule(16, math.nan), "b1"),
    "k-schedule-b1-inf": (lambda: k_schedule(16, math.inf), "b1"),
    "evolution-dt-nan": (lambda: EvolutionConfig(dt=math.nan), "dt"),
    "evolution-dt-inf": (lambda: EvolutionConfig(dt=math.inf), "dt"),
    "random-field-rank-0": (
        lambda: random_low_mode_field(G8, 0, np.random.default_rng(0)), "rank"),
    "random-field-rank-bool": (
        lambda: random_low_mode_field(G8, True, np.random.default_rng(0)),
        "rank must"),
    "random-mixture-atoms-bool": (
        lambda: random_mixture(G8, True, np.random.default_rng(0)), "n_atoms"),
    "extract-marginal-k-bool": (lambda: extract_marginal(NBODY.psi, True),
                                "k must"),
    "energy-moments-k-float": (lambda: energy_moments(NBODY, 1.5), "k must"),
    "functional-mixture-m-float": (
        lambda: energy_functional_mixture(Mixture([(1.0, PHI)]), 1.5),
        "m must"),
    "functional-direct-m-bool": (
        lambda: energy_functional_direct(STATE, True), "m must"),
    "random-field-max-mode-bool": (
        lambda: random_low_mode_field(G8, 1, np.random.default_rng(0),
                                      max_mode=True), "max_mode must"),
    "random-field-max-mode-float": (
        lambda: random_low_mode_field(G8, 1, np.random.default_rng(0),
                                      max_mode=2.5), "max_mode must"),
    "random-mixture-max-mode-bool": (
        lambda: random_mixture(G8, 2, np.random.default_rng(0), max_mode=True),
        "max_mode must"),
    "random-mixture-max-mode-float": (
        lambda: random_mixture(G8, 2, np.random.default_rng(0), max_mode=2.5),
        "max_mode must"),
    "random-field-max-mode-above-half": (
        lambda: random_low_mode_field(G8, 1, np.random.default_rng(0),
                                      max_mode=5), "max_mode"),
    "report-value-nan": (lambda: Report().add("demo", "drift", math.nan),
                         "drift"),
    "report-value-inf": (lambda: Report().add("demo", "drift", -math.inf),
                         "drift"),
    "window-chain-windows-float": (lambda: window_chain(windows=2.5),
                                   "windows must"),
    "window-chain-windows-bool": (lambda: window_chain(windows=True),
                                  "windows must"),
    "window-chain-bound-nan": (lambda: window_chain(bound=math.nan),
                               "bound must be finite"),
    "factorized-state-K-float": (lambda: factorized_state(PHI, 2.0), "K must"),
    "mixture-state-K-bool": (lambda: mixture_state(MIX, True), "K must"),
    "k-schedule-cap-bool": (lambda: k_schedule(16, 2.0, cap=True), "cap must"),
    "k-schedule-cap-float": (lambda: k_schedule(16, 2.0, cap=2.5), "cap must"),
    "gp-evolve-store-every-bool": (
        lambda: gp_evolve(STATE, EVOLUTION, store_every=True), "store_every"),
    "nbody-evolve-store-every-bool": (
        lambda: nbody_evolve(NBODY, 1e-3, 1e-2, store_every=True),
        "store_every"),
    "config-ladder-float-entry": (
        lambda: ExperimentConfig.from_mapping({"ladder": [2.5, 3]}),
        "ladder must"),
    # os.devnull: a missing check writes nothing anywhere
    "report-no-rows": (lambda: Report().write_csv(os.devnull), "no rows"),
}


@pytest.mark.parametrize("call,names", PROBES.values(), ids=PROBES.keys())
def test_entry_point_rejects_bad_value(call, names):
    with pytest.raises(ValueError, match=names):
        call()


SERIES_PROBES = {key: probe for key, probe in PROBES.items()
                 if key.startswith(("picard-", "duhamel-"))}


@pytest.mark.parametrize("call,names", SERIES_PROBES.values(),
                         ids=SERIES_PROBES.keys())
def test_integral_equations_reject_bad_input_before_a_transform(
        monkeypatch, call, names):
    forbid_transforms(monkeypatch)
    with pytest.raises(ValueError, match=names):
        call()


GRID_PROBES = {key: probe for key, probe in PROBES.items() if "-foreign-" in key}


@pytest.mark.parametrize("call,names", GRID_PROBES.values(),
                         ids=GRID_PROBES.keys())
def test_operands_on_two_grids_raise_before_a_kernel_is_allocated(call, names):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="different grids"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8**4  # one level-2 kernel at n = 8


def test_symmetrize_refuses_a_non_finite_kernel_before_its_sum():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="symmetrize kernel must be finite"):
            symmetrize(NAN_STATE.entry(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8**4  # one level-2 kernel at n = 8


LOOP_PROBES = {key: probe for key, probe in PROBES.items()
               if "-evolve-" in key}


@pytest.mark.parametrize("call,names", LOOP_PROBES.values(),
                         ids=LOOP_PROBES.keys())
def test_time_loops_reject_bad_start_data_before_a_step(monkeypatch, call,
                                                        names):
    import hierlab.hierarchy_evolution as evolution
    monkeypatch.setattr(evolution, "_rk4ip_step", lambda *a: pytest.fail(
        "a step ran before the loop's checks"))
    with pytest.raises(ValueError, match=names):
        call()


@pytest.mark.parametrize("argv,ini,name", [
    ([], "n = abc", "n"),
    (["--n", "abc"], None, "n"),
    (["--ladder", "2,x"], None, "ladder"),
], ids=["ini-n", "flag-n", "flag-ladder"])
def test_value_that_fails_to_convert_names_its_field(tmp_path, argv, ini, name):
    outdir = tmp_path / "out"
    if ini is not None:
        (tmp_path / "cfg.ini").write_text(f"[run]\n{ini}\n")
        argv = ["--config", str(tmp_path / "cfg.ini")]
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        main(["convergence", *argv, "--outdir", str(outdir)])
    assert not outdir.exists()


@pytest.mark.parametrize("argv,names", [
    (["collision-limit", "--profile-width", "0"], "width"),
    (["simulate-bbgky", "--box-length", "nan"], "L must"),
], ids=["profile-width-0", "box-length-nan"])
def test_cli_rejects_bad_value_before_writing(tmp_path, argv, names):
    with pytest.raises(ValueError, match=names):
        main(argv + ["--n", "8", "--dt", "2e-3", "--t-final", "0.004",
                     "--outdir", str(tmp_path)])
    assert list(tmp_path.iterdir()) == []


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NONPOSITIVE = st.one_of(NON_FINITE, st.floats(max_value=0.0, allow_nan=False))
# a bool and a float, which the bounds of most int fields would let through
NOT_AN_INT = st.sampled_from([True, 4.0])
# a bool, which is finite and positive as a number
NOT_A_FLOAT = st.sampled_from([True, False])
BELOW_ONE = st.one_of(st.integers(max_value=0), NOT_AN_INT)
BAD_LADDER = st.one_of(
    st.lists(st.integers(-4, 64), min_size=1, max_size=4).filter(
        lambda entries: min(entries) < 1),
    st.sampled_from([[2.5, 3], [True]]))
# config field -> its bad values; the float fields besides those listed take
# the non-finite ones
BAD_FIELDS = {
    "dim": st.one_of(st.integers(-4, 9).filter(lambda d: d not in (1, 2, 3)),
                     NOT_AN_INT),
    "n": st.one_of(st.integers(-8, 64).filter(lambda n: n % 2 or n < 4),
                   NOT_AN_INT),
    "box_length": st.one_of(NONPOSITIVE, NOT_A_FLOAT),
    "profile": st.sampled_from(["", "square", "gaussian.csv"]),
    "profile_width": st.one_of(NONPOSITIVE, NOT_A_FLOAT),
    "dt": st.one_of(NONPOSITIVE, NOT_A_FLOAT),
    "t_final": st.one_of(NON_FINITE, NOT_A_FLOAT,
                         st.floats(max_value=-1e-9, allow_infinity=False)),
    "big_n": BELOW_ONE, "k_max": BELOW_ONE, "k_marginals": BELOW_ONE,
    "m_max": BELOW_ONE, "atoms": BELOW_ONE, "j_max": BELOW_ONE,
    "ladder": BAD_LADDER, "collision_ladder": BAD_LADDER,
    "windows": st.one_of(st.integers(max_value=-1), NOT_AN_INT),
    "seed": st.one_of(st.integers(max_value=-1), NOT_AN_INT),
    **{name: st.one_of(NON_FINITE, NOT_A_FLOAT)
       for name in ("beta", "b1", "xi", "xi_prime", "xi1")},
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(
    ExperimentConfig) if f.type == "float"])
def test_float_config_field_refuses_a_bool_by_name(name):
    for value in (True, False):
        with pytest.raises(ValueError, match=rf"^{name} must be a number, "
                                             "not a bool"):
            ExperimentConfig(**{name: value})


def test_every_config_field_has_a_bad_value_strategy():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(BAD_FIELDS) == fields - {"outdir"}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(BAD_FIELDS)).flatmap(
    lambda name: st.tuples(st.just(name), BAD_FIELDS[name])))
def test_bad_config_field_raises_before_a_random_field_is_drawn(
        tmp_path, monkeypatch, case):
    import hierlab.definetti as definetti_mod
    import hierlab.grid as grid_mod
    import hierlab.harness as harness_mod
    import hierlab.marginals as marginals_mod
    name, value = case
    for mod in (harness_mod, grid_mod, marginals_mod, definetti_mod):
        monkeypatch.setattr(mod, "random_low_mode_field", lambda *a, **k:
                            pytest.fail("random_low_mode_field was called"))
    names_it = rf"^{name}\b"
    with pytest.raises(ValueError, match=names_it):
        ExperimentConfig(**{name: value})
    text = ",".join(map(str, value)) if "ladder" in name else str(value)
    with pytest.raises(ValueError, match=names_it):
        main([EXPERIMENT_ONLY.get(name, "simulate-gp"),
              f"--{name.replace('_', '-')}={text}", "--outdir", str(tmp_path)])
    assert not list(tmp_path.iterdir())
