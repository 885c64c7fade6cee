"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime.
"""

import warnings

import numpy as np
import pytest

from hierlab.definetti import (Mixture, energy_functional_direct,
                               energy_functional_mixture, flow_mixture,
                               nls_evolve, random_mixture)
from hierlab.grid import make_grid, random_low_mode_field, sobolev_norm_field
from hierlab.harness import ExperimentConfig, run_experiment
from hierlab.hierarchy_evolution import (EvolutionConfig, gp_evolve,
                                         picard_fixed_point, t0_gate)
from hierlab.interactions import (bbgky_collision_main, bbgky_main_level,
                                  collision_fourier_oracle, gaussian_profile,
                                  gp_collision, realize_potential)
from hierlab.marginals import (HierarchyState, admissibility_defect,
                               free_propagate_marginal,
                               mixture_marginal, mixture_state, psd_defect,
                               pure_product_marginal, random_hermitian_marginal,
                               sobolev_norm, trace_sobolev_norm,
                               weakstar_metric)
from hierlab.nbody import (energy_estimate_check, extract_marginal,
                           factorized_state as nb_factorized, nbody_evolve)

from kernel_tools import gp_residual, perturbed_product_state

G16 = make_grid(1, 16, 2 * np.pi)
G8 = make_grid(1, 8, 2 * np.pi)


def record(num, name, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num:2d} ({name}): {detail}"
    print(line)
    assert passed, line


def quiet_potential(grid, width, beta, big_n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return realize_potential(gaussian_profile(grid, width), beta, big_n,
                                 width=width)


def test_criterion_01_norm_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in (1, 2, 3):
        grid = G8 if k == 3 else G16  # k=3 on the coarse grid for the time cap
        phi = random_low_mode_field(grid, 1, rng)
        gamma = pure_product_marginal(phi, k)
        for alpha in (0.0, 1.0):
            got = sobolev_norm(gamma, alpha)
            want = sobolev_norm_field(phi, alpha) ** (2 * k)
            worst = max(worst, abs(got - want) / want)
    record(1, "norm identity", worst < 1e-10, f"max rel err {worst:.2e}")


def test_criterion_02_admissibility_from_wavefunctions():
    pot = quiet_potential(G16, 0.6, 0.2, 4)
    rng = np.random.default_rng(102)
    phi = random_low_mode_field(G16, 1, rng, max_mode=2)
    bump = random_low_mode_field(G16, 1, rng, max_mode=1, unit_norm=False)
    state = perturbed_product_state(phi, bump, 0.2, 4, pot)
    stack = HierarchyState([extract_marginal(state.psi, k) for k in (1, 2, 3)])
    worst = max(admissibility_defect(stack))
    record(2, "admissibility from wavefunctions", worst < 1e-12,
           f"max chain defect {worst:.2e}")


def test_criterion_03_collision_fourier_oracle():
    pot = quiet_potential(G16, 0.6, 0.2, 16)
    rng = np.random.default_rng(103)
    worst = 0.0
    for trial in range(10):
        gamma = random_hermitian_marginal(G16, 2, rng, max_mode=3)
        for t in (0.0, 0.1):
            oracle = collision_fourier_oracle(gamma, t, pot)
            spatial = bbgky_collision_main(free_propagate_marginal(gamma, t),
                                           1, "+", pot)
            rel = sobolev_norm(oracle - spatial, 0.0) \
                / sobolev_norm(spatial, 0.0)
            worst = max(worst, rel)
    record(3, "collision Fourier oracle", worst < 1e-9,
           f"max rel disagreement {worst:.2e}")


def test_criterion_04_collision_limit_ladder():
    rng = np.random.default_rng(104)
    phi = random_low_mode_field(G16, 1, rng, max_mode=1)
    gamma2 = pure_product_marginal(phi, 2)
    target = gp_collision(gamma2, 1, "+")
    dists = []
    for big_n in (4, 16, 64, 256):
        pot = quiet_potential(G16, 0.6, 0.2, big_n)
        lhs = bbgky_main_level(gamma2, pot, plus_only=True)
        dists.append(sobolev_norm(lhs - target, 0.0))
    decreasing = all(b < a for a, b in zip(dists, dists[1:]))
    small_end = dists[-1] < 0.1 * dists[0]
    record(4, "collision limit", decreasing and small_end,
           f"ladder {['%.3e' % d for d in dists]}, "
           f"final/initial {dists[-1] / dists[0]:.3f}")


def test_criterion_05_energy_functional_equivalence():
    worst = 0.0
    for seed in range(5):
        mix = random_mixture(G16, 3, np.random.default_rng(500 + seed))
        state = mixture_state(mix, 2)
        direct = energy_functional_direct(state, 1)
        closed = energy_functional_mixture(mix, 1)
        worst = max(worst, abs(direct - closed) / abs(closed))
    from hierlab.grid import Field
    const = Field(G16, 1, np.full(16, 1.0 / np.sqrt(2 * np.pi)))
    cmix = Mixture([(1.0, const)])
    cval = energy_functional_direct(mixture_state(cmix, 2), 1)
    closed_err = abs(cval - (1.0 + 1.0 / (8.0 * np.pi)))
    record(5, "energy functional equivalence",
           worst < 1e-9 and closed_err < 1e-10,
           f"max rel mismatch {worst:.2e}, closed-form err {closed_err:.2e}")


def test_criterion_06_functional_conservation():
    mix = random_mixture(G16, 3, np.random.default_rng(106), max_mode=2)
    worst = 0.0
    for m in (1, 2):
        before = energy_functional_mixture(mix, m)
        after = energy_functional_mixture(flow_mixture(mix, 1.0, 1e-3), m)
        worst = max(worst, abs(after - before) / abs(before))
    record(6, "functional conservation", worst < 1e-7,
           f"max rel drift {worst:.2e} over t=1, dt=1e-3")


def test_criterion_07_positivity_transport():
    mix = random_mixture(G16, 3, np.random.default_rng(107), max_mode=2)
    worst = 0.0
    current = mix
    for _ in range(10):
        current = flow_mixture(current, 0.1, 1e-3)
        for k in (1, 2):
            worst = max(worst, psd_defect(mixture_marginal(current, k)))
    record(7, "positivity transport", worst < 1e-10,
           f"max psd defect {worst:.2e} over 10 samples")


def test_criterion_08_gp_residual_scaling():
    mix = random_mixture(G16, 3, np.random.default_rng(108), max_mode=2)
    maxima = []
    for dt in (2e-3, 1e-3):
        cfg = EvolutionConfig(dt=dt, t_final=0.02)
        traj = gp_evolve(mixture_state(mix, 2), cfg, mixture=mix,
                         store_every=1)
        maxima.append(float(np.max(gp_residual(traj, dt)[1])))
    ratio = maxima[0] / maxima[1]
    record(8, "gp residual scaling", 3.0 < ratio < 5.0,
           f"halving dt changed residual by {ratio:.3f} (target 4 +- 25%)")


@pytest.mark.slow
def test_criterion_09_derivation_endpoint():
    beta, t_final, dt = 0.2, 0.2, 2e-3
    rng = np.random.default_rng(109)
    phi = random_low_mode_field(G16, 1, rng, max_mode=1)
    target = pure_product_marginal(nls_evolve(phi, 1e-3, t_final), 1)
    dists = []
    for big_n in (2, 3, 4, 5):
        pot = quiet_potential(G16, 0.6, beta, big_n)
        traj = nbody_evolve(nb_factorized(phi, big_n, pot), dt, t_final,
                            store_every=0)
        gamma1 = extract_marginal(traj.psis[-1], 1)
        dists.append(trace_sobolev_norm(gamma1 - target, 0.0))
    monotone = all(b < a for a, b in zip(dists, dists[1:]))
    record(9, "derivation endpoint", monotone,
           f"trace distances over N=2..5: {['%.4f' % d for d in dists]}")


def test_criterion_10_energy_estimate_instances():
    worst = np.inf
    for big_n in (4, 6):
        pot = quiet_potential(G8, 0.7, 0.2, big_n)
        for k in (1, 2):
            for seed in range(5):
                rng = np.random.default_rng(1000 + 100 * big_n + 10 * k + seed)
                phi = random_low_mode_field(G8, 1, rng, max_mode=2)
                bump = random_low_mode_field(G8, 1, rng, max_mode=1,
                                             unit_norm=False)
                state = perturbed_product_state(phi, bump, 0.25, big_n, pot)
                worst = min(worst, energy_estimate_check(state, k, 0.5))
    record(10, "energy estimate instances", worst >= 1.0,
           f"min ratio {worst:.3f} over C=1/2, k in {{1,2}}, N in {{4,6}}")


@pytest.mark.slow
def test_criterion_11_picard_fixed_point():
    pot = quiet_potential(G16, 0.6, 0.2, 16)
    horizon = t0_gate(0.5) / 4.0
    rng = np.random.default_rng(111)
    entries = [random_hermitian_marginal(G16, k, rng, max_mode=2,
                                         symmetric=True) for k in (1, 2)]
    result = picard_fixed_point(HierarchyState(entries), pot, 0.5, horizon, 128)
    contracting = all(r < 1.0 for r in result.contraction_ratios)
    ok = result.converged and contracting and result.residual < 1e-7
    record(11, "picard fixed point", ok,
           f"iters {result.iterations}, residual {result.residual:.2e}, "
           f"max ratio {max(result.contraction_ratios):.3f}")


def test_criterion_12_weakstar_metric():
    rng = np.random.default_rng(112)
    phi = random_low_mode_field(G16, 1, rng, max_mode=2)
    limit = pure_product_marginal(phi, 1)
    other = mixture_marginal([(0.5, random_low_mode_field(G16, 1, rng, max_mode=2)),
                              (0.5, random_low_mode_field(G16, 1, rng, max_mode=2))], 1)
    obs = [random_hermitian_marginal(G16, 1, rng) for _ in range(6)]
    vals = []
    for j in range(26):
        mixed = limit * (1.0 - 0.5**j) + other * (0.5**j)  # traces stay 1
        vals.append(weakstar_metric(mixed, limit, obs))
    monotone = all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    record(12, "weak-* metric", monotone and vals[-1] < 1e-6,
           f"metric falls from {vals[0]:.2e} to {vals[-1]:.2e}")


def test_criterion_13_determinism(tmp_path):
    blobs = []
    for sub in ("one", "two"):
        cfg = ExperimentConfig(n=16, seed=42, collision_ladder=(4, 16, 64, 256),
                               outdir=str(tmp_path / sub))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            csv_path, _ = run_experiment("collision-limit", cfg)
        blobs.append(csv_path.read_bytes())
    record(13, "determinism", blobs[0] == blobs[1],
           f"two seeded runs produced identical CSV ({len(blobs[0])} bytes)")
