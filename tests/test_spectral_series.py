"""The spectral series paths against a physical-space reference.

The reference below is the direct evaluation the spectral recurrences replace:
every sample is pulled back by its own free flow, the prefix integral is a
list of trapezoid (or Simpson) sums of physical kernels, and each prefix is
pushed forward by its own free flow again.
"""

import numpy as np
import pytest

from hierlab import hierarchy_evolution
from hierlab.cli import main
from hierlab.grid import (bessel_multiply, dft_forward, l2_norm, make_grid,
                          random_low_mode_field, sobolev_norm_field,
                          sobolev_weight, spectral_norm)
from hierlab.hierarchy_evolution import (HermitianPacking, duhamel_tower,
                                         free_flow, picard_fixed_point,
                                         t0_gate)
from hierlab.interactions import (bbgky_main_level, bbgky_rhs,
                                  gaussian_profile, realize_potential)
from hierlab.marginals import (HierarchyState, factorized_state, flow_symbol,
                               free_propagate_marginal, hierarchy_norm,
                               marginal_from_spectrum, marginal_spectrum,
                               random_hermitian_marginal)

from kernel_tools import (count_transforms, flowed_prefix_reference,
                          picard_sweep_reference)

GRIDS = [make_grid(1, 8), make_grid(2, 4)]
GRID_IDS = ["d1n8", "d2n4"]


def ref_prefix(items, dt, simpson=False):
    """Cumulative trapezoid, or composite Simpson whose odd points close
    with one trapezoid step."""
    acc = [items[0] * 0.0]
    for i in range(1, len(items)):
        if simpson and i % 2 == 0:
            acc.append(acc[i - 2] + (items[i - 2] + items[i - 1] * 4.0 + items[i])
                       * (dt / 3.0))
        else:
            acc.append(acc[i - 1] + (items[i - 1] + items[i]) * (dt / 2.0))
    return acc


def ref_duhamel(dt, states, j, pot, t):
    """Depth j at t of the Duhamel tower on ``states``, sampled dt apart."""
    n_pts = int(round(t / dt)) + 1
    times = dt * np.arange(n_pts)
    K = states[0].K
    comps = []
    for k in range(1, K - j + 1):
        current = [states[i].entry(k + j) for i in range(n_pts)]
        for _ in range(j):
            back = [free_propagate_marginal(current[i], -times[i])
                    for i in range(n_pts)]
            prefix = ref_prefix(back, dt)
            current = [bbgky_main_level(free_propagate_marginal(prefix[i], times[i]),
                                        pot) * 1j for i in range(n_pts)]
        comps.append(current[-1])
    return HierarchyState(comps)


def ref_sweep(dt, xi_states, theta, pot, simpson):
    """One Picard sweep of ``theta`` with free term ``xi_states``, both
    sampled dt apart."""
    times = dt * np.arange(len(xi_states))
    back = [free_flow(s, -t) for s, t in zip(theta, times)]
    prefixes = ref_prefix(back, dt, simpson)
    return [x + bbgky_rhs(free_flow(p, t), pot) * 1j
            for x, p, t in zip(xi_states, prefixes, times)]


def ref_distance(a, b):
    return max(hierarchy_norm(x - y, 1.0, 0.5) for x, y in zip(a, b))


def pot_for(grid):
    return realize_potential(gaussian_profile(grid, 0.6), 0.2, 16)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_sobolev_weight_is_parseval_of_the_h_alpha_norm(grid):
    f = random_low_mode_field(grid, 2, np.random.default_rng(1))
    for alpha in (0.0, 1.0):
        spec = dft_forward(f).data
        got = np.sqrt(np.sum(sobolev_weight(grid, 2, alpha) * np.abs(spec) ** 2))
        ref = l2_norm(bessel_multiply(f, alpha))  # in physical space
        for value in (got, sobolev_norm_field(f, alpha)):
            assert value == pytest.approx(ref, rel=1e-13)


def test_sobolev_norm_takes_one_forward_transform(monkeypatch):
    f = random_low_mode_field(GRIDS[0], 2, np.random.default_rng(1))
    counts = count_transforms(monkeypatch)
    sobolev_norm_field(f, 0.0)
    assert not counts  # order 0 is the L2 norm
    sobolev_norm_field(f, 1.0)
    assert counts == {("fftn", 2): 1}


def free_series(grid, K, seed):
    """The free flow of a product state phi^(tensor K) at 9 samples 0.005
    apart, and its atom phi."""
    phi = random_low_mode_field(grid, 1, np.random.default_rng(seed), max_mode=1)
    base = factorized_state(phi, K)
    return phi, [free_flow(base, i * 0.005) for i in range(9)]


@pytest.mark.parametrize("grid,j", [(GRIDS[0], 1), (GRIDS[0], 2), (GRIDS[1], 1)],
                         ids=["d1n8-j1", "d1n8-j2", "d2n4-j1"])
def test_duhamel_iterate_matches_physical_reference(grid, j):
    # d = 2 stops at j = 1: the j = 2 reference needs level-3 kernels of
    # (4^2)^6 entries
    pot = pot_for(grid)
    phi, states = free_series(grid, j + 1, seed=10 + j)
    for t, n_steps in ((0.02, 4), (0.04, 8)):  # an interior sample and the last
        got = duhamel_tower(phi, j, pot, t, n_steps)[j]
        ref = ref_duhamel(0.005, states, j, pot, t)
        rel = hierarchy_norm(got - ref, 0.0, 0.5) / hierarchy_norm(ref, 0.0, 0.5)
        assert rel <= 1e-12


TOWER_CASES = [(GRIDS[0], 3), (make_grid(1, 4), 4), (GRIDS[1], 2)]


@pytest.mark.parametrize("grid,K", TOWER_CASES, ids=["d1n8-K3", "d1n4-K4", "d2n4-K2"])
def test_duhamel_tower_matches_physical_reference_at_every_depth(grid, K):
    pot = pot_for(grid)
    phi, states = free_series(grid, K, seed=30 + K)
    for t, n_steps in ((0.02, 4), (0.04, 8)):  # an interior sample and the last
        tower = duhamel_tower(phi, K - 1, pot, t, n_steps)
        assert sorted(tower) == list(range(1, K))
        for j, got in tower.items():
            ref = ref_duhamel(0.005, states, j, pot, t)
            rel = hierarchy_norm(got - ref, 0.0, 0.5) / hierarchy_norm(ref, 0.0, 0.5)
            assert rel <= 1e-12


@pytest.mark.parametrize("simpson", [False, True], ids=["trapezoid", "simpson"])
@pytest.mark.parametrize("n", [8, 16], ids=["n8", "n16"])
def test_flowed_prefix_is_its_formula_bit_for_bit(n, simpson):
    # a level-2 spectrum is 64 KiB at n = 8 and 1 MiB at n = 16, below and
    # above the size from which numpy forms a temporary's product in place
    grid = make_grid(1, n)
    rng = np.random.default_rng(31)
    shape = grid.slot_shape(4)
    spectra = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
               for _ in range(7)]
    phase = np.exp(-1j * 1e-3 * flow_symbol(grid, 2))
    got = list(hierarchy_evolution._flowed_prefix(spectra, phase, 1e-3, simpson))
    want = flowed_prefix_reference(spectra, phase, 1e-3, simpson)
    assert len(got) == len(want) == 7
    for a, b in zip(got, want):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_duhamel_check_makes_no_level3_transform(tmp_path, monkeypatch):
    counts = count_transforms(monkeypatch)
    main(["duhamel-check", "--n", "8", "--j-max", "2", "--outdir", str(tmp_path)])
    # the first layer is read off the flowed atom, so no level-3 kernel is
    # formed; per horizon the second layer transforms each of the first's 17
    # level-2 kernels and inverts its prefix at t, and the order-1 norm of
    # depth 1 takes one forward transform
    assert counts["fftn", 6] == counts["ifftn", 6] == 0
    assert counts["fftn", 4] == 3 * (17 + 1)
    assert counts["ifftn", 4] == 3
    assert counts["ifftn", 2] == 0


def test_picard_transform_counts(monkeypatch):
    grid, n = GRIDS[0], 8
    pot = pot_for(grid)
    rng = np.random.default_rng(5)
    base = HierarchyState([random_hermitian_marginal(grid, k, rng, max_mode=1)
                           for k in (1, 2)])
    counts = count_transforms(monkeypatch)
    result = picard_fixed_point(base, pot, 0.5, t0_gate(0.5) / 4.0, n)
    sweeps = result.iterations + 1  # and the Simpson residual sweep
    for rank in (2, 4):  # levels 1 and 2
        # the start's spectra, which are the first iterate's sample 0 and
        # step to the others; then per sweep and sample one inverse
        # transform of the prefix and one forward transform of B_N's result
        assert counts["fftn", rank] == 1 + (n + 1) * sweeps
        assert counts["ifftn", rank] == (n + 1) * sweeps


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_picard_sweep_matches_physical_reference(grid, monkeypatch):
    pot = pot_for(grid)
    rng = np.random.default_rng(3)
    base = HierarchyState([random_hermitian_marginal(grid, k, rng, max_mode=1)
                           for k in (1, 2)])
    t = t0_gate(0.5) / 4.0
    dt = t / 8
    # Xi by the GEMM flow, independent of Picard's stepped spectra
    xi_states = [free_flow(base, i * dt) for i in range(9)]

    with monkeypatch.context() as one_sweep:
        one_sweep.setattr(hierarchy_evolution, "PICARD_MAX_SWEEPS", 1)
        result = picard_fixed_point(base, pot, 0.5, t, 8)
    new = ref_sweep(dt, xi_states, xi_states, pot, simpson=False)
    assert result.update_norms[0] == pytest.approx(
        ref_distance(new, xi_states), abs=1e-12)
    assert result.residual == pytest.approx(
        ref_distance(ref_sweep(dt, xi_states, new, pot, simpson=True), new),
        abs=1e-12)
    swept = [HierarchyState([marginal_from_spectrum(grid, k,
                                                    result.spectrum(k, i))
                             for k in (1, 2)])
             for i in range(9)]
    assert ref_distance(swept, new) <= 1e-12

    # the full iteration follows the reference sweep for sweep
    result = picard_fixed_point(base, pot, 0.5, t, 8)
    theta, norms = xi_states, []
    for _ in range(result.iterations):
        new = ref_sweep(dt, xi_states, theta, pot, simpson=False)
        norms.append(ref_distance(new, theta))
        theta = new
    assert result.converged
    assert np.allclose(result.update_norms, norms, rtol=0.0, atol=1e-12)
    assert result.residual == pytest.approx(
        ref_distance(ref_sweep(dt, xi_states, theta, pot, simpson=True), theta),
        abs=1e-12)


def reflected(spec, k, d):
    """conj(ghat(-q', -p)) at (p, q') for a level-k spectrum ``spec``: every
    axis flipped, the unprimed and primed slots swapped, conjugated.  A
    Hermitian kernel's spectrum equals it."""
    neg = -np.arange(spec.shape[0]) % spec.shape[0]
    flipped = spec[np.ix_(*[neg] * spec.ndim)]
    swap = list(range(k * d, 2 * k * d)) + list(range(k * d))
    return np.conj(np.transpose(flipped, swap))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("grid", [make_grid(1, 8), make_grid(1, 16),
                                  make_grid(2, 4)], ids=["d1n8", "d1n16", "d2n4"])
def test_pack_then_unpack_is_exactly_hermitian(grid, k):
    packing = HermitianPacking(grid, k)
    m = grid.num_points**k
    rng = np.random.default_rng(5)
    # any spectrum, Nyquist rows included, comes back exactly Hermitian,
    # and its packing survives the round trip bit for bit
    raw = rng.standard_normal(packing.shape) \
        + 1j * rng.standard_normal(packing.shape)
    packed = packing.pack(raw)
    assert packed.shape == (m // 2, m + 1) and packed.flags.c_contiguous
    full = packing.unpack(packed)
    assert np.array_equal(full, reflected(full, k, grid.dim))
    assert np.array_equal(packing.pack(full).view(np.uint64),
                          packed.view(np.uint64))
    # a Hermitian kernel's spectrum comes back to its own rounding, and the
    # packed Parseval weight gives its H^1 norm
    spec = marginal_spectrum(random_hermitian_marginal(grid, k, rng))
    back = packing.unpack(packing.pack(spec))
    assert np.max(np.abs(back - spec)) <= 1e-15 * np.max(np.abs(spec))
    weight = sobolev_weight(grid, 2 * k, 1.0)
    assert spectral_norm(packing.pack(spec), packing.parseval_weight(weight)) \
        == pytest.approx(spectral_norm(spec, weight), rel=1e-14)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_packed_picard_sweep_matches_full_spectra(grid, monkeypatch):
    pot = pot_for(grid)
    rng = np.random.default_rng(8)
    start = HierarchyState([random_hermitian_marginal(grid, k, rng, max_mode=1)
                            for k in (1, 2)])
    t = t0_gate(0.5) / 4.0
    monkeypatch.setattr(hierarchy_evolution, "PICARD_MAX_SWEEPS", 1)
    result = picard_fixed_point(start, pot, 0.5, t, 8)
    want = picard_sweep_reference(start, pot, t, 8)
    for k, level in enumerate(want, start=1):
        for i, spec in enumerate(level):
            got = result.spectrum(k, i)
            assert np.max(np.abs(got - spec)) <= 1e-13 * np.max(np.abs(spec))
