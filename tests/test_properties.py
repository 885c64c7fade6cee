"""Property tests of the hierarchy invariants over drawn seeds and grids.

The collision and state grids stop at d = 2, n = 4, upper level 2: a level-2
kernel at d = 3, n = 4 already holds 4^12 = 2^24 entries, the whole default
budget.  Tolerances are those of the fixed-seed tests in test_interactions.py,
test_spectral_series.py and test_marginals.py; file round trips are exact.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierlab.definetti import random_mixture
from hierlab.grid import (Field, bessel_multiply, dft_forward, l2_norm,
                          make_grid, random_low_mode_field, sobolev_norm_field,
                          sobolev_weight)
from hierlab.interactions import (bbgky_collision_main, bbgky_main_level,
                                  delta_surrogate, gaussian_profile,
                                  gp_collision, gp_collision_level,
                                  realize_potential)
from hierlab.marginals import (admissibility_defect, factorized_state,
                               mixture_state, psd_defect,
                               random_hermitian_marginal, sobolev_norm, trace)
from hierlab.storage import read_field, read_mixture, write_field, write_mixture

FEW = settings(max_examples=12, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)
# (d, n, level): the upper level k + 1 of the kernel a collision operator
# consumes, or the truncation level K of a hierarchy state
LEVEL_CASES = st.one_of(
    st.tuples(st.just(1), st.sampled_from([4, 6, 8]), st.sampled_from([2, 3])),
    st.tuples(st.just(2), st.just(4), st.just(2)))


def hermitian_kernel(case, seed):
    d, n, level = case
    grid = make_grid(d, n, 2 * np.pi)
    return random_hermitian_marginal(grid, level, np.random.default_rng(seed),
                                     max_mode=1)


@FEW
@given(case=LEVEL_CASES, seed=SEEDS, big_n=st.sampled_from([4, 64]))
def test_collision_levels_annihilate_traces(case, seed, big_n):
    gamma = hermitian_kernel(case, seed)
    pot = realize_potential(gaussian_profile(gamma.grid, 0.6), 0.2, big_n)
    scale = sobolev_norm(gamma, 0.0)
    # plain floats in the asserts keep failure reports (and shrinking) fast
    contact = abs(trace(gp_collision_level(gamma)))
    finite_n = abs(trace(bbgky_main_level(gamma, pot)))
    assert contact < 1e-10 * scale
    assert finite_n < 1e-10 * scale


@FEW
@given(case=LEVEL_CASES, seed=SEEDS, data=st.data())
def test_gp_collision_minus_is_adjoint_of_plus(case, seed, data):
    gamma = hermitian_kernel(case, seed)
    k, d = gamma.k - 1, gamma.grid.dim
    j = data.draw(st.integers(1, k), label="j")
    plus = gp_collision(gamma, j, "+")
    minus = gp_collision(gamma, j, "-")
    swap = list(range(k * d, 2 * k * d)) + list(range(k * d))
    adjoint = np.conj(np.transpose(plus.kernel, swap))
    defect = float(np.max(np.abs(adjoint - minus.kernel)))
    assert defect < 1e-12


@FEW
@given(case=LEVEL_CASES, seed=SEEDS, data=st.data())
def test_delta_surrogate_reduces_to_contact(case, seed, data):
    gamma = hermitian_kernel(case, seed)
    j = data.draw(st.integers(1, gamma.k - 1), label="j")
    pot = delta_surrogate(gamma.grid)
    for sign in ("+", "-"):
        a = bbgky_collision_main(gamma, j, sign, pot)
        b = gp_collision(gamma, j, sign)
        defect = float(np.max(np.abs(a.kernel - b.kernel)))
        assert defect < 1e-12


@FEW
@given(grid_case=st.sampled_from([(1, 4), (1, 6), (1, 16), (2, 4), (2, 8),
                                  (3, 4), (3, 6)]),
       L=st.sampled_from([2 * np.pi, 5.0]), rank=st.sampled_from([1, 2]),
       alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0]), seed=SEEDS)
def test_sobolev_weight_is_parseval(grid_case, L, rank, alpha, seed):
    d, n = grid_case
    grid = make_grid(d, n, L)
    f = random_low_mode_field(grid, rank, np.random.default_rng(seed),
                              max_mode=n // 2 - 1)
    spec = dft_forward(f).data
    got = float(np.sqrt(np.sum(sobolev_weight(grid, rank, alpha)
                               * np.abs(spec) ** 2)))
    ref = l2_norm(bessel_multiply(f, alpha))  # in physical space
    for value in (got, sobolev_norm_field(f, alpha)):
        assert value == pytest.approx(ref, rel=1e-13)


@FEW
@given(case=LEVEL_CASES, seed=SEEDS, atoms=st.integers(0, 3))
def test_product_and_mixture_states_are_admissible_and_psd(case, seed, atoms):
    d, n, K = case  # a product state when atoms is 0, else a mixture
    grid = make_grid(d, n, 2 * np.pi)
    rng = np.random.default_rng(seed)
    if atoms:
        mix = random_mixture(grid, atoms, rng, max_mode=n // 2 - 1)
        state = mixture_state(mix, K)
    else:
        phi = random_low_mode_field(grid, 1, rng, max_mode=n // 2 - 1)
        state = factorized_state(phi, K)
    assert max(admissibility_defect(state)) < 1e-12
    for gamma in state.entries:
        assert psd_defect(gamma) < 1e-10


@FEW
@given(grid_case=st.sampled_from([(1, 4), (1, 8), (2, 4), (3, 4)]),
       L=st.floats(0.1, 100.0), rank=st.sampled_from([1, 2]),
       flags=st.sampled_from([0, 1]), seed=SEEDS)
def test_field_file_round_trip_is_bit_exact(grid_case, L, rank, flags, seed):
    d, n = grid_case
    grid = make_grid(d, n, L)
    rng = np.random.default_rng(seed)
    shape = grid.slot_shape(rank)
    f = Field(grid, rank, rng.standard_normal(shape)
              + 1j * rng.standard_normal(shape))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.hlab"
        write_field(path, f, flags)
        back, back_flags = read_field(path)
    assert back_flags == flags
    assert back.grid == grid and back.rank == rank
    assert back.data.tobytes() == f.data.tobytes()


@FEW
@given(grid_case=st.sampled_from([(1, 4), (1, 8), (2, 4), (3, 4)]),
       atoms=st.integers(1, 4), seed=SEEDS)
def test_mixture_manifest_round_trip_is_exact(grid_case, atoms, seed):
    d, n = grid_case
    grid = make_grid(d, n, 2 * np.pi)
    mix = random_mixture(grid, atoms, np.random.default_rng(seed),
                         max_mode=n // 2 - 1)
    with tempfile.TemporaryDirectory() as tmp:
        back = read_mixture(write_mixture(tmp, mix))
    assert [w for w, _ in back.atoms] == [w for w, _ in mix.atoms]
    for (_, a), (_, b) in zip(back.atoms, mix.atoms):
        assert a.grid == b.grid and a.rank == b.rank
        assert a.data.tobytes() == b.data.tobytes()
