import numpy as np
import pytest

from hierlab.grid import (Field, apply_axes, bessel_multiply, dft_forward,
                          dft_inverse, flow_matrix, free_propagate, inner,
                          l2_norm, make_grid, normalized, place_axes,
                          random_low_mode_field, reflect, sobolev_norm_field,
                          step_count, stored_steps)


def plane_wave(grid, mode=1):
    x = grid.points
    return Field(grid, 1, np.exp(1j * (2 * np.pi * mode / grid.L) * x))


def test_make_grid_mesh():
    g = make_grid(1, 8, 2 * np.pi)
    assert g.h == pytest.approx(np.pi / 4)
    assert g.h * g.n == pytest.approx(g.L)


def test_make_grid_dft_layout():
    g = make_grid(2, 4, 1.0)
    assert g.num_points == 16
    assert set(np.round(g.frequencies, 10)) == {0.0, round(2 * np.pi, 10),
                                                round(-4 * np.pi, 10),
                                                round(-2 * np.pi, 10)}


@pytest.mark.parametrize("dim,n,L", [(1, 7, 1.0), (1, 2, 1.0), (1, 8, -1.0),
                                     (4, 8, 1.0)])
def test_make_grid_rejects(dim, n, L):
    with pytest.raises(ValueError):
        make_grid(dim, n, L)


def test_dft_constant_concentrates_at_zero():
    g = make_grid(1, 8, 2 * np.pi)
    f = Field(g, 1, np.ones(8))
    spec = dft_forward(f).data
    assert abs(spec[0]) > 1e-12
    assert np.max(np.abs(spec[1:])) < 1e-12


def test_dft_roundtrip_random():
    g = make_grid(2, 8, 2 * np.pi)
    rng = np.random.default_rng(0)
    f = random_low_mode_field(g, 1, rng)
    back = dft_inverse(dft_forward(f))
    assert np.max(np.abs(back.data - f.data)) < 1e-12


def test_dft_single_mode():
    g = make_grid(1, 16, 2 * np.pi)
    spec = dft_forward(plane_wave(g)).data
    mask = np.zeros(16, dtype=bool)
    mask[1] = True
    assert np.all(np.abs(spec[~mask]) < 1e-10)
    assert abs(spec[1]) > 1.0


def test_parseval():
    g = make_grid(1, 16, 2 * np.pi)
    rng = np.random.default_rng(1)
    f = random_low_mode_field(g, 2, rng, unit_norm=False)
    spatial = g.h**2 * np.sum(np.abs(f.data) ** 2)
    spectral = np.sum(np.abs(dft_forward(f).data) ** 2) / g.L**2
    assert spatial == pytest.approx(spectral, rel=1e-12)


def test_bessel_constant_unchanged():
    g = make_grid(1, 8, 2 * np.pi)
    f = Field(g, 1, np.full(8, 2.0 + 1.0j))
    for alpha in (0.0, 1.0, 2.0):
        out = bessel_multiply(f, alpha)
        assert np.max(np.abs(out.data - f.data)) < 1e-12


def test_bessel_plane_wave_alpha2():
    g = make_grid(1, 16, 2 * np.pi)
    f = plane_wave(g)
    out = bessel_multiply(f, 2.0)
    assert np.max(np.abs(out.data - 2.0 * f.data)) < 1e-10


@pytest.mark.parametrize("alpha,slots", [(0.0, None), (1.0, [])],
                         ids=["alpha-zero", "no-slot"])
def test_bessel_identity_returns_a_copy(alpha, slots):
    g = make_grid(1, 8, 2 * np.pi)
    rng = np.random.default_rng(2)
    f = random_low_mode_field(g, 1, rng)
    out = bessel_multiply(f, alpha, slots)
    assert np.array_equal(out.data, f.data)
    assert not np.shares_memory(out.data, f.data)


def test_bessel_rejects_negative_alpha():
    g = make_grid(1, 8, 2 * np.pi)
    with pytest.raises(ValueError):
        bessel_multiply(Field(g, 1, np.zeros(g.n)), -1.0)


def test_free_propagate_t0_identity():
    g = make_grid(1, 8, 2 * np.pi)
    rng = np.random.default_rng(3)
    f = random_low_mode_field(g, 1, rng)
    assert np.max(np.abs(free_propagate(f, 0.0).data - f.data)) == 0.0


def test_free_propagate_plane_wave_phase():
    g = make_grid(1, 16, 2 * np.pi)
    f = plane_wave(g)
    out = free_propagate(f, 1.0, [1])
    assert np.max(np.abs(out.data - np.exp(-1j) * f.data)) < 1e-12


def test_free_propagate_group_law_and_inverse():
    g = make_grid(1, 16, 2 * np.pi)
    rng = np.random.default_rng(4)
    f = random_low_mode_field(g, 2, rng)
    fwd = free_propagate(free_propagate(f, 0.3, [1, -1]), -0.3, [1, -1])
    assert np.max(np.abs(fwd.data - f.data)) < 1e-12
    ab = free_propagate(free_propagate(f, 0.2), 0.1)
    once = free_propagate(f, 0.3)
    assert np.max(np.abs(ab.data - once.data)) / l2_norm(f) < 1e-10


def test_free_propagate_preserves_l2():
    g = make_grid(1, 16, 2 * np.pi)
    rng = np.random.default_rng(5)
    f = random_low_mode_field(g, 1, rng)
    assert l2_norm(free_propagate(f, 0.7)) == pytest.approx(1.0, abs=1e-12)


def test_free_propagate_commutes_with_bessel():
    g = make_grid(1, 16, 2 * np.pi)
    rng = np.random.default_rng(6)
    f = random_low_mode_field(g, 1, rng)
    a = free_propagate(bessel_multiply(f, 1.0), 0.4)
    b = bessel_multiply(free_propagate(f, 0.4), 1.0)
    assert np.max(np.abs(a.data - b.data)) < 1e-12


def test_sobolev_field_norm_plane_wave():
    g = make_grid(1, 16, 2 * np.pi)
    f = normalized(plane_wave(g))
    assert sobolev_norm_field(f, 1.0) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_inner_and_norm_consistency():
    g = make_grid(1, 8, 2 * np.pi)
    rng = np.random.default_rng(7)
    f = random_low_mode_field(g, 1, rng, unit_norm=False)
    assert l2_norm(f) ** 2 == pytest.approx(inner(f, f).real, rel=1e-12)


# -- free flow as per-axis matrices ------------------------------------------------


@pytest.mark.parametrize("n", [4, 16, 128])
def test_flow_matrix_unitary_group(n):
    g = make_grid(1, n, 2 * np.pi)
    eye = np.eye(n)
    for t, s in [(0.3, -0.7), (-1.25, 0.05), (2.0, 2.0)]:
        m = flow_matrix(g, t)
        assert np.max(np.abs(m @ m.conj().T - eye)) <= 1e-13
        assert np.max(np.abs(m @ flow_matrix(g, s) - flow_matrix(g, t + s))) <= 1e-13


# (dim, n, signs), mixed signs in every dimension
FLOW_CASES = [(1, 8, [1, -1, -1, 1]), (2, 8, [1, -1]), (3, 8, [-1, 1]),
              (1, 128, [1, -1])]


@pytest.mark.parametrize("dim,n,signs", FLOW_CASES,
                         ids=[f"d{d}n{n}r{len(s)}" for d, n, s in FLOW_CASES])
def test_free_propagate_matches_fft_phases(dim, n, signs):
    g = make_grid(dim, n, 2 * np.pi)
    rng = np.random.default_rng(dim * 1000 + n)
    shape = g.slot_shape(len(signs))
    f = Field(g, len(signs), rng.standard_normal(shape)
              + 1j * rng.standard_normal(shape))
    t = 0.37
    ref = f.data
    for slot, s in enumerate(signs):  # the phase in each slot's spectrum
        axes = g.slot_axes(slot)
        phase = place_axes(np.exp(-1j * s * t * g.k2), axes, ref.ndim)
        ref = np.fft.ifftn(phase * np.fft.fftn(ref, axes=axes), axes=axes)
    got = free_propagate(f, t, signs).data
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_apply_axes_needs_one_matrix_per_axis():
    g = make_grid(2, 4, 1.0)
    with pytest.raises(ValueError):
        apply_axes(np.zeros(g.slot_shape(1)), [flow_matrix(g, 0.1)])


def test_step_count():
    assert step_count(0.1, 1e-3) == 100
    assert step_count(0.0, 0.5) == 0
    assert step_count(0.3, 0.1) == 3  # 0.3 / 0.1 is 2.9999999999999996
    for t, dt in [(-0.1, 1e-3), (0.15, 0.1), (0.1, 0.0), (0.1, -1e-3)]:
        with pytest.raises(ValueError):
            step_count(t, dt)


def test_stored_steps():
    assert stored_steps(0, 0) == [0]
    assert stored_steps(0, 2) == [0]
    assert stored_steps(5, 0) == [0, 5]
    assert stored_steps(5, 1) == [0, 1, 2, 3, 4, 5]
    assert stored_steps(5, 2) == [0, 2, 4, 5]
    assert stored_steps(5, 7) == [0, 5]
    for bad in (-1, 1.5):
        with pytest.raises(ValueError):
            stored_steps(5, bad)


def test_flow_matrix_is_built_once_and_read_only():
    g = make_grid(1, 8, 3.0)
    mat = flow_matrix(g, 0.01)
    assert flow_matrix(g, 0.01) is mat
    with pytest.raises(ValueError):
        mat[0, 0] = 0.0


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_free_propagate_rejects_a_non_finite_time_before_a_matrix_is_cached(t):
    g = make_grid(1, 8, 3.0)
    phi = random_low_mode_field(g, 1, np.random.default_rng(44))
    flow_matrix.cache_clear()
    with pytest.raises(ValueError, match="t must be finite"):
        free_propagate(phi, t)
    assert flow_matrix.cache_info().currsize == 0


@pytest.mark.parametrize("dim,n,L,rank", [(1, 16, 2 * np.pi, 4), (2, 8, 3.0, 2)])
def test_dft_inverse_scaling_is_bitwise_the_division(dim, n, L, rank):
    # the product by 1/h^(d*rank) rounds as numpy's division by h^(d*rank)
    # does on every nonzero entry; spectra spanning 1e-20..1e20
    g = make_grid(dim, n, L)
    rng = np.random.default_rng(43)
    shape = g.slot_shape(rank)
    re, im = (10.0 ** rng.uniform(-20, 20, shape) * rng.choice([-1.0, 1.0], shape)
              for _ in range(2))
    spec = re + 1j * im
    want = np.fft.ifftn(spec) / g.h ** (dim * rank)
    got = dft_inverse(Field(g, rank, spec)).data
    assert np.count_nonzero(want) == want.size
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("dim,n", [(1, 8), (2, 4), (3, 4)])
def test_reflect_reads_minus_j_mod_n_and_is_an_involution(dim, n):
    # a rank-2 field, reflected on the first slot's axes, then on all axes
    g = make_grid(dim, n)
    rng = np.random.default_rng(47)
    data = rng.standard_normal(g.slot_shape(2)) \
        + 1j * rng.standard_normal(g.slot_shape(2))
    for axes in (range(dim), range(2 * dim)):
        idx = np.indices(data.shape)
        for ax in axes:
            idx[ax] = -idx[ax] % n
        got = reflect(data, axes)
        assert np.array_equal(got, data[tuple(idx)])
        assert np.array_equal(reflect(got, axes), data)
