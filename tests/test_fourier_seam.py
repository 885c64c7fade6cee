"""The Fourier seam: grid.py owns every transform.

Outside grid.py, numpy's FFT is called only by the potential's realization and
by the momentum-domain collision oracle, which must stay independent of the
paths it checks; only grid.py names the flow-matrix helpers.  Inside it, every
n-d transform goes through one forward and one inverse helper.  The generator
sites that go through grid.apply_symbol are checked against plane waves,
whose additive symbol sum_s sign_s |xi_s|^2 is known in closed form.
"""

import ast
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hierlab
from hierlab.grid import (Field, bessel_multiply, make_grid, place_axes,
                          random_low_mode_field)
from hierlab.marginals import Marginal, free_generator
from hierlab.nbody import NBodyState, hamiltonian_apply

from kernel_tools import zero_potential

SOURCE = Path(hierlab.__file__).resolve().parent
# (module file, top-level function) pairs that may call numpy's FFT directly
FFT_EXCEPTIONS = {("interactions.py", "realize_potential"),
                  ("interactions.py", "collision_fourier_oracle")}
GRID_ONLY = {"flow_matrix", "apply_axes"}


def _fft_calls(tree: ast.Module):
    """(enclosing top-level name, line) of every call of a ``*.fft.*``
    attribute, e.g. np.fft.fftn(...)."""
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "fft"):
                yield getattr(top, "name", None), node.lineno


def _names(tree: ast.Module):
    """Every identifier the module uses, imports or reads as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, getattr(node, "lineno", 0)


def test_only_grid_calls_numpy_fft_and_flow_matrices():
    outside_fft, grid_names = [], []
    modules = sorted(SOURCE.glob("*.py"))
    assert any(p.name == "grid.py" for p in modules)
    for path in modules:
        if path.name == "grid.py":
            continue
        tree = ast.parse(path.read_text())
        outside_fft += [f"{path.name}:{line} in {func}"
                        for func, line in _fft_calls(tree)
                        if (path.name, func) not in FFT_EXCEPTIONS]
        grid_names += [f"{path.name}:{line} names {name}"
                       for name, line in _names(tree) if name in GRID_ONLY]
    assert outside_fft == []
    assert grid_names == []


def test_grid_has_one_call_site_per_nd_transform():
    tree = ast.parse((SOURCE / "grid.py").read_text())
    sites = Counter(node.func.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "fft")
    assert sites["fftn"] == 1
    assert sites["ifftn"] == 1


def test_bessel_multiply_holds_about_one_field_beyond_its_input():
    g = make_grid(1, 16)
    f = random_low_mode_field(g, 4, np.random.default_rng(8))
    slots = range(4)  # every slot chosen
    bessel_multiply(f, 1.0, slots)  # warm numpy's FFT plan cache
    tracemalloc.start()
    try:
        out = bessel_multiply(f, 1.0, slots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result's buffer, which the inverse transform writes in place
    assert peak <= 1.2 * f.data.nbytes
    assert out.data.shape == f.data.shape


def plane_wave(grid, modes_per_slot):
    """prod over slots s and axes a of exp(i (2 pi m_sa / L) x_sa), with the
    |xi_s|^2 of each slot."""
    rank = len(modes_per_slot)
    data = np.ones(grid.slot_shape(rank), dtype=np.complex128)
    k2 = []
    for slot, modes in enumerate(modes_per_slot):
        xis = [2 * np.pi * m / grid.L for m in modes]
        for ax, xi in zip(grid.slot_axes(slot), xis):
            data = data * place_axes(np.exp(1j * xi * grid.points), (ax,),
                                     data.ndim)
        k2.append(sum(xi**2 for xi in xis))
    return Field(grid, rank, data), k2


def random_modes(rng, grid, rank):
    # |m| < n/2 keeps every mode resolved, so its frequency is exactly 2 pi m/L
    return [tuple(int(m) for m in rng.integers(-grid.n // 2 + 1, grid.n // 2,
                                               size=grid.dim))
            for _ in range(rank)]


def _assert_eigen(out: np.ndarray, wave: np.ndarray, eigenvalue: float):
    scale = max(1.0, abs(eigenvalue))
    assert np.max(np.abs(out - eigenvalue * wave)) < 1e-11 * scale


@pytest.mark.parametrize("dim,k", [(1, 1), (1, 2), (1, 3), (2, 1)])
def test_free_generator_on_plane_waves(dim, k):
    grid = make_grid(dim, 8, 2 * np.pi * 1.5)
    rng = np.random.default_rng(100 + 10 * dim + k)
    for _ in range(3):
        wave, k2 = plane_wave(grid, random_modes(rng, grid, 2 * k))
        gamma = Marginal(grid, k, wave.data)
        # S_k = sum |xi_j|^2 over the unprimed slots minus the primed ones
        _assert_eigen(free_generator(gamma).kernel, wave.data,
                      sum(k2[:k]) - sum(k2[k:]))


@pytest.mark.parametrize("dim,big_n", [(1, 3), (2, 2)])
def test_hamiltonian_kinetic_part_on_plane_waves(dim, big_n):
    grid = make_grid(dim, 8)
    rng = np.random.default_rng(200 + 10 * dim + big_n)
    for _ in range(3):
        wave, k2 = plane_wave(grid, random_modes(rng, grid, big_n))
        state = NBodyState(grid, big_n, wave, zero_potential(grid))
        _assert_eigen(hamiltonian_apply(state, wave).data, wave.data, sum(k2))

