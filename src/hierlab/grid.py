"""Periodic-torus spectral toolkit.

Conventions used by every other module:

* The domain is the torus [0, L)^d sampled on n points per axis, mesh h = L/n.
  Every integral is the quadrature h^d * sum over grid points; every norm
  inherits that weight.
* Angular frequencies are 2*pi*m/L for m in the usual DFT layout
  (0, 1, ..., n/2-1, -n/2, ..., -1), so the symbol of (1 - Laplacian)^(a/2)
  is exactly (1 + |xi|^2)^(a/2) on resolved modes.
* The forward transform is h^(d*r) * fftn and the inverse is its exact
  inverse, which makes Parseval hold in the form
  h^(d*r) * sum |f|^2 == L^(-d*r) * sum |fhat|^2.
* This module owns every transform.  Its n-d transforms all go through
  one unscaled pair, _fftn and _ifftn, which write into one output buffer.
  The exact free flow exp(-i t sum_s sign_s |xi_s|^2) is one n x n unitary
  per axis, M(t) = F^-1 diag(exp(-i t xi^2)) F (M(-t) on a slot of sign -1),
  which free_propagate alone applies by one matrix product per axis
  (flow_matrix, apply_axes).  Generators (apply_symbol), multipliers and the
  spectral series stay on the FFT; order-alpha norms are Parseval sums on
  the forward spectrum (spectral_norm).  Only realize_potential and the
  momentum-domain collision oracle (kept independent) call numpy's FFT
  outside this module.

A Field is a complex tensor with ``rank`` particle slots; slot j owns the d
consecutive axes [j*d, (j+1)*d).  Flattened in row-major order this is indexed
by (slot 1 point, ..., slot r point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .budget import default_budget


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the periodic box [0, L)^d with n points per axis."""

    dim: int
    n: int
    L: float

    @property
    def h(self) -> float:
        return self.L / self.n

    @property
    def num_points(self) -> int:
        """Points of one particle slot, n^d."""
        return self.n**self.dim

    @cached_property
    def points(self) -> np.ndarray:
        """1d coordinate array along one axis."""
        return self.h * np.arange(self.n)

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Angular frequencies along one axis, DFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    @cached_property
    def k2(self) -> np.ndarray:
        """|xi|^2 on one slot, shape (n,)*dim."""
        mats = np.meshgrid(*([self.frequencies**2] * self.dim), indexing="ij")
        return sum(mats)

    def slot_axes(self, slot: int) -> tuple[int, ...]:
        return tuple(range(slot * self.dim, (slot + 1) * self.dim))

    def slot_shape(self, rank: int) -> tuple[int, ...]:
        return (self.n,) * (self.dim * rank)


def _check_positive(name: str, value: float) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is positive
    and finite."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_count(name: str, value: int, least: int) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is an integer
    >= ``least`` (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_open_unit(name: str, value: float) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` lies in the
    open interval (0, 1), as a level weight xi must."""
    if not 0 < value < 1:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


def _check_order(alpha: float) -> None:
    """Raise a ``ValueError`` naming alpha unless the order ``alpha`` is
    finite and nonnegative."""
    if not (np.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha}")


def _check_finite(name: str, data: np.ndarray) -> None:
    """Raise a ``ValueError`` naming ``name`` unless every entry of ``data``
    is finite."""
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{name} must be finite")


def check_same_grid(**operands) -> None:
    """Raise a ``ValueError`` naming two of ``operands`` (each anything with
    a ``grid``, by keyword) and their grids unless all share one grid."""
    (first, a), *rest = operands.items()
    for name, b in rest:
        if b.grid != a.grid:
            raise ValueError(f"{first} and {name} live on different grids: "
                             f"{a.grid} and {b.grid}")


def make_grid(dim: int, n: int, L: float = 2.0 * np.pi) -> GridSpec:
    _check_count("dim", dim, 1)
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    _check_count("n", n, 4)
    if n % 2 != 0:
        raise ValueError(f"n must be even and >= 4, got {n}")
    _check_positive("L", L)
    return GridSpec(dim=dim, n=int(n), L=float(L))


@dataclass
class Field:
    """Complex tensor over ``rank`` particle slots of a common grid."""

    grid: GridSpec
    rank: int
    data: np.ndarray

    def __post_init__(self):
        expected = self.grid.slot_shape(self.rank)
        if self.data.shape != expected:
            if self.data.size == np.prod(expected, dtype=int):
                self.data = self.data.reshape(expected)
            else:
                raise ValueError(
                    f"data has {self.data.size} entries, rank {self.rank} needs "
                    f"{np.prod(expected, dtype=int)}"
                )
        if self.data.dtype != np.complex128:
            self.data = self.data.astype(np.complex128)

    def copy(self) -> "Field":
        return Field(self.grid, self.rank, self.data.copy())


# ---------------------------------------------------------------------------
# Transforms and Fourier multipliers


def _fftn(data: np.ndarray, axes: Sequence[int] | None = None,
          out: np.ndarray | None = None) -> np.ndarray:
    """Unscaled n-d DFT over ``axes`` (default: all), written into ``out``,
    which may be ``data``, or into one new array: pocketfft then keeps no
    copy beside it."""
    if out is None:
        out = np.empty(data.shape, complex)
    return np.fft.fftn(data, axes=axes, out=out)


def _ifftn(data: np.ndarray, axes: Sequence[int] | None = None,
           out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of _fftn (1/size included), written into ``out``, which may
    be ``data``, or into one new array."""
    if out is None:
        out = np.empty(data.shape, complex)
    return np.fft.ifftn(data, axes=axes, out=out)


def dft_forward(f: Field, out: np.ndarray | None = None) -> Field:
    """Quadrature-weighted DFT over all slots (h^(d*rank) * fftn), into
    ``out`` (which may be f.data) or one new array.  Both transforms work
    in one output buffer, so they hold one tensor beyond their input; in
    place the spectrum has the same bits."""
    spec = _fftn(f.data, out=out)
    spec *= f.grid.h ** (f.grid.dim * f.rank)
    return Field(f.grid, f.rank, spec)


def dft_inverse(f: Field, out: np.ndarray | None = None) -> Field:
    """Inverse of dft_forward, into ``out`` (which may be f.data) or one new
    array."""
    data = _ifftn(f.data, out=out)
    # numpy divides by s + 0j as (re + im*0) * (1/s): this product gives the
    # same bits on every nonzero entry, at a fifth of the division's cost
    data *= 1.0 / f.grid.h ** (f.grid.dim * f.rank)
    return Field(f.grid, f.rank, data)


def place_axes(values: np.ndarray, axes: Sequence[int], ndim: int) -> np.ndarray:
    """Reshape ``values`` so that its axes land on the increasing ``axes`` of
    an ndim-tensor, size 1 everywhere else; the result broadcasts against that
    tensor.  Slot forms pass GridSpec.slot_axes (concatenated for a pair)."""
    if len(axes) != values.ndim or list(axes) != sorted(set(axes)):
        raise ValueError(f"need {values.ndim} increasing axes, got {axes}")
    shape = [1] * ndim
    for ax, size in zip(axes, values.shape):
        shape[ax] = size
    return values.reshape(shape)


def apply_symbol(f: Field, symbol: np.ndarray) -> Field:
    """Multiply the spectrum over all slots by a full-rank symbol, e.g. a
    generator's additive symbol from free_symbol: ifftn(symbol * fftn(f)),
    transformed in one output buffer."""
    spec = _fftn(f.data)
    spec *= symbol
    return Field(f.grid, f.rank, _ifftn(spec, out=spec))


def bessel_multiply(f: Field, alpha: float, slots: Iterable[int] | None = None) -> Field:
    """Apply (1 - Laplacian)^(alpha/2) on the selected slots (default: all),
    transformed over their axes in one output buffer."""
    _check_order(alpha)
    chosen = sorted(range(f.rank) if slots is None else set(slots))
    if not set(chosen) <= set(range(f.rank)):
        raise ValueError(f"slots must lie in 0..{f.rank - 1}, got {chosen}")
    if alpha == 0 or not chosen:
        return f.copy()
    sym = (1.0 + f.grid.k2) ** (alpha / 2.0)
    axes = [ax for s in chosen for ax in f.grid.slot_axes(s)]
    spec = _fftn(f.data, axes)
    for s in chosen:
        spec *= place_axes(sym, f.grid.slot_axes(s), f.data.ndim)
    return Field(f.grid, f.rank, _ifftn(spec, axes, out=spec))


@lru_cache(maxsize=8)
def flow_matrix(grid: GridSpec, t: float) -> np.ndarray:
    """The free flow along one axis as an n x n unitary,
    M(t) = F^-1 diag(exp(-i*t*xi^2)) F.  It is circulant: column b is the
    inverse DFT of the phase, shifted by b.  A time loop asks for the same
    few (grid, t) at every step, so each is built once and shared,
    read-only."""
    column = np.fft.ifft(np.exp(-1j * t * grid.frequencies**2))
    idx = np.arange(grid.n)
    mat = column[(idx[:, None] - idx[None, :]) % grid.n]
    mat.flags.writeable = False
    return mat


def apply_axes(data: np.ndarray, mats: Sequence[np.ndarray],
               scratch: np.ndarray | None = None) -> np.ndarray:
    """Apply mats[i] along axis i of ``data``, one GEMM per axis.  Each pass
    contracts the leading axis and moves it to the end, so after data.ndim
    passes the axes are back in their original order.

    The passes alternate between two C-contiguous complex buffers of data's
    size (mats are square).  With ``scratch`` the two are scratch and
    ``data``, which is overwritten, and the result is a view of whichever
    the last pass wrote (scratch when data.ndim is odd).  Without it both
    are new arrays and ``data`` is left alone.

    A pass costs n complex multiply-adds per entry against the FFT's ~log n,
    but BLAS runs them near peak speed without pocketfft's per-axis overhead,
    so it beats fftn -> phase -> ifftn on short axes.  The FFT round trip
    wins on long ones: for a rank-2 field in d = 1 on a 2-vCPU Xeon
    (OpenBLAS 0.3.31) the crossover lay between n = 128 and n = 256."""
    if len(mats) != data.ndim:
        raise ValueError(f"need one matrix per axis ({data.ndim}), got {len(mats)}")
    if scratch is not None:
        bufs = (scratch, data)
    else:
        bufs = tuple(np.empty(data.shape, complex)
                     for _ in range(min(data.ndim, 2)))
    out = data
    for i, mat in enumerate(mats):
        lhs = out.reshape(mat.shape[1], -1).T
        out = np.matmul(lhs, mat.T, out=bufs[i % 2].reshape(-1, mat.shape[0]))
    return out.reshape(data.shape)


def step_count(t: float, dt: float) -> int:
    """Number of dt steps in t; dt must be positive and t a nonnegative
    multiple of dt (to 1e-9 relative)."""
    if not (np.isfinite(t) and np.isfinite(dt)):
        raise ValueError(f"t={t} and dt={dt} must be finite")
    _check_positive("dt", dt)
    n_steps = int(round(t / dt))
    if t < 0 or abs(n_steps * dt - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"t={t} is not a nonnegative multiple of dt={dt}")
    return n_steps


def stored_steps(n_steps: int, store_every: int) -> list[int]:
    """Steps a time loop of n_steps steps stores: step 0, every
    store_every-th step and the last; store_every = 0 keeps only the ends."""
    _check_count("store_every", store_every, 0)
    return [s for s in range(n_steps + 1)
            if s in (0, n_steps) or (store_every and s % store_every == 0)]


def free_propagate(f: Field, t: float, signs: Sequence[int] | None = None,
                   scratch: np.ndarray | None = None) -> Field:
    """Free Schroedinger flow, slot spectrum times exp(-i*sign*t*|xi|^2).

    sign +1 is exp(i*t*Laplacian); -1 its inverse.  Default is +1 on every
    slot.  With ``scratch`` (an array like f.data) the flow works in f.data
    and scratch, overwriting f, and the result lives in one of the two
    (apply_axes); without it f is left alone.  A non-finite t raises before
    a flow matrix is built (and cached).
    """
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t == 0:
        return f if scratch is not None else f.copy()
    if signs is None:
        signs = [1] * f.rank
    if len(signs) != f.rank:
        raise ValueError("one sign per slot required")
    by_sign = {s: flow_matrix(f.grid, s * t) for s in set(signs)}
    mats = [by_sign[s] for s in signs for _ in range(f.grid.dim)]
    return Field(f.grid, f.rank, apply_axes(f.data, mats, scratch))


def free_symbol(grid: GridSpec, signs: Sequence[int]) -> np.ndarray:
    """Additive symbol sum_s sign_s * |xi_s|^2 over the slots, full-rank shape:
    free_propagate(f, t, signs) multiplies the spectrum by exp(-i*t*symbol)."""
    rank = len(signs)
    symbol = np.zeros(grid.slot_shape(rank))
    for slot, sign in enumerate(signs):
        symbol += sign * place_axes(grid.k2, grid.slot_axes(slot), symbol.ndim)
    return symbol


def sobolev_weight(grid: GridSpec, rank: int, alpha: float) -> np.ndarray:
    """Parseval weight of the H^alpha norm on dft_forward spectra
    (spectral_norm), prod_s (1 + |xi_s|^2)^alpha / L^(d*rank)."""
    weight = np.full(grid.slot_shape(rank), grid.L ** (-grid.dim * rank))
    sym = (1.0 + grid.k2) ** alpha
    for slot in range(rank):
        weight = weight * place_axes(sym, grid.slot_axes(slot), weight.ndim)
    return weight


# ---------------------------------------------------------------------------
# Norms, inner products, random data


def l2_norm(f: Field) -> float:
    w = f.grid.h ** (f.grid.dim * f.rank)
    sq = np.abs(f.data)
    np.square(sq, out=sq)
    return float(np.sqrt(w * np.sum(sq)))


def inner(f: Field, g: Field) -> complex:
    check_same_grid(f=f, g=g)
    w = f.grid.h ** (f.grid.dim * f.rank)
    prod = np.conj(f.data)
    prod *= g.data
    return complex(w * np.sum(prod))


def spectral_norm(spec: np.ndarray, weight: np.ndarray) -> float:
    """sqrt(sum(weight * |spec|^2)), squared and weighted in place: with
    spec = dft_forward(f).data and weight = sobolev_weight(f.grid, f.rank,
    alpha) it is f's H^alpha norm, by Parseval."""
    sq = np.abs(spec)
    np.square(sq, out=sq)
    sq *= weight
    return math.sqrt(np.sum(sq))


def sobolev_norm_field(f: Field, alpha: float) -> float:
    """H^alpha norm of a field, the multiplier applied to every slot: a
    Parseval sum on its forward spectrum, and at order 0 the L2 norm,
    taken without a copy of the field."""
    _check_order(alpha)
    if alpha == 0:
        return l2_norm(f)
    return spectral_norm(dft_forward(f).data,
                         sobolev_weight(f.grid, f.rank, alpha))


def normalized(f: Field) -> Field:
    nrm = l2_norm(f)
    if nrm == 0:
        raise ValueError("cannot normalize the zero field")
    return Field(f.grid, f.rank, f.data / nrm)


def random_low_mode_field(grid: GridSpec, rank: int, rng: np.random.Generator,
                          max_mode: int | None = None,
                          unit_norm: bool = True) -> Field:
    """Seeded random field with spectrum supported on |m| <= max_mode per axis.

    Smooth by construction (Gaussian mode decay), so resolution studies are
    not starved by unresolved content.  Default max_mode is n//4.
    """
    _check_count("rank", rank, 1)
    if max_mode is None:
        max_mode = grid.n // 4
    _check_count("max_mode", max_mode, 0)
    if max_mode > grid.n // 2:
        raise ValueError(f"max_mode must lie in 0..{grid.n // 2} (n // 2), "
                         f"got {max_mode}")
    default_budget().check_elements(grid.num_points**rank, "random field")
    modes = np.fft.fftfreq(grid.n, d=1.0 / grid.n)  # integer mode numbers
    keep_1d = np.abs(modes) <= max_mode
    weight_1d = np.exp(-0.5 * (modes / max(max_mode, 1)) ** 2) * keep_1d
    full = np.ones(grid.slot_shape(rank))
    for ax in range(full.ndim):
        full = full * place_axes(weight_1d, (ax,), full.ndim)
    spec = rng.standard_normal(full.shape) + 1j * rng.standard_normal(full.shape)
    spec *= full
    f = Field(grid, rank, _ifftn(spec, out=spec))
    return normalized(f) if unit_norm else f
