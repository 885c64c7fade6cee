"""Binary persistence for fields and marginal kernels.

Layout: magic "HLAB", version u32, dim u32, n u32, L f64, rank u32, one flag
byte, then the row-major tensor as interleaved real/imag little-endian f8.
Flag bit 0 marks a marginal kernel whose rank-2k slots split into k unprimed
then k primed.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .definetti import Mixture
from .grid import Field, GridSpec, make_grid

MAGIC = b"HLAB"
VERSION = 1
FLAG_MARGINAL_SPLIT = 0x01

_HEADER = struct.Struct("<4sIIIdIB")


def write_field(path: str | Path, f: Field, flags: int = 0) -> None:
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, f.grid.dim, f.grid.n, f.grid.L,
                              f.rank, flags))
        # the array's own bytes: no copy unless the layout or dtype differs
        fh.write(memoryview(np.ascontiguousarray(f.data, dtype="<c16")).cast("B"))


def read_field(path: str | Path) -> tuple[Field, int]:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path} is shorter than the HLAB header")
    magic, version, dim, n, L, rank, flags = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise ValueError(f"{path} is not a HLAB tensor file")
    if version != VERSION:
        raise ValueError(f"unsupported HLAB version {version}")
    count = n ** (dim * rank)  # entries of 16 bytes ("<c16")
    if len(raw) != _HEADER.size + 16 * count:
        raise ValueError(f"{path} has {len(raw)} bytes, not the header's "
                         f"{_HEADER.size} plus {count} complex entries")
    grid = make_grid(dim, n, L)
    data = np.frombuffer(raw, dtype="<c16", count=count, offset=_HEADER.size)
    return Field(grid, rank, data.astype(np.complex128)), flags


def write_marginal(path: str | Path, grid: GridSpec, k: int, kernel: np.ndarray) -> None:
    write_field(path, Field(grid, 2 * k, kernel), flags=FLAG_MARGINAL_SPLIT)


def read_marginal(path: str | Path) -> tuple[GridSpec, int, np.ndarray]:
    f, flags = read_field(path)
    if not flags & FLAG_MARGINAL_SPLIT:
        raise ValueError(f"{path} does not carry the marginal split flag")
    if f.rank % 2 != 0:
        raise ValueError(f"{path} has odd rank {f.rank}, not a marginal kernel")
    return f.grid, f.rank // 2, f.data


def write_mixture(directory: str | Path, mixture: Mixture, stem: str = "mixture") -> Path:
    """Persist a mixture as one JSON manifest (weights, support flag, atom
    file names) plus one field file per atom.  Returns the manifest path.
    The support flag is always "sphere": a mixture's atoms have unit norm."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for i, (_, phi) in enumerate(mixture):
        name = f"{stem}_atom{i:03d}.hlab"
        write_field(directory / name, phi)
        names.append(name)
    manifest = {
        "weights": [float(w) for w, _ in mixture],
        "support": "sphere",
        "atoms": names,
    }
    path = directory / f"{stem}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def read_mixture(manifest_path: str | Path) -> Mixture:
    """Load a mixture written by write_mixture; an atom whose norm is not one
    (a legacy "ball" manifest), or a manifest that does not list one weight
    per atom file, raises ValueError."""
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    weights, names = manifest.get("weights"), manifest.get("atoms")
    if weights is None or names is None or len(weights) != len(names):
        raise ValueError(f"{manifest_path} must list one weight per atom file")
    atoms = []
    for w, name in zip(weights, names):
        phi, _ = read_field(manifest_path.parent / name)
        atoms.append((float(w), phi))
    return Mixture(atoms)
