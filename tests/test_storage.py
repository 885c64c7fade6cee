import json
import tracemalloc

import numpy as np
import pytest

from hierlab.grid import Field, make_grid, random_low_mode_field
from hierlab.marginals import pure_product_marginal
from hierlab.storage import (FLAG_MARGINAL_SPLIT, read_field, read_marginal,
                             write_field, write_marginal)


def test_field_roundtrip(tmp_path):
    g = make_grid(2, 4, 2 * np.pi)
    rng = np.random.default_rng(0)
    f = random_low_mode_field(g, 2, rng, unit_norm=False)
    path = tmp_path / "field.hlab"
    write_field(path, f)
    back, flags = read_field(path)
    assert flags == 0
    assert back.grid == g
    assert back.rank == 2
    assert np.array_equal(back.data, f.data)


def test_header_magic_checked(tmp_path):
    path = tmp_path / "bogus.hlab"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(ValueError):
        read_field(path)


@pytest.mark.parametrize("damage", ["short_header", "short_payload",
                                    "trailing_bytes"])
def test_file_size_checked_against_header(tmp_path, damage):
    g = make_grid(1, 8, 2 * np.pi)
    path = tmp_path / "damaged.hlab"
    write_field(path, random_low_mode_field(g, 2, np.random.default_rng(3)))
    raw = path.read_bytes()
    path.write_bytes({"short_header": raw[:20],
                      "short_payload": raw[:-16],
                      "trailing_bytes": raw + bytes(1)}[damage])
    with pytest.raises(ValueError, match="damaged.hlab"):
        read_field(path)


def test_marginal_roundtrip_carries_split_flag(tmp_path):
    g = make_grid(1, 8, 2 * np.pi)
    rng = np.random.default_rng(1)
    phi = random_low_mode_field(g, 1, rng)
    gamma = pure_product_marginal(phi, 2)
    path = tmp_path / "gamma.hlab"
    write_marginal(path, g, 2, gamma.kernel)
    grid2, k, kernel = read_marginal(path)
    assert grid2 == g and k == 2
    assert np.array_equal(kernel, gamma.kernel)
    _, flags = read_field(path)
    assert flags & FLAG_MARGINAL_SPLIT


def test_plain_field_rejected_as_marginal(tmp_path):
    g = make_grid(1, 8, 2 * np.pi)
    rng = np.random.default_rng(2)
    f = random_low_mode_field(g, 2, rng)
    path = tmp_path / "plain.hlab"
    write_field(path, f)
    with pytest.raises(ValueError):
        read_marginal(path)


def test_mixture_roundtrip(tmp_path):
    from hierlab.definetti import random_mixture
    from hierlab.storage import read_mixture, write_mixture
    g = make_grid(1, 8, 2 * np.pi)
    mix = random_mixture(g, 3, np.random.default_rng(5))
    manifest = write_mixture(tmp_path, mix, stem="mx")
    back = read_mixture(manifest)
    for (w0, a0), (w1, a1) in zip(mix.atoms, back.atoms):
        assert w0 == pytest.approx(w1)
        assert np.array_equal(a0.data, a1.data)


def test_legacy_ball_manifest_is_rejected(tmp_path):
    from hierlab.storage import read_mixture
    g = make_grid(1, 8, 2 * np.pi)
    phi = random_low_mode_field(g, 1, np.random.default_rng(5))
    write_field(tmp_path / "mx_atom000.hlab", Field(g, 1, 0.5 * phi.data))
    manifest = tmp_path / "mx.json"
    manifest.write_text(json.dumps({"weights": [1.0], "support": "ball",
                                    "atoms": ["mx_atom000.hlab"]}))
    with pytest.raises(ValueError, match="atom has norm"):
        read_mixture(manifest)


@pytest.mark.parametrize("weights", [[0.5, 0.5], None],
                         ids=["two-weights-three-atoms", "no-weights"])
def test_manifest_without_one_weight_per_atom_is_rejected(tmp_path, weights):
    from hierlab.definetti import random_mixture
    from hierlab.storage import read_mixture, write_mixture
    g = make_grid(1, 8, 2 * np.pi)
    manifest = write_mixture(tmp_path, random_mixture(
        g, 3, np.random.default_rng(5)), stem="mx")
    fields = json.loads(manifest.read_text())
    if weights is None:
        del fields["weights"]
    else:  # a probability vector, so only the pairing can reject it
        fields["weights"] = weights
    manifest.write_text(json.dumps(fields))
    with pytest.raises(ValueError, match="mx.json"):
        read_mixture(manifest)


def test_read_field_copies_the_payload_once(tmp_path):
    g = make_grid(1, 16, 2 * np.pi)
    f = random_low_mode_field(g, 4, np.random.default_rng(5), unit_norm=False)
    path = tmp_path / "rank4.hlab"
    write_field(path, f)
    payload = 16 * f.data.size
    tracemalloc.start()
    try:
        back, _ = read_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file's bytes plus one decoded copy
    assert peak <= 2.1 * payload
    assert back.data.flags.writeable
    assert np.array_equal(back.data, f.data)


def test_write_field_writes_the_payload_without_copies(tmp_path):
    g = make_grid(1, 16, 2 * np.pi)
    f = random_low_mode_field(g, 4, np.random.default_rng(6), unit_norm=False)
    path = tmp_path / "rank4.hlab"
    payload = 16 * f.data.size
    tracemalloc.start()
    try:
        write_field(path, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file gets the array's own bytes: no decoded or bytes copy
    assert peak <= 0.1 * payload
    back, _ = read_field(path)
    assert np.array_equal(back.data, f.data)
    raw = path.read_bytes()
    assert raw[-payload:] == f.data.astype("<c16").tobytes()
