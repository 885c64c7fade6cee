"""Entry points reject a bad value with a ValueError that names it, before
they compute with it."""

import math

import numpy as np
import pytest

from hierlab.cli import main
from hierlab.grid import make_grid, random_low_mode_field, sobolev_norm_field
from hierlab.interactions import bump_profile, gaussian_profile
from hierlab.marginals import (factorized_state, hierarchy_norm, sobolev_norm,
                               trace_sobolev_norm)
from hierlab.nbody import factorized_state as nbody_factorized_state

G8 = make_grid(1, 8)
PHI = random_low_mode_field(G8, 1, np.random.default_rng(0), max_mode=2)
STATE = factorized_state(PHI, 2)

PROBES = {
    "grid-L-nan": (lambda: make_grid(1, 8, math.nan), "L must"),
    "grid-L-inf": (lambda: make_grid(1, 8, math.inf), "L must"),
    "gaussian-width-0": (lambda: gaussian_profile(G8, 0.0), "width"),
    "gaussian-width-nan": (lambda: gaussian_profile(G8, math.nan), "width"),
    "bump-width-negative": (lambda: bump_profile(G8, -0.5), "width"),
    "bump-width-inf": (lambda: bump_profile(G8, math.inf), "width"),
    "nbody-N-0": (lambda: nbody_factorized_state(PHI, 0), "big_n"),
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
}


@pytest.mark.parametrize("call,names", PROBES.values(), ids=PROBES.keys())
def test_entry_point_rejects_bad_value(call, names):
    with pytest.raises(ValueError, match=names):
        call()


@pytest.mark.parametrize("argv,names", [
    (["collision-limit", "--profile-width", "0"], "width"),
    (["simulate-bbgky", "--box-length", "nan"], "L must"),
], ids=["profile-width-0", "box-length-nan"])
def test_cli_rejects_bad_value_before_writing(tmp_path, argv, names):
    with pytest.raises(ValueError, match=names):
        main(argv + ["--n", "8", "--dt", "2e-3", "--t-final", "0.004",
                     "--outdir", str(tmp_path)])
    assert list(tmp_path.iterdir()) == []
