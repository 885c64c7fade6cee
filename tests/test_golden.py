"""The eight experiments at one small fixed config against committed golden
outputs (tests/golden/): the row keys must match exactly and every value to
|a - b| <= 1e-12 + 1e-9 |b|, so a change of rounding order passes and a
change of result does not.  Regenerate a golden CSV only with a stated reason
per metric."""

import csv
import json
from pathlib import Path

from hierlab.cli import main
from hierlab.harness import EXPERIMENTS

GOLDEN = Path(__file__).parent / "golden"
ARGS = ["--n", "8", "--dt", "2e-3", "--t-final", "0.02", "--seed", "11",
        "--big-n", "4"]
KEYS = ("experiment", "id", "N", "K", "t", "metric")


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_experiments_match_golden_outputs(tmp_path, monkeypatch):
    monkeypatch.delenv("HLAB_BUDGET", raising=False)
    for name in EXPERIMENTS:
        main([name, *ARGS, "--outdir", str(tmp_path)])
    stems = sorted(p.name for p in GOLDEN.glob("*.csv"))
    assert stems == sorted(p.name for p in tmp_path.glob("*.csv"))
    assert len(stems) == 8
    for stem in stems:
        got, want = _rows(tmp_path / stem), _rows(GOLDEN / stem)
        assert [tuple(r[c] for c in KEYS) for r in got] == \
            [tuple(r[c] for c in KEYS) for r in want], stem
        for g, w in zip(got, want):
            a, b = float(g["value"]), float(w["value"])
            assert abs(a - b) <= 1e-12 + 1e-9 * abs(b), (stem, w["metric"], a, b)
    hlab = sorted(p.name for p in tmp_path.glob("*.hlab"))
    expected = (GOLDEN / "hlab_files.txt").read_text().split()
    assert len(hlab) == 46
    assert hlab == expected


def test_conservation_without_windows_drops_only_the_window_rows(tmp_path):
    main(["conservation", *ARGS, "--windows", "0", "--outdir", str(tmp_path)])
    got = _rows(tmp_path / "conservation.csv")
    want = [r for r in _rows(GOLDEN / "conservation.csv")
            if not r["metric"].startswith("window_")]
    assert [tuple(r[c] for c in KEYS) for r in got] == \
        [tuple(r[c] for c in KEYS) for r in want]
    for g, w in zip(got, want):
        a, b = float(g["value"]), float(w["value"])
        assert abs(a - b) <= 1e-12 + 1e-9 * abs(b), (w["metric"], a, b)
    manifest = json.loads((tmp_path / "conservation_manifest.json").read_text())
    assert manifest["results"] == {"window_chain_passed": None}
