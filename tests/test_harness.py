import ctypes
import json
import math
import os
import shlex
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import hierlab
import hierlab.cli as cli_mod
import hierlab.definetti as definetti_mod
import hierlab.harness as harness_mod
import hierlab.hierarchy_evolution as evolution_mod
import hierlab.marginals as marginals_mod
import hierlab.nbody as nbody_mod
from hierlab.cli import build_parser, main
from hierlab.harness import (CSV_HEADER, EXPERIMENTS, ExperimentConfig, Report,
                             run_collision_limit, run_conservation,
                             run_convergence, run_duhamel_check, run_experiment,
                             run_picard, run_simulate_bbgky,
                             run_simulate_nbody)
from hierlab.hierarchy_evolution import InstabilityError
from hierlab.storage import read_marginal, write_marginal

from kernel_tools import count_transforms, gp_residual, loop_rhs


def small_cfg(**kw):
    base = dict(n=8, dt=2e-3, t_final=0.02, seed=11, atoms=2, windows=1,
                collision_ladder=(4, 16), ladder=(2, 3))
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(xi=0.8, xi_prime=0.5)
    with pytest.raises(ValueError):
        ExperimentConfig(xi1=0.6, xi=0.5)


def test_config_from_ini(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("""
[grid]
n = 8
dim = 1

[potential]
beta = 0.22
profile-width = 0.7

[experiment]
ladder = 2, 3, 4
seed = 99
""")
    cfg = ExperimentConfig.from_ini(ini, dt=5e-3)
    assert cfg.n == 8 and cfg.beta == 0.22 and cfg.profile_width == 0.7
    assert cfg.ladder == (2, 3, 4) and cfg.seed == 99 and cfg.dt == 5e-3


def test_config_from_ini_without_section_header(tmp_path):
    ini = tmp_path / "bare.ini"
    ini.write_text("seed = 5\nn = 8\n")
    cfg = ExperimentConfig.from_ini(ini)
    assert cfg.seed == 5 and cfg.n == 8


@pytest.mark.parametrize("text,named", [
    ("[run]\nseed\n", "line 2 'seed'"),
    ("n = 8\nseed\n", "line 2 'seed'"),
    ("[run]\nseed = 5\nseed = 5\n", "key 'seed'"),
    ("seed = 5\nseed = 6\n", "key 'seed'"),
    ("[run]\nseed = 5\n[run]\nn = 8\n", "section [run]"),
    ("[a]\nn = 8\n[b]\nn = 12\n", "key 'n' is given twice, in [a] and in [b]"),
    ("[DEFAULT]\nn = 8\n[run]\nn = 12\n",
     "key 'n' is given twice, in [DEFAULT] and in [run]"),
], ids=["line-without-value", "line-without-value-no-header", "repeated-key",
        "repeated-key-no-header", "repeated-section", "key-in-two-sections",
        "key-in-default-and-a-section"])
def test_config_from_ini_names_a_bad_line_or_repeated_key(tmp_path, text, named):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    with pytest.raises(ValueError) as err:
        ExperimentConfig.from_ini(ini)
    assert str(ini) in str(err.value) and named in str(err.value)


def test_config_from_ini_reads_percent_literally(tmp_path):
    ini = tmp_path / "percent.ini"
    ini.write_text("[run]\noutdir = out%1\n")
    assert ExperimentConfig.from_ini(ini).outdir == "out%1"


def test_config_rejects_misspelled_keys(tmp_path):
    ini = tmp_path / "typo.ini"
    ini.write_text("[experiment]\nt_fnal = 0.5\nseeed = 3\nn = 8\n")
    with pytest.raises(ValueError, match="seeed, t_fnal"):
        ExperimentConfig.from_ini(ini)
    with pytest.raises(ValueError, match="t_fnal"):
        ExperimentConfig.from_mapping({"t_fnal": 0.5})


def test_report_schema_and_formatting():
    rep = Report()
    rep.add("demo", "metric_a", 1.5, N=4, K=2, t=0.1)
    rep.add("demo", "flag", True)
    text = rep.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "demo,0,4,2,0.10000000000000001,metric_a,1.5"
    assert lines[2] == "demo,1,,,,flag,1"


def test_collision_limit_rows_and_determinism():
    cfg = small_cfg()
    rep1, _ = run_collision_limit(cfg)
    rep2, _ = run_collision_limit(small_cfg())
    assert rep1.to_csv() == rep2.to_csv()
    metrics = [r[5] for r in rep1.rows]
    assert metrics.count("main_minus_contact_hs") == 2
    assert metrics.count("fourier_oracle_rel_err") == 4
    oracle_vals = [r[6] for r in rep1.rows if r[5] == "fourier_oracle_rel_err"]
    assert max(oracle_vals) < 1e-9


def test_convergence_run_shape():
    cfg = small_cfg(k_max=2, b1=2.0)
    rep, _ = run_convergence(cfg)
    by_metric = {}
    for row in rep.rows:
        by_metric.setdefault(row[5], []).append(row)
    assert set(by_metric) == {"hierarchy_h1_distance", "collision_h1_distance"}
    # ladder (2, 3) at two sample times
    assert len(by_metric["hierarchy_h1_distance"]) == 4


def count_calls(monkeypatch, name, *modules):
    """Replace ``name`` in every module by one counting wrapper."""
    calls = []
    real = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    for mod in modules:
        monkeypatch.setattr(mod, name, counting)
    return calls


def test_convergence_evolves_the_contact_hierarchy_once_per_k(monkeypatch):
    # K = floor(2 ln N) capped at 2 is 2 for both N
    calls = count_calls(monkeypatch, "gp_evolve", harness_mod)
    rep, _ = run_convergence(small_cfg(ladder=(3, 4), k_max=2, b1=2.0))
    assert len(calls) == 1
    assert [row[2] for row in rep.rows] == [3] * 4 + [4] * 4


def test_convergence_takes_each_gp_collision_sum_once(monkeypatch):
    # both entries share K = 2: one sum per stored step t > 0
    calls = count_calls(monkeypatch, "gp_collision_sum", harness_mod)
    run_convergence(small_cfg(ladder=(3, 4), k_max=2, b1=2.0))
    assert len(calls) == 2


def test_conservation_flows_its_mixture_once(monkeypatch):
    flows = count_calls(monkeypatch, "flow_mixture", harness_mod, definetti_mod)
    states = count_calls(monkeypatch, "mixture_state", harness_mod,
                         definetti_mod)
    trace_norms = count_calls(monkeypatch, "trace_sobolev_norm", marginals_mod)
    kernels = count_calls(monkeypatch, "mixture_marginal", harness_mod,
                          marginals_mod)
    run_conservation(small_cfg())
    # k = 1, 2 at four sample frames, and at t = 0 and t_final once each
    assert len(kernels) == 12
    # five sample frames; the window chain's one window needs no flow
    assert len(flows) == 5
    # t = 0 and t_final; the t = 0 state also starts the chain's window 0
    assert len(states) == 2
    # one trace-flavor bound, one eigensolve per level, shared with the chain
    assert len(trace_norms) == 2


def test_collision_limit_flows_the_kernel_once_per_time(monkeypatch):
    calls = count_calls(monkeypatch, "free_propagate_marginal", harness_mod)
    run_collision_limit(small_cfg())
    assert len(calls) == 2


def test_conservation_run_reports_small_defects():
    cfg = small_cfg(t_final=0.01, dt=1e-3)
    rep, extra = run_conservation(cfg)
    vals = {row[5]: row[6] for row in rep.rows}
    assert vals["functional_m1_drift"] < 1e-7
    assert vals["functional_m2_drift"] < 1e-7
    assert vals["admissibility_defect"] < 1e-10
    assert vals["norm_bound_satisfied"]
    assert extra["window_chain_passed"]


def test_duhamel_check_exponents_in_window():
    cfg = small_cfg()
    rep, extra = run_duhamel_check(cfg)
    for j, slope in extra["fitted_exponents"].items():
        assert j / 2 - 0.6 <= slope <= j + 0.1


def test_picard_run_converges():
    cfg = small_cfg(big_n=16)
    rep, extra = run_picard(cfg)
    assert extra["converged"]
    assert extra["residual"] < 1e-7


def test_simulate_gp_dumps_and_manifest(tmp_path):
    cfg = small_cfg(outdir=str(tmp_path / "gp"), t_final=6e-3, dt=2e-3)
    csv_path, manifest_path = run_experiment("simulate-gp", cfg)
    assert csv_path.exists()
    manifest = json.loads(manifest_path.read_text())
    files = manifest["results"]["files"]
    assert files
    grid, k, kernel = read_marginal(Path(cfg.outdir) / files[0])
    assert k == 1 and kernel.shape == (8, 8)
    assert manifest["config"]["seed"] == 11


def test_simulate_bbgky_trace_drift_small(tmp_path):
    cfg = small_cfg(outdir=str(tmp_path / "bb"), t_final=6e-3, dt=2e-3,
                    big_n=8)
    rep, extra = run_simulate_bbgky(cfg)
    drifts = [row[6] for row in rep.rows if row[5].startswith("trace_drift")]
    assert max(drifts) < 1e-10


def test_simulate_bbgky_inverts_no_kernel_transform(tmp_path, monkeypatch):
    # the logged collision norms are Parseval sums on forward spectra
    counts = count_transforms(monkeypatch)
    main(["simulate-bbgky", "--n", "16", "--dt", "2e-3", "--t-final", "0.004",
          "--outdir", str(tmp_path)])
    assert counts["fftn", 2] > 0 and counts["fftn", 4] > 0
    assert counts["ifftn", 2] == counts["ifftn", 4] == 0


@pytest.mark.parametrize("t_final", [0.01, 2e-3], ids=["10steps", "1step"])
@pytest.mark.parametrize("name, evolve", [("gp", "gp_evolve"),
                                          ("bbgky", "bbgky_evolve")])
def test_streamed_outputs_equal_in_memory_outputs(tmp_path, monkeypatch,
                                                  name, evolve, t_final):
    # the harness's own inputs go through the default store too, whose
    # states are written after the loop, as simulate runs did before
    real, kept = getattr(harness_mod, evolve), []

    def both(*args, store, **kw):
        kept.append((real(*args, **kw), args, kw))
        return real(*args, store=store, **kw)
    monkeypatch.setattr(harness_mod, evolve, both)
    cfg = small_cfg(outdir=str(tmp_path / "streamed"), t_final=t_final)
    csv_path, manifest_path = run_experiment(f"simulate-{name}", cfg)
    ((traj, args, kw),) = kept
    ref_dir, ref_files = tmp_path / "in_memory", []
    ref_dir.mkdir()
    for step, state in zip(traj.stored_steps, traj.states):
        for k, gamma in enumerate(state.entries, start=1):
            fname = f"{name}_k{k}_step{step:05d}.hlab"
            write_marginal(ref_dir / fname, state.grid, k, gamma.kernel)
            ref_files.append(fname)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["results"]["files"] == ref_files
    # the store takes each level's norm of every step, from step 0
    assert manifest["results"]["hs_norms"] == {
        str(k): [marginals_mod.sobolev_norm(state.entry(k), 0.0)
                 for state in traj.states]
        for k in range(1, traj.states[0].K + 1)}
    for fname in ref_files:
        assert (Path(cfg.outdir) / fname).read_bytes() == \
            (ref_dir / fname).read_bytes()
    collision = {line.split(",")[5]: float(line.split(",")[6])
                 for line in csv_path.read_text().splitlines()[1:]
                 if ",collision_h1_max_k" in line}
    # each level's largest collision norm over the steps after step 0, of
    # the right-hand side formed afresh at the in-memory states
    derivs = [loop_rhs(state, step, cfg.dt,
                       **({"pot": args[2]} if name == "bbgky"
                          else {"mixture": kw["mixture"]}))
              for step, state in zip(traj.stored_steps, traj.states) if step]
    assert collision == {
        f"collision_h1_max_k{k}": max(marginals_mod.sobolev_norm(d.entry(k), 1.0)
                                      for d in derivs)
        for k in range(1, traj.states[0].K + 1)}
    rows = {line.split(",")[5]: float(line.split(",")[6])
            for line in csv_path.read_text().splitlines()[1:]
            if ",residual_max_k" in line}
    residual = gp_residual(traj, cfg.dt) if len(traj.states) >= 3 else {}
    expected = {f"residual_max_k{k}": float(np.max(v))
                for k, v in residual.items()} if name == "gp" else {}
    assert rows == expected
    assert (len(traj.states) >= 3) == (t_final > 2e-3)


@pytest.mark.parametrize("experiment", ["simulate-gp", "simulate-bbgky"])
def test_failed_simulate_run_keeps_the_files_written_so_far(
        tmp_path, monkeypatch, experiment):
    real, calls = evolution_mod._rk4ip_step, []

    def failing(*args):
        calls.append(None)
        if len(calls) == 3:
            raise InstabilityError("injected at step 3")
        return real(*args)
    monkeypatch.setattr(evolution_mod, "_rk4ip_step", failing)
    cfg = small_cfg(outdir=str(tmp_path / "run"), t_final=0.01)
    with pytest.raises(InstabilityError, match="step 3"):
        run_experiment(experiment, cfg)
    name = experiment.split("-")[1]
    written = sorted(p.name for p in (tmp_path / "run").iterdir())
    assert written == [f"{name}_k{k}_step{step:05d}.hlab"
                       for k in (1, 2) for step in (0, 1, 2)]


def test_simulate_nbody_moments_and_files(tmp_path):
    cfg = small_cfg(outdir=str(tmp_path / "nb"), big_n=3, t_final=0.01,
                    dt=1e-3, k_marginals=2)
    rep, extra = run_simulate_nbody(cfg)
    vals = {row[5]: row[6] for row in rep.rows}
    assert vals["moment1_drift"] < 1e-8
    assert vals["norm_drift"] < 1e-10
    assert vals["marginal_trace_k1"] == pytest.approx(1.0, abs=1e-10)
    assert (Path(cfg.outdir) / "nbody_k2_final.hlab").exists()


def test_simulate_nbody_builds_its_operators_once(tmp_path, monkeypatch):
    built = {"_pair_potential_total": 0, "free_symbol": 0}
    for name in built:
        real = getattr(nbody_mod, name)

        def counting(*args, _name=name, _real=real):
            built[_name] += 1
            return _real(*args)
        monkeypatch.setattr(nbody_mod, name, counting)
    cfg = small_cfg(outdir=str(tmp_path / "nb"), big_n=3, t_final=0.01,
                    dt=1e-3, k_marginals=2)
    run_simulate_nbody(cfg)
    assert built == {"_pair_potential_total": 1, "free_symbol": 1}


def test_cli_runs_collision_limit(tmp_path, capsys):
    out = tmp_path / "cli"
    rc = main(["collision-limit", "--n", "8", "--seed", "3",
               "--collision-ladder", "4,16", "--outdir", str(out)])
    assert rc == 0
    assert (out / "collision_limit.csv").exists()
    assert (out / "collision_limit_manifest.json").exists()
    assert "collision-limit" in capsys.readouterr().out


def test_cli_config_file_with_override(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[experiment]\nseed = 5\nn = 8\ncollision_ladder = 4,16\n")
    out = tmp_path / "cli2"
    rc = main(["collision-limit", "--config", str(ini), "--outdir", str(out)])
    assert rc == 0
    manifest = json.loads((out / "collision_limit_manifest.json").read_text())
    assert manifest["config"]["seed"] == 5
    assert manifest["config"]["n"] == 8


def test_cli_determinism_bit_identical(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        main(["collision-limit", "--n", "8", "--seed", "7",
              "--collision-ladder", "4,16", "--outdir", str(out)])
        outs.append((out / "collision_limit.csv").read_bytes())
    assert outs[0] == outs[1]


def _python(args: list[str]) -> subprocess.CompletedProcess:
    """Run the interpreter on ``args`` with hierlab importable from this
    checkout."""
    src = str(Path(hierlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)


def _has_mallopt() -> bool:
    return os.name == "posix" and hasattr(ctypes.CDLL(None), "mallopt")


# allocates and frees three 16^4 kernels 200 times, as a time loop does, and
# prints the minor page faults the loop took
KERNEL_CHURN = """
import resource
import numpy as np
from hierlab.cli import _keep_freed_memory
_keep_freed_memory()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    kernels = [np.full(16**4, 1j) for _ in range(3)]
    del kernels
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_cli_heap_policy_reuses_freed_kernels():
    # about 97,000 faults under glibc's default thresholds, about 740 with
    # the policy: the freed kernels stay in the heap
    faults = int(_python(["-c", KERNEL_CHURN]).stdout)
    assert faults < 5000


@pytest.mark.skipif(os.name != "posix", reason="the policy is set on POSIX")
def test_cli_heap_policy_sets_the_glibc_ceilings(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1
    monkeypatch.setattr(ctypes, "CDLL",
                        lambda name: types.SimpleNamespace(mallopt=mallopt))
    cli_mod._keep_freed_memory()
    # the mmap and trim thresholds, then one arena for every thread
    assert calls == [(-3, 32 * 2**20), (-1, 64 * 2**20), (-8, 1)]


def test_cli_heap_policy_without_mallopt_does_nothing(monkeypatch):
    # a C library such as macOS's, which has no mallopt
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert cli_mod._keep_freed_memory() is None


def test_cli_main_sets_the_heap_policy_before_the_run(tmp_path, monkeypatch):
    order = []
    monkeypatch.setattr(cli_mod, "_keep_freed_memory",
                        lambda: order.append("heap policy"))

    def run(name, cfg):
        order.append(name)
        return tmp_path / "a.csv", tmp_path / "a.json"
    monkeypatch.setattr(cli_mod, "run_experiment", run)
    assert main(["collision-limit", "--outdir", str(tmp_path)]) == 0
    assert order == ["heap policy", "collision-limit"]


def test_manifest_telemetry_reports_time_memory_and_faults(tmp_path):
    _python(["-m", "hierlab.cli", "collision-limit", "--n", "8",
             "--collision-ladder", "4", "--outdir", str(tmp_path)])
    manifest = json.loads((tmp_path / "collision_limit_manifest.json").read_text())
    telemetry = manifest["telemetry"]
    assert sorted(telemetry) == ["cpu_s", "minor_faults", "peak_rss_mb",
                                 "wall_s"]
    assert all(v > 0 for v in telemetry.values())
    assert isinstance(telemetry["minor_faults"], int)


def test_every_manifest_carries_the_telemetry(tmp_path):
    # in one process a later run may fault in no new page, so only the
    # times and the peak resident set must be positive here; picard adds
    # its two workers' busy times and the calling thread's wait for them
    for name in EXPERIMENTS:
        cfg = small_cfg(big_n=4, outdir=str(tmp_path))
        _, manifest_path = run_experiment(name, cfg)
        manifest = json.loads(manifest_path.read_text())
        telemetry = manifest["telemetry"]
        own = (["picard_result_wait_s", "picard_worker_busy_s"]
               if name == "picard" else [])
        assert sorted(telemetry) == sorted(["cpu_s", "minor_faults",
                                            "peak_rss_mb", "wall_s", *own]), name
        assert "telemetry" not in manifest.get("results", {}), name
        assert telemetry["wall_s"] > 0 and telemetry["cpu_s"] > 0, name
        assert telemetry["peak_rss_mb"] > 0, name
        assert isinstance(telemetry["minor_faults"], int), name
        if name == "picard":
            busy = telemetry["picard_worker_busy_s"]
            assert len(busy) == 2 and all(b > 0 for b in busy)
            assert sum(busy) < 2 * telemetry["wall_s"]
            assert 0 <= telemetry["picard_result_wait_s"] < telemetry["wall_s"]


# the option strings of every subcommand, and the ones only it takes
COMMON_FLAGS = {"-h", "--help", "--config", "--outdir", "--seed", "--dim",
                "--n", "--box-length", "--dt", "--t-final", "--beta",
                "--big-n", "--profile", "--profile-width", "--xi",
                "--xi-prime", "--xi1", "--b1", "--k-max"}
OWN_FLAGS = {"convergence": {"--ladder"},
             "conservation": {"--m-max", "--windows", "--atoms"},
             "collision-limit": {"--collision-ladder"},
             "duhamel-check": {"--j-max"},
             "picard": set(), "simulate-gp": set(), "simulate-bbgky": set(),
             "simulate-nbody": {"--k-marginals"}}


def test_each_subcommand_takes_its_fixed_flag_set():
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert list(sub.choices) == list(OWN_FLAGS)
    for name, own in OWN_FLAGS.items():
        got = {s for a in sub.choices[name]._actions for s in a.option_strings}
        assert got == COMMON_FLAGS | own, name


def test_profile_loaded_from_field_file(tmp_path):
    from hierlab.interactions import gaussian_profile, realize_potential
    from hierlab.storage import write_field
    from hierlab.grid import make_grid
    g = make_grid(1, 8, 2 * np.pi)
    path = tmp_path / "prof.hlab"
    write_field(path, gaussian_profile(g, 0.7))
    cfg = small_cfg(profile=str(path))
    pot = cfg.potential(cfg.profile_field(), big_n=4)
    built_in = realize_potential(gaussian_profile(g, 0.7), cfg.beta, 4)
    assert np.array_equal(pot.realized.data, built_in.realized.data)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_profile_file_fails_before_the_run(tmp_path, monkeypatch,
                                                      bad):
    from hierlab.interactions import gaussian_profile
    from hierlab.storage import write_field
    from hierlab.grid import Field, make_grid
    g = make_grid(1, 8, 2 * np.pi)
    data = gaussian_profile(g, 0.7).data.copy()
    data[3] = bad
    path = tmp_path / "prof.hlab"
    write_field(path, Field(g, 1, data))
    outdir = tmp_path / "out"
    monkeypatch.setattr(harness_mod, "random_low_mode_field", lambda *a, **k:
                        pytest.fail("the atom was drawn before the check"))
    with pytest.raises(ValueError, match="potential profile must be finite"):
        main(["collision-limit", "--n", "8", "--profile", str(path),
              "--outdir", str(outdir)])
    assert not (outdir / "collision_limit.csv").exists()


@pytest.mark.parametrize("name", ["convergence", "collision-limit"])
def test_profile_file_is_read_once_per_run(tmp_path, monkeypatch, name):
    from hierlab.grid import make_grid
    from hierlab.interactions import gaussian_profile
    from hierlab.storage import write_field
    path = tmp_path / "prof.hlab"
    write_field(path, gaussian_profile(make_grid(1, 8, 2 * np.pi), 0.7))
    reads = []
    real = harness_mod.read_field

    def spy(where):
        reads.append(where)
        return real(where)
    monkeypatch.setattr(harness_mod, "read_field", spy)
    cfg = small_cfg(profile=str(path), outdir=str(tmp_path / "out"))
    assert len(cfg.ladder) == len(cfg.collision_ladder) == 2
    run_experiment(name, cfg)
    assert reads == [str(path)]


def test_budget_env_override(monkeypatch):
    from hierlab import budget
    monkeypatch.setenv("HLAB_BUDGET", "123456")
    assert budget.default_budget().max_elements == 123456
    monkeypatch.delenv("HLAB_BUDGET")
    assert budget.default_budget().max_elements == budget.DEFAULT_MAX_ELEMENTS


def test_simulate_nbody_applies_h_four_times(tmp_path, monkeypatch):
    calls = []
    real = nbody_mod.hamiltonian_apply

    def counting(*args):
        calls.append(1)
        return real(*args)
    monkeypatch.setattr(nbody_mod, "hamiltonian_apply", counting)
    cfg = small_cfg(outdir=str(tmp_path / "nb"), big_n=3, t_final=0.01,
                    dt=1e-3, k_marginals=2)
    run_simulate_nbody(cfg)
    # moments 1 and 2 of the initial and the final state, one pass each
    assert len(calls) == 4


def test_duhamel_check_below_its_need_raises_before_transforms(
        tmp_path, monkeypatch):
    from hierlab.budget import BudgetExceeded
    # n = 8, j_max = 2: the towers' working states of levels 1 and 2
    need = evolution_mod.DUHAMEL_WORKING_STATES * (8**2 + 8**4)
    monkeypatch.setenv("HLAB_BUDGET", str(need - 1))
    with monkeypatch.context() as spies:
        for name in ("free_propagate", "product_collision_level",
                     "marginal_spectrum"):
            spies.setattr(evolution_mod, name,
                          lambda *a, _name=name: pytest.fail(f"{_name} ran"))
        with pytest.raises(BudgetExceeded, match="working states"):
            main(["duhamel-check", "--n", "8", "--outdir", str(tmp_path)])
    monkeypatch.setenv("HLAB_BUDGET", str(need))
    main(["duhamel-check", "--n", "8", "--outdir", str(tmp_path)])
    assert (tmp_path / "duhamel_check.csv").exists()


@pytest.mark.parametrize("raw", ["abc", "0", "-1"])
def test_malformed_budget_env_rejected(monkeypatch, raw):
    from hierlab import budget
    monkeypatch.setenv("HLAB_BUDGET", raw)
    with pytest.raises(ValueError, match="HLAB_BUDGET"):
        budget.default_budget()


def test_default_duhamel_check_runs_under_the_default_cap(
        tmp_path, monkeypatch):
    # n = 16, j_max = 2 builds no product kernel: the first layer of each
    # pass is read off the flowed atom
    monkeypatch.delenv("HLAB_BUDGET", raising=False)
    monkeypatch.setattr(marginals_mod, "pure_product_marginal",
                        lambda *a: pytest.fail("a product kernel was built"))
    main(["duhamel-check", "--outdir", str(tmp_path)])
    lines = (tmp_path / "duhamel_check.csv").read_text().splitlines()
    metrics = [line.split(",")[5] for line in lines[1:]]
    for j in (1, 2):
        assert metrics.count(f"duh{j}_fitted_exponent") == 1
        assert metrics.count(f"duh{j}_h1_norm") == 3


@pytest.mark.parametrize("argv,match,config", [
    (["duhamel-check", "--j-max", "0"], "j_max", True),
    (["simulate-gp", "--n", "8", "--dt", "nan"], "finite", False),
    (["simulate-gp", "--n", "8", "--t-final", "inf"], "finite", False),
])
def test_series_inputs_fail_fast(tmp_path, monkeypatch, argv, match, config):
    # a bad config field, a non-finite time among them, fails in
    # ExperimentConfig before any kernel is built
    if config:
        monkeypatch.setattr(marginals_mod, "pure_product_marginal",
                            lambda *a: pytest.fail("a kernel was built"))
    with pytest.raises(ValueError, match=match):
        main([*argv, "--outdir", str(tmp_path)])
    assert not list(tmp_path.iterdir())


def test_readme_command_lines_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines()
             if line.startswith("hierlab ")]
    parser = build_parser()
    commands = [parser.parse_args(shlex.split(line)[1:]).command
                for line in lines]
    assert sorted(commands) == sorted(EXPERIMENTS)
