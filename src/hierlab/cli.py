"""Command-line entry point.

Subcommands map one-to-one onto the harness experiments.  Each field of
``ExperimentConfig`` is one flag, ``--<field with dashes>``; the fields in
``EXPERIMENT_ONLY`` belong to one subcommand, the rest to every subcommand.
Configuration comes from defaults, then an optional INI file (--config),
then flag overrides; INI values and flag strings take the same conversion,
``ExperimentConfig.from_mapping``.

``main`` owns its process, so it also sets the C library's heap policy
(``_keep_freed_memory``); importing hierlab or calling ``run_experiment``
leaves a host process's allocator as it is.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import os
import sys

from .harness import EXPERIMENTS, ExperimentConfig, run_experiment

# config field -> the one subcommand that reads it
EXPERIMENT_ONLY = {"k_marginals": "simulate-nbody", "m_max": "conservation",
                   "windows": "conservation", "atoms": "conservation",
                   "ladder": "convergence",
                   "collision_ladder": "collision-limit",
                   "j_max": "duhamel-check"}

HELP = {"outdir": "output directory", "n": "grid points per axis",
        "beta": "potential scaling exponent", "big_n": "particle number N",
        "profile": "built-in profile name (gaussian, bump) or a rank-1 .hlab "
                   "tensor file",
        "ladder": "comma-separated particle numbers",
        "collision_ladder": "comma-separated potential ladder"}


# glibc's mallopt parameters.  The mmap and trim thresholds are set to the
# ceilings its own dynamic rule reaches on 64-bit: the mmap threshold tops
# out at 32 MiB and the trim threshold follows at twice that.  Below them a
# freed kernel (1 MiB at 16^4 entries) stays in the heap for the next one,
# instead of going back to the OS and being zero-filled page by page when it
# is allocated again.  One arena serves every thread: Picard's two workers
# would otherwise each keep a heap of their own, whose freed kernels the
# thresholds above keep resident beside the main heap's (about 2.7 MB of
# series' peak resident set, with no loss of time measured).
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8
MMAP_THRESHOLD = 32 * 2**20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
ARENA_MAX = 1


def _keep_freed_memory() -> None:
    """Pin glibc's mmap and trim thresholds at ``MMAP_THRESHOLD`` and
    ``TRIM_THRESHOLD``, and its arena count at ``ARENA_MAX``, for this
    process.  Does nothing off POSIX or where the C library has no
    ``mallopt``.  It decides where freed blocks go, not what is computed in
    them."""
    if os.name != "posix":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # the process's libc
    if mallopt is None:
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    mallopt(M_ARENA_MAX, ARENA_MAX)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hierlab",
        description="desk-scale hierarchy laboratory on the periodic torus")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI file with key = value sections")
        for f in dataclasses.fields(ExperimentConfig):
            if EXPERIMENT_ONLY.get(f.name, name) == name:
                p.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                               help=HELP.get(f.name))
    return parser


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    overrides = vars(build_parser().parse_args(argv))
    command, config = overrides.pop("command"), overrides.pop("config")
    if config:
        cfg = ExperimentConfig.from_ini(config, **overrides)
    else:
        cfg = ExperimentConfig.from_mapping(overrides)
    csv_path, manifest_path = run_experiment(command, cfg)
    print(f"{command}: wrote {csv_path} and {manifest_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
