"""Command-line entry point.

Subcommands map one-to-one onto the harness experiments.  Each field of
``ExperimentConfig`` is one flag, ``--<field with dashes>``; the fields in
``EXPERIMENT_ONLY`` belong to one subcommand, the rest to every subcommand.
Configuration comes from defaults, then an optional INI file (--config),
then flag overrides; INI values and flag strings take the same conversion,
``ExperimentConfig.from_mapping``.
"""

from __future__ import annotations

import argparse
import dataclasses
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
