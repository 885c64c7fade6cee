"""Command-line entry point.

Subcommands map one-to-one onto the harness experiments; configuration comes
from defaults, then an optional INI file (--config), then flag overrides.
"""

from __future__ import annotations

import argparse
import sys

from .harness import EXPERIMENTS, ExperimentConfig, run_experiment


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="INI file with key = value sections")
    parser.add_argument("--outdir", help="output directory")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--dim", type=int)
    parser.add_argument("--n", type=int, help="grid points per axis")
    parser.add_argument("--box-length", type=float, dest="box_length")
    parser.add_argument("--dt", type=float)
    parser.add_argument("--t-final", type=float, dest="t_final")
    parser.add_argument("--beta", type=float, help="potential scaling exponent")
    parser.add_argument("--big-n", type=int, dest="big_n", help="particle number N")
    parser.add_argument("--profile",
                        help="built-in profile name (gaussian, bump) or a "
                             "rank-1 .hlab tensor file")
    parser.add_argument("--profile-width", type=float, dest="profile_width")
    parser.add_argument("--xi", type=float)
    parser.add_argument("--xi-prime", type=float, dest="xi_prime")
    parser.add_argument("--xi1", type=float)
    parser.add_argument("--b1", type=float)
    parser.add_argument("--k-max", type=int, dest="k_max")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hierlab",
        description="desk-scale hierarchy laboratory on the periodic torus")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        _add_common(p)
        if name == "simulate-nbody":
            p.add_argument("--k-marginals", type=int, dest="k_marginals")
        if name == "conservation":
            p.add_argument("--m-max", type=int, dest="m_max")
            p.add_argument("--windows", type=int)
            p.add_argument("--atoms", type=int)
        if name == "convergence":
            p.add_argument("--ladder", help="comma-separated particle numbers")
        if name == "collision-limit":
            p.add_argument("--collision-ladder", dest="collision_ladder",
                           help="comma-separated potential ladder")
        if name == "duhamel-check":
            p.add_argument("--j-max", type=int, dest="j_max")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config") and v is not None}
    if args.config:
        cfg = ExperimentConfig.from_ini(args.config, **overrides)
    else:
        cfg = ExperimentConfig.from_mapping(overrides)
    csv_path, manifest_path = run_experiment(args.command, cfg)
    print(f"{args.command}: wrote {csv_path} and {manifest_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
