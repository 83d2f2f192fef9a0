"""Command-line interface: solve, reference, study, snapshot, check."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .selfcheck import run_self_checks
from .slab import load_solution, save_solution
from .study import (StudyConfig, export_snapshot, parse_config, run_study,
                    single_solve, solve_reference)


def _load_config(args) -> StudyConfig:
    config = parse_config(args.config) if args.config else StudyConfig()
    if args.out:
        config = replace(config, out_dir=args.out)
    return config


def _add_common(sub):
    sub.add_argument("--config", help="INI configuration file")
    sub.add_argument("--out", help="output directory (overrides [output] dir)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="parahyp",
        description="Mixed-FEM / dG-in-time solver and homogenisation "
                    "convergence study for parabolic-hyperbolic media")
    subs = parser.add_subparsers(dest="verb", required=True)

    sub = subs.add_parser("solve", help="solve one problem at study resolution")
    _add_common(sub)
    sub.add_argument("--problem", choices=("rough", "hom"), default="rough")
    sub.add_argument("--N", type=int, default=None, help="checkerboard resolution")

    sub = subs.add_parser("reference", help="build (and checkpoint) a reference solution")
    _add_common(sub)
    sub.add_argument("--problem", choices=("rough", "hom"), default="hom")
    sub.add_argument("--N", type=int, default=None, help="checkerboard resolution")

    sub = subs.add_parser("study", help="run the full convergence table")
    _add_common(sub)

    sub = subs.add_parser("snapshot", help="export a field snapshot from a checkpoint")
    _add_common(sub)
    sub.add_argument("--checkpoint", required=True, help="solution checkpoint file")
    sub.add_argument("--time", type=float, required=True)
    sub.add_argument("--resolution", type=int, default=None)
    sub.add_argument("--tag", default="snapshot", help="output file basename")

    sub = subs.add_parser("check", help="run the built-in property checks")
    sub.add_argument("--seed", type=int, default=0, help="seed for randomised checks")

    args = parser.parse_args(argv)
    if args.verb == "check":
        return 0 if run_self_checks(seed=args.seed) else 1

    config = _load_config(args)

    # N names the checkerboard; the averaged problem has none
    N = args.N if getattr(args, "problem", None) == "rough" else None

    if args.verb == "study":
        run_study(config)
        return 0

    if args.verb == "solve":
        if args.problem == "rough" and args.N is None:
            parser.error("solve --problem rough requires --N")
        sol = single_solve(args.problem, N, config)
        os.makedirs(config.out_dir, exist_ok=True)
        tag = f"{args.problem}_N{args.N}" if args.problem == "rough" else "hom"
        path = os.path.join(config.out_dir, f"solution_{tag}.ckpt")
        save_solution(sol, path)
        print(f"checkpointed solution to {path}")
        return 0

    if args.verb == "reference":
        if args.problem == "rough" and args.N is None:
            parser.error("reference --problem rough requires --N")
        solve_reference(args.problem, N, config)
        return 0

    if args.verb == "snapshot":
        sol = load_solution(args.checkpoint)
        resolution = args.resolution if args.resolution is not None \
            else config.snapshot_resolution
        os.makedirs(config.out_dir, exist_ok=True)
        base = os.path.join(config.out_dir, f"{args.tag}_t{args.time}")
        vtk, csv = export_snapshot(sol, args.time, resolution, base)
        print(f"wrote {vtk} and {csv}")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
