"""Batch command-line interface: run scenes, check solver oracles, summarize volume."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import CellflowError, InputError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cellflow",
                                     description="grid-constrained particle fluid simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a builtin scene or a scene config file")
    p_run.add_argument("scene", help="builtin scene name or path to a scene file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--frames", type=int, default=None, help="override frame count")
    p_run.add_argument("--seed", type=int, default=None, help="override RNG seed")
    p_run.add_argument("--band", type=int, default=None, metavar="R",
                       help="enable the band method with thickness R")
    p_run.add_argument("--strategy", choices=["flow", "full"], default=None,
                       help="band correction strategy")
    p_run.add_argument("--render", action="store_true", help="write PPM images per frame")

    p_oracle = sub.add_parser("oracle-check",
                              help="solve a correction problem's replay file and certify "
                                   "its optimum")
    p_oracle.add_argument("dump", help="path to a .npz of a correction problem's arrays, such "
                                       "as a failed run's failed_problem.npz")

    p_vol = sub.add_parser("volume", help="summarize the volume log of a finished run")
    p_vol.add_argument("dir", help="run output directory")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "oracle-check":
            return _cmd_oracle(args)
        if args.command == "volume":
            return _cmd_volume(args)
    except CellflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_run(args) -> int:
    from . import pipeline
    from .band import BandStrategy
    from .scene import load_scene

    cfg = load_scene(args.scene)
    if args.frames is not None:
        cfg.frames = args.frames
    if args.seed is not None:
        cfg.seed = args.seed
    if args.band is not None or args.strategy is not None:
        cfg.band.enabled = True
    if args.band is not None:
        cfg.band.R = args.band
    if args.strategy is not None:
        cfg.band.strategy = BandStrategy(args.strategy)
    code = pipeline.run(cfg, args.out, render=args.render)
    print(f"run complete: {cfg.frames} frames of '{cfg.name}' in {args.out}")
    return code


def _cmd_oracle(args) -> int:
    import zipfile

    import numpy as np

    from .correction import load_problem
    from .solvers import solve_problem

    try:
        archive = np.load(args.dump, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):  # a bare .npy
            raise ValueError
        with archive:
            arrays = dict(archive)
    except OSError as exc:
        raise InputError(f"cannot read problem file {args.dump!r}: {exc.strerror}") from None
    except (ValueError, EOFError, zipfile.BadZipFile):
        raise InputError(f"{args.dump}: not a .npz archive of problem arrays") from None
    try:
        problem = load_problem(arrays)
    except InputError as exc:
        raise InputError(f"{args.dump}: {exc}") from None
    _, stats = solve_problem(problem)  # raises IntegrityError unless certified
    print(f"flow solve: objective {stats.objective:.9f}, {stats.searches} searches, "
          f"{stats.drains} drains, {stats.pops} pops")
    print(f"OK: certified optimal (n={problem.n}; feasible, every reduced cost >= 0)")
    return 0


def _cmd_volume(args) -> int:
    from .outputs import read_volume_csv

    data = read_volume_csv(Path(args.dir) / "volume.csv")
    pct = data["percent"]
    alt = data["alt_percent"]
    print(f"frames: {len(pct)}")
    print(f"volume percent range: {pct.min():.2f} .. {pct.max():.2f}")
    print(f"alternative measure range: {alt.min():.2f} .. {alt.max():.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
