"""Check that two trees write byte-identical dumps.

    python scripts/compare_dumps.py OLD_TREE NEW_TREE --scenes dam,falling_obs \
        --frames 60 --seed 7 [--band R] [--strategy flow|full]

Each scene runs once with each tree: ``cellflow run`` with the tree's ``src``
as PYTHONPATH, into a temporary directory. Every file the two runs wrote
(the ``.cprt`` and ``.cgrd`` frames, ``volume.csv``, ``manifest.txt``) is then
compared byte for byte. Prints ``identical`` or the first differing file for
each scene, and exits 1 on any difference and 2 when a run fails.
``--seed`` takes one seed for both trees, or two (old, then new): two seeds
make the dumps differ, which shows the comparison sees a change.
``--band`` and ``--strategy`` pass through to ``cellflow run``; ``--strategy``
alone turns the band on at the scene's thickness.
"""
import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def run(tree: Path, scene: str, out: Path, frames: int, seed: int, band, strategy) -> None:
    cmd = [sys.executable, "-m", "cellflow.cli", "run", scene, "--out", str(out),
           "--frames", str(frames), "--seed", str(seed)]
    if band is not None:
        cmd += ["--band", str(band)]
    if strategy is not None:
        cmd += ["--strategy", strategy]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{tree}: {' '.join(cmd[2:])} failed:\n{proc.stderr[-2000:]}")


def first_difference(old: Path, new: Path) -> str | None:
    """The first file, in name order, that only one run wrote or whose bytes
    differ; None when the runs wrote the same files with the same bytes."""
    old_files = {p.name for p in old.iterdir()}
    new_files = {p.name for p in new.iterdir()}
    for name in sorted(old_files | new_files):
        if name not in new_files or name not in old_files:
            return f"{name} (only in {'OLD' if name in old_files else 'NEW'})"
        if (old / name).read_bytes() != (new / name).read_bytes():
            return name
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", type=Path, metavar="OLD_TREE")
    parser.add_argument("new", type=Path, metavar="NEW_TREE")
    parser.add_argument("--scenes", required=True,
                        help="comma-separated builtin scene names or scene files")
    parser.add_argument("--frames", type=int, required=True)
    parser.add_argument("--seed", type=int, nargs="+", required=True, metavar="S",
                        help="one seed for both trees, or the old and the new tree's")
    parser.add_argument("--band", type=int, default=None, metavar="R")
    parser.add_argument("--strategy", choices=["flow", "full"], default=None,
                        help="band correction strategy")
    args = parser.parse_args()
    if len(args.seed) > 2:
        parser.error("--seed takes one or two seeds")
    old_seed, new_seed = args.seed[0], args.seed[-1]

    differ = False
    with tempfile.TemporaryDirectory(prefix="compare_dumps_") as tmp:
        for i, scene in enumerate(args.scenes.split(",")):
            outs = []
            for side, tree, seed in (("old", args.old, old_seed), ("new", args.new, new_seed)):
                out = Path(tmp) / f"{i}_{side}"
                try:
                    run(tree.resolve(), scene, out, args.frames, seed, args.band, args.strategy)
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    return 2
                outs.append(out)
            diff = first_difference(*outs)
            differ |= diff is not None
            print(f"{scene}: {'identical' if diff is None else 'differ at ' + diff}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
