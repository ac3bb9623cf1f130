"""Golden dump digests: one SHA-256 per run configuration, kept in
``tests/golden_digests.txt`` and re-checked by ``tests/test_golden.py``.

    python scripts/golden_digests.py           # print each configuration's digest
    python scripts/golden_digests.py --write   # rewrite tests/golden_digests.txt

Each configuration is one ``cellflow run`` at seed 7 into a temporary
directory. Its digest is the SHA-256 over every file the run wrote (the
``.cprt`` and ``.cgrd`` frames, ``volume.csv`` and ``manifest.txt``): each
file's name and bytes, in name order. The file also names the Python and
numpy versions the digests were made with, because floating-point results
may change with either. A change that alters outputs on purpose rewrites the
file and says which digests changed and why; ``scripts/compare_dumps.py``
then shows which file differs.

cellflow is imported from PYTHONPATH.
"""
import argparse
import contextlib
import hashlib
import io
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from cellflow import cli

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "golden_digests.txt"
SEED = 7

# label -> `cellflow run` arguments, less --out and --seed
CONFIGS = {
    "dam": ["dam", "--frames", "30"],
    "falling_obs": ["falling_obs", "--frames", "60"],
    "dam_band6_flow": ["dam", "--frames", "30", "--band", "6", "--strategy", "flow"],
    "dam_band6_full": ["dam", "--frames", "30", "--band", "6", "--strategy", "full"],
    "falling_obs_band4_flow": ["falling_obs", "--frames", "60", "--band", "4", "--strategy", "flow"],
    "dam_emit": ["dam_emit", "--frames", "55"],
    "dam3d_band": [str(ROOT / "scripts" / "scenes" / "dam3d_band.scene"), "--frames", "8"],
    "obstacle3d": [str(ROOT / "scripts" / "scenes" / "obstacle3d.scene"), "--frames", "8"],
}


def versions() -> str:
    return f"python {platform.python_version()}, numpy {np.__version__}"


def digest(label: str) -> str:
    """SHA-256 of every file one run of the configuration writes."""
    with tempfile.TemporaryDirectory(prefix="golden_") as tmp:
        argv = ["run", *CONFIGS[label], "--out", tmp, "--seed", str(SEED)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code:
            raise RuntimeError(f"cellflow {' '.join(argv)} exited {code}")
        h = hashlib.sha256()
        for path in sorted(Path(tmp).iterdir()):
            h.update(path.name.encode() + b"\0")
            h.update(path.read_bytes())
        return h.hexdigest()


def read_digests(path: Path = DIGESTS) -> tuple[str, dict[str, str]]:
    """The versions line and the label -> digest table of a digests file."""
    made_with, table = None, {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("made with "):
            made_with = line[len("made with "):]
        elif line and not line.startswith("#"):
            label, value = line.split()
            table[label] = value
    return made_with, table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help=f"rewrite {DIGESTS.relative_to(ROOT)}")
    args = parser.parse_args()
    lines = [f"{label} {digest(label)}" for label in CONFIGS]
    print("\n".join(lines))
    if args.write:
        DIGESTS.write_text(
            "# SHA-256 over every file one `cellflow run` writes, seed 7; "
            "configurations in scripts/golden_digests.py.\n"
            "# Rewrite with: python scripts/golden_digests.py --write\n"
            f"made with {versions()}\n" + "\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {DIGESTS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
