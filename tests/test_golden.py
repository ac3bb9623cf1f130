"""Golden dump digests: each configuration of scripts/golden_digests.py still
writes the bytes recorded in tests/golden_digests.txt.

A change that alters outputs on purpose rewrites the file with
``python scripts/golden_digests.py --write`` and says which digests changed
and why. The digests hold for the Python and numpy versions the file names;
under others the test fails and names both, rather than skipping.
"""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden_digests", ROOT / "scripts" / "golden_digests.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

MADE_WITH, RECORDED = golden.read_digests()


def test_every_configuration_has_a_digest():
    assert list(RECORDED) == list(golden.CONFIGS)


@pytest.mark.parametrize("label", list(golden.CONFIGS))
def test_dumps_match_golden_digest(label):
    assert golden.versions() == MADE_WITH, (
        f"golden digests were made with {MADE_WITH}, this is {golden.versions()}: "
        "rewrite them with `python scripts/golden_digests.py --write` at a commit "
        "whose outputs are known good")
    assert golden.digest(label) == RECORDED[label], (
        f"{label}: dumps differ from the golden digest; "
        "scripts/compare_dumps.py against the parent shows which file")
