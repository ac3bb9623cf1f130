"""Guard: every function, class, method and field under src/cellflow serves the program.

A definition that only tests reference is a test helper living in the
package; it belongs under tests/. Program code is src/, scripts/ and
perfbench/ (less perfbench's own tests). A reference is a name, an
attribute, an imported name or a string naming it (perfbench patches
functions by name). Dunder methods are called implicitly and are skipped.
A field (an annotated class-body name, as a dataclass field is, or an
attribute that an __init__ assigns to self) must be read: loaded as an attribute, or named by a string.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# witnesses the acceptance criteria read on purpose, with the criterion
TEST_ONLY_ALLOWED = {
    "pipeline.Simulation.live_plus_deep": "criterion 07: live + deep is conserved",
}
UNREAD_FIELDS_ALLOWED = {
    "band.BandState.last_s_in": "criterion 07: the band slacks stay nonnegative",
    "band.BandState.last_s_out": "criterion 07: the band slacks stay nonnegative",
    "grid.VolumeReport.per_cell": "criterion 04: deep cells count as full",
    "grid.VolumeReport.filled": "criterion 02: the overflow-only measure is exact",
    "pipeline.Simulation.last_stage_trace": "the stage order of every substep (TestStageOrder)",
}


def src_definitions() -> dict[str, str]:
    """Qualified name -> bare name of each top-level function and class of
    src/cellflow, and of each non-dunder method of those classes."""
    found = {}
    for path in sorted((ROOT / "src" / "cellflow").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                        found[f"{path.stem}.{node.name}.{sub.name}"] = sub.name
    return found


def src_fields() -> dict[str, str]:
    """Qualified name -> bare name of each annotated field in a class body of
    src/cellflow (the dataclass fields), and of each self attribute that an
    __init__ assigns."""
    found = {}
    for path in sorted((ROOT / "src" / "cellflow").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            names = []
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    names.append(sub.target.id)
                if isinstance(sub, ast.FunctionDef) and sub.name == "__init__":
                    names += [t.attr for t in ast.walk(sub)
                              if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
                              and isinstance(t.value, ast.Name) and t.value.id == "self"]
            found.update({f"{path.stem}.{node.name}.{name}": name for name in names})
    return found


def read_names(paths) -> set[str]:
    """Attributes loaded and strings named in the given files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def referenced_names(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def program_files():
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            if not path.name.startswith("test_"):
                yield path


def test_no_src_definition_is_test_only():
    program = referenced_names(program_files())
    unused = sorted(q for q, name in src_definitions().items()
                    if name not in program and q not in TEST_ONLY_ALLOWED)
    assert not unused, f"defined in src/ but referenced by no program code: {unused}"


def test_allowlist_names_existing_definitions():
    assert set(TEST_ONLY_ALLOWED) <= set(src_definitions())


def test_no_src_field_is_unread():
    program = read_names(program_files())
    unread = sorted(q for q, name in src_fields().items()
                    if name not in program and q not in UNREAD_FIELDS_ALLOWED)
    assert not unread, f"fields in src/ that no program code reads: {unread}"


def test_field_allowlist_names_existing_fields():
    assert set(UNREAD_FIELDS_ALLOWED) <= set(src_fields())
