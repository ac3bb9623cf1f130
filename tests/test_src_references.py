"""Guard: every function, class and method under src/cellflow serves the program.

A definition that only tests reference is a test helper living in the
package; it belongs under tests/. Program code is src/, scripts/ and
perfbench/ (less perfbench's own tests). A reference is a name, an
attribute, an imported name or a string naming it (perfbench patches
functions by name). Dunder methods are called implicitly and are skipped.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# witnesses the acceptance criteria read on purpose, with the criterion
TEST_ONLY_ALLOWED = {
    "pipeline.Simulation.live_plus_deep": "criterion 07: live + deep is conserved",
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
