"""Guard: every function, class, method and field under src/cellflow serves the program.

A definition that only tests reference is a test helper living in the
package; it belongs under tests/. Program code is src/, scripts/ and
perfbench/ (less perfbench's own tests). A reference is a name, an
attribute, an imported name or a string naming it (perfbench patches
functions by name). Dunder methods are called implicitly and are skipped.
A field (an annotated class-body name, as a dataclass field is, or an
attribute that an __init__ assigns to self) must be read: loaded as an attribute, or named by a string.
A field matches by its bare name, so a read of any field of that name counts
for it: an unread ``Obstacle.name`` escaped through reads of ``ObstacleConfig.name``.
A parameter with a default must be passed by some program call: by keyword,
by position (a method call skips self), or through *args or **kwargs. A call
matches by the callee's bare name, and a call of a class counts for its
__init__.
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
UNPASSED_PARAMETERS_ALLOWED = {
    "grid.volume_report(per_cell)": "criterion 04: deep cells count as full",
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


def defaulted_parameters() -> dict[str, tuple[str, str, int | None]]:
    """'module.function(parameter)' -> (callee name, parameter, positional
    index, or None if keyword-only) of each defaulted parameter of a top-level
    function of src/cellflow, or of a method of a top-level class. A method's
    index skips its self or cls; an __init__ is called by its class's name."""
    found = {}
    for path in sorted((ROOT / "src" / "cellflow").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            fns = [(node.name, node.name, node, 0)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        callee = node.name if sub.name == "__init__" else sub.name
                        fns.append((f"{node.name}.{sub.name}", callee, sub, 1))
            for qual, callee, fn, skip in fns:
                args = fn.args.posonlyargs + fn.args.args
                first = len(args) - len(fn.args.defaults)
                params = [(arg.arg, k - skip) for k, arg in enumerate(args) if k >= first]
                params += [(arg.arg, None) for arg, default
                           in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
                found.update({f"{path.stem}.{qual}({name})": (callee, name, index)
                              for name, index in params})
    return found


def program_calls(paths) -> dict[str, list[ast.Call]]:
    """Callee bare name -> the calls of it in the given files."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def passes(call: ast.Call, name: str, index: int | None) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    return index is not None and (len(call.args) > index
                                  or any(isinstance(arg, ast.Starred) for arg in call.args))


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


def test_no_defaulted_parameter_is_test_only():
    calls = program_calls(program_files())
    unpassed = sorted(q for q, (callee, name, index) in defaulted_parameters().items()
                      if not any(passes(call, name, index) for call in calls.get(callee, []))
                      and q not in UNPASSED_PARAMETERS_ALLOWED)
    assert not unpassed, f"defaulted parameters that no program code passes: {unpassed}"


def test_parameter_allowlist_names_existing_parameters():
    assert set(UNPASSED_PARAMETERS_ALLOWED) <= set(defaulted_parameters())
