"""Guard: every function, class, method and field under src/cellflow serves the program.

A definition that only tests reference is a test helper living in the
package; it belongs under tests/. Program code is src/, scripts/ and
perfbench/ (less perfbench's own tests). A reference is a name, an
attribute, an imported name or a string naming it (perfbench patches
functions by name). Dunder methods are called implicitly and are skipped.
A field (an annotated class-body name, as a dataclass field is, or an
attribute that an __init__ assigns to self) must be read: loaded as an attribute, or named by a string.
A field matches by its bare name, so a read of any field of that name counts
for it: an unread ``Obstacle.name`` escaped through reads of
``ObstacleConfig.name``, and an unread ``CorrectionProblem.mu`` through reads
of ``SceneConfig.mu``. So the names that fields of two or more classes share
are pinned with their classes, and a new sharing fails until its reads are
checked by hand.
A parameter with a default must be passed by some program call: by keyword,
by position (a method call skips self), or through *args or **kwargs. It
must also be omitted by some program call, or the default serves only tests.
A call of a class counts for its __init__. A call names its callee through
the file's imports and top-level definitions where it can, so neither
``subprocess.run`` nor a script's own ``run`` is a call of ``pipeline.run``;
a call through anything else (a method call on an object) matches by the
callee's bare name.
A function whose return statement gives a value must have that value used
by some program call, a call that is not a statement of its own, or the
value serves only tests.
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
# field name -> the classes whose fields share it; each class's field was
# checked by hand to be read by program code
SHARED_FIELD_NAMES = {
    "R": {"band.BandState", "scene.BandConfig"},
    "band": {"pipeline.FrameRecord", "pipeline.Simulation", "scene.SceneConfig"},
    "box": {"scene.EmitterConfig", "scene.FluidRegion", "scene.ObstacleConfig"},
    "cap": {"band.EdgeCost", "correction.CorrectionProblem"},
    "cfg": {"outputs.RunWriter", "pipeline.Emitter", "pipeline.Simulation", "solids.Obstacle"},
    "cost": {"band.EdgeCost", "correction.CandidateTable"},
    "counts": {"band.CellMembers", "grid.CellGrid"},
    "d": {"flip.MacGrid", "grid.CellGrid"},
    "dims": {"correction.CorrectionProblem", "flip.MacGrid", "grid.CellGrid", "scene.SceneConfig"},
    "emitters": {"pipeline.Simulation", "scene.SceneConfig"},
    "name": {"scene.ObstacleConfig", "scene.SceneConfig"},
    "obstacles": {"pipeline.Simulation", "scene.SceneConfig"},
    "vel": {"flip.MacGrid", "flip.ParticleSet"},
    "velocity": {"scene.EmitterConfig", "scene.ObstacleConfig", "solids.Obstacle"},
}
UNPASSED_PARAMETERS_ALLOWED = {
    "grid.volume_report(per_cell)": "criterion 04: deep cells count as full",
}
RETURN_UNUSED_ALLOWED = {
    "solvers.reduce_to_flow": "perfbench/tracing.py reads n_arcs off the problem it returns",
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


def src_functions():
    """(module, callee name, qualified name, node) of each top-level function
    of src/cellflow and each method of a top-level class; an __init__ is
    called by its class's name."""
    for path in sorted((ROOT / "src" / "cellflow").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                yield path.stem, node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        callee = node.name if sub.name == "__init__" else sub.name
                        yield path.stem, callee, f"{node.name}.{sub.name}", sub


def defaulted_parameters() -> dict[str, tuple[str, str, str, int | None]]:
    """'module.function(parameter)' -> (module, callee name, parameter,
    positional index, or None if keyword-only) of each defaulted parameter of
    a src function. A method's index skips its self or cls."""
    found = {}
    for module, callee, qual, fn in src_functions():
        skip = int("." in qual)
        args = fn.args.posonlyargs + fn.args.args
        first = len(args) - len(fn.args.defaults)
        params = [(arg.arg, k - skip) for k, arg in enumerate(args) if k >= first]
        params += [(arg.arg, None) for arg, default
                   in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
        found.update({f"{module}.{qual}({name})": (module, callee, name, index)
                      for name, index in params})
    return found


def returns_value(fn: ast.FunctionDef) -> bool:
    """Whether a return statement of the function's own body gives a value."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Return) and node.value is not None and not (
                isinstance(node.value, ast.Constant) and node.value.value is None):
            return True
        if not isinstance(node, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return False


def returning_functions() -> dict[str, tuple[str, str]]:
    """'module.function' -> (module, callee name) of each src function, less
    dunders and properties, that returns a value."""
    return {f"{module}.{qual}": (module, callee) for module, callee, qual, fn in src_functions()
            if not fn.name.startswith("__") and returns_value(fn)
            and not any(getattr(dec, "id", None) == "property" for dec in fn.decorator_list)}


def bound_names(path: Path, tree: ast.Module) -> dict[str, str]:
    """Name -> the dotted path that the file's imports, anywhere in it, or its
    top-level definitions bind it to. A relative import, and a definition in
    src/cellflow, resolve in the cellflow package; another file's
    definitions resolve under the file's own path."""
    here = (f"cellflow.{path.stem}" if path.parent == ROOT / "src" / "cellflow"
            else str(path.relative_to(ROOT)))
    bound = {node.name: f"{here}.{node.name}" for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["cellflow" if node.level else None, node.module]))
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{base}.{alias.name}"
    return bound


def dotted(node: ast.expr, bound: dict[str, str]) -> str | None:
    """The dotted path of a chain of attributes on a bound name, or None."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        head = dotted(node.value, bound)
        return head and f"{head}.{node.attr}"
    return None


def program_uses(paths):
    """The uses of callables in the given files: callee bare name -> (owner,
    call, whether its value is used) of each call, and the (owner, bare name)
    of each name or attribute loaded but not called, a function passed on as
    a value (a builtin scene's constructor) whose calls no guard sees. The
    owner is the dotted path that the name is an attribute of, or None where
    it is reached through an object."""
    calls, values = {}, set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = bound_names(path, tree)
        statements = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Call, ast.Name, ast.Attribute)):
                named = node.func if isinstance(node, ast.Call) else node
                name = getattr(named, "id", None) or getattr(named, "attr", None)
                where = dotted(named, bound)
                owner = where.rsplit(".", 1)[0] if where else None
                if isinstance(node, ast.Call):
                    calls.setdefault(name, []).append((owner, node, id(node) not in statements))
                elif isinstance(node.ctx, ast.Load) and id(node) not in callees:
                    values.add((owner, name))
    return calls, values


def reaches(owner: str | None, module: str) -> bool:
    """Whether a callee under ``owner`` may be one of src/cellflow/<module>.py:
    it is reached through an object, or resolved to that module or a class
    of it."""
    home = f"cellflow.{module}"
    return owner is None or owner == home or owner.startswith(home + ".")


def calls_of(calls, module: str, callee: str) -> list[tuple[ast.Call, bool]]:
    """(call, whether its value is used) of each program call that may reach
    ``callee`` of src/cellflow/<module>.py."""
    return [(call, used) for owner, call, used in calls.get(callee, []) if reaches(owner, module)]


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


def test_shared_field_names_are_pinned():
    shared = {}
    for qual, name in src_fields().items():
        shared.setdefault(name, set()).add(qual.rsplit(".", 1)[0])
    shared = {name: classes for name, classes in shared.items() if len(classes) > 1}
    new = {name: sorted(classes - SHARED_FIELD_NAMES.get(name, set()))
           for name, classes in shared.items() if classes - SHARED_FIELD_NAMES.get(name, set())}
    assert not new, ("field names newly shared by two or more src classes, whose reads "
                     f"match by bare name; check that each class's field is read: {new}")
    assert shared == SHARED_FIELD_NAMES, "a pinned class no longer shares its field name"


def test_no_defaulted_parameter_is_test_only():
    calls, _ = program_uses(program_files())
    unpassed = sorted(q for q, (module, callee, name, index) in defaulted_parameters().items()
                      if not any(passes(call, name, index)
                                 for call, _ in calls_of(calls, module, callee))
                      and q not in UNPASSED_PARAMETERS_ALLOWED)
    assert not unpassed, f"defaulted parameters that no program code passes: {unpassed}"


def test_no_default_is_always_overridden():
    calls, _ = program_uses(program_files())
    overridden = sorted(q for q, (module, callee, name, index) in defaulted_parameters().items()
                        if all(passes(call, name, index)
                               for call, _ in calls_of(calls, module, callee)))
    assert not overridden, f"defaulted parameters that every program call passes: {overridden}"


def test_parameter_allowlist_names_existing_parameters():
    assert set(UNPASSED_PARAMETERS_ALLOWED) <= set(defaulted_parameters())


def test_no_returned_value_is_test_only():
    calls, values = program_uses(program_files())
    unused = sorted(q for q, (module, callee) in returning_functions().items()
                    if not any(used for _, used in calls_of(calls, module, callee))
                    and not any(name == callee and reaches(owner, module) for owner, name in values)
                    and q not in RETURN_UNUSED_ALLOWED and q not in TEST_ONLY_ALLOWED)
    assert not unused, f"functions whose returned value no program call uses: {unused}"


def test_return_allowlist_names_existing_functions():
    assert set(RETURN_UNUSED_ALLOWED) <= set(returning_functions())
