"""No dead public code: every public top-level function and class of each
confpair module, and every public method and property of its classes, is
referenced somewhere outside its own body, and only the kept library entry
points are referenced from tests alone."""

import ast
from pathlib import Path

from sources import PACKAGE, ROOT, parse_file, walk


def _references(tree: ast.AST, modules: set[str]):
    """(name, line) for every read of a Name, every attribute taken of a
    package module (`jets.x`) and every import alias in a module.  A
    dataclass field or an attribute of some other object that shares a
    public function's name is not a reference to it."""
    for node in walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], node.lineno


def public_name_callers(package: Path, tests: Path) -> dict[str, set[Path]]:
    """Every public top-level function and class of the package, with the
    files that reference it outside its own body."""
    files = sorted(package.glob("*.py")) + sorted(tests.glob("*.py"))
    modules = {path.stem for path in package.glob("*.py")}
    refs = _by_name((path, ref) for path in files for ref in _references(parse_file(path), modules))
    callers = {}
    for path in sorted(package.glob("*.py")):
        for node in parse_file(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            callers[f"{path.stem}.{node.name}"] = {
                other for other, line in refs.get(node.name, []) if other != path or line not in own
            }
    return callers


def _by_name(found) -> dict[str, list[tuple[Path, int]]]:
    """(file, line) of each (file, (name, line)) found, grouped by name."""
    out: dict[str, list[tuple[Path, int]]] = {}
    for path, (name, line) in found:
        out.setdefault(name, []).append((path, line))
    return out


def unreferenced_public_names(package: Path, tests: Path) -> list[str]:
    return [name for name, files in public_name_callers(package, tests).items() if not files]


def names_only_tests_reference(package: Path, tests: Path) -> list[str]:
    return [name for name, files in public_name_callers(package, tests).items()
            if files and all(f.parent == tests for f in files)]


def test_every_public_function_and_class_is_referenced():
    assert unreferenced_public_names(PACKAGE, ROOT / "tests") == []


def test_public_names_only_tests_call_are_the_library_entry_points():
    # tests count as callers above, so a helper only tests use would pass it;
    # these four are entry points kept for library users
    assert names_only_tests_reference(PACKAGE, ROOT / "tests") == [
        "conformal_calc.conformal_sff",
        "extension.transversality_check",
        "gallery.default_chart",
        "jets.gauss_equation_residual",
    ]


def test_dead_function_is_flagged(tmp_path):
    package, tests = tmp_path / "pkg", tmp_path / "tests"
    package.mkdir()
    tests.mkdir()
    (package / "a.py").write_text(
        '__all__ = ["used", "dead"]\n\n\n'
        "def used():\n    return 1\n\n\n"
        "def dead(k):\n    return dead(k - 1) if k else 0\n\n\n"
        "class _Private:\n    pass\n"
    )
    # a field and an attribute of another object named like the dead function
    (package / "b.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass Holder:\n    dead: float\n\n\n"
        "def show(holder: Holder):\n    return holder.dead\n"
    )
    (tests / "test_a.py").write_text("import a\nfrom a import used\nfrom b import show\n\n"
                                     "assert a.used() == 1\n")
    assert unreferenced_public_names(package, tests) == ["a.dead"]


def public_member_callers(package: Path, tests: Path) -> dict[str, set[Path]]:
    """Every public method and property (`Class.name`, dunders and `_names`
    aside) of the classes of the package, with the files that take an
    attribute of that name outside the member's own body.  Members are
    matched by name, so an attribute of another object with the same name
    counts as a reference."""
    files = sorted(package.glob("*.py")) + sorted(tests.glob("*.py"))
    reads = _by_name((path, (node.attr, node.lineno)) for path in files for node in walk(parse_file(path))
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    callers = {}
    for path in sorted(package.glob("*.py")):
        for cls in walk(parse_file(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                own = range(node.lineno, node.end_lineno + 1)
                callers[f"{path.stem}.{cls.name}.{node.name}"] = {
                    other for other, line in reads.get(node.name, []) if other != path or line not in own
                }
    return callers


def test_every_public_method_and_property_is_referenced():
    callers = public_member_callers(PACKAGE, ROOT / "tests")
    assert [name for name, files in callers.items() if not files] == []


def test_no_public_member_is_called_from_tests_alone():
    callers = public_member_callers(PACKAGE, ROOT / "tests")
    assert [name for name, files in callers.items()
            if files and all(f.parent == ROOT / "tests" for f in files)] == []


def test_dead_method_and_property_are_flagged(tmp_path):
    package, tests = tmp_path / "pkg", tmp_path / "tests"
    package.mkdir()
    tests.mkdir()
    (package / "a.py").write_text(
        "class Box:\n"
        "    def __init__(self, k):\n        self.k = k\n\n"
        "    @property\n    def size(self):\n        return self.k\n\n"
        "    @property\n    def spare(self):\n        return 0\n\n"
        "    def shrink(self, k):\n        return self.shrink(k - 1) if k else self.size\n\n"
        "    def probe(self):\n        return 1\n\n"
        "    def _hidden(self):\n        return 2\n\n\n"
        "def use(box):\n    return box.size\n"
    )
    (tests / "test_a.py").write_text("from a import Box\n\nassert Box(1).probe() == 1\n")
    callers = public_member_callers(package, tests)
    assert [name for name, files in callers.items() if not files] == ["a.Box.spare", "a.Box.shrink"]
    assert callers["a.Box.probe"] == {tests / "test_a.py"}


def _passed(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether a call passes a parameter: by keyword, by a `**kw` (which
    counts as every keyword), or at its position, a `*args` included."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return index is not None and (len(call.args) > index
                                  or any(isinstance(a, ast.Starred) for a in call.args))


def unset_defaults(package: Path, tests: Path, skip: tuple[str, ...] = ()) -> list[str]:
    """`module.function.parameter` of each parameter with a default, on a
    public top-level function of the package outside the `skip` modules,
    that no call in the package or the tests passes.  A call is matched by
    the name it uses, bare or as an attribute."""
    files = sorted(package.glob("*.py")) + sorted(tests.glob("*.py"))
    calls: dict[str, list[ast.Call]] = {}
    for path in files:
        for node in walk(parse_file(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem in skip:
            continue
        for node in parse_file(path).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            found += [f"{path.stem}.{node.name}.{name}" for index, name in defaulted
                      if not any(_passed(c, index, name) for c in calls.get(node.name, []))]
    return found


def test_every_defaulted_parameter_is_passed_by_some_call():
    # gallery factories are left out: manifests set their parameters
    # through `GALLERY[...]`, which no call names
    assert unset_defaults(PACKAGE, ROOT / "tests", skip=("gallery",)) == []


def test_unset_default_is_flagged(tmp_path):
    package, tests = tmp_path / "pkg", tmp_path / "tests"
    package.mkdir()
    tests.mkdir()
    (package / "a.py").write_text(
        "def f(x, scale=1.0, shift=0.0, *, knob=2, must):\n    return x\n\n\n"
        "def g(x, offset=0.0):\n    return x\n\n\n"
        "def h(x, size=3):\n    return x\n"
    )
    (tests / "test_a.py").write_text(
        "import a\n\n"
        "a.f(1, 2.0, must=0)\n"    # scale by position
        "g(1, **options)\n"        # a **kw passes every keyword
        "h(*values)\n"             # a *args passes every position
    )
    assert unset_defaults(package, tests) == ["a.f.shift", "a.f.knob"]


def unread_fields(package: Path, tests: Path, skip: tuple[str, ...] = ()) -> list[str]:
    """`module.Class.field` of each dataclass field in the package, outside
    the `skip` classes, that no attribute read in the package or the tests
    names.  Reads inside the field's own class count; passing the field as
    a keyword when constructing the class does not."""
    files = sorted(package.glob("*.py")) + sorted(tests.glob("*.py"))
    read = {node.attr for path in files for node in walk(parse_file(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = []
    for path in sorted(package.glob("*.py")):
        for node in parse_file(path).body:
            if not (isinstance(node, ast.ClassDef) and node.name not in skip and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list)):
                continue
            found += [f"{path.stem}.{node.name}.{stmt.target.id}" for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                      and stmt.target.id not in read]
    return found


def test_every_dataclass_field_is_read():
    """A result type carries only what some code reads.

    Fields are matched by name, so a field passes when any object has an
    attribute of that name that some code reads.  The pipeline's region
    builder reads `reg.joint` and `reg.pos_right`, so this lint cannot see
    a `PairAnalysis.joint` or a `RegionState.pos_right` that nothing reads;
    those two were found, and removed, by inspection.
    """
    # `ConformalSFF` is the result of `conformal_sff`, a kept library entry
    # point: its fields are there for library users, not for this package
    assert unread_fields(PACKAGE, ROOT / "tests", skip=("ConformalSFF",)) == []


def test_unread_field_is_flagged(tmp_path):
    package, tests = tmp_path / "pkg", tmp_path / "tests"
    package.mkdir()
    tests.mkdir()
    (package / "a.py").write_text(
        "from dataclasses import dataclass, field\n\n\n"
        "@dataclass\nclass Result:\n    value: int\n    spare: float\n"
        "    note: str = ''\n    log: list = field(default_factory=list)\n\n"
        "    def describe(self):\n        return self.note\n\n\n"
        "@dataclass(frozen=True)\nclass Skipped:\n    hidden: int\n\n\n"
        "class Plain:\n    untyped: int\n\n\n"
        "def make():\n    return Result(value=1, spare=2.0, log=[])\n"
    )
    (tests / "test_a.py").write_text("from a import make\n\nassert make().value == 1\n")
    assert unread_fields(package, tests, skip=("Skipped",)) == ["a.Result.spare", "a.Result.log"]
