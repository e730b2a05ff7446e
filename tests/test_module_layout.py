"""Module boundaries: the numpy-free core, the one home of the argument
checks, of the fan coordinate and of the axis band, the names the benchmark
traces, and no unused imports.

`_kernels` holds the endpoint solver's float core, so it and every package
module it imports must not import numpy.  `import sl2geo._kernels` runs the
package `__init__`, which does, so the check reads the sources with `ast`
instead of importing them.  The argument guards `_kernels._finite` and
`_kernels._grid` are likewise found in the sources.
"""

import ast
import importlib
import importlib.util
import io
import pathlib
import tokenize
from collections import Counter

import pytest

import sl2geo

PACKAGE = pathlib.Path(sl2geo.__file__).parent
TESTS = pathlib.Path(__file__).parent
TRACING = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _runtime_imports(module: str) -> list[tuple[str, list[str]]]:
    """(imported module, names) for each import the module runs.

    Package modules are named without the `sl2geo.` prefix; imports under
    `if TYPE_CHECKING:` never run and are left out.
    """
    found = []

    class Visitor(ast.NodeVisitor):
        def visit_If(self, node):
            if ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
                for child in node.orelse:
                    self.visit(child)
            else:
                self.generic_visit(node)

        def visit_Import(self, node):
            found.extend((alias.name, []) for alias in node.names)

        def visit_ImportFrom(self, node):
            names = [alias.name for alias in node.names]
            if node.level == 0:
                found.append((node.module, names))
            elif node.module is None:  # from . import a, b
                found.extend((name, []) for name in names)
            else:
                found.append((node.module, names))

    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    Visitor().visit(tree)
    return [(name.removeprefix("sl2geo."), names) for name, names in found]


def _is_package_module(name: str) -> bool:
    return (PACKAGE / f"{name}.py").is_file()


def test_kernels_and_their_imports_are_numpy_free():
    seen, todo = set(), ["_kernels"]
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        for name, _ in _runtime_imports(module):
            assert name.split(".")[0] != "numpy", f"{module} imports {name}"
            if _is_package_module(name):
                todo.append(name)
    assert seen == {"_kernels", "errors", "tolerances", "types"}


def test_runtime_import_scan_sees_numpy():
    # The scan above would pass vacuously if it missed imports.
    assert ("numpy", []) in _runtime_imports("algebra")
    assert all(name != "numpy" for name, _ in _runtime_imports("types"))


@pytest.mark.parametrize("module", ["geodesics", "quotient", "synthesis"])
def test_private_imports_only_from_the_core(module):
    # The float core lives in _kernels; the other modules share only the
    # numpy boundary _entries/_matrix, and no other private name.
    for name, names in _runtime_imports(module):
        private = {n for n in names if n.startswith("_")}
        if name == "algebra":
            assert private <= {"_entries", "_matrix"}, (module, private)
        elif name != "_kernels":
            assert not private, (module, name, private)


def _error_constructions(module: str) -> list[tuple[str, str, str]]:
    """(enclosing function, error class, literal text of the message) for
    each call of a class of `sl2geo.errors` in the module's source."""
    errors = {node.name for node in ast.parse(
        (PACKAGE / "errors.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)}
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in errors:
                text = "".join(part.value for arg in node.args[:1]
                               for part in ast.walk(arg)
                               if isinstance(part, ast.Constant)
                               and isinstance(part.value, str))
                found.append((function, name, text))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")), None)
    return found


# Message fragments of the shared argument checks: the non-finite argument
# and the three sampler-grid errors.
_GUARD_MESSAGES = (" is not finite", "need at least 2 samples, got ",
                   "s_max must be positive, got ", " samples overflows the grid")


def test_argument_checks_have_one_home():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    homes = Counter()
    for module in modules:
        for function, error, text in _error_constructions(module):
            if any(fragment in text for fragment in _GUARD_MESSAGES):
                homes[(module, function, error)] += 1
    assert homes == {("_kernels", "_finite", "NonFiniteError"): 1,
                     ("_kernels", "_grid", "BadGridError"): 3}


def _expression_homes(texts) -> Counter:
    """(module, enclosing function, text) for each expression in the
    package's source that reads as one of the texts once parsed."""
    wanted = {ast.unparse(ast.parse(text, mode="eval").body): text for text in texts}
    homes = Counter()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.expr) and ast.unparse(node) in wanted:
            homes[(module, function, wanted[ast.unparse(node)])] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return homes


# The fan coordinate's two maps, u -> delta on the trigonometric part and
# u -> c on the hyperbolic one: a second copy of either would be a second
# definition of the fan crossing, free to drift from the first.
_FAN_MAPS = ("math.pi * u / span", "(1.0 + span) - u")


def test_fan_coordinate_has_one_home():
    assert _expression_homes(_FAN_MAPS) == {("synthesis", "gap", text): 1 for text in _FAN_MAPS}


# The axis band: the solver branches on the cut-locus class alone, so the
# band is written once, in the classifier, and no second flag carries it.
_AXIS_BAND = "abs(y) <= SINGULAR_BAND"


def test_axis_band_has_one_home():
    assert _expression_homes([_AXIS_BAND]) == {("synthesis", "_stratum", _AXIS_BAND): 1}
    names = {(path.stem, token.string) for path in sorted(PACKAGE.glob("*.py"))
             for token in tokenize.generate_tokens(io.StringIO(
                 path.read_text(encoding="utf-8")).readline)
             if token.type == tokenize.NAME}
    assert ("synthesis", "_stratum") in names  # the scan sees names
    assert not {module for module, name in names if name == "on_axis"}


def test_cli_raises_no_geometry_error_of_its_own():
    # The library names every domain problem; the CLI only reports it.
    assert _error_constructions("cli") == []
    assert _error_constructions("su2")  # the scan sees constructions


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve(monkeypatch):
    # perfbench/tracing.py wraps these functions by name; a rename or a move
    # must not leave one of its spans or counts without a target.
    monkeypatch.setattr("sys.dont_write_bytecode", True)
    tracing = _load_tracing()
    for module, func in tracing.SPANNED:
        assert callable(getattr(importlib.import_module(f"sl2geo.{module}"), func))
    for module, func, only in tracing.COUNTED:
        target = getattr(importlib.import_module(f"sl2geo.{module}"), func)
        assert callable(target)
        for user in only or ():
            bound = vars(importlib.import_module(f"sl2geo.{user}"))
            assert any(value is target for value in bound.values()), (user, func)


def _unused_imports(source: str) -> list[str]:
    """Names that the imports of a module's source bind and it never reads.

    Names in the module's `__all__`, and the names of an import marked
    `# noqa: F401` (a deliberate re-export), count as read.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    bound, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or any(
                    "# noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                if isinstance(node, ast.Import):
                    bound.add(alias.asname or alias.name.split(".")[0])
                elif alias.name != "*":
                    bound.add(alias.asname or alias.name)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_no_unused_imports():
    unused = {f"{path.parent.name}/{path.name}": names
              for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
              if (names := _unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}


def test_unused_import_scan_sees_unused_names():
    # The scan above would pass vacuously if it missed imports.
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\nimport json as j\n"
              "from math import (pi,\n    tau)\n"
              "from re import sub  # noqa: F401\n"
              "__all__ = ['tau']\nprint(sys.argv, pi)\n")
    assert _unused_imports(source) == ["j", "os"]
