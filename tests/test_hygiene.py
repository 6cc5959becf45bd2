"""Source hygiene: no module imports a name it never uses, every record
field and property (dataclass or NamedTuple) is read somewhere, every
name the benchmark's tracer binds exists, and the library outside the CLI
grows no defaulted parameter."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# a package's __init__ imports are its public names, not dead code
MODULES = sorted(
    path for base in (ROOT / "src" / "poncelet", ROOT / "tests")
    for path in base.rglob("*.py") if path.name != "__init__.py"
)
# where a record field may be read: the library, its tests and the
# benchmark
READERS = sorted(path for base in ("src", "tests", "perfbench")
                 for path in (ROOT / base).rglob("*.py"))


def unused_imports(source):
    """Names bound by an import statement of `source` that no other node
    of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_flags_only_unread_names():
    source = ("import os, sys\n"
              "import numpy.linalg\n"
              "from math import pi, tau as turn\n"
              "print(sys.argv, numpy.linalg, pi)\n")
    assert unused_imports(source) == [(1, "os"), (3, "turn")]


def test_modules_are_found():
    names = {path.name for path in MODULES}
    assert {"rotation.py", "cli.py", "_ref.py", "test_hygiene.py"} <= names


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def defaulted_parameters(source):
    """(function, parameter) for each parameter of a function or lambda of
    `source` that has a default value."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):]
            with_default += [arg for arg, default in zip(args.kwonlyargs,
                                                         args.kw_defaults)
                             if default is not None]
            found += [(getattr(node, "name", "<lambda>"), arg.arg)
                      for arg in with_default]
    return found


def test_default_scan_finds_every_kind_of_default():
    source = ("def f(a, b=1, *, c, d=2):\n"
              "    return lambda e=3: e\n"
              "def g(h, /, i=4):\n"
              "    pass\n")
    assert sorted(defaulted_parameters(source)) == [
        ("<lambda>", "e"), ("f", "b"), ("f", "d"), ("g", "i")]


#: Defaulted parameters of src/poncelet outside cli.py, whose options are
#: the program's interface.  Each default here is one that some caller
#: relies on; a default that repeats what every caller passes goes.
#: Lower the bound, and take the entry out, when a default goes.
MAX_DEFAULTED_PARAMETERS = 11
DEFAULTED_PARAMETERS = [
    "_ref.py:arnold_step(fns)",                      # the scalar build
    "_ref.py:poncelet_step(fns)",                    # the scalar build
    "confrac.py:find_balanced_pairs(n_max)",         # 30 in twistfam
    "families.py:poncelet_family(reverse)",          # perfbench
    "families.py:rigid_family(a)",                   # the CLI's family
    "families.py:rigid_family(b)",                   # the CLI's family
    "lifts.py:validate(samples)",                    # 64, or 16 in rotation
    "rotation.py:count_poncelet_pairs(seed)",        # perfbench
    "rotation.py:find_parameter_for_value(iters)",   # 48 in the CLI
    "rotation.py:rotation_number(tol)",              # perfbench
    "twistfam.py:second_order_estimate(delta_seq)",  # the CLI's deltas
]


def test_library_grows_no_defaulted_parameter():
    found = sorted(f"{path.name}:{function}({name})"
                   for path in (ROOT / "src" / "poncelet").rglob("*.py")
                   if path.name != "cli.py"
                   for function, name in defaulted_parameters(
                       path.read_text()))
    assert len(found) <= MAX_DEFAULTED_PARAMETERS, found
    assert found == DEFAULTED_PARAMETERS


def record_fields(source):
    """(class, field) for each field of a record class of `source`: one
    decorated with @dataclass or based on NamedTuple declares its annotated
    names and its properties, and a class based on a record class of
    `source` has that class's fields too."""
    fields = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = [getattr(base, "id", getattr(base, "attr", None))
                 for base in node.bases]
        names = [name for base in bases for name in fields.get(base, [])]
        if "NamedTuple" in bases or any(
                getattr(getattr(d, "func", d), "id", None) == "dataclass"
                for d in node.decorator_list):
            names += [stmt.target.id for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign)
                      and isinstance(stmt.target, ast.Name)]
            names += [stmt.name for stmt in node.body
                      if isinstance(stmt, ast.FunctionDef)
                      and any(getattr(d, "id", None) == "property"
                              for d in stmt.decorator_list)]
        if names:
            fields[node.name] = names
    return [(cls, name) for cls, names in fields.items() for name in names]


def attributes_read(source):
    """Names read as `.name` anywhere in `source`."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_field_scan_finds_declarations_and_reads():
    source = ("@dataclass(frozen=True)\n"
              "class A:\n"
              "    x: int\n"
              "    y: int = 0\n"
              "    def f(self):\n"
              "        self.z = self.x\n"
              "@dataclass\n"
              "class B:\n"
              "    w: float\n"
              "class C:\n"
              "    v: float\n"
              "class D(NamedTuple):\n"
              "    u: int\n"
              "    s: str = ''\n"
              "    @property\n"
              "    def ok(self):\n"
              "        return not self.s\n"
              "    def helper(self):\n"
              "        pass\n"
              "class E(D):\n"
              "    __slots__ = ()\n"
              "class F(typing.NamedTuple):\n"
              "    r: int\n")
    assert record_fields(source) == [
        ("A", "x"), ("A", "y"), ("B", "w"), ("D", "u"), ("D", "s"),
        ("D", "ok"), ("E", "u"), ("E", "s"), ("E", "ok"), ("F", "r")]
    assert attributes_read(source) == {"x", "s", "NamedTuple"}


FIELDS = sorted(
    f"{path.stem}.{cls}.{name}"
    for path in (ROOT / "src" / "poncelet").rglob("*.py")
    for cls, name in record_fields(path.read_text())
)


def test_fields_are_found():
    assert "rotation.RotationEstimate.error_radius" in FIELDS
    assert "geometry.PonceletConfig.R" in FIELDS


@pytest.fixture(scope="module")
def names_read():
    return set().union(*(attributes_read(path.read_text())
                         for path in READERS))


@pytest.mark.parametrize("field", FIELDS, ids=FIELDS)
def test_every_dataclass_field_is_read(names_read, field):
    assert field.rsplit(".", 1)[1] in names_read


def tracer_tables():
    """FUNCTIONS, KERNELS and METHODS of perfbench/tracing.py, read from
    its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                getattr(node.targets[0], "id", None) in (
                    "FUNCTIONS", "KERNELS", "METHODS"):
            # literals and one comprehension over literals
            expr = ast.Expression(node.value)
            tables[node.targets[0].id] = eval(
                compile(expr, "tracing.py", "eval"), {"__builtins__": {}})
    return tables


TRACER = tracer_tables()
TRACED = sorted(
    [f"poncelet.{module}.{name}"
     for module, names in TRACER["FUNCTIONS"].items() for name in names]
    + [f"poncelet.kernels.{name}" for name in TRACER["KERNELS"]]
    + [f"poncelet.{module}.{cls}.{method}"
       for module, classes in TRACER["METHODS"].items()
       for cls, methods in classes for method in methods]
)


def test_tracer_tables_are_found():
    assert "poncelet.families.poncelet_family" in TRACED
    assert "poncelet.families.MonotoneCircleFamily.dgdt" in TRACED
    assert "poncelet.kernels.poncelet_orbit" in TRACED


@pytest.mark.parametrize("name", TRACED, ids=TRACED)
def test_every_traced_name_exists(name):
    parts = name.split(".")
    # the module is poncelet.<module>; the rest is attributes on it
    obj = importlib.import_module(".".join(parts[:2]))
    for attr in parts[2:]:
        assert hasattr(obj, attr), f"{name}: no {attr} on {obj!r}"
        obj = getattr(obj, attr)
