"""Source hygiene: no module imports a name it never uses, every record
field and property (dataclass or NamedTuple) is read by the library or the
benchmark (or listed with the reason only a test reads it), a read of a
name that several classes declare counting only where it is tied to the
record, every name the benchmark's tracer binds exists, the kernels'
benchmark-only names are read nowhere else, the library outside the CLI
grows no defaulted parameter, every functools cache of the
library, every import of another module's private name and every read
of operator.index outside the kernels' one count reader is declared
with its reason, and the tests that CI reruns against the installed
package name no path into the checkout."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
# a package's __init__ imports are its public names, not dead code
MODULES = sorted(
    path for base in (ROOT / "src" / "poncelet", ROOT / "tests")
    for path in base.rglob("*.py") if path.name != "__init__.py"
)
# where a read counts as a use of a record field: the library and the
# benchmark.  A field that only a test reads is in TEST_ONLY_FIELDS.
READERS = sorted(path for base in ("src", "perfbench")
                 for path in (ROOT / base).rglob("*.py"))
TESTS = sorted((ROOT / "tests").rglob("*.py"))


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
    assert {"rotation.py", "cli.py", "kernels.py", "test_hygiene.py"} <= names


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
MAX_DEFAULTED_PARAMETERS = 8
DEFAULTED_PARAMETERS = [
    "confrac.py:find_balanced_pairs(n_max)",         # 30 in twistfam
    "families.py:poncelet_family(reverse)",          # perfbench
    "families.py:rigid_family(a)",                   # the CLI's family
    "families.py:rigid_family(b)",                   # the CLI's family
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


CACHES = {"cache", "lru_cache"}


def cached_names(source):
    """The name of each cache that functools.cache or functools.lru_cache
    makes in `source`: the function it decorates, or the name its result
    is assigned to; any other use of either is named by its line."""
    tree = ast.parse(source)
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((sub, node.name) for decorator in node.decorator_list
                         for sub in ast.walk(decorator))
        elif isinstance(node, ast.Assign):
            name = ", ".join(ast.unparse(target) for target in node.targets)
            owner.update((sub, name) for sub in ast.walk(node.value))
    return sorted(owner.get(node, f"line {node.lineno}")
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in CACHES
                  and getattr(node.value, "id", None) == "functools"
                  or isinstance(node, ast.Name) and node.id in CACHES)


def test_cache_scan_finds_decorators_assignments_and_other_uses():
    source = ("from functools import lru_cache\n"
              "@functools.cache\n"
              "def a():\n"
              "    pass\n"
              "@lru_cache(maxsize=1)\n"
              "def b(x):\n"
              "    self.cache = x\n"
              "c = functools.lru_cache(maxsize=1, typed=True)(b)\n"
              "d = list(map(functools.cache, [a]))\n"
              "register(functools.cache)\n")
    assert cached_names(source) == ["a", "b", "c", "d", "line 10"]


#: Every functools cache of src/poncelet, with the reason it stays.  A
#: cache keeps what it has seen for the life of the process, so one keyed
#: on a caller's input is hidden state; a new one is declared here.
CACHED = {
    "geometry.py:_li2_coefficients": "a constant table, built on first use",
    "rotation.py:_lock_grid": "the constant lock grid, built on first use",
}


def test_every_cache_is_declared():
    found = sorted(f"{path.name}:{name}"
                   for path in (ROOT / "src" / "poncelet").rglob("*.py")
                   for name in cached_names(path.read_text()))
    assert found == sorted(CACHED)


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def private_imports(source, package):
    """Each import of `source` that reaches a private name or a private
    module of another module, as its dotted path (a relative one keeps its
    dots).  A package (`package` true) importing its own module does not
    count: there a relative import's first name is that module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if any(map(_private, alias.name.split(".")))]
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level
            parts = node.module.split(".") if node.module else []
            skip = 1 if package and node.level == 1 else 0
            for alias in node.names:
                path = parts + [alias.name]
                if any(map(_private, path[skip:])):
                    found.append(prefix + ".".join(path))
    return sorted(found)


def test_private_import_scan_finds_private_names_and_modules():
    source = ("import numpy, os._hidden\n"
              "from . import __version__, _sibling\n"
              "from ._mod import name\n"
              "from .pkg import _name, public\n"
              "from .pkg.sub import public\n"
              "def f():\n"
              "    from ..up._deep import x\n")
    assert private_imports(source, False) == [
        "..up._deep.x", "._mod.name", "._sibling", ".pkg._name",
        "os._hidden"]
    own = ("from . import _ref\n"
           "from ._ref import name, _name\n"
           "from .other import _other\n")
    assert private_imports(own, True) == ["._ref._name", ".other._other"]
    assert private_imports(own, False) == [
        "._ref", "._ref._name", "._ref.name", ".other._other"]


#: Every import in src/poncelet of another module's private name or
#: private module, with the reason it stays.  A module that reaches into
#: another's internals is tied to them; a new one is declared here.
PRIVATE_IMPORTS = {}


def test_every_private_import_is_declared():
    found = sorted(f"{path.name}:{name}"
                   for path in (ROOT / "src" / "poncelet").rglob("*.py")
                   for name in private_imports(path.read_text(),
                                               path.name == "__init__.py"))
    assert found == sorted(PRIVATE_IMPORTS)


def index_readers(source):
    """The function around each read of operator.index in `source` (an
    attribute read, or an import of the name from operator), or its line
    at module level."""
    tree = ast.parse(source)
    owner = {}
    # ast.walk visits an outer function first, so an inner one names
    # its own reads
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((sub, node.name) for sub in ast.walk(node))
    return sorted(owner.get(node, f"line {node.lineno}")
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "index"
                  and getattr(node.value, "id", None) == "operator"
                  or isinstance(node, ast.ImportFrom)
                  and node.module == "operator"
                  and any(alias.name == "index" for alias in node.names))


def test_index_scan_finds_calls_references_and_imports():
    source = ("import operator\n"
              "from operator import index as idx, add\n"
              "def a(n):\n"
              "    return operator.index(n)\n"
              "class B:\n"
              "    def c(self, xs):\n"
              "        def d(x):\n"
              "            return operator.index(x)\n"
              "        return list(map(operator.index, xs)), d\n"
              "e = operator.index(3) + xs.index(3) + operator.add(1, 2)\n")
    assert index_readers(source) == ["a", "c", "d", "line 10", "line 2"]


#: Every read of operator.index in src/poncelet, with the reason it stays.
#: Every count argument of the library (a step count, the parameter
#: search's iters, the totient's n) is read by
#: kernels.read_count, which names the argument in its error; a module
#: that reads a count itself is declared here.
INDEX_READERS = {
    "kernels.py:read_count": "the one reader of every count argument",
    "confrac.py:remainder_series": "n_max, which has no lower bound; "
                                   "confrac imports no other library module",
    "confrac.py:find_balanced_pairs": "n_max, which has no lower bound; "
                                      "confrac imports no other library "
                                      "module",
}


def test_every_count_is_read_by_the_one_reader():
    found = sorted(f"{path.name}:{name}"
                   for path in (ROOT / "src" / "poncelet").rglob("*.py")
                   for name in index_readers(path.read_text()))
    assert found == sorted(INDEX_READERS)


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


def declared_names(source):
    """Names a class of `source` declares: an annotated name or a method
    of its body, or a name it stores on self."""
    names = set()
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                names.add((cls.name, stmt.target.id))
            elif isinstance(stmt, ast.FunctionDef):
                names.add((cls.name, stmt.name))
        names |= {(cls.name, node.attr) for node in ast.walk(cls)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and getattr(node.value, "id", None) == "self"}
    return names


def test_declaration_scan_finds_fields_methods_and_stores():
    source = ("class A(NamedTuple):\n"
              "    x: int\n"
              "    @property\n"
              "    def ok(self):\n"
              "        return True\n"
              "class B:\n"
              "    def __init__(self, x):\n"
              "        self.x = x\n"
              "        y = self.w\n")
    assert declared_names(source) == {("A", "x"), ("A", "ok"),
                                      ("B", "__init__"), ("B", "x")}


#: Names declared by two or more classes of the library and the benchmark:
#: a `.name` read alone does not say whose it is.  A class declares its
#: record fields and methods, and what it stores on self.
SHARED_NAMES = {
    name for name, count in Counter(
        name for path in READERS
        for _, name in declared_names(path.read_text())).items()
    if count > 1
}

#: Fields of a shared name that the library reads, each with a function
#: whose `.name` read is this record's.
SHARED_FIELD_READERS = {
    "confrac.ApproximationPair.excess": "src/poncelet/cli.py:_cf_report",
    "geometry.PonceletConfig.t":
        "src/poncelet/geometry.py:poncelet_map_geometric",
    "geometry._CirclePair.t":
        "src/poncelet/geometry.py:poncelet_map_geometric",
    "rotation.CountReport.ok": "src/poncelet/cli.py:cmd_count",
    "rotation.PonceletPair.t": "src/poncelet/cli.py:cmd_count",
    "twistfam.ComparisonReport.alpha":
        "src/poncelet/twistfam.py:ComparisonReport.excess",
    "twistfam.ComparisonReport.excess":
        "src/poncelet/twistfam.py:ComparisonReport.sandwich_ok",
}

#: Fields whose only reader is a test, each with the reason it stays.
TEST_ONLY_FIELDS = {
    "rotation.RotationEstimate.iterations":
        "the steps an estimate read; it pins the staged lock scan",
    "twistfam.ComparisonReport.weak_ok": "the comparison lemma's report",
    "twistfam.ComparisonReport.sandwich_ok": "the comparison lemma's report",
    "twistfam.MonotonicityReport.ok": "Proposition 1's verdict",
}


def names_read_in(paths):
    return set().union(*(attributes_read(path.read_text())
                         for path in paths))


def names_read_by(reader):
    """Names read as `.name` in the function `path:name` of the repo, or
    in the method `path:Class.name`."""
    path, qualname = reader.split(":")
    node = ast.parse((ROOT / path).read_text())
    for name in qualname.split("."):
        node, = [inner for inner in ast.walk(node)
                 if isinstance(inner, (ast.ClassDef, ast.FunctionDef))
                 and inner.name == name]
    return attributes_read(ast.unparse(node))


@pytest.fixture(scope="module")
def names_read():
    return names_read_in(READERS)


def test_shared_names_are_found():
    # ApproximationPair's and ComparisonReport's excess, and RigidLift's
    # alpha beside ComparisonReport's; the _CirclePair's and PonceletPair's
    # t; CountReport's and MonotonicityReport's ok
    assert {"excess", "alpha", "t", "ok"} <= SHARED_NAMES
    assert "error_radius" not in SHARED_NAMES
    # an entry whose name stops being shared leaves SHARED_FIELD_READERS
    assert all(field in FIELDS and field.rsplit(".", 1)[1] in SHARED_NAMES
               for field in SHARED_FIELD_READERS)


@pytest.mark.parametrize("field", FIELDS, ids=FIELDS)
def test_every_dataclass_field_is_read(names_read, field):
    # a listed field that gains a reader leaves the list; a read of a
    # shared name counts only in the function listed for the field
    name = field.rsplit(".", 1)[1]
    if name in SHARED_NAMES:
        read = (field in SHARED_FIELD_READERS
                and name in names_read_by(SHARED_FIELD_READERS[field]))
    else:
        read = name in names_read
    assert read != (field in TEST_ONLY_FIELDS)


def test_test_only_fields_are_read_by_a_test():
    read = names_read_in(TESTS)
    assert all(field in FIELDS and field.rsplit(".", 1)[1] in read
               for field in TEST_ONLY_FIELDS)


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


#: The benchmark's names in the kernels module: the module itself, as
#: `_ref` and `impl`, and a table's last row, as `*_advance`.  The
#: benchmark's L0 probe and tracer bind them; ROADMAP item 17's benchmark
#: half deletes them, and until then no library module or test reads them.
BENCHMARK_ONLY = {"_ref", "impl", "poncelet_advance", "arnold_advance"}


def benchmark_only_reads(source):
    """(line, name) of each read of a BENCHMARK_ONLY name in `source`: a
    bare name or attribute that is loaded, an imported name, or a string
    that is the name (as getattr and monkeypatch take it)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names = [node.id]
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            names = [node.attr]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names
                     for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".") + [
                alias.name for alias in node.names]
        elif isinstance(node, ast.Constant):
            names = [node.value]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name in BENCHMARK_ONLY]
    return sorted(found)


def test_benchmark_only_scan_finds_every_kind_of_read():
    source = ("from poncelet.kernels import _ref\n"
              "import poncelet.kernels.impl\n"
              "from poncelet.kernels._ref import step\n"
              "a = kernels.poncelet_advance(xs, 3)\n"
              "b = getattr(kernels, 'arnold_advance')\n"
              "impl = _ref = n_ref = kernels.poncelet_orbit\n"
              "def arnold_advance(impl):\n"
              "    return impl\n")
    assert benchmark_only_reads(source) == [
        (1, "_ref"), (2, "impl"), (3, "_ref"), (4, "poncelet_advance"),
        (5, "arnold_advance"), (8, "impl")]


def test_benchmark_only_names_are_the_kernels_and_read_nowhere_else():
    kernels = importlib.import_module("poncelet.kernels")
    assert kernels._ref is kernels.impl is kernels
    xs = np.array([0.1, 0.375, 0.9])
    assert kernels.poncelet_advance(xs, 5, 1.0, 0.3, 0.2).tobytes() \
        == kernels.poncelet_orbit(xs, 5, 1.0, 0.3, 0.2)[-1].tobytes()
    assert kernels.arnold_advance(xs, 5, 0.3, 0.8).tobytes() \
        == kernels.arnold_orbit(xs, 5, 0.3, 0.8)[-1].tobytes()
    reads = {str(path.relative_to(ROOT)): benchmark_only_reads(
                 path.read_text())
             for path in sorted((ROOT / "src").rglob("*.py")) + TESTS
             if path.name != "test_hygiene.py"}
    assert {path: found for path, found in reads.items() if found} == {}


# CI reruns these against the installed package, from outside the
# checkout (the packaging smoke test of .github/workflows/tier1.yml); they
# reach it through `import poncelet` (and fresh processes
# through poncelet.__file__), so a path into the checkout would quietly
# test src/ there instead
INSTALLED_RERUN = ["test_cli.py", "test_package.py", "test_acceptance.py"]


def checkout_paths(source):
    """(line, text) of each string literal of `source` that names `src`,
    and of each read of the module's own `__file__`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.search(r"\bsrc\b", node.value):
            found.append((node.lineno, node.value))
        elif isinstance(node, ast.Name) and node.id == "__file__":
            found.append((node.lineno, "__file__"))
    return sorted(found)


def test_checkout_scan_flags_src_and_the_tests_own_file():
    source = ("import os, poncelet\n"
              "a = dict(os.environ, PYTHONPATH='src')\n"
              "b = Path(__file__).parent.parent / 'src/poncelet'\n"
              "c = Path(poncelet.__file__).parent.parent\n"
              "d = f'{c}/srcset'\n")
    assert checkout_paths(source) == [(2, "src"), (3, "__file__"),
                                      (3, "src/poncelet")]


@pytest.mark.parametrize("name", INSTALLED_RERUN)
def test_installed_rerun_names_no_checkout_path(name):
    assert checkout_paths((ROOT / "tests" / name).read_text()) == []
