"""Repository-level checks: no assert statements, no float constants and
no RingMat isinstance test outside linalg in the package, no matrix shape
compared outside lattice and linalg, no ring built from a payload outside
RingContext.of_payload, no use of the ring-array layout outside linalg, no
raw scalar constructor outside witt and linalg, one home for each
shape-free ring-array operation, one function that builds a PeriodLine, a
serialize module that defines only the wire format and that only the entry
points import, no call-time imports, CLI handlers that read no stream,
every exported name used outside the tests (by name or through a module,
not by a method of the same name), an `import k3lift` that loads no
standard-library module beyond numpy's and json's, the benchmark tracer
still finds every name it wraps, and the benchmark harness runs end to
end."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import k3lift

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "k3lift"


def _package_nodes(match):
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if match(node)]
    return found


def test_package_has_no_assert_statements():
    # python -O strips asserts, so a postcondition must raise a typed error
    assert _package_nodes(lambda node: isinstance(node, ast.Assert)) == []


def test_package_has_no_float_constants():
    # every value is an exact integer; a float literal is a rounding path
    assert _package_nodes(
        lambda node: isinstance(node, ast.Constant) and isinstance(node.value, float)
    ) == []


def _isinstance_of_ringmat(node):
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    kinds = node.args[1]
    kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
    return any(
        (isinstance(k, ast.Name) and k.id == "RingMat")
        or (isinstance(k, ast.Attribute) and k.attr == "RingMat")
        for k in kinds
    )


def test_matrix_coercion_has_one_home():
    # RingMat.from_rows is the only place that tells a RingMat from rows
    found = _package_nodes(_isinstance_of_ringmat)
    assert [f for f in found if not f.startswith("linalg.py:")] == []


def _compares_a_shape(node):
    """node compares a .rows or .cols attribute."""
    return isinstance(node, ast.Compare) and any(
        isinstance(operand, ast.Attribute) and operand.attr in ("rows", "cols")
        for operand in [node.left, *node.comparators]
    )


def test_square_matrix_check_has_one_home():
    # QuadLattice.matrix reads every matrix that acts on a lattice, so no
    # other module checks a matrix's shape itself
    found = _package_nodes(_compares_a_shape)
    assert found
    assert [f for f in found if not f.startswith(("lattice.py:", "linalg.py:"))] == []


def _ring_from_json_callers(node, cls=None, func=None):
    """The enclosing function of each call of RingContext.from_json under
    node: written RingContext.from_json, or cls.from_json in RingContext."""
    if isinstance(node, ast.ClassDef):
        cls = node.name
    elif isinstance(node, ast.FunctionDef):
        func = node.name
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr == "from_json" and isinstance(node.func.value, ast.Name)
          and (node.func.value.id == "RingContext"
               or (node.func.value.id in ("cls", "self") and cls == "RingContext"))):
        yield func
    for child in ast.iter_child_nodes(node):
        yield from _ring_from_json_callers(child, cls, func)


def test_payload_ring_has_one_home():
    # RingContext.of_payload decides which ring a payload lives in, so no
    # reader builds a ring from a payload itself
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{func}" for func in _ring_from_json_callers(tree)]
    assert found == ["witt.py:of_payload"]


def _touches_ring_array_layout(node):
    """node calls RingVec(...) or RingMat(...) itself (not a classmethod),
    reads or writes .arr, or imports or reads an underscore name of
    linalg."""
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in ("RingVec", "RingMat")
    if isinstance(node, ast.Attribute):
        return node.attr == "arr" or (
            isinstance(node.value, ast.Name) and node.value.id == "linalg"
            and node.attr.startswith("_")
        )
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[-1] == "linalg" and any(
            alias.name.startswith("_") for alias in node.names
        )
    return False


def test_ring_array_layout_has_one_home():
    # the (m, rows, cols) coefficient array is linalg's alone: the raw
    # constructors take an array already reduced and in storage layout
    found = _package_nodes(_touches_ring_array_layout)
    assert [f for f in found if not f.startswith("linalg.py:")] == []


def _calls_raw_scalar_constructor(node):
    """node calls PadicScalar(...) itself, which takes coefficients unreduced."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "PadicScalar"


def test_raw_scalar_constructor_has_one_home():
    # every other module goes through ctx.scalar, which reduces and checks
    found = _package_nodes(_calls_raw_scalar_constructor)
    assert found
    assert [f for f in found if not f.startswith(("witt.py:", "linalg.py:"))] == []


def test_period_line_has_one_validator():
    # PeriodLine(...) stores its fields unchecked, so from_generator, which
    # validates, is the one function in the package that may build a line
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            callers += [
                f"{path.stem}.{getattr(top, 'name', '<module>')}" for node in ast.walk(top)
                if isinstance(node, ast.Call) and (
                    node.func.id if isinstance(node.func, ast.Name)
                    else getattr(node.func, "attr", None)
                ) == "PeriodLine"
            ]
    assert callers == ["period.from_generator"]


def _linalg_methods():
    tree = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    return {
        node.name: {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
        for node in tree.body if isinstance(node, ast.ClassDef)
    }


def test_ring_array_operations_have_one_home():
    # the shape-free operations live once, in _RingArray; RingMat keeps its
    # own __matmul__, which perfbench/tracing.py wraps through vars(RingMat)
    methods = _linalg_methods()
    core = methods["_RingArray"]
    assert {"__add__", "__sub__", "__eq__", "valuation", "lift_to"} <= core
    assert methods["RingVec"] & core == set()
    assert methods["RingMat"] & core == set()
    assert "__matmul__" in methods["RingMat"]


def test_serialize_defines_only_the_wire_format():
    # each type reads its JSON in its own from_json; serialize binds the
    # public reader names to those and defines nothing else
    tree = ast.parse((PACKAGE / "serialize.py").read_text(encoding="utf-8"))
    defined = [
        getattr(node, "name", "lambda") for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda))
    ]
    assert sorted(defined) == ["canonical_dumps", "dump_stream", "load_stream"]


def _imports_serialize(node):
    """node imports k3lift.serialize or a name from it."""
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.split(".")[-1] == "serialize" or (
            module in ("", "k3lift") and any(alias.name == "serialize" for alias in node.names)
        )
    return isinstance(node, ast.Import) and any(
        alias.name == "k3lift.serialize" for alias in node.names
    )


def test_only_the_entry_points_import_serialize():
    # serialize imports the types; a type module that imported it back would
    # need a call-time import to break the cycle
    found = _package_nodes(_imports_serialize)
    assert {f.split(":")[0] for f in found} == {"cli.py", "__init__.py"}


def test_package_imports_only_at_module_level():
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        top = {id(node) for node in tree.body}
        nested += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert nested == []


_PAYLOAD_READERS = {"_read_payload", "load_stream"}


def _reads_a_payload(node):
    """node names _read_payload, load_stream or sys.stdin."""
    if isinstance(node, ast.Name):
        return node.id in _PAYLOAD_READERS
    return isinstance(node, ast.Attribute) and (
        node.attr in _PAYLOAD_READERS
        or (node.attr == "stdin" and isinstance(node.value, ast.Name) and node.value.id == "sys")
    )


def test_cli_handlers_read_no_payload():
    # main reads the payload once; a _cmd_* handler is a pure
    # (payload, args, ctx) -> (output, exit code)
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    readers = {
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and any(map(_reads_a_payload, ast.walk(node)))
    }
    handlers = {
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
    }
    assert len(handlers) == 8
    assert readers & handlers == set()
    assert readers == {"_read_payload", "main"}


# exported names that may have no caller outside the tests: entry points
# such as an error class a user catches or a result type.  Every export has
# a caller today, so the list is empty.
_ENTRY_POINTS = frozenset()


_SUBMODULES = frozenset(path.stem for path in PACKAGE.glob("*.py"))


def _module_aliases(tree):
    """The names a file binds to k3lift or to one of its submodules."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {
                alias.asname or "k3lift"
                for alias in node.names if alias.name.split(".")[0] == "k3lift"
            }
        elif isinstance(node, ast.ImportFrom) and (
            node.module == "k3lift" or (node.level and node.module is None)
        ):
            aliases |= {
                alias.asname or alias.name for alias in node.names if alias.name in _SUBMODULES
            }
    return aliases


def _is_module(node, aliases):
    """node names k3lift or one of its submodules (k3lift.linalg, say)."""
    if isinstance(node, ast.Name):
        return node.id in aliases
    return (
        isinstance(node, ast.Attribute) and node.attr in _SUBMODULES
        and _is_module(node.value, aliases)
    )


def _referenced_names(paths):
    """Every name a Name load, an attribute of a module alias (k3lift or a
    submodule, so that a method of the same name does not count), an import
    or a string constant (perfbench/tracing.py wraps by name) mentions,
    except inside the top-level definition of that same name."""
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = _module_aliases(tree)
        for top in tree.body:
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and _is_module(node.value, aliases):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.split(".")[-1])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
            found |= names - {getattr(top, "name", None)}
    return found


def test_every_export_has_a_consumer():
    # a name in __all__ that only the tests call is a wrapper to delete
    paths = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    paths += [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]
    unused = set(k3lift.__all__) - _referenced_names(paths) - _ENTRY_POINTS
    assert sorted(unused) == []


def test_a_method_of_the_same_name_is_no_consumer(tmp_path):
    # area() is a module function that only a method call of the same name
    # mentions; volume() is reached through module aliases
    (tmp_path / "shapes.py").write_text(
        "def area(shape):\n    return shape.area()\n\n\n"
        "def volume(box):\n    return box.volume()\n",
        encoding="utf-8",
    )
    (tmp_path / "user.py").write_text(
        "import k3lift\nfrom k3lift import linalg as la\n\n\n"
        "def size(box):\n    return box.area() + k3lift.volume(box) + la.volume(box)\n",
        encoding="utf-8",
    )
    names = _referenced_names([tmp_path / "shapes.py", tmp_path / "user.py"])
    assert "volume" in names
    assert "area" not in names


def test_import_loads_no_extra_stdlib_module():
    # numpy and json are loaded by every entry point anyway; anything else
    # the standard library adds is paid by each CLI process
    script = (
        "import sys, numpy, json; before = set(sys.modules); import k3lift; "
        "print(sorted(m for m in set(sys.modules) - before "
        "if m.split('.')[0] in sys.stdlib_module_names))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_benchmark_tracer_installs():
    # perfbench/tracing.py wraps k3lift's functions by module and name; a
    # moved or renamed one (hensel.poly_eval, say) fails here, not only
    # in a traced benchmark run
    script = (
        "import tracing; patches = tracing.install(tracing.Tracer()); "
        "print(len(patches), sorted({key for _, key, _, _ in patches}))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    count, names = proc.stdout.split(" ", 1)
    assert int(count) > 0
    assert "'hensel_root'" in names and "'poly_eval'" in names


def test_benchmark_harness_smoke():
    # one short certify-k3 run; its ops are checked by perfbench/check.py's
    # own integer arithmetic.  No timing is asserted.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-k3", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    assert {"ops_per_s", "setup_s", "peak_rss_mb"} <= set(last["metrics"])
