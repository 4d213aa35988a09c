"""The names the benchmark's tracer wraps must stay in the package.

bench/tracing.py replaces module attributes by name; a rename in `hypstab`
would make a traced run fail or leave a layer's spans empty without any
test under tests/ noticing.
"""

from __future__ import annotations

import ast
import importlib
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

from hypstab import cli  # noqa: E402
from hypstab.cli import EXIT_OK, main  # noqa: E402


@pytest.mark.parametrize("module, attr", sorted(tracing.WRAPPED))
def test_every_wrapped_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports at its top level and never reads, nor lists in
    its __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _dunder_all(tree)
    return sorted(name for name in imported if name not in used)


def _dunder_all(tree: ast.Module) -> set[str]:
    """The names a module lists in its top-level __all__."""
    listed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            listed.update(ast.literal_eval(node.value))
    return listed


_PACKAGE = sorted((ROOT / "src" / "hypstab").glob("*.py"))


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda path: path.name)
def test_every_import_is_used_or_wrapped(path):
    """The project runs no linter, so this stands in for one on unused imports.
    A name only `tracing.WRAPPED` needs stays importable for the tracer; once
    the tracer stops wrapping it, the import is named here for deletion."""
    module = f"hypstab.{path.stem}" if path.stem != "__init__" else "hypstab"
    unused = [name for name in _unused_imports(path) if (module, name) not in tracing.WRAPPED]
    assert unused == [], f"{path.name} imports but never uses {unused}"


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda path: path.name)
def test_star_import_binds_all_of_dunder_all(path):
    """`from module import *` succeeds and binds every name the module
    lists in its __all__, so a removal that drops a name's import but
    leaves the name in __all__ fails here."""
    module = f"hypstab.{path.stem}" if path.stem != "__init__" else "hypstab"
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    missing = [name for name in importlib.import_module(module).__all__ if name not in namespace]
    assert missing == [], f"{module} lists {missing} in __all__ but does not bind them"


def _definitions(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _private_definitions(tree: ast.Module) -> set[str]:
    """Single-underscore names of `_definitions`, but not the throwaway `_`."""
    return {name for name in _definitions(tree)
            if name.startswith("_") and not name.startswith("__") and name != "_"}


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda path: path.name)
def test_every_public_name_has_one_home(path):
    """A name in a module's __all__ is defined in that module, so its one
    import path is its module; a re-export would give it a second.  The
    package __init__ lists only __version__ and the submodules."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.stem == "__init__":
        home = {"__version__"} | {p.stem for p in _PACKAGE if p.stem != "__init__"}
    else:
        home = _definitions(tree)
    homeless = sorted(_dunder_all(tree) - home)
    assert homeless == [], f"{path.name} lists {homeless} in __all__ but does not define them"


def _names_read(tree: ast.Module) -> set[str]:
    """Names a module loads, as bare names, as attributes or by import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda path: path.name)
def test_every_private_name_is_read(path):
    """Dead code stands out here: a module-level private name (a helper, a
    constant, a tableau entry left behind by a removed routine) that no
    module of the package reads."""
    read = set().union(*(_names_read(ast.parse(p.read_text(encoding="utf-8"))) for p in _PACKAGE))
    unread = sorted(_private_definitions(ast.parse(path.read_text(encoding="utf-8"))) - read)
    assert unread == [], f"{path.name} defines but nothing reads {unread}"


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda path: path.name)
def test_the_integer_rule_is_written_once(path):
    """criteria._integer is the package's one integer check: an inline
    isinstance(x, int) would again reject numpy integers."""
    inline = [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
              and any(getattr(kind, "id", None) == "int" for kind in ast.walk(node.args[1]))]
    assert inline == [], f"{path.name} checks isinstance(..., int) on lines {inline}"


# A record the package fills from its own results, not from arguments: the
# error estimate of a QuadratureResult may be +inf, which _real refuses.
_RESULT_RECORDS = {"QuadratureResult"}


def _is_number(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _converts(call: ast.Call) -> bool:
    """float(x), math.isfinite(x), np.fromiter(x, ...) or, of a field,
    np.asarray(self.<field>, dtype=...): a conversion or check of x."""
    func = ast.unparse(call.func)
    if func in ("float", "math.isfinite"):
        return len(call.args) == 1
    return func == "np.fromiter" or (
        func == "np.asarray" and isinstance(call.args[0], ast.Attribute)
        and any(keyword.arg == "dtype" for keyword in call.keywords))


def _hand_written_real_checks(tree: ast.Module) -> list[str]:
    """'function:line' of each `_converts` call of x, and of each comparison
    of x with a number in an `if` that raises ValueError, where x is a real
    argument: a parameter of its function not annotated int, a value read
    out of one (the CLI's params[key], or the target of a loop or
    comprehension over one), or a field of a class other than a result
    record, read as self.<field> in its __post_init__.  Joint checks such
    as lo < hi compare two arguments and stay free."""
    owner = {id(func): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for func in cls.body}
    sites = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or func.name == "_real":
            continue
        reals = {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)
                 and not (arg.annotation and ast.unparse(arg.annotation) == "int")}
        reals |= {target.id for node in ast.walk(func) if isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Subscript)
                  and getattr(node.value.value, "id", None) in reals
                  for target in node.targets if isinstance(target, ast.Name)}
        cls = owner.get(id(func))
        fields = set()
        if func.name == "__post_init__" and cls is not None and cls.name not in _RESULT_RECORDS:
            fields = {stmt.target.id for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
                      and ast.unparse(stmt.annotation) != "int"}

        def is_real(node: ast.AST) -> bool:
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self":
                return node.attr in fields
            return isinstance(node, ast.Name) and node.id in reals

        reals |= {name.id for loop in ast.walk(func)
                  if isinstance(loop, (ast.For, ast.comprehension)) and is_real(loop.iter)
                  for name in ast.walk(loop.target) if isinstance(name, ast.Name)}
        for node in ast.walk(func):
            if (isinstance(node, ast.Call) and node.args and is_real(node.args[0])
                    and _converts(node)):
                sites.append(f"{func.name}:{node.lineno}")
            elif isinstance(node, ast.If) and any(
                    isinstance(r, ast.Raise) and ast.unparse(r).startswith("raise ValueError")
                    for stmt in node.body for r in ast.walk(stmt)):
                for cmp in ast.walk(node.test):
                    if isinstance(cmp, ast.Compare):
                        terms = [cmp.left, *cmp.comparators]
                        terms = [t.value if isinstance(t, ast.Subscript) else t for t in terms]
                        if any(map(is_real, terms)) and any(map(_is_number, terms)):
                            sites.append(f"{func.name}:{cmp.lineno}")
    return sites


@pytest.mark.parametrize("path", _PACKAGE, ids=lambda path: path.name)
def test_the_real_rule_is_written_once(path):
    """criteria._real, and _reals for an axis or a sampled field, is the
    package's one real-number check: a hand-written float(x),
    math.isfinite(x), np.fromiter(x) or bound on an argument would again let
    one function take a string, a bool or an infinity that the next one
    rejects (`if not tol > 0.0` let on_hyperboloid_rows take tol = inf, and
    `[float(s) for s in s_values]` let embed_grid take '0.5' and True).
    Computed locals, and loops over them, are not arguments and stay free."""
    sites = _hand_written_real_checks(ast.parse(path.read_text(encoding="utf-8")))
    assert sites == [], f"{path.name} checks a real argument by hand at {sites}"


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_flag_is_typed_by_the_parser(command):
    """The handlers read each value as the parser gave it and convert
    nothing, so a flag declared without a type would reach its handler as a
    str and crash with a TypeError instead of exiting 2."""
    untyped = [flag for flag, options in cli._COMMANDS[command].arguments.items()
               if "type" not in options and "choices" not in options]
    assert untyped == [], f"{command} declares {untyped} with neither type nor choices"


@pytest.mark.parametrize(
    "maker",
    [maker for makers in workloads.WORKLOADS.values() for maker, _ in makers],
    ids=lambda maker: maker.__name__.lstrip("_"),
)
def test_parser_accepts_every_workload_operation(maker):
    """bench/run.py times `cli._build_parser()` with no arguments as its
    start-up, and its workloads pass flags such as `sweep-f --tol` and
    `find-c0 --quad-tol` that change no output; each must still parse."""
    op = maker(workloads._Draw(random.Random(0)))
    args = cli._build_parser().parse_args(list(op.argv))
    assert args.command == op.argv[0]
    for key, value in op.params.items():
        assert getattr(args, key) == value, key


def test_traced_operations_fill_the_spectral_spans(tmp_path):
    recorder = tracing.Recorder()
    argvs = [
        ["index", "--a", "0.9", "--radius", "6", "--nodes", "400", "--m-max", "3"],
        ["criteria", "--n", "3", "--sup-a-sq", "2.5", "--mass-a-sq", "1.2",
         "--mass-grad-a-sq", "2.0"],
    ]
    with tracing.installed(recorder):
        for op_id, argv in enumerate(argvs, start=1):
            with recorder.operation(op_id):
                assert main(argv + ["--output", str(tmp_path / "out.json")]) == EXIT_OK
    spans = recorder.spans()
    names = np.array(recorder.names)[spans[:, tracing.FIELDS.index("name")].astype(int)]
    for name in ("morse_index", "screen", "assemble", "criteria"):
        assert np.count_nonzero(names == name), name
    # modes 0..3 are each screened once; mode 0 alone is assembled, once,
    # and its eigenvalues computed
    assert np.count_nonzero(names == "screen") == 4
    assert np.count_nonzero(names == "assemble") == 1
    assert np.count_nonzero(names == "eig") >= 1


def test_traced_curve_export_fills_the_curve_metrics(tmp_path):
    # the whole profile integration runs inside the one wrapped call, so
    # us_per_point times this layer and nothing else
    recorder = tracing.Recorder()
    argv = ["embed-export", "--family", "hyperbolic-curve", "--samples", "301",
            "--output", str(tmp_path / "curve.csv")]
    with tracing.installed(recorder):
        with recorder.operation(1):
            assert main(argv) == EXIT_OK
    metrics = tracing.layer_metrics(
        recorder.spans(), recorder.names, {1: "embed-export"}, rows=301, out_bytes=1
    )
    assert metrics["hyperbolic_catenoid.curve_calls"] == 1
    assert metrics["hyperbolic_catenoid.curve_points"] == 301
    assert metrics["hyperbolic_catenoid.profile_errors"] == 0
    assert 0.0 < metrics["hyperbolic_catenoid.us_per_point"] < math.inf


def test_curve_span_counts_the_exported_points(tmp_path):
    recorder = tracing.Recorder()
    argv = ["embed-export", "--family", "hyperbolic-curve", "--samples", "257",
            "--output", str(tmp_path / "curve.csv")]
    with tracing.installed(recorder):
        with recorder.operation(1):
            assert main(argv) == EXIT_OK
    spans = recorder.spans()
    names = np.array(recorder.names)[spans[:, tracing.FIELDS.index("name")].astype(int)]
    curve = spans[names == "curve"]
    assert len(curve) == 1
    assert curve[0, tracing.FIELDS.index("count")] == 257


@pytest.mark.parametrize(
    "argv, least",
    [
        (["sweep-f", "--a-min", "0.6", "--a-max", "0.9", "--step", "0.1"], {"F": 4}),
        (["find-c0", "--tol", "1e-8"], {"F": 3, "locate_c0": 1, "root": 1}),
    ],
    ids=["sweep-f", "find-c0"],
)
def test_traced_F_commands_fill_the_F_spans(tmp_path, argv, least):
    # the tracer reads result.evaluations from every F; the closed form reports 0
    recorder = tracing.Recorder()
    with tracing.installed(recorder):
        with recorder.operation(1):
            assert main(argv + ["--output", str(tmp_path / "out")]) == EXIT_OK
    spans = recorder.spans()
    names = np.array(recorder.names)[spans[:, tracing.FIELDS.index("name")].astype(int)]
    assert not spans[:, tracing.FIELDS.index("failed")].any()
    for name, count in least.items():
        assert np.count_nonzero(names == name) >= count, name
    assert (spans[names == "F", tracing.FIELDS.index("count")] == 0).all()
