"""The package's top-level surface, entry points and error classes only, and
the imports of its modules."""

import ast
import re

import hoffbound

from helpers import ROOT, load_file_module

README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "hoffbound"

SURFACE = {
    "ProblemInstance", "SolverConfig",
    "bound_h0", "BoundReport", "audit_report", "AuditResult",
    "lower_bound_monte_carlo", "OracleResult",
    "load_matrix", "save_matrix_csv", "report_to_dict", "canonical_report_json",
    "HoffboundError", "ScaleOutOfRange", "AmbiguousIndex", "NumericalFailure",
    "SolverStall", "InfeasibleQP", "NoInteriorPoint",
    "ParseError", "DimensionError", "UnsupportedFormat",
}


def test_top_level_exports_exactly_the_entry_points():
    assert len(hoffbound.__all__) == len(set(hoffbound.__all__))
    assert set(hoffbound.__all__) == SURFACE | {"__version__"}
    for name in hoffbound.__all__:
        assert hasattr(hoffbound, name), name
    for name in SURFACE - {"SolverConfig", "ProblemInstance"}:
        obj = getattr(hoffbound, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            assert issubclass(obj, hoffbound.HoffboundError), name


def test_readme_python_api_lists_every_export():
    text = README.read_text()
    section = text.split("## Python API", 1)[1].split("\n## ", 1)[0]
    for name in SURFACE:
        assert re.search(rf"`{name}[`(.]", section), name


def _unused_imports(path):
    """Names ``path`` imports but never reads and does not list in
    ``__all__``."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return imported - read - exported


def _modules():
    """Each module of the package as ``(dotted name, path)``."""
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        yield ".".join(parts[:-1] if parts[-1] == "__init__" else parts), path


def test_no_module_imports_a_name_it_never_uses():
    # the benchmark's tracer wraps some functions where a module imports
    # them, so those imports stay while the tracer reads them
    spans = load_file_module("perfbench_spans", ROOT / "perfbench" / "spans.py")
    hooked = {(module, attr) for module, attr, _, _ in spans.HOOKS}
    unused = []
    for module, path in _modules():
        unused += [f"{module}.{name}" for name in sorted(_unused_imports(path))
                   if (module, name) not in hooked]
    assert unused == []


def _eps_readers(source):
    """Qualified names of the functions and classes in ``source`` that read
    machine epsilon, as the name ``EPS``, an attribute ``.EPS`` or an
    attribute ``.eps`` such as ``np.finfo(float).eps``; "" stands for the
    module's top level."""
    readers = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Name) and node.id == "EPS"
                and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr in ("EPS", "eps")):
            readers.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return readers


def test_the_guard_finds_eps_readers():
    assert _eps_readers("from .core import EPS\n__all__ = ['EPS']\n") == set()
    assert _eps_readers("from .core import EPS\ndef f(k):\n    return k * EPS\n") == {"f"}
    assert _eps_readers(
        "import numpy as np\nfrom . import core\nclass C:\n    def g(self):\n"
        "        return np.finfo(float).eps + core.EPS\nTOL = 2.0 * core.EPS\n"
    ) == {"C.g", ""}


def test_machine_epsilon_is_read_only_by_gamma_and_the_rank_rule():
    # every rounding term is a core.gamma(k), so no module forms its own
    # multiple of EPS; the rank rule's cut, max(m, n) eps s_1, is the size
    # of the SVD's backward error, not a rounding term of a check.  The one
    # top-level read is EPS's definition in core.
    readers = {f"{module}.{scope}" if scope else module
               for module, path in _modules()
               for scope in _eps_readers(path.read_text())}
    assert readers == {"hoffbound.core", "hoffbound.core.gamma",
                       "hoffbound.numerics.numerical_rank"}


def _private_scipy_names(source):
    """Dotted scipy names that ``source`` imports or reads through a private
    component, such as ``scipy.optimize._slsqplib.nnls``."""
    tree = ast.parse(source)
    bound = {}  # local name -> the scipy name it stands for
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "scipy":
                    names.append(a.name)
                    if a.asname:
                        bound[a.asname] = a.name
                    else:
                        bound["scipy"] = "scipy"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            for a in node.names:
                names.append(f"{node.module}.{a.name}")
                bound[a.asname or a.name] = f"{node.module}.{a.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain, base = [], node
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                names.append(".".join([bound[base.id], *reversed(chain)]))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names += re.findall(r"\bscipy(?:\.\w+)+", node.value)

    def private(name):
        return any(p.startswith("_") and not p.endswith("__") for p in name.split(".")[1:])

    return sorted({name for name in names if private(name)})


def test_the_guard_finds_private_scipy_names():
    for source in [
        "import scipy.optimize._slsqplib",
        "from scipy.optimize._slsqplib import nnls",
        "from scipy.optimize import _slsqplib",
        "import scipy.optimize\nscipy.optimize._slsqplib.nnls(A, b)",
        "from scipy import optimize as so\nso._nnls.nnls(A, b)",
        "import importlib\nimportlib.import_module('scipy.optimize._slsqplib')",
    ]:
        assert _private_scipy_names(source), source
    assert _private_scipy_names(
        "import scipy.optimize\nfrom scipy.linalg.lapack import dgeqrf\n"
        "scipy.optimize.nnls(A, b)\nscipy.__version__\ndgeqrf(A)"
    ) == []


def test_no_module_uses_a_private_scipy_name():
    # scipy's private modules change without notice; the public wrappers
    # (scipy.optimize.nnls above all) are also where the tests patch them
    found = [f"{path.relative_to(PACKAGE)}: {name}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for name in _private_scipy_names(path.read_text())]
    assert found == []
