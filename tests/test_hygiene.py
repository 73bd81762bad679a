"""Every import in ``src/`` and ``tests/`` is used, every private name in
``src/`` is read, and importing the package loads no process machinery.

A name bound by an import counts as used when the module reads it anywhere or
lists it in ``__all__``. ``from __future__`` imports change how the module
compiles and bind nothing, so they are exempt. A module-level function, class
or constant of ``src/`` whose name starts with one underscore counts as read
when some module of ``src/`` reads it outside its own definition: as a name,
as an attribute or in an import.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])
SRC = sorted(ROOT.glob("src/**/*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree)
    return [f"line {line}: {name}" for name, line in _imported(tree).items() if name not in used]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import_and_respects_all_and_future():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json\n"
        "from math import pi as PI, tau\n"
        "__all__ = ['tau']\n"
        "print(os.path.sep)\n"
    )
    assert unused_imports(source) == ["line 3: json", "line 4: PI"]


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each module-level function, class or constant named ``_x``, with its statement."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defined.update((name, node) for name in names if name[:1] == "_" and name[:2] != "__")
    return defined


def _reads(stmt: ast.stmt) -> set[str]:
    read = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each private name no statement but its own definition reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [(stmt, _reads(stmt)) for tree in trees.values() for stmt in tree.body]
    return [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree).items()
        if not any(name in read for stmt, read in reads if stmt is not node)
    ]


def test_every_private_name_in_src_is_read():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in SRC}
    assert unread_private_names(sources) == []


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a.py": (
            "_LIMIT = 5\n"
            "_DEAD, _IMPORTED = 1, 2\n"
            "_ANNOTATED: int = 6\n"
            "__version__ = '1'\n"
            "def _recursive(k):\n"
            "    return _recursive(k - 1) if k else 0\n"
            "class _Unused:\n"
            "    x = _Unused\n"
            "def public():\n"
            "    _local = 1\n"
            "    return _local\n"
        ),
        "b.py": "import a\nfrom a import _IMPORTED\nprint(a._LIMIT, _IMPORTED)\n",
    }
    assert unread_private_names(sources) == [
        "a.py: _DEAD", "a.py: _ANNOTATED", "a.py: _recursive", "a.py: _Unused",
    ]


# numpy's and the statistics module's order statistics, by the module's name;
# only robust.py selects or sorts (numpy's argsort, which orders eigenvalues,
# is no order statistic)
_NUMPY_SELECTS = {"median", "nanmedian", "percentile", "nanpercentile", "quantile", "nanquantile"}
_SELECTS = {
    "np": _NUMPY_SELECTS,
    "numpy": _NUMPY_SELECTS,
    "statistics": {"median", "median_low", "median_high", "median_grouped", "quantiles"},
}


def order_statistics(source: str) -> list[str]:
    """Each numpy or ``statistics`` order statistic the module names, and each
    ``.partition`` or ``.sort``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            selects = _SELECTS.get(getattr(node.value, "id", None), set())
            if node.attr in {"partition", "argpartition", "sort"} or node.attr in selects:
                found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module in _SELECTS:
            found.extend(a.name for a in node.names if a.name in _SELECTS[node.module] | {"partition", "sort"})
    return found


def test_every_median_in_src_goes_through_robust():
    found = {
        str(p.relative_to(ROOT)): order_statistics(p.read_text(encoding="utf-8"))
        for p in SRC
        if p.name != "robust.py"
    }
    assert {path: names for path, names in found.items() if names} == {}


def test_the_check_sees_every_way_to_a_median():
    source = (
        "import numpy as np\n"
        "from numpy import percentile\n"
        "from statistics import median as stat_median, mean\n"
        "np.median(x); numpy.nanmedian(x); x.partition(3); np.quantile(x, 0.5)\n"
        "statistics.median(x); statistics.quantiles(x); statistics.mean(x)\n"
        "robust.median(x); np.mean(x)\n"
        "from numpy import sort, argsort\n"
        "x.sort(axis=-1); np.sort(x); numpy.sort(x); np.argsort(x); x.argsort()\n"
    )
    assert sorted(order_statistics(source)) == [
        "median", "median", "median", "nanmedian",
        "partition", "percentile", "quantile", "quantiles",
        "sort", "sort", "sort", "sort",
    ]


# numpy's and scipy's eigendecompositions and SVD; sym_eigen makes the one call
_EIGEN_ROUTINES = {"eigh", "eigvalsh", "eig", "eigvals", "svd"}


def named(source: str, names) -> list[str]:
    """``function: name`` for each of ``names`` the module names, as an
    attribute, in an import or by itself; ``<module>`` outside functions."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append(f"{where}: {node.attr}")
        elif isinstance(node, ast.Name) and node.id in names:
            found.append(f"{where}: {node.id}")
        elif isinstance(node, ast.ImportFrom):
            found.extend(f"{where}: {a.name}" for a in node.names if a.name in names)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def eigendecompositions(source: str) -> list[str]:
    """Each eigendecomposition or SVD the module names (see ``named``)."""
    return named(source, _EIGEN_ROUTINES)


def test_every_eigendecomposition_in_src_goes_through_sym_eigen():
    found = {str(p.relative_to(ROOT)): eigendecompositions(p.read_text(encoding="utf-8")) for p in SRC}
    assert {path: names for path, names in found.items() if names} == {
        "src/pcout/spectral.py": ["sym_eigen: eigh"],
    }


def test_the_check_sees_every_eigendecomposition():
    source = (
        "import numpy as np\n"
        "from scipy.linalg import eigh, svd as SVD\n"
        "def sym_eigen(C):\n"
        "    return np.linalg.eigh(C)\n"
        "def other(C):\n"
        "    np.linalg.eigvalsh(C); np.linalg.eig(C); numpy.linalg.eigvals(C); la.svd(C)\n"
        "    np.linalg.norm(C); np.linalg.solve(C, C); sym_eigen(C)\n"
    )
    assert eigendecompositions(source) == [
        "<module>: eigh", "<module>: svd", "sym_eigen: eigh",
        "other: eigvalsh", "other: eig", "other: eigvals", "other: svd",
    ]


def factorizations(source: str) -> list[str]:
    """Each Cholesky factorization the module names (see ``named``)."""
    return named(source, {"cholesky"})


# robust_distances factors a scatter once; it also decides, from that factor,
# whether the scatter needs an eigendecomposition
def test_only_robust_distances_factors_a_scatter():
    found = {str(p.relative_to(ROOT)): factorizations(p.read_text(encoding="utf-8")) for p in SRC}
    assert {path: names for path, names in found.items() if names} == {
        "src/pcout/baselines.py": ["robust_distances: cholesky"],
    }


def test_the_check_sees_every_factorization():
    source = (
        "import numpy as np\n"
        "from scipy.linalg import cholesky, cho_factor\n"
        "def whiten(C):\n"
        "    return np.linalg.inv(np.linalg.cholesky(C))\n"
        "la.cholesky(C); np.linalg.qr(C); np.linalg.inv(C)\n"
    )
    assert factorizations(source) == ["<module>: cholesky", "whiten: cholesky", "<module>: cholesky"]


def forks(source: str) -> list[str]:
    """Each ``os.fork`` the module names (see ``named``)."""
    return named(source, {"fork"})


def test_only_the_csv_reader_forks():
    found = {str(p.relative_to(ROOT)): forks(p.read_text(encoding="utf-8")) for p in SRC}
    assert {path: names for path, names in found.items() if names} == {
        "src/pcout/dataio.py": ["_fork_range: fork"],
    }


def test_the_check_sees_every_fork():
    source = (
        "import os\n"
        "from os import fork\n"
        "def spawn():\n"
        "    return os.fork()\n"
        "os.forkpty(); os.getpid()\n"
    )
    assert forks(source) == ["<module>: fork", "spawn: fork"]


def dataio_imports(source: str) -> list[str]:
    """``line N: module`` for each import that loads a module named ``dataio``,
    relative or absolute: ``import a.dataio``, ``from a.dataio import x`` or
    ``from a import dataio``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            prefix = base if base.endswith(".") else base + "."
            modules = [base, *(prefix + alias.name for alias in node.names)]
        else:
            continue
        found.extend(f"line {node.lineno}: {m}" for m in modules if m.split(".")[-1] == "dataio")
    return found


# the command line reads the input and writes every document; the other
# modules hand it plain data, so none of them depends on the writers
def test_only_the_cli_imports_dataio():
    found = {str(p.relative_to(ROOT)): dataio_imports(p.read_text(encoding="utf-8")) for p in SRC}
    assert [path for path, lines in found.items() if lines] == ["src/pcout/cli.py"]


def test_the_check_sees_every_dataio_import():
    source = (
        "from .dataio import Columns\n"
        "from . import dataio, robust\n"
        "import pcout.dataio\n"
        "from pcout import dataio as io_\n"
        "def late():\n"
        "    from pcout.dataio import load_csv\n"
        "from .robust import median\n"
        "import dataclasses, dataio_extra\n"
        "from pcout.cli import dataio_of\n"
    )
    assert dataio_imports(source) == [
        "line 1: .dataio", "line 2: .dataio", "line 3: pcout.dataio", "line 4: pcout.dataio",
        "line 6: pcout.dataio",
    ]


def power_of_two_scalings(source: str) -> list[str]:
    """Each ``frexp`` or ``ldexp`` the module names (see ``named``)."""
    return named(source, {"frexp", "ldexp"})


# robust._scaled_row_norms scales each row, for robust.row_norms, the one row
# norm every other module calls; pca_basis scales the whole centered matrix
# once, before its product
def test_only_the_row_norms_and_pca_basis_scale_by_a_power_of_two():
    found = {str(p.relative_to(ROOT)): power_of_two_scalings(p.read_text(encoding="utf-8")) for p in SRC}
    assert {path: sorted(set(names)) for path, names in found.items() if names} == {
        "src/pcout/robust.py": ["_scaled_row_norms: frexp", "_scaled_row_norms: ldexp"],
        "src/pcout/spectral.py": ["pca_basis: frexp", "pca_basis: ldexp"],
    }


def test_the_check_sees_every_power_of_two_scaling():
    source = (
        "import numpy as np\n"
        "from math import frexp\n"
        "def unit_rows(D):\n"
        "    e = np.frexp(abs(D).max(axis=1))[1]\n"
        "    return numpy.ldexp(D, -e[:, None])\n"
        "math.ldexp(1.0, 3); np.exp2(3); np.log2(x)\n"
    )
    assert power_of_two_scalings(source) == [
        "<module>: frexp", "unit_rows: frexp", "unit_rows: ldexp", "<module>: ldexp",
    ]


# robust.row_norms decides when a row norm needs the scaled form; no other module asks for it
def test_only_robust_reads_the_scaled_row_norms():
    found = {
        str(p.relative_to(ROOT)): named(p.read_text(encoding="utf-8"), {"_scaled_row_norms"}) for p in SRC
    }
    assert {path: names for path, names in found.items() if names} == {
        "src/pcout/robust.py": ["row_norms: _scaled_row_norms"],
    }


def test_the_check_sees_every_read_of_the_scaled_row_norms():
    source = (
        "from pcout.robust import _scaled_row_norms\n"
        "from pcout import robust\n"
        "def unit_rows(D):\n"
        "    return D / _scaled_row_norms(D)[:, None]\n"
        "norms = robust._scaled_row_norms\n"
        "def _scaled_row_norms_of(D): return robust.row_norms(D)\n"
    )
    assert named(source, {"_scaled_row_norms"}) == [
        "<module>: _scaled_row_norms", "unit_rows: _scaled_row_norms", "<module>: _scaled_row_norms",
    ]


_SUMS = {"sum", "nansum", "fsum"}
_PRODUCTS = {"dot", "matmul", "inner", "vdot", "einsum"}


def _name(node) -> str | None:
    """``f`` for the expression ``f`` or ``m.f``."""
    return getattr(node, "attr", None) or getattr(node, "id", None)


def _sums_or_multiplies(node) -> bool:
    """Whether node is an ``add.reduce``, a sum or a matrix product."""
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, ast.MatMult)
    if not isinstance(node, ast.Call):
        return False
    if _name(node.func) == "reduce":
        return _name(getattr(node.func, "value", None)) == "add"
    return _name(node.func) in _SUMS | _PRODUCTS


def euclidean_norms(source: str) -> list[str]:
    """``line N: what`` for each hand-rolled Euclidean norm the module takes: a
    square root of an expression holding an ``add.reduce``, a sum or a matrix
    product, and each ``linalg.norm``, imported or read from any ``linalg``."""
    tree = ast.parse(source)
    linalg = {"linalg"}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            linalg.update(a.asname for a in node.names if a.asname and a.name.split(".")[-1] == "linalg")
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call) and _name(node.func) == "sqrt"
            and any(_sums_or_multiplies(n) for a in node.args for n in ast.walk(a))
        ):
            found.append((node.lineno, node.col_offset, "sqrt"))
        elif isinstance(node, ast.Attribute) and node.attr == "norm" and _name(node.value) in linalg:
            found.append((node.lineno, node.col_offset, "linalg.norm"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "linalg":
            found.extend(
                (node.lineno, node.col_offset, "linalg.norm") for a in node.names if a.name == "norm"
            )
    return [f"line {line}: {what}" for line, _, what in sorted(found)]


# robust.row_norms owns every Euclidean norm outside robust.py: it decides which
# rows need rescaling
def test_every_euclidean_norm_in_src_goes_through_row_norms():
    found = {
        str(p.relative_to(ROOT)): euclidean_norms(p.read_text(encoding="utf-8"))
        for p in SRC
        if p.name != "robust.py"
    }
    assert {path: norms for path, norms in found.items() if norms} == {}


def test_the_check_sees_every_hand_rolled_norm():
    source = (
        "import numpy as np\n"
        "import numpy.linalg as la\n"
        "from scipy.linalg import norm, solve\n"
        "from numpy import linalg as LA\n"
        "d = np.sqrt(Z2 @ rel)\n"
        "V /= np.sqrt(np.add.reduce(V * V, axis=0))\n"
        "math.sqrt(sum(t * t for t in x)); np.sqrt(x.sum(axis=1) / n); sqrt(np.dot(x, x))\n"
        "np.sqrt(add.reduce(x) if y else x)\n"
        "np.linalg.norm(x); la.norm(x); LA.norm(x, axis=1); numpy.linalg.norm(x)\n"
        "np.sqrt(x); math.sqrt(2.0 / n); np.sqrt(x * y); np.add.reduce(x); x @ y\n"
        "np.sqrt(np.multiply.reduce(x)); np.sqrt(reduce(f, x)); robust.row_norms(x); stats.norm.ppf(0.5)\n"
    )
    assert euclidean_norms(source) == [
        "line 3: linalg.norm", "line 5: sqrt", "line 6: sqrt",
        "line 7: sqrt", "line 7: sqrt", "line 7: sqrt", "line 8: sqrt",
        "line 9: linalg.norm", "line 9: linalg.norm", "line 9: linalg.norm", "line 9: linalg.norm",
    ]


def _transposed(node) -> ast.expr | None:
    """``x`` for the expression ``x.T``, ``x.transpose()`` or ``transpose(x)``
    (``np.transpose(x)`` too), else None."""
    if isinstance(node, ast.Attribute) and node.attr == "T":
        return node.value
    if isinstance(node, ast.Call) and _name(node.func) == "transpose":
        if isinstance(node.func, ast.Attribute) and not node.args:
            return node.func.value
        if len(node.args) == 1:
            return node.args[0]
    return None


def transpose_sums(source: str) -> list[str]:
    """``line N: what`` for each sum of a matrix and its own transpose the module
    forms: ``a + a.T`` or ``a.T + a`` (any of ``_transposed``'s forms), or
    ``add(a, a.T)``, the first step of symmetrizing a by averaging."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            pair = (node.left, node.right)
        elif isinstance(node, ast.Call) and _name(node.func) == "add" and len(node.args) >= 2:
            pair = tuple(node.args[:2])
        else:
            continue
        for a, b in (pair, pair[::-1]):
            inner = _transposed(b)
            if inner is not None and ast.dump(inner) == ast.dump(a):
                found.append((node.lineno, node.col_offset, ast.unparse(node)))
                break
    return [f"line {line}: {what}" for line, _, what in sorted(found)]


# every matrix sym_eigen or the Cholesky factor reads is built exactly symmetric
# (a matrix times its own transpose, or both triangles written from one set of
# values); averaging with the transpose would hide one that is not
def test_no_matrix_in_src_is_symmetrized_by_averaging_it_with_its_transpose():
    found = {str(p.relative_to(ROOT)): transpose_sums(p.read_text(encoding="utf-8")) for p in SRC}
    assert {path: sums for path, sums in found.items() if sums} == {}


def test_the_check_sees_every_sum_of_a_matrix_and_its_transpose():
    source = (
        "S = (scatter + scatter.T) / 2.0\n"
        "M = 0.5 * (A.T + A)\n"
        "C = np.add(C, C.transpose()) / 2\n"
        "D = (B + np.transpose(B)) * 0.5; np.add(np.transpose(x), x, out=x)\n"
        "E = A + B.T; F = X.T @ X; G = A + A; H = A.T + B.T; K = A - A.T; L = np.add(A, B.T)\n"
        "U[upper] = U.T[upper] = cov; V = A @ A.transpose(); W = np.transpose(A, (1, 0)) + A.T\n"
    )
    assert transpose_sums(source) == [
        "line 1: scatter + scatter.T",
        "line 2: A.T + A",
        "line 3: np.add(C, C.transpose())",
        "line 4: B + np.transpose(B)",
        "line 4: np.add(np.transpose(x), x, out=x)",
    ]


def random_draws(source: str) -> list[str]:
    """Each Philox generator, normal draw or default generator the module names (see ``named``)."""
    return named(source, {"Philox", "standard_normal", "default_rng"})


# evalsim._normals is the one stream every simulated matrix is cut from
def test_only_evalsim_draws_random_numbers():
    found = {str(p.relative_to(ROOT)): random_draws(p.read_text(encoding="utf-8")) for p in SRC}
    assert {path: sorted(names) for path, names in found.items() if names} == {
        "src/pcout/evalsim.py": ["_normals: Philox", "_normals: standard_normal"],
    }


def test_the_check_sees_every_random_draw():
    source = (
        "import numpy as np\n"
        "from numpy.random import default_rng, Philox as P\n"
        "def draw(seed, n):\n"
        "    return np.random.Generator(np.random.Philox(seed)).standard_normal(n)\n"
        "np.random.default_rng(1).normal(); rng.standard_normal(3); np.random.uniform()\n"
    )
    assert random_draws(source) == [
        "<module>: default_rng", "<module>: Philox", "draw: standard_normal", "draw: Philox",
        "<module>: default_rng", "<module>: standard_normal",
    ]


# Loaded only on load_csv's parallel route, if at all: the benchmark's setup_s
# times a fresh ``import pcout, pcout.cli``. ``statistics`` (which loads
# ``fractions`` and ``decimal``) would be a second median besides robust's.
_NOT_AT_IMPORT = ("mmap", "multiprocessing", "concurrent.futures", "subprocess", "statistics")


def test_importing_the_package_loads_no_process_or_shared_memory_module():
    code = "import sys, pcout, pcout.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code, *_NOT_AT_IMPORT],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout == "[]\n"
