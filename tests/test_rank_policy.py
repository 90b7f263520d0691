"""Every subspace rank decision of the library runs through one policy.

``subspaces.span_bases`` and ``subspaces.complement_bases`` decide ranks with
the TOL_RANK cutoff, ``subspaces.kernel_bases`` decides the kernel of g_x
from the eigenvalues of 2R_x at the same cutoff, and every other rank
decision calls one of them.  The only other SVDs are ``RealSubspace.perp``
(the complement of an orthonormal basis, whose basis fixes the coordinates
of ``--chi``) and ``derive_spaces`` (one SVD both decides the split
V = P + S^x + jS^x at the absolute 1e-10 and inverts it).  This scans the
syntax tree of each module for ``svd`` and ``matrix_rank``, read as an
attribute or a name or imported by name, so comments and docstrings may
still name them.

The coisotropic residual is in closed form on S and decides no rank:
``certify._coisotropic_residuals`` reaches none of the rank-deciding
functions and no SVD.  The admissibility predicate and the derivation of
N_x, S_x and S^x build each space once, from the one matrix that defines
it: ``radical_on``, ``admissible_radical`` and ``derive_spaces`` re-span
nothing through ``from_spanning``, ``j_image``, ``perp`` or ``intersect``.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qsiegel"
MODULES = sorted(SRC.glob("*.py"))
SVD_SITES = {
    ("subspaces.py", "span_bases"),
    ("subspaces.py", "complement_bases"),
    ("subspaces.py", "perp"),
    ("subspaces.py", "derive_spaces"),
}


CUTOFF_FREE = {("certify.py", "_coisotropic_residuals")}
RANK_DECISIONS = ("span_bases", "complement_bases", "kernel_bases", "from_spanning", "complement_wrt", "svd")
RESPAN_FREE = {("subspaces.py", name) for name in ("radical_on", "admissible_radical", "derive_spaces")}
RESPANS = ("from_spanning", "j_image", "perp", "intersect")


def uses(source, names):
    """(enclosing function or None, name) of each use of one of ``names``."""
    hits = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr in names:
                hits.append((function, child.attr))
            if isinstance(child, ast.Name) and child.id in names:
                hits.append((function, child.id))
            if isinstance(child, ast.ImportFrom):
                hits.extend((function, a.name) for a in child.names if a.name in names)
            visit(child, function)

    visit(ast.parse(source), None)
    return hits


def linalg_uses(source):
    return uses(source, ("svd", "matrix_rank"))


def test_the_scan_finds_each_form():
    source = (
        "from numpy.linalg import svd\n"
        "def f(a):\n    return np.linalg.matrix_rank(a)\n"
        "class C:\n    def g(self, a):\n        u, s, vt = np.linalg.svd(a)  # np.linalg.svd\n"
    )
    assert linalg_uses(source) == [(None, "svd"), ("f", "matrix_rank"), ("g", "svd")]
    assert linalg_uses('"""np.linalg.svd and matrix_rank"""\nx = np.linalg.norm(a, 2)\n') == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_matrix_rank_and_svd_only_at_its_sites(path):
    for function, name in linalg_uses(path.read_text()):
        assert name != "matrix_rank", f"{path.name}: {function} decides a rank with matrix_rank"
        assert (path.name, function) in SVD_SITES, f"{path.name}: {function} runs its own SVD"


def test_the_scan_finds_a_call_by_name_and_by_attribute():
    source = "def f(w):\n    return span_bases(w), RealSubspace.from_spanning(w)\n"
    assert uses(source, RANK_DECISIONS) == [("f", "span_bases"), ("f", "from_spanning")]


def reached(module, function, names):
    source = (SRC / module).read_text()
    defined = {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}
    assert function in defined
    return [name for caller, name in uses(source, names) if caller == function]


@pytest.mark.parametrize("module,function", sorted(CUTOFF_FREE))
def test_cutoff_free_functions_decide_no_rank(module, function):
    hits = reached(module, function, RANK_DECISIONS)
    assert hits == [], f"{module}: {function} reaches {hits}"


@pytest.mark.parametrize("module,function", sorted(RESPAN_FREE))
def test_derivation_respans_nothing(module, function):
    hits = reached(module, function, RESPANS)
    assert hits == [], f"{module}: {function} reaches {hits}"
