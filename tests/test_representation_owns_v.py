"""The representation decides V, and the measure's shape 2N/r + 1 is written once.

``JordanRepresentation.two_r`` is the one place that turns an algebra element
into an operator on V, so the certifiers read Y on V from it and never from
the algebra's ``to_matrix``.  The Gamma shape of the invariant measure, which
is also the Bergman exponent and the scalar of the base metric, is computed
by ``integrals.measure_shape`` alone; every other site reads it from there.
This scans the syntax tree of each module, so comments and docstrings may
still spell the shape out.  A shape is an addition of the constant 1 to a
quotient of a dimension by a rank, read directly (``alg.dim / alg.rank``) or
through names bound to them in the same function (``n // r`` after
``n, r = alg.dim, alg.rank``, or ``s + 1`` after ``s = alg.dim / alg.rank``).
"""
import ast
from pathlib import Path

from test_rank_policy import uses

SRC = Path(__file__).resolve().parents[1] / "src" / "qsiegel"
MODULES = sorted(SRC.glob("*.py"))


def _bindings(function):
    """name -> the expression it is assigned in ``function``, tuples unpacked."""
    bound = {}
    for node in ast.walk(function):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                bound[target.id] = node.value
            elif isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                bound.update(
                    (t.id, v) for t, v in zip(target.elts, node.value.elts) if isinstance(t, ast.Name)
                )
    return bound


def _reads(node, attr, bound, seen=()):
    """Whether ``node`` reads the attribute ``attr``, directly or through a bound name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == attr:
            return True
        if isinstance(sub, ast.Name) and sub.id in bound and sub.id not in seen:
            if _reads(bound[sub.id], attr, bound, (*seen, sub.id)):
                return True
    return False


def _ratio(node, bound, seen=()):
    """Whether ``node`` holds a quotient of a dimension by a rank."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, (ast.Div, ast.FloorDiv)):
            if _reads(sub.left, "dim", bound) and _reads(sub.right, "rank", bound):
                return True
        if isinstance(sub, ast.Name) and sub.id in bound and sub.id not in seen:
            if _ratio(bound[sub.id], bound, (*seen, sub.id)):
                return True
    return False


def _adds_one_to_a_ratio(node, bound):
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    return any(
        isinstance(one, ast.Constant) and one.value == 1 and _ratio(other, bound)
        for one, other in ((node.left, node.right), (node.right, node.left))
    )


def shape_sites(source):
    """Names of the functions that add 1 to a quotient of a dimension by a rank."""
    return [
        function.name
        for function in ast.walk(ast.parse(source))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_adds_one_to_a_ratio(node, _bindings(function)) for node in ast.walk(function))
    ]


def test_the_scan_finds_each_form():
    source = (
        "def a(alg):\n    return 2.0 * alg.dim / alg.rank + 1.0\n"
        "def b(alg):\n    n, r = alg.dim, alg.rank\n    return 2 * n // r + 1\n"
        "def c(alg, dets):\n    r, s = alg.rank, alg.dim / alg.rank\n    return dets ** (s + 1.0)\n"
        "def d(alg):\n    s = alg.dim / alg.rank\n    return 1 + 2.0 * s\n"
    )
    assert shape_sites(source) == ["a", "b", "c", "d"]
    clean = (
        '"""2.0 * alg.dim / alg.rank + 1.0"""\n'
        "def e(alg):\n    r, s = alg.rank, alg.dim / alg.rank\n    return s, r + 1, alg.dim + 1\n"
    )
    assert shape_sites(clean) == []


def test_the_shape_is_computed_in_one_function():
    sites = [(path.name, name) for path in MODULES for name in shape_sites(path.read_text())]
    assert sites == [("integrals.py", "measure_shape")]


def test_certify_reads_operators_on_v_from_the_representation():
    assert uses((SRC / "certify.py").read_text(), ("to_matrix",)) == []
