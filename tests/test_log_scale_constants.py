"""The cone constants are written once, in log scale.

No module of the library calls ``math.gamma``: Gamma_Omega is
``integrals.log_gindikin_gamma``, by ``math.lgamma``.  In ``integrals.py``
pi and ``lgamma`` appear only in the functions that write a normalization:
``log_gindikin_gamma``, the Gindikin prefactor ``_log_prefactor``, the
Gaussian ``gaussian_iq`` and ``measure_mass``, whose (2 pi)^N is the Fourier
factor that separates it from the Bergman kernel.  This walks the syntax tree,
so comments and docstrings may name them.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qsiegel"
MODULES = sorted(SRC.glob("*.py"))
NORMALIZATIONS = {"log_gindikin_gamma", "_log_prefactor", "gaussian_iq", "measure_mass"}


def uses(source, names):
    """(enclosing top-level function or None, name) of each ``x.name`` or bare ``name`` in ``names``."""
    hits = []
    for node in ast.parse(source).body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            name = sub.attr if isinstance(sub, ast.Attribute) else sub.id if isinstance(sub, ast.Name) else None
            if name in names:
                hits.append((owner, name))
    return hits


def math_gamma_calls(source):
    """Line of each ``math.gamma``, and of each import of ``gamma`` from ``math``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        attribute = isinstance(node, ast.Attribute) and node.attr == "gamma"
        if attribute and isinstance(node.value, ast.Name) and node.value.id == "math":
            lines.append(node.lineno)
        if isinstance(node, ast.ImportFrom) and node.module == "math" and any(a.name == "gamma" for a in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_scans_find_each_form():
    source = "import math\nC = math.pi\ndef f():\n    return math.lgamma(2) + np.pi\n"
    assert sorted(uses(source, {"pi", "lgamma"}), key=str) == [("f", "lgamma"), ("f", "pi"), (None, "pi")]
    assert math_gamma_calls("import math\nx = math.gamma(3)\nfrom math import gamma\n") == [2, 3]
    assert math_gamma_calls("x = g.gamma(3.0, size=4)  # a generator's draw, not math.gamma\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_calls_math_gamma(path):
    assert math_gamma_calls(path.read_text()) == [], f"{path.name} calls math.gamma"


def test_pi_and_lgamma_stay_in_the_normalizations():
    hits = uses((SRC / "integrals.py").read_text(), {"pi", "lgamma"})
    assert {owner for owner, _ in hits} == NORMALIZATIONS
