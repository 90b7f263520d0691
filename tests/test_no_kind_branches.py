"""Cones are described by their Jordan parameters (r, d, N), not by kind branches.

Only ``jordan.py`` maps a kind name to its parameters (``make_algebra`` and
``algebra_dim``); every other module of the library works from ``alg.rank``,
``alg.d`` and ``alg.dim``.  This scans the tokens of each module, so comments
and docstrings may still name a kind, for a comparison ``kind ==`` or
``kind !=`` and for any attribute read ``.kind``.
"""
import io
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qsiegel"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "jordan.py")


def kind_branches(source):
    """(line, text) of each ``kind ==``, ``kind !=`` or ``.kind`` in Python source."""
    tokens = [
        tok
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE)
    ]
    hits = []
    for prev, tok in zip(tokens, tokens[1:]):
        compare = prev.type == tokenize.NAME and prev.string == "kind" and tok.string in ("==", "!=")
        attribute = prev.string == "." and tok.type == tokenize.NAME and tok.string == "kind"
        if compare or attribute:
            hits.append((tok.start[0], tok.line.strip()))
    return hits


def test_the_scan_finds_each_form():
    assert len(kind_branches("if alg.kind == 'diagonal':\n    pass\n")) == 2
    assert len(kind_branches("r = 1 if kind != 'rank1' else 2\n")) == 1
    assert kind_branches("order = np.argsort(keys, kind='stable')  # alg.kind == x\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_but_jordan_branches_on_the_algebra_kind(path):
    assert kind_branches(path.read_text()) == [], f"{path.name} branches on the algebra kind"
