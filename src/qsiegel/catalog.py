"""Built-in example domains with subspace variants and frozen verdicts.

Each entry fixes an algebra, the standard representation, and a list of W
variants given by real basis vectors in (Re v, Im v) coordinates.  The
``expected_mf`` booleans were computed once by the direct oracle (build
S = (jW)-orthocomplement, scan Im Q on its basis) and then frozen here; the
test suite recomputes them and cross-checks all three certifiers.
"""
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .errors import UnknownEntry
from .representation import standard_model
from .subspaces import RealSubspace


@dataclass(frozen=True)
class WVariant:
    name: str
    basis: tuple          # tuple of 2n-coordinate tuples
    expected_mf: bool
    note: str

    def subspace(self, n):
        if not self.basis:
            return RealSubspace.zero(2 * n)
        return RealSubspace.from_spanning(np.array(self.basis, dtype=float).T)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    algebra_kind: str
    algebra_param: int
    representation_kind: str
    variants: tuple

    def variant(self, name):
        for v in self.variants:
            if v.name == name:
                return v
        raise UnknownEntry(f"variant {name!r} not in entry {self.name!r}")

    def model(self):
        return standard_model(self.algebra_kind, self.algebra_param)

    def spec_dict(self, variant_name, samples=20, seed=0):
        v = self.variant(variant_name)
        return {
            "algebra": {"kind": self.algebra_kind, "param": self.algebra_param},
            "representation": {"kind": self.representation_kind},
            "W": {"basis": [list(map(float, b)) for b in v.basis]},
            "sampling": {"samples": samples, "seed": seed},
        }


def _entry(name, kind, param, variants):
    return CatalogEntry(name, kind, param, "standard", tuple(WVariant(*v) for v in variants))


_CATALOG: Dict[str, CatalogEntry] = {}

for e in [
    _entry(
        "heisenberg-rank1",
        "rank1",
        1,
        [
            ("full", ((1.0, 0.0), (0.0, 1.0)), True, "W = V; open orbits"),
            ("real", ((1.0, 0.0),), True, "real form of V"),
            ("zero", (), False, "trivial W; orbits are real-z translates only"),
        ],
    ),
    _entry(
        "diag2",
        "diagonal",
        2,
        [
            ("full", ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), True, "W = V"),
            ("realform", ((1, 0, 0, 0), (0, 1, 0, 0)), True, "real form of V"),
            ("phase", ((1, 0, 0, 0), (0, 0, 0, 1)), True, "componentwise-rotated real form"),
            ("complexline", ((1, 0, 0, 0), (0, 0, 1, 0)), False, "one complex coordinate; the other is untouched"),
        ],
    ),
    _entry(
        "sym2",
        "sym_real",
        2,
        [
            ("full", ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), True, "W = V"),
            ("realform", ((1, 0, 0, 0), (0, 1, 0, 0)), True, "real form of V"),
            ("frame", ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)), True, "frame-based W = P + S"),
            ("skew", ((1, 0, 0, 0), (0, 0, 0, 1)), False, "computed by the S/Im Q oracle"),
        ],
    ),
    _entry(
        "herm2",
        "herm_complex",
        2,
        [
            ("full", ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), True, "W = V"),
            ("frame", ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)), True, "frame-based W = P + S"),
            ("realform", ((1, 0, 0, 0), (0, 1, 0, 0)), False, "real form; Q has imaginary skew part"),
        ],
    ),
    _entry(
        "sym3",
        "sym_real",
        3,
        [
            (
                "full",
                tuple(tuple(float(t) for t in row) for row in np.eye(6)),
                True,
                "W = V",
            ),
            (
                "realform",
                ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)),
                True,
                "real form of V",
            ),
            (
                "frame",
                (
                    (1, 0, 0, 0, 0, 0),
                    (0, 1, 0, 0, 0, 0),
                    (0, 0, 1, 0, 0, 0),
                    (0, 0, 0, 0, 1, 0),
                    (0, 0, 0, 0, 0, 1),
                ),
                True,
                "frame-based W = P + S; admissibility strata reach k = 2",
            ),
            (
                "phasemix",
                ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)),
                False,
                "computed by the S/Im Q oracle",
            ),
            (
                "complexline",
                ((1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)),
                False,
                "one complex coordinate; the others are untouched",
            ),
        ],
    ),
]:
    _CATALOG[e.name] = e


def catalog_list() -> List[str]:
    return sorted(_CATALOG)


def catalog_get(name) -> CatalogEntry:
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownEntry(f"unknown catalog entry {name!r}") from None
