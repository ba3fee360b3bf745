"""Reference catalog of small symmetric designs.

Built on first use from difference sets plus the block-switching recipe;
nothing here is hand-typed incidence data.  Each entry is a
``designs.DesignClass``, a matrix under a name, which canon labels on the
first read of its certificate or automorphism group order; building the
catalog and naming a design by its 2-rank label nothing.  Certificates
are the ground truth; names are presentation only.  For each parameter
set with a unique class arising from a difference set the class is named
D0; the three (16,6,2) classes are D1 (the development), D2 (one switch),
D3 (two switches).

Completeness assumption.  For the parameter sets in ``COMPLETE_PARAMS`` the
catalog holds every design up to isomorphism, by these theorems: the
projective planes PG(2,2), PG(2,3) and PG(2,4) are the unique (7,3,1),
(13,4,1) and (21,5,1) designs, the (11,5,2) biplane is unique, and there
are exactly three (16,6,2) designs (Hussain 1945).  The rank over GF(2) of
the incidence matrix is an isomorphism and duality invariant, and it
separates the three (16,6,2) classes (ranks 6, 7 and 8, computed from the
catalog matrices at build time).  So a verified design with one of these
parameter sets is named by its parameters and 2-rank alone, without canon
(``Catalog.lookup``).  (15,7,3) is left out: it has five classes, and the
catalog holds only one.
"""

from __future__ import annotations

import threading
from functools import cached_property

import numpy as np

from .designs import (
    DesignClass,
    DesignParams,
    IncidenceMatrix,
    development,
    switch_blocks,
    verify_design,
)
from .errors import ConstructionBugError
from .groups import (
    DifferenceSet,
    difference_sets_up_to_equivalence,
    make_cyclic,
    make_direct_product,
    make_metacyclic,
)

__all__ = [
    "COMPLETE_PARAMS",
    "Catalog",
    "reference_catalog",
    "klein_group",
    "elementary_16",
]

# parameter sets whose designs the catalog classifies completely (see the
# module docstring for the theorems)
COMPLETE_PARAMS = frozenset(
    DesignParams(*p) for p in ((7, 3, 1), (11, 5, 2), (13, 4, 1), (21, 5, 1), (16, 6, 2))
)


def _gf2_rank(bits: np.ndarray) -> int:
    """Rank over GF(2) of a 0/1 matrix, by elimination on rows packed into
    integers."""
    rows = [int.from_bytes(np.packbits(r).tobytes(), "big") for r in bits]
    rank = 0
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


class Catalog:
    """The entries, indexed by parameters and 2-rank when built and by
    certificate on first read, which labels every entry."""

    def __init__(self, entries: list[DesignClass]):
        self.entries = entries
        self._by_rank: dict[tuple[DesignParams, int], DesignClass] = {}
        for e in entries:
            if e.matrix.params in COMPLETE_PARAMS:
                key = (e.matrix.params, _gf2_rank(e.matrix.bits))
                if key in self._by_rank:
                    raise ConstructionBugError(
                        f"catalog entries {self._by_rank[key].name} and {e.name} share "
                        f"parameters {key[0]} and 2-rank {key[1]}"
                    )
                self._by_rank[key] = e

    def lookup(self, a: IncidenceMatrix) -> DesignClass | None:
        """The entry of a's class, named by its parameters and 2-rank
        without canon; None unless a verifies as a design whose parameter
        set the catalog holds completely and whose 2-rank it indexes."""
        k = int(a.bits[:, :1].sum())
        params = next((p for p in COMPLETE_PARAMS if (p.v, p.k) == (a.v, k)), None)
        if params is None or not verify_design(a, params):
            return None
        return self._by_rank.get((params, _gf2_rank(a.bits)))

    @cached_property
    def _by_cert(self) -> dict[bytes, DesignClass]:
        return {e.certificate: e for e in self.entries}

    def name_for(self, certificate: bytes) -> str | None:
        entry = self._by_cert.get(certificate)
        return entry.name if entry else None

    def names(self) -> dict[bytes, str]:
        return {cert: e.name for cert, e in self._by_cert.items()}


def klein_group():
    return make_direct_product(make_cyclic(2), make_cyclic(2))


def elementary_16():
    """Z_2^4 with elements numbered lexicographically on 4-bit strings,
    so that multiplication is XOR of indices."""
    k4 = klein_group()
    return make_direct_product(k4, k4)


def switched_16_designs():
    """The three (16,6,2) designs: the development of {1,2,3,4,8,12} in
    Z_2^4, and the two block-switched variants."""
    g = elementary_16()
    base_set = DifferenceSet(g, (1, 2, 3, 4, 8, 12), (16, 6, 2))
    d1 = development(base_set)
    d2 = switch_blocks(d1, (0, 1, 12, 13), (2, 3, 14, 15))
    d3 = switch_blocks(d2, (0, 1, 4, 5), (6, 7, 14, 15))
    params = DesignParams(16, 6, 2)
    for m in (d1, d2, d3):
        if not verify_design(m, params):
            raise ConstructionBugError("switching recipe produced an invalid design")
    return d1, d2, d3


_CATALOG: Catalog | None = None
_LOCK = threading.Lock()


def _build() -> Catalog:
    entries: list[DesignClass] = []

    def add(name: str, matrix: IncidenceMatrix):
        entries.append(DesignClass(matrix, name))

    # unique classes from cyclic difference sets
    add("D0", development(DifferenceSet(make_cyclic(7), (1, 2, 4), (7, 3, 1))))
    add("D0", development(DifferenceSet(make_cyclic(11), (1, 3, 4, 5, 9), (11, 5, 2))))
    add("D0", development(DifferenceSet(make_cyclic(13), (0, 1, 3, 9), (13, 4, 1))))
    d15 = difference_sets_up_to_equivalence(make_cyclic(15), 7, 3)[0]
    add("D0", development(d15))

    # unique (21,5,1) class; the Frobenius and cyclic groups develop the same design
    f21 = make_metacyclic(3, 7, 2)
    d21 = difference_sets_up_to_equivalence(f21, 5, 1)[0]
    add("D0", development(d21))

    d1, d2, d3 = switched_16_designs()
    add("D1", d1)
    add("D2", d2)
    add("D3", d3)

    return Catalog(entries)


def reference_catalog() -> Catalog:
    """The shared catalog; built once, safe under concurrent first use."""
    global _CATALOG
    if _CATALOG is None:
        with _LOCK:
            if _CATALOG is None:
                _CATALOG = _build()
    return _CATALOG
