"""Symmetric designs as square 0/1 incidence matrices.

Rows are points and columns are blocks.  A matrix A is a (v,k,lambda)
incidence matrix exactly when A A^t = (k-lambda) I + lambda J; all checks
here are exact integer identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .canon import CanonResult, design_canonical
from .errors import ConstructionBugError, InvalidInputError
from .groups import DifferenceSet, is_difference_set, make_direct_product

if TYPE_CHECKING:
    from .catalog import CatalogEntry

__all__ = [
    "DesignParams",
    "IncidenceMatrix",
    "DesignClass",
    "verify_design",
    "development",
    "design_class",
    "switch_blocks",
    "mann_product",
    "block_quadruple",
    "menon_params",
]


@dataclass(frozen=True)
class DesignParams:
    v: int
    k: int
    lam: int

    def __post_init__(self):
        if not 0 <= self.k <= self.v:
            raise InvalidInputError(f"k must lie in 0..v, got {self}")
        if self.lam * (self.v - 1) != self.k * (self.k - 1):
            raise InvalidInputError(f"lambda(v-1) != k(k-1) for {self}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.v, self.k, self.lam)

    def __str__(self) -> str:
        return f"({self.v},{self.k},{self.lam})"


class IncidenceMatrix:
    """Immutable v x v binary matrix, optionally tagged with parameters."""

    __slots__ = ("bits", "params")

    def __init__(self, bits: np.ndarray | Sequence[Sequence[int]], params: DesignParams | None = None):
        given = np.asarray(bits)
        if given.ndim != 2 or given.shape[0] != given.shape[1]:
            raise InvalidInputError("incidence matrix must be square")
        # the given values, not their uint8 casts (256 would wrap to 0)
        if not np.isin(given, (0, 1)).all():
            raise InvalidInputError("entries must be 0 or 1")
        arr = np.ascontiguousarray(given, dtype=np.uint8)
        arr.setflags(write=False)
        self.bits = arr
        self.params = params

    @property
    def v(self) -> int:
        return self.bits.shape[0]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.bits[:, j]))

    def columns_as_sets(self) -> list[frozenset[int]]:
        return [frozenset(self.column(j)) for j in range(self.v)]

    def __eq__(self, other) -> bool:
        return isinstance(other, IncidenceMatrix) and np.array_equal(self.bits, other.bits)

    def __hash__(self) -> int:
        return hash(self.bits.tobytes())

    def __repr__(self) -> str:
        tag = f", params={self.params}" if self.params else ""
        return f"IncidenceMatrix(v={self.v}{tag})"


class DesignClass:
    """Canonical certificate of a design up to isomorphism and duality.

    ``certificate`` is the bytes or a catalog entry, whose own
    ``certificate`` is read on first use only (canon labels the entry on
    its first read).  ``aut_order`` is an object whose own ``aut_order`` is
    read on first use only: the design's ``CanonResult`` (Schreier-Sims on
    first read), or a catalog entry.
    """

    __slots__ = ("_certificate", "name", "_aut")

    def __init__(
        self,
        certificate: bytes | CatalogEntry,
        aut_order: CanonResult | CatalogEntry,
        name: str | None = None,
    ):
        self._certificate = certificate
        self.name = name
        self._aut = aut_order

    @property
    def certificate(self) -> bytes:
        if not isinstance(self._certificate, bytes):
            self._certificate = self._certificate.certificate
        return self._certificate

    @property
    def aut_order(self) -> int:
        return self._aut.aut_order

    def __repr__(self) -> str:
        return f"DesignClass(certificate={self.certificate.hex()[:16]}..., name={self.name!r})"


def verify_design(a: IncidenceMatrix, p: DesignParams) -> bool:
    """Exact check of A A^t = (k-lambda) I + lambda J plus row/column sums."""
    if a.v != p.v:
        raise InvalidInputError("dimension mismatch between matrix and parameters")
    m = a.bits.astype(np.int64)
    target = (p.k - p.lam) * np.eye(p.v, dtype=np.int64) + p.lam
    if not np.array_equal(m @ m.T, target):
        return False
    return bool((m.sum(axis=0) == p.k).all() and (m.sum(axis=1) == p.k).all())


def development(d: DifferenceSet) -> IncidenceMatrix:
    """Incidence matrix of dev D: entry (i, j) = [g_i in g_j D]."""
    g = d.group
    bits = np.zeros((g.order, g.order), dtype=np.uint8)
    # column j holds the points g_j x, x in D
    bits[g.table[:, list(d.elements)], np.arange(g.order)[:, None]] = 1
    return IncidenceMatrix(bits, DesignParams(*d.params))


def design_class(a: IncidenceMatrix, catalog=None) -> DesignClass:
    """Certificate and automorphism group order up to isomorphism and duality.

    The certificate is the lexicographic minimum over the matrix and its
    transpose of the canonical form of the point/block incidence structure.

    Canon is skipped when a catalog is given and ``catalog.lookup`` names
    the design: a verified design of a parameter set the catalog holds
    completely, whose 2-rank selects one entry.  The entry's certificate,
    automorphism group order and name are returned; they are the values
    canon would give, and the entry is labelled only when its certificate or
    group order is first read.  Every other input, and every call without a
    catalog, is canonicalised.  Either way the automorphism group order is
    computed on first read only.
    """
    if catalog is not None:
        entry = catalog.lookup(a)
        if entry is not None:
            return DesignClass(entry, entry, entry.name)
    res = design_canonical(a.bits)
    res_t = design_canonical(a.bits.T)
    cert = min(res.certificate, res_t.certificate)
    name = None
    if catalog is not None:
        name = catalog.name_for(cert)
    return DesignClass(certificate=cert, aut_order=res, name=name)


def switch_blocks(
    a: IncidenceMatrix, block_indices: Iterable[int], point_set: Iterable[int]
) -> IncidenceMatrix:
    """Replace the listed block columns by their symmetric difference with
    the given point set; validity is the caller's concern.  Indices must be
    distinct and in range, else InvalidInputError."""
    bits = a.bits.copy()
    pts = _distinct_indices(point_set, bits.shape[0], "point")
    for j in _distinct_indices(block_indices, bits.shape[1], "block"):
        bits[pts, j] ^= 1
    return IncidenceMatrix(bits, a.params)


def _distinct_indices(indices: Iterable[int], count: int, kind: str) -> list[int]:
    """``indices`` as a list, if they are distinct and in 0..count-1."""
    out = list(indices)
    for x in out:
        if not 0 <= x < count:
            raise InvalidInputError(f"{kind} index {x} is out of range 0..{count - 1}")
    if len(set(out)) != len(out):
        raise InvalidInputError(f"{kind} indices must be distinct, got {out}")
    return out


def menon_params(m: int) -> DesignParams:
    """Parameters (4^m, 2^(m-1)(2^m - 1), 2^(m-1)(2^(m-1) - 1))."""
    return DesignParams(4**m, 2 ** (m - 1) * (2**m - 1), 2 ** (m - 1) * (2 ** (m - 1) - 1))


def mann_product(d_prev, d_base):
    """Difference-set product step: from D in G and the singleton seed in the
    Klein four-group, build (D^c x D1) u (D x D1^c) in the direct product."""
    g_prev, g_base = d_prev.group, d_base.group
    if g_base.order != 4 or d_base.k != 1:
        raise InvalidInputError("base set must be a (4,1,0) singleton in the Klein group")
    if (g_base.element_orders > 2).any():
        raise InvalidInputError("base group must be the Klein four-group")
    product = make_direct_product(g_prev, g_base)
    prev = set(d_prev.elements)
    base = set(d_base.elements)
    elements = []
    for x in range(g_prev.order):
        for y in range(4):
            if (x not in prev and y in base) or (x in prev and y not in base):
                elements.append(x * 4 + y)
    v = product.order
    k = len(elements)
    lam = k * (k - 1) // (v - 1)
    if not is_difference_set(product, elements, lam):
        raise ConstructionBugError("product construction produced a non-difference set")
    return DifferenceSet(product, tuple(elements), (v, k, lam))


def block_quadruple(a: IncidenceMatrix) -> IncidenceMatrix:
    """4 x 4 block matrix with J-A on the diagonal and A elsewhere.

    Takes a Menon design of order 4^m to one of order 4^(m+1); the output is
    re-verified before returning.
    """
    if a.params is None:
        raise InvalidInputError("input must be tagged with design parameters")
    v, k, lam = a.params.as_tuple()
    m = _menon_exponent(a.params)
    if m is None:
        raise InvalidInputError(f"input parameters {a.params} are not of Menon type 4^m")
    if not verify_design(a, a.params):
        raise InvalidInputError("input does not verify as a design")
    comp = 1 - a.bits
    rows = []
    for i in range(4):
        rows.append(np.hstack([comp if i == j else a.bits for j in range(4)]))
    out_params = menon_params(m + 1)
    out = IncidenceMatrix(np.vstack(rows), out_params)
    if not verify_design(out, out_params):
        raise ConstructionBugError("block quadrupling produced an invalid design")
    return out


def _menon_exponent(p: DesignParams) -> int | None:
    m = 1
    while 4**m <= p.v:
        if menon_params(m) == p:
            return m
        m += 1
    return None
