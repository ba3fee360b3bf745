"""Symmetric designs as square 0/1 incidence matrices.

Rows are points and columns are blocks.  A matrix A is a (v,k,lambda)
incidence matrix exactly when A A^t = (k-lambda) I + lambda J and every
line sum is k.  ``_design_equation_holds`` checks that exactly on a stack
of matrices: ``verify_design`` is its one-matrix case, and ``cubes`` feeds
it the slices of a cube.  A ``DesignClass``, a matrix under an optional
name, is the one record of a design's class up to isomorphism and
duality; the reference catalog's entries are such records.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .canon import CanonResult, design_canonical
from .errors import ConstructionBugError, InvalidInputError
from .groups import DifferenceSet, is_difference_set, make_direct_product

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

    def __str__(self) -> str:
        return f"({self.v},{self.k},{self.lam})"


class IncidenceMatrix:
    """Immutable v x v binary matrix, optionally tagged with parameters."""

    __slots__ = ("bits", "params")

    def __init__(self, bits: np.ndarray | Sequence[Sequence[int]], params: DesignParams | None = None):
        given = np.asarray(bits)
        if given.ndim != 2 or given.shape[0] != given.shape[1]:
            raise InvalidInputError("incidence matrix must be square")
        self.bits = _read_only_bits(given)
        self.params = params

    @property
    def v(self) -> int:
        return self.bits.shape[0]

    def columns_as_sets(self) -> list[frozenset[int]]:
        return [frozenset(np.flatnonzero(col).tolist()) for col in self.bits.T]

    def __eq__(self, other) -> bool:
        return isinstance(other, IncidenceMatrix) and np.array_equal(self.bits, other.bits)

    def __hash__(self) -> int:
        return hash(self.bits.tobytes())

    def __repr__(self) -> str:
        tag = f", params={self.params}" if self.params else ""
        return f"IncidenceMatrix(v={self.v}{tag})"


def _read_only_bits(given: np.ndarray) -> np.ndarray:
    """``given`` as a read-only contiguous uint8 array; InvalidInputError
    unless every entry is 0 or 1."""
    # the given values, not their uint8 casts (256 would wrap to 0)
    if not np.isin(given, (0, 1)).all():
        raise InvalidInputError("entries must be 0 or 1")
    arr = np.ascontiguousarray(given, dtype=np.uint8)
    arr.setflags(write=False)
    return arr


class DesignClass:
    """A design's class up to isomorphism and duality.

    The record of ``matrix`` under an optional ``name``.  On the first read
    of ``certificate`` or ``aut_order``, canon labels the matrix and its
    transpose; the certificate is the lesser of the two canonical forms,
    and |Aut| is that of the matrix's own labelling, computed on its first
    read only.
    """

    def __init__(self, matrix: IncidenceMatrix, name: str | None = None):
        self.matrix = matrix
        self.name = name

    @cached_property
    def _labelled(self) -> tuple[bytes, CanonResult]:
        """The certificate, and the labelling of the matrix itself."""
        own = design_canonical(self.matrix.bits)
        dual = design_canonical(self.matrix.bits.T)
        return min(own.certificate, dual.certificate), own

    @property
    def certificate(self) -> bytes:
        return self._labelled[0]

    @property
    def aut_order(self) -> int:
        return self._labelled[1].aut_order

    def __repr__(self) -> str:
        return f"DesignClass(certificate={self.certificate.hex()[:16]}..., name={self.name!r})"


def _design_equation_holds(stack: np.ndarray, k: int, lam: int, line_sum: int | None) -> bool:
    """True iff every matrix S of the stack (m x v x v) has
    S S^t = (k-lambda) I + lambda J and all its row and column sums equal
    ``line_sum``, or, if it is None, one another."""
    s = stack.astype(np.int64)
    gram = (k - lam) * np.eye(s.shape[-1], dtype=np.int64) + lam
    if not (s @ s.transpose(0, 2, 1) == gram).all():
        return False
    sums = np.concatenate([s.sum(axis=1), s.sum(axis=2)], axis=1)
    return bool((sums == (sums[:, :1] if line_sum is None else line_sum)).all())


def verify_design(a: IncidenceMatrix, p: DesignParams) -> bool:
    """Exact check of A A^t = (k-lambda) I + lambda J plus row/column sums."""
    if a.v != p.v:
        raise InvalidInputError("dimension mismatch between matrix and parameters")
    return _design_equation_holds(a.bits[None], p.k, p.lam, p.k)


def development(d: DifferenceSet) -> IncidenceMatrix:
    """Incidence matrix of dev D: entry (i, j) = [g_i in g_j D]."""
    g = d.group
    bits = np.zeros((g.order, g.order), dtype=np.uint8)
    # column j holds the points g_j x, x in D
    bits[g.table[:, list(d.elements)], np.arange(g.order)[:, None]] = 1
    return IncidenceMatrix(bits, DesignParams(*d.params))


def design_class(a: IncidenceMatrix, catalog=None) -> DesignClass:
    """The class of ``a`` up to isomorphism and duality.

    When a catalog is given and ``catalog.lookup`` names the design (a
    verified design of a parameter set the catalog holds completely, whose
    2-rank selects one entry), the catalog's own entry is returned without
    canon: its certificate and automorphism group order are the values
    canon would give ``a``, and the entry is labelled only when one of them
    is first read.  Every other input is labelled at once, and named by the
    catalog if one is given.  Either way the automorphism group order is
    computed on first read only.
    """
    if catalog is not None:
        entry = catalog.lookup(a)
        if entry is not None:
            return entry
    cls = DesignClass(a)
    certificate = cls.certificate
    if catalog is not None:
        cls.name = catalog.name_for(certificate)
    return cls


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
