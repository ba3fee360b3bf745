"""n-dimensional incidence cubes and their operations.

A cube of order v and dimension n is a {0,1}-valued array on {0..v-1}^n all
of whose 2-dimensional slices are incidence matrices of one (v,k,lambda)
design parameter set.  Axes and values are 0-based throughout the API; file
formats convert at the boundary.

A group cube over G with blocks B_0, ..., B_{v-1} (all difference sets) is
C(i_1, ..., i_n) = [g_{i_2} ... g_{i_n} in B_{i_1}].  A difference cube
C(i_1, ..., i_n) = [g_{i_1} ... g_{i_n} in D] is the group cube of the
translates B_i = g_i^{-1} D, and both are built by one routine from the
block membership matrix and the product table of G.  Every slice is read
through one view, the cube with the two slice axes moved last.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .canon import canonicalize
from .catalog import reference_catalog
from .designs import (
    DesignParams,
    IncidenceMatrix,
    _design_equation_holds,
    _read_only_bits,
    design_class,
    verify_design,
)
from .errors import ConstructionBugError, InvalidInputError
from .groups import DifferenceSet, FiniteGroup, _difference_set_rows
from .perms import Perm, inverse as perm_inverse

__all__ = [
    "Cube",
    "ParatopyElement",
    "SliceInvariant",
    "verify_cube",
    "difference_cube",
    "group_cube",
    "apply_paratopy",
    "is_totally_symmetric",
    "slice_invariant",
    "weak_slice_invariant",
    "to_hadamard",
    "hadamard_slice_checks",
    "hadamard_certificate",
]

MAX_CELLS = 1 << 28


class Cube:
    """Immutable n-dimensional 0/1 array tagged with design parameters.

    ``_labellings`` and ``_pair_keys`` belong to ``equivalence``: the
    unseeded canonical labelling of the cube, per point-coloring mode, and
    the slice-pair keys that every labelling of a 3-cube starts from.
    """

    __slots__ = ("bits", "params", "_labellings", "_pair_keys")

    def __init__(self, bits: np.ndarray, params: DesignParams):
        given = np.asarray(bits)
        if given.ndim < 2:
            raise InvalidInputError("cube dimension must be at least 2")
        if len(set(given.shape)) != 1:
            raise InvalidInputError("all axes must have equal length")
        if given.size > MAX_CELLS:
            raise InvalidInputError("cube exceeds the in-memory cell budget")
        self.bits = _read_only_bits(given)
        self.params = params
        self._labellings: dict = {}
        self._pair_keys: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.bits.ndim

    @property
    def v(self) -> int:
        return self.bits.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, Cube) and np.array_equal(self.bits, other.bits)

    def __hash__(self) -> int:
        return hash((self.bits.shape, self.bits.tobytes()))

    def __repr__(self) -> str:
        return f"Cube(n={self.n}, v={self.v}, params={self.params})"


@dataclass(frozen=True)
class ParatopyElement:
    """A paratopy: value permutations per axis plus an axis permutation.

    Applying to a cube performs the conjugation (axis permutation) first and
    the isotopy (value permutations) second.
    """

    perms: tuple[Perm, ...]
    axis_perm: Perm

    def __post_init__(self):
        n = len(self.axis_perm)
        if len(self.perms) != n:
            raise InvalidInputError("need one value permutation per axis")
        v = len(self.perms[0]) if n else 0
        for q, size in [(self.axis_perm, n)] + [(q, v) for q in self.perms]:
            if sorted(q) != list(range(size)):
                raise InvalidInputError(f"{q} is not a permutation of range({size})")


def _slice_view(bits: np.ndarray, x: int, y: int) -> np.ndarray:
    """The array with axes x and y moved last, the others in increasing
    order: entry (f, i, j) is the (i, j) entry of the (x, y)-slice at the
    fixed coordinates f."""
    n = bits.ndim
    return np.moveaxis(bits, (x, y), (n - 2, n - 1))


def _slices_satisfy(arr: np.ndarray, k: int, lam: int, line_sum: int | None) -> bool:
    """``designs._design_equation_holds`` on every 2-dimensional slice of
    arr, one orientation per unordered axis pair."""
    v = arr.shape[0]
    return all(
        _design_equation_holds(_slice_view(arr, x, y).reshape(-1, v, v), k, lam, line_sum)
        for x, y in combinations(range(arr.ndim), 2)
    )


def verify_cube(c: Cube) -> bool:
    """Check every slice (one orientation per unordered axis pair)."""
    p = c.params
    return c.v == p.v and _slices_satisfy(c.bits, p.k, p.lam, p.k)


def _group_cube_bits(table: np.ndarray, member: np.ndarray, n: int) -> np.ndarray:
    """C(i_1,...,i_n) = member[i_1, index of g_{i_2} ... g_{i_n}] for the
    block membership matrix member[i, x] = [g_x in B_i] and the group's
    product table."""
    v = len(table)
    if v**n > MAX_CELLS:
        raise InvalidInputError("cube exceeds the in-memory cell budget")
    prod = np.arange(v, dtype=np.int64)
    for _ in range(n - 2):
        # prod[idx, j] = product-so-far * g_j
        prod = table[prod]
    return member[:, prod]


def difference_cube(g: FiniteGroup, d: DifferenceSet, n: int) -> Cube:
    """C(i_1,...,i_n) = [g_{i_1} ... g_{i_n} in D], the group cube of the
    translates g_i^{-1} D."""
    if n < 2:
        raise InvalidInputError("cube dimension must be at least 2")
    indicator = np.zeros(g.order, dtype=np.uint8)
    indicator[list(d.elements)] = 1
    # row i of indicator[g.table] is [g_i g_x in D], the indicator of g_i^{-1} D
    return Cube(_group_cube_bits(g.table, indicator[g.table], n), DesignParams(*d.params))


def group_cube(g: FiniteGroup, blocks: Sequence[Iterable[int]], n: int) -> Cube:
    """C(i_1,...,i_n) = [g_{i_2} ... g_{i_n} in B_{i_1}] for a design whose
    blocks are all difference sets."""
    if n < 2:
        raise InvalidInputError("cube dimension must be at least 2")
    v = g.order
    block_sets = [frozenset(b) for b in blocks]
    if len(block_sets) != v:
        raise InvalidInputError(f"invalid-input: need {v} blocks, got {len(block_sets)}")
    k = len(block_sets[0])
    lam = k * (k - 1) // (v - 1) if v > 1 else k
    # a block of another size than the first, or with a point outside the
    # group, is no difference set of a symmetric design on g; the others
    # are checked in one batch
    ok = np.array([len(b) == k and all(0 <= x < v for x in b) for b in block_sets])
    rows = [sorted(b) for b, fits in zip(block_sets, ok) if fits]
    ok[ok] = _difference_set_rows(g, np.array(rows, np.int64).reshape(len(rows), k), lam)
    if not ok.all():
        raise InvalidInputError(
            f"invalid-input: block {np.flatnonzero(~ok)[0]} is not a difference set"
        )
    mat = np.zeros((v, v), dtype=np.uint8)
    for j, b in enumerate(block_sets):
        mat[list(b), j] = 1
    params = DesignParams(v, k, lam)
    if not verify_design(IncidenceMatrix(mat), params):
        raise InvalidInputError("invalid-input: blocks do not form a symmetric design")
    return Cube(_group_cube_bits(g.table, np.ascontiguousarray(mat.T), n), params)


def apply_paratopy(c: Cube, p: ParatopyElement) -> Cube:
    if len(p.axis_perm) != c.n or any(len(q) != c.v for q in p.perms):
        raise InvalidInputError("dimension mismatch between cube and paratopy")
    conjugated = np.transpose(c.bits, axes=p.axis_perm)
    gathers = tuple(np.asarray(perm_inverse(q)) for q in p.perms)
    return Cube(conjugated[np.ix_(*gathers)], c.params)


def is_totally_symmetric(c: Cube) -> bool:
    """True iff every conjugation fixes the cube (adjacent transpositions
    suffice since they generate the symmetric group)."""
    for t in range(c.n - 1):
        if not np.array_equal(c.bits, np.swapaxes(c.bits, t, t + 1)):
            return False
    return True


# -- slice invariants ---------------------------------------------------------


@dataclass(frozen=True)
class SliceInvariant:
    """Multiset over parallel classes of the multiset of the v slice classes.

    ``classes`` holds one sorted tuple of slice identifiers per parallel
    class, the outer tuple sorted; identifiers are design certificates
    (or automorphism orders for the weak variant).
    """

    classes: tuple[tuple, ...]

    def rendered(self, names: dict | None = None) -> str:
        """Human-readable form like ``{ {D1^16}^1, {D2^16}^2 }``."""
        names = names or {}

        def label(ident) -> str:
            if ident in names:
                return names[ident]
            return ident.hex()[:8] if isinstance(ident, bytes) else str(ident)

        rendered_inner = []
        for inner in self.classes:
            counts = Counter(inner)
            order = sorted(counts, key=lambda s: (names.get(s, ""), s))
            rendered_inner.append("{" + ",".join(f"{label(s)}^{counts[s]}" for s in order) + "}")
        outer = Counter(rendered_inner)
        return "{ " + ", ".join(f"{s}^{m}" for s, m in sorted(outer.items())) + " }"


@lru_cache(maxsize=65536)
def _design_class_cached(key: bytes, v: int):
    bits = np.frombuffer(key, dtype=np.uint8).reshape(v, v)
    return design_class(IncidenceMatrix(bits), reference_catalog())


def cached_design_class(m: IncidenceMatrix):
    return _design_class_cached(m.bits.tobytes(), m.v)


def _parallel_classes(c: Cube):
    """Yield arrays of v slice matrices, one array per parallel class: the
    (x, y)-slices along which one other axis varies."""
    n, v = c.n, c.v
    for x, y in combinations(range(n), 2):
        view = _slice_view(c.bits, x, y)
        for axis in range(n - 2):
            yield from np.moveaxis(view, axis, n - 3).reshape(-1, v, v, v)


def _class_invariant(c: Cube, entry) -> SliceInvariant:
    """The multiset over parallel classes of the multisets of ``entry`` of
    each slice's design class; deterministic: inner multisets sorted, outer
    multiset sorted."""
    if c.n < 3:
        raise InvalidInputError("slice invariant requires dimension >= 3")
    inner_sets = [
        tuple(sorted(entry(cached_design_class(IncidenceMatrix(m, c.params))) for m in group))
        for group in _parallel_classes(c)
    ]
    expected = math.comb(c.n, 2) * (c.n - 2) * c.v ** (c.n - 3)
    if len(inner_sets) != expected:
        raise ConstructionBugError("parallel class count mismatch")
    return SliceInvariant(tuple(sorted(inner_sets)))


def slice_invariant(c: Cube) -> SliceInvariant:
    """The paratopy invariant built from design certificates of parallel
    slices."""
    return _class_invariant(c, attrgetter("certificate"))


def weak_slice_invariant(c: Cube) -> SliceInvariant:
    """Same shape as slice_invariant with automorphism orders as entries."""
    return _class_invariant(c, attrgetter("aut_order"))


def _menon_u(params: DesignParams) -> int | None:
    u = math.isqrt(params.v // 4) if params.v % 4 == 0 else 0
    if u and (params.v, params.k, params.lam) == (4 * u * u, 2 * u * u - u, u * u - u):
        return u
    return None


def to_hadamard(c: Cube) -> np.ndarray:
    """Exchange 0 -> -1; valid only for Menon parameters (4u^2, 2u^2-u, u^2-u)."""
    if _menon_u(c.params) is None:
        raise InvalidInputError(f"invalid-params: {c.params} is not of Menon type")
    return (2 * c.bits.astype(np.int64) - 1).astype(np.int8)


def hadamard_certificate(h: np.ndarray) -> bytes:
    """Canonical form of a Hadamard matrix under signed row/column
    permutations (monomial equivalence, transpose not included).

    Rows and columns are doubled into +/- copies; a signed column contains
    the row copies agreeing with it in sign.  Matrix equivalence coincides
    with isomorphism of this point/block structure: row pairs are recoverable
    because +/- copies of one row never share a block while any other two
    row copies do.
    """
    arr = np.asarray(h, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not np.isin(arr, (-1, 1)).all():
        raise InvalidInputError("expected a square +-1 matrix")
    v = arr.shape[0]
    blocks = []
    for j in range(v):
        col = arr[:, j]
        for t in (1, -1):
            blocks.append(tuple(int(i) if col[i] == t else int(v + i) for i in range(v)))
    return canonicalize(2 * v, blocks).certificate


def hadamard_slice_checks(h: np.ndarray) -> bool:
    """True iff every 2-dimensional slice H satisfies H H^t = vI (proper) and
    has constant row and column sums (totally regular)."""
    return _slices_satisfy(h, h.shape[0], 0, None)
