"""Permutations in one-line notation (0-based tuples), exact group orders,
orbit partitions and the actions that point maps induce on set families.

Permutations on ``{0, ..., n-1}`` are stored as tuples ``p`` with ``p[i]`` the
image of ``i``.  Composition is ``compose(p, q)[i] = p[q[i]]`` (apply q first).
Cycle notation, as group and orbit-input files write it, is 1-based:
``parse_cycles`` reads ``(1,2)`` as the tuple ``(1, 0, ...)`` and
``format_cycles`` writes it back.
The orbit partition (``orbit_ids``) and the induced action on a family of
sets (``induced_permutations``) work on numpy arrays; together they are the
orbit-based isomorph rejection of the difference-set classes and of the
group-cube design search, which induces the action of the generators of its
design moves once and composes every other move from theirs.  The
canonical labeller partitions its points with ``orbit_ids``, which is also
the orbit closure of ``search.orbit_cube``, on cells.  ``orbit_minima``
composes the two: the least member of each orbit of a sorted family, the
representatives of the difference-set classes.  ``component_ids``
partitions a graph given by its edges, for moves that are not permutations
of the whole family.

Sets are compared as bitsets (``Bitsets``): a set of points from range(n)
is W = ceil(n / 64) uint64 words, point p being bit p % 64 of word p // 64,
as nauty stores vertex sets (McKay & Piperno, *Practical graph isomorphism
II*, JSC 2014).  Two families are equal iff their sorted bitsets are, so
``induced_permutations`` and the canonical labeller's automorphism checks
and leaf certificates sort and compare words instead of looking sets up.
``RowIndex`` looks sets up by binary search over byte-string keys; its one
caller is the search for design orbits, which looks up arbitrary images in
a family of designs (``search._orbits_within_root``); lookups built on
``np.unique(axis=0)`` measured 5-12 times slower on such families.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """p after q."""
    if len(q) > 1:
        return itemgetter(*q)(p)
    # itemgetter takes at least one item, and with one returns it bare
    return tuple(p[x] for x in q)


def inverse(p: Sequence[int]) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse disjoint-cycle notation like ``(1,16)(4,5)`` on the symbols
    1..degree into a (0-based) permutation.

    Symbols may be separated by commas or spaces.  Raises ValueError on
    out-of-range or repeated symbols.
    """
    stripped = text.strip()
    if stripped in ("", "()"):
        return identity(degree)
    if not re.fullmatch(r"(\s*\([^()]*\)\s*)+", stripped):
        raise ValueError(f"malformed cycle notation: {text!r}")
    image = list(range(degree))
    seen: set[int] = set()
    for cyc in _CYCLE_RE.findall(stripped):
        symbols = [s for s in re.split(r"[,\s]+", cyc.strip()) if s]
        points = [int(s) - 1 for s in symbols]
        if not points:
            continue
        for x in points:
            if not 0 <= x < degree:
                raise ValueError(f"symbol {x + 1} out of range 1..{degree}")
            if x in seen:
                raise ValueError(f"symbol {x + 1} repeated in {text!r}")
            seen.add(x)
        for a, b in zip(points, points[1:]):
            image[a] = b
        image[points[-1]] = points[0]
    return tuple(image)


def format_cycles(p: Sequence[int]) -> str:
    """Disjoint-cycle string on the symbols 1..len(p); identity renders as
    ``()``."""
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        parts.append("(" + ",".join(str(x + 1) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


class PermGroup:
    """Permutation group with a Schreier-Sims stabilizer chain.

    Each level stores the generators moving its base point; the generators of
    the group at a level are those plus every deeper level's (deeper strong
    generators fix all shallower base points).  Adding a generator reprocesses
    all Schreier generators along the affected path, so the chain is always a
    verified strong generating set and ``order`` is exact.  Each level keeps
    the inverse of every coset representative next to it, built with the
    tree, so sifting and the Schreier generators compose with stored inverses
    instead of inverting a representative at every step.
    """

    def __init__(self, generators: Iterable[Sequence[int]] = (), degree: int = 0):
        self.degree = degree
        self._identity = identity(degree)
        self.basepoint: int | None = None
        self.gens: list[Perm] = []  # generators moving this level's base point
        self.tree: dict[int, Perm] = {}  # orbit point -> coset representative
        self.tree_inv: dict[int, Perm] = {}  # orbit point -> its representative's inverse
        self.stab: PermGroup | None = None
        for g in generators:
            self.add_generator(tuple(g))

    def generators(self) -> list[Perm]:
        if self.stab is None:
            return list(self.gens)
        return self.stab.generators() + self.gens

    def sift(self, p: Perm) -> Perm:
        """Strip p through the chain; identity residue means membership."""
        if self.basepoint is None:
            return p
        b = p[self.basepoint]
        if b == self.basepoint:
            return self.stab.sift(p)
        if b not in self.tree:
            return p
        return self.stab.sift(compose(self.tree_inv[b], p))

    def add_generator(self, g: Sequence[int]) -> None:
        g = tuple(g)
        if len(g) != self.degree:
            raise ValueError("generator degree mismatch")
        residue = self.sift(g)
        if residue != self._identity:
            self._add_nonmember(residue)

    def _add_nonmember(self, g: Perm) -> None:
        if self.basepoint is None:
            self.basepoint = min(i for i in range(self.degree) if g[i] != i)
            self.stab = PermGroup((), self.degree)
        if g[self.basepoint] == self.basepoint:
            self.stab._add_nonmember(g)
        else:
            self.gens.append(g)
        self._rebuild_tree()
        self._close_schreier()

    def _rebuild_tree(self) -> None:
        assert self.basepoint is not None
        gens = self.generators()
        gens_inv = [inverse(g) for g in gens]
        self.tree = {self.basepoint: self._identity}
        self.tree_inv = {self.basepoint: self._identity}
        queue = [self.basepoint]
        while queue:
            a = queue.pop(0)
            rep, rep_inv = self.tree[a], self.tree_inv[a]
            for g, g_inv in zip(gens, gens_inv):
                b = g[a]
                if b not in self.tree:
                    self.tree[b] = compose(g, rep)
                    self.tree_inv[b] = compose(rep_inv, g_inv)
                    queue.append(b)

    def _close_schreier(self) -> None:
        assert self.stab is not None
        for gen in self.generators():
            for a in sorted(self.tree):
                schreier = compose(self.tree_inv[gen[a]], compose(gen, self.tree[a]))
                if schreier != self._identity:
                    residue = self.stab.sift(schreier)
                    if residue != self._identity:
                        self.stab._add_nonmember(residue)

    # -- queries --------------------------------------------------------------

    def order(self) -> int:
        if self.basepoint is None:
            return 1
        assert self.stab is not None
        return len(self.tree) * self.stab.order()

    def __contains__(self, p: Sequence[int]) -> bool:
        return self.sift(tuple(p)) == self._identity

    def orbit(self, point: int) -> set[int]:
        seen = {point}
        queue = [point]
        gens = self.generators()
        while queue:
            a = queue.pop()
            for g in gens:
                b = g[a]
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        return seen


def void_rows(arr: np.ndarray) -> np.ndarray:
    """View rows as fixed-size byte strings that compare lexicographically."""
    be = np.ascontiguousarray(arr.astype(">i4"))
    if be.shape[1] == 0:
        return np.zeros(be.shape[0], dtype="V1")
    return be.view(f"V{be.shape[1] * 4}").ravel()


def orbit_ids(gens: Sequence[np.ndarray] | np.ndarray, n: int) -> np.ndarray:
    """Orbits of the group generated by ``gens`` (permutations of range(n),
    a sequence or the rows of an array): each point is labelled by the
    least point of its orbit."""
    ids = np.arange(n, dtype=np.int32)
    if len(gens) == 0:
        return ids
    stacked = np.asarray(gens)
    while True:
        # pull the least label over one generator step, then shortcut labels
        # through their own labels; every label stays inside its orbit, and
        # at the fixed point ids[x] <= ids[g[x]] for all g makes the labels
        # constant on orbits
        pulled = np.minimum(ids, ids[stacked].min(axis=0))
        if np.array_equal(pulled, ids):
            return ids
        ids = pulled[pulled]


def component_ids(n: int, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Connected components of the graph on range(n) with the edges
    ``u[j] -- w[j]``: each vertex is labelled by the least vertex of its
    component."""
    ids = np.arange(n)
    while True:
        # as in orbit_ids: pull the least label across every edge, then
        # shortcut labels through their own labels
        pulled = ids.copy()
        np.minimum.at(pulled, u, ids[w])
        np.minimum.at(pulled, w, ids[u])
        pulled = pulled[pulled]
        if np.array_equal(pulled, ids):
            return ids
        ids = pulled


class Bitsets:
    """Sets of points from range(n) as bitsets: W = ceil(n / 64) uint64
    words per set, point p being bit p % 64 of word p // 64.  A family of
    m sets is an (..., m, W) array."""

    def __init__(self, n: int):
        points = np.arange(n)
        # row p is the bitset of {p}
        self.table = np.zeros((n, max(1, -(-n // 64))), dtype=np.uint64)
        self.table[points, points // 64] = np.left_shift(
            np.uint64(1), (points % 64).astype(np.uint64)
        )

    def of(self, members: np.ndarray) -> np.ndarray:
        """The bitsets of sets whose points run along the first axis of
        ``members`` (an (s, ...) array of distinct points per set), shape
        (..., W); the sum of distinct bits is their union."""
        return self.table[members].sum(axis=0)

    @staticmethod
    def order(sets: np.ndarray) -> np.ndarray:
        """The indices that sort each family in ``sets`` along its m axis,
        as the integers whose base-2^64 digits are the words."""
        if sets.shape[-1] == 1:
            return np.argsort(sets[..., 0], axis=-1)
        # lexsort's last key, the most significant word, is its primary key
        return np.lexsort(np.moveaxis(sets, -1, 0), axis=-1)

    @staticmethod
    def sort(sets: np.ndarray) -> np.ndarray:
        """Each family in ``sets`` sorted along its m axis, in the order of
        ``order``."""
        if sets.shape[-1] == 1:
            return np.sort(sets, axis=-2)
        return np.take_along_axis(sets, Bitsets.order(sets)[..., None], axis=-2)


class RowIndex:
    """Positions of sets in a family of distinct sets of equal size, each
    given as a sorted row; the family is not empty."""

    def __init__(self, rows: Sequence[Sequence[int]] | np.ndarray):
        keys = void_rows(np.asarray(rows, dtype=np.int32))
        self.order = np.argsort(keys).astype(np.int32)
        keys.sort()
        self.keys = keys

    def find(self, images: np.ndarray) -> np.ndarray | None:
        """The position of each row of ``images`` (an integer array, sorted
        in place along its rows) in the family, or None if some row of it
        is not in the family."""
        images.sort(axis=1)
        images = void_rows(images)
        pos = np.minimum(np.searchsorted(self.keys, images), len(self.keys) - 1)
        if not (self.keys[pos] == images).all():
            return None
        return self.order[pos]


def induced_permutations(
    rows: Sequence[Sequence[int]] | np.ndarray, point_maps: Iterable[Sequence[int]]
) -> list[np.ndarray] | None:
    """The permutations that point maps induce on a family of sets.

    ``rows`` holds distinct sets of equal size, each as a row, and is not
    empty.  Entry i of the j-th result (int32) is the index of the row equal
    to the image of row i under ``point_maps[j]``.  Returns None if some
    image is not a row.  The maps are taken one at a time: each image family
    is sorted as bitsets and compared with the sorted family.
    """
    columns = np.asarray(rows, dtype=np.int32).T
    out = []
    sets = family = family_order = None
    for pm in point_maps:
        pm = np.asarray(pm, dtype=np.int32)
        if sets is None:
            sets = Bitsets(len(pm))
            family = sets.of(columns)
            family_order = sets.order(family).astype(np.int32)
            family = family[family_order]
        image = sets.of(pm[columns])
        image_order = sets.order(image)
        if not np.array_equal(image[image_order], family):
            return None
        # the image of row image_order[j] is row family_order[j]
        perm = np.empty(len(family_order), dtype=np.int32)
        perm[image_order] = family_order
        out.append(perm)
    return out


def orbit_minima(
    rows: Sequence[Sequence[int]] | np.ndarray, point_maps: Iterable[Sequence[int]]
) -> np.ndarray | None:
    """Positions of the least row of each orbit, in increasing order, of the
    group the point maps induce on a family of sets.

    ``rows`` is as for ``induced_permutations`` and sorted lexicographically,
    so each orbit's least index is its lexicographically least row.  Returns
    None if some image is not a row.
    """
    perms = induced_permutations(rows, point_maps)
    if perms is None:
        return None
    ids = orbit_ids(perms, len(rows))
    return np.flatnonzero(ids == np.arange(len(rows)))
