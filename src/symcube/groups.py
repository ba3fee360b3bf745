"""Finite groups as Cayley tables, their automorphisms, and difference sets.

Elements are indices ``0..v-1`` with 0 always the identity.  Tables are
immutable tuples; ``table[i][j]`` is the index of the product of elements
``i`` and ``j``.  A map between groups is its image row: ``phi[i]`` is the
image of element ``i``.  Aut(G) is one read-only |Aut| x v array per group
table, enumerated once per process and cached (``automorphism_group``); its
generators, the multipliers of a difference set and the orbit moves of the
difference-set classes are all derived from that array.  The generators of
Aut(G) are chosen once per group table too, and cached next to the array.

Aut(G), isomorphisms and difference sets come from level-wise searches over
numpy batches of partial solutions (tuples of generator images, sorted
subsets).  Each level extends every surviving row by each of its candidates
in increasing order, surviving rows outer and candidates inner, so the rows
stay in lexicographic order: the order in which a depth-first search would
find them.  The difference sets an enumeration finds are verified together,
by one batch count of their differences (``_difference_set_rows``), and not
again one by one as ``DifferenceSet`` verifies a set from any other source.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Sequence

import numpy as np

from .errors import ConstructionBugError, InvalidInputError, ResourceLimitError
from .perms import Perm, PermGroup, identity as id_perm, orbit_minima, void_rows

__all__ = [
    "FiniteGroup",
    "DifferenceSet",
    "Multiplier",
    "make_cyclic",
    "make_direct_product",
    "make_metacyclic",
    "make_from_permutation_generators",
    "automorphism_group",
    "automorphism_generators",
    "find_isomorphism",
    "is_difference_set",
    "enumerate_difference_sets",
    "difference_sets_up_to_equivalence",
    "multipliers",
]


class FiniteGroup:
    """A group of order v given by its full multiplication table.

    The constructor validates the four Cayley-table axioms (identity,
    Latin-square rows/columns, associativity, inverses) unless
    ``validate=False`` is passed by a caller that has already proved them.
    """

    __slots__ = ("order", "table", "identity", "labels", "name", "_inv", "_elt_orders")

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        labels: Sequence[str] | None = None,
        name: str | None = None,
        validate: bool = True,
    ):
        self.order = len(table)
        self.table = tuple(tuple(int(x) for x in row) for row in table)
        self.identity = 0
        self.labels = tuple(labels) if labels is not None else None
        self.name = name
        self._inv: tuple[int, ...] | None = None
        self._elt_orders: tuple[int, ...] | None = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        v = self.order
        if v == 0:
            raise InvalidInputError("invalid-order: group must have at least one element")
        t = self.table
        full = set(range(v))
        for i in range(v):
            if len(t[i]) != v:
                raise InvalidInputError("table is not square")
            if t[0][i] != i or t[i][0] != i:
                raise InvalidInputError("element 0 is not a two-sided identity")
            if set(t[i]) != full:
                raise InvalidInputError(f"row {i} is not a permutation")
        for j in range(v):
            if {t[i][j] for i in range(v)} != full:
                raise InvalidInputError(f"column {j} is not a permutation")
        for i in range(v):
            row_i = t[i]
            for j in range(v):
                row_ij = t[row_i[j]]
                row_j = t[j]
                for k in range(v):
                    if row_ij[k] != row_i[row_j[k]]:
                        raise InvalidInputError(
                            f"associativity fails at ({i},{j},{k})"
                        )
        if any(t[self.inv(i)][i] != 0 for i in range(v)):  # pragma: no cover
            raise InvalidInputError("missing inverse")
        if self.labels is not None and len(self.labels) != v:
            raise InvalidInputError("label count must equal group order")

    # -- arithmetic -----------------------------------------------------------

    def inv(self, a: int) -> int:
        if self._inv is None:
            # inverse of i is the j with i*j = identity
            self._inv = tuple(self.table[i].index(0) for i in range(self.order))
        return self._inv[a]

    def element_order(self, a: int) -> int:
        if self._elt_orders is None:
            orders = []
            for x in range(self.order):
                n, y = 1, x
                while y != 0:
                    y = self.table[y][x]
                    n += 1
                orders.append(n)
            self._elt_orders = tuple(orders)
        return self._elt_orders[a]

    def is_abelian(self) -> bool:
        t = self.table
        return all(
            t[i][j] == t[j][i] for i in range(self.order) for j in range(i + 1, self.order)
        )

    def closure(self, elements: Iterable[int]) -> set[int]:
        seen = {0}
        queue = [0]
        gens = list(elements)
        while queue:
            x = queue.pop()
            for g in gens:
                y = self.table[x][g]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return seen

    def generating_sequence(self) -> list[int]:
        """Greedy minimal generating sequence: repeatedly adjoin the
        lowest-index element outside the current closure."""
        gens: list[int] = []
        closed = {0}
        while len(closed) < self.order:
            g = min(x for x in range(self.order) if x not in closed)
            gens.append(g)
            closed = self.closure(gens)
        return gens

    def __repr__(self) -> str:
        name = self.name or "group"
        return f"FiniteGroup({name}, order={self.order})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)


@dataclass(frozen=True)
class DifferenceSet:
    """A k-subset of a group whose left differences cover G \\ {1} evenly."""

    group: FiniteGroup = field(compare=False)
    elements: tuple[int, ...]
    params: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(sorted(self.elements)))
        v, k, lam = self.params
        if v != self.group.order or len(self.elements) != k:
            raise InvalidInputError("difference set parameters do not match contents")
        if lam * (v - 1) != k * (k - 1):
            raise InvalidInputError(f"({v},{k},{lam}) violates lambda(v-1) = k(k-1)")
        if not is_difference_set(self.group, self.elements, lam):
            raise InvalidInputError("subset is not a difference set")

    @property
    def v(self) -> int:
        return self.params[0]

    @property
    def k(self) -> int:
        return self.params[1]

    @property
    def lam(self) -> int:
        return self.params[2]


@dataclass(frozen=True)
class Multiplier:
    """An automorphism, as its image row, mapping a difference set onto its
    left translate by ``translate``."""

    images: tuple[int, ...]
    translate: int


# -- constructors --------------------------------------------------------------

# the largest order the constructors build: a Cayley table holds v^2 Python
# ints, tens of megabytes at v = 1000 and gigabytes at v = 10^4
MAX_GROUP_ORDER = 1024


def _check_group_order(order: int) -> None:
    if order > MAX_GROUP_ORDER:
        raise ResourceLimitError(
            f"group order {order} exceeds the limit of {MAX_GROUP_ORDER} "
            f"(its Cayley table would hold {order}^2 entries)"
        )


def make_cyclic(v: int) -> FiniteGroup:
    if v < 1:
        raise InvalidInputError("invalid-order: v must be positive")
    _check_group_order(v)
    table = [[(i + j) % v for j in range(v)] for i in range(v)]
    return FiniteGroup(table, name=f"Z{v}", validate=False)


def make_direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product; element (i, j) has index i*h.order + j."""
    vh = h.order
    order = g.order * vh
    _check_group_order(order)
    table = [
        [g.table[a1][b1] * vh + h.table[a2][b2] for b1 in range(g.order) for b2 in range(vh)]
        for a1 in range(g.order)
        for a2 in range(vh)
    ]
    name = f"({g.name})x({h.name})" if g.name and h.name else None
    labels = None
    if g.labels is not None and h.labels is not None:
        labels = [f"{la}{lb}" for la in g.labels for lb in h.labels]
    return FiniteGroup(table, labels=labels, name=name, validate=False)


def make_metacyclic(m: int, c: int, r: int) -> FiniteGroup:
    """Group of order m*c on pairs (a^i, b^j) with relation b a = a b^r.

    Multiplication: a^i b^j * a^k b^l = a^(i+k) b^(j*r^k + l).
    Requires r^m = 1 (mod c) and gcd(r, c) = 1.
    """
    if m < 1 or c < 1:
        raise InvalidInputError("invalid-order: m and c must be positive")
    _check_group_order(m * c)
    if pow(r, m, c) != 1 % c:
        raise InvalidInputError("invalid-action: r^m must be 1 mod c")
    if gcd(r, c) != 1:
        raise InvalidInputError("invalid-action: r must be invertible mod c")

    def idx(i: int, j: int) -> int:
        return (i % m) * c + (j % c)

    table = [
        [idx(i + k, j * pow(r, k, c) + l) for k in range(m) for l in range(c)]
        for i in range(m)
        for j in range(c)
    ]
    labels = [_power_word(i, j) for i in range(m) for j in range(c)]
    return FiniteGroup(table, labels=labels, name=f"Z{c}:Z{m}(r={r})", validate=False)


def _power_word(i: int, j: int) -> str:
    parts = []
    if i == 1:
        parts.append("a")
    elif i > 1:
        parts.append(f"a^{i}")
    if j == 1:
        parts.append("b")
    elif j > 1:
        parts.append(f"b^{j}")
    return "".join(parts) if parts else "1"


def make_from_permutation_generators(
    gens: Sequence[Perm], name: str | None = None
) -> FiniteGroup:
    """Close permutation generators under composition and return the left
    regular representation of the generated group as a Cayley table;
    ResourceLimitError once the closure exceeds MAX_GROUP_ORDER elements."""
    if not gens:
        return make_cyclic(1)
    degree = len(gens[0])
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise InvalidInputError("generators must be bijections on a common set")
    ident = id_perm(degree)
    elements: dict[Perm, int] = {ident: 0}
    order_list: list[Perm] = [ident]
    queue = [ident]
    while queue:
        p = queue.pop(0)
        for g in gens:
            q = tuple(g[x] for x in p)
            if q not in elements:
                _check_group_order(len(elements) + 1)
                elements[q] = len(order_list)
                order_list.append(q)
                queue.append(q)
    n = len(order_list)
    table = [[0] * n for _ in range(n)]
    for i, p in enumerate(order_list):
        for j, q in enumerate(order_list):
            table[i][j] = elements[tuple(p[x] for x in q)]
    return FiniteGroup(table, name=name, validate=False)


# -- isomorphisms ----------------------------------------------------------------

# the rows a search for one isomorphism extends at once
_ISO_RUN = 16


def _isomorphism_search(
    source: FiniteGroup, target: FiniteGroup, find_all: bool
) -> np.ndarray:
    """Image rows of the isomorphisms source -> target as an n x v array: all
    of them, or only the first with ``find_all=False``.

    A level-wise search over the source's greedy generating sequence
    g1..gm.  Level l extends every surviving tuple of images of g1..g(l-1) by
    each target element of the order of gl, survivors outer and candidates
    inner, so the rows stay in the lexicographic order of their generator
    images, the order of a depth-first search.  A row's images induce a map
    on <g1..gl> along the tree of a BFS over the Cayley edges x -> x*gj, so
    the tree edges hold by construction; the row survives when every
    non-tree edge that the BFS meets holds too, which makes the map a
    homomorphism on the subgroup, and when its kernel is trivial (no
    element but 0 maps to 0), which makes it injective.  At the last level
    the subgroup is the source, and the map an isomorphism.  For the
    first isomorphism only, the survivors of each level are searched in
    runs of ``_ISO_RUN`` rows, one run to the end before the next, and the
    search stops at the first complete map.
    """
    v = source.order
    dtype = np.min_scalar_type(v)
    none = np.zeros((0, v), dtype)
    if v != target.order:
        return none
    src_orders = [source.element_order(x) for x in range(v)]
    tgt_orders = np.array([target.element_order(x) for x in range(v)])
    if sorted(src_orders) != sorted(tgt_orders.tolist()):
        return none
    # the target table flattened and scaled: a map holds v * (image of x)
    # per row, so the image of x*g is one gather, scaled[map + image of g],
    # at an index below v^2
    wide = np.min_scalar_type(v * v - 1)
    scaled = (np.array(target.table, wide) * v).ravel()
    gens = source.generating_sequence()
    if not gens:
        return np.zeros((1, v), dtype)  # the trivial group

    def extend(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The surviving extensions of the rows ``images`` (images[j] holds
        the image of gens[j] per row) and their maps on the subgroup."""
        level = len(images) + 1
        cands = np.flatnonzero(tgt_orders == src_orders[gens[level - 1]]).astype(dtype)
        n = images.shape[1]
        images = np.vstack([np.repeat(images, len(cands), axis=1), np.tile(cands, n)])
        maps = np.zeros((v, images.shape[1]), wide)  # maps[x]: v * image of x, per row
        ok = np.ones(images.shape[1], bool)
        members = [0]
        found = [False] * v
        found[0] = True
        for x in members:  # BFS over <gens[:level]>
            for j, g in enumerate(gens[:level]):
                y = source.table[x][g]
                image = scaled[maps[x] + images[j]]
                if found[y]:
                    ok &= maps[y] == image  # a non-tree edge
                else:  # a tree edge, which holds by construction
                    found[y] = True
                    members.append(y)
                    maps[y] = image
        # each surviving map is a homomorphism on the subgroup, so it is
        # injective iff only the identity maps to the identity 0
        ok &= (maps[members[1:]] != 0).all(axis=0)
        return images[:, ok], maps[:, ok]

    runs = [np.zeros((0, 1), dtype)]  # a stack: the next run to search is last
    while runs:
        images, maps = extend(runs.pop())
        if len(images) == len(gens):
            if find_all:
                return np.ascontiguousarray(maps.T // v, dtype)
            if maps.shape[1]:
                return np.ascontiguousarray(maps.T[:1] // v, dtype)
        elif find_all:
            runs.append(images)
        else:
            runs += [images[:, i : i + _ISO_RUN] for i in range(0, images.shape[1], _ISO_RUN)][::-1]
    return none


# keyed by table (FiniteGroup hashes and compares by it); the entries are
# read-only and live for the process, which holds few distinct tables
_AUT_CACHE: dict[FiniteGroup, np.ndarray] = {}
_AUT_GENS_CACHE: dict[FiniteGroup, tuple[Perm, ...]] = {}


def automorphism_group(g: FiniteGroup) -> np.ndarray:
    """All automorphisms as a read-only |Aut| x v int32 array of image rows,
    in lexicographic order of the images of a minimal generating sequence:
    the level-wise ``_isomorphism_search`` extends its rows in order, so
    they come out as a depth-first search over those images finds them.
    Each group table is enumerated once per process and the array cached;
    intended for small orders (v <= 32)."""
    auts = _AUT_CACHE.get(g)
    if auts is None:
        auts = _isomorphism_search(g, g, find_all=True).astype(np.int32)
        auts.flags.writeable = False
        _AUT_CACHE[g] = auts
    return auts


def find_isomorphism(g1: FiniteGroup, g2: FiniteGroup) -> tuple[int, ...] | None:
    """The image row of an isomorphism g1 -> g2, or None."""
    maps = _isomorphism_search(g1, g2, find_all=False)
    return tuple(maps[0].tolist()) if len(maps) else None


def automorphism_generators(
    g: FiniteGroup, auts: np.ndarray | Sequence[Sequence[int]] | None = None
) -> list[Perm]:
    """A small generating subset of Aut(g), or of the group whose elements
    are the rows ``auts``, chosen greedily in row order by group order.

    The generators of Aut(g) itself (``auts`` omitted) are chosen once per
    group table and cached; each call returns a fresh list of them, which
    the caller may extend."""
    if auts is not None:
        return _greedy_generators(auts, g.order)
    gens = _AUT_GENS_CACHE.get(g)
    if gens is None:
        gens = _AUT_GENS_CACHE[g] = tuple(_greedy_generators(automorphism_group(g), g.order))
    return list(gens)


def _greedy_generators(rows: np.ndarray | Sequence[Sequence[int]], degree: int) -> list[Perm]:
    """The rows, in order, that are not in the group generated by the rows
    before them, up to the first that completes the group of all rows."""
    target = len(rows)
    chosen: list[Perm] = []
    group = PermGroup([], degree)
    for row in np.asarray(rows):
        a = tuple(row.tolist())
        if a in group:
            continue
        group.add_generator(a)
        chosen.append(a)
        if group.order() == target:
            break
    return chosen


# -- difference sets ---------------------------------------------------------------


def is_difference_set(g: FiniteGroup, subset: Iterable[int], lam: int) -> bool:
    """True iff every non-identity element is a left difference d1^{-1} d2
    of exactly ``lam`` ordered pairs from the subset, whose members are
    distinct elements of g: the one-row case of ``_difference_set_rows``."""
    elems = list(subset)
    if any(not 0 <= x < g.order for x in elems):
        return False  # checked here, where a Python int may exceed any dtype
    return bool(_difference_set_rows(g, np.array([elems], np.intp), lam)[0])


def _difference_set_rows(g: FiniteGroup, rows: np.ndarray, lam: int) -> np.ndarray:
    """Whether each row of ``rows``, an m x k array of elements of g, is a
    difference set: its k entries are distinct, and every non-identity
    element is a left difference d1^{-1} d2 of exactly ``lam`` ordered pairs
    of them.  The counts of all rows are one ``bincount``.

    Under __debug__ it also counts the right differences d1 d2^{-1} and
    raises ConstructionBugError unless they give the same answer for every
    row.
    """
    v = g.order
    m = len(rows)
    rows = rows.astype(np.intp)
    ordered = np.sort(rows, axis=1)
    ok = (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
    table = np.array(g.table, np.intp).ravel()
    inv = np.array([g.inv(x) for x in range(v)], np.intp)[rows]
    offsets = np.arange(m)[:, None, None] * v

    def exact(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        # the products left[i] * right[j]; in a group those with i = j are
        # the identity, whose count is not read
        products = offsets + table[left[:, :, None] * v + right[:, None, :]]
        counts = np.bincount(products.ravel(), minlength=m * v).reshape(m, v)
        return ok & (counts[:, 1:] == lam).all(axis=1)

    left = exact(inv, rows)
    if __debug__ and not np.array_equal(left, exact(rows, inv)):
        raise ConstructionBugError("left and right difference counts disagree")
    return left


# most (prefix, element) pairs expanded at once; a larger level is split
# into runs of prefixes, searched in order, which bounds memory
_BATCH_PAIRS = 1 << 16
# most (prefix, element) pairs tried in one enumeration
_MAX_NODES = 50_000_000


def enumerate_difference_sets(
    g: FiniteGroup, k: int, lam: int, time_budget: float | None = None
) -> list[DifferenceSet]:
    """All (v,k,lam) difference sets, in lexicographic order of element tuples.

    A level-wise search over batches of sorted l-subsets (prefixes) with
    their left-difference counts.  Each prefix is extended by every element
    above its last that still leaves room for k elements, prefixes outer and
    elements inner, so a batch stays in lexicographic order, the order of a
    depth-first subset search; a batch larger than ``_BATCH_PAIRS`` pairs is
    split into runs that are searched to the end one after another, which
    keeps that order.  A row is pruned once some non-identity element occurs
    more than ``lam`` times as a difference.  ``_MAX_NODES`` bounds the
    (prefix, element) pairs tried, the nodes of that depth-first search;
    ``time_budget`` (seconds) bounds the wall clock, read between batches.
    Either raises ResourceLimitError when exceeded.
    """
    v = g.order
    if not 0 <= k <= v:
        raise InvalidInputError(f"block size k = {k} must lie between 0 and v = {v}")
    if lam * (v - 1) != k * (k - 1):
        return []
    dtype = np.min_scalar_type(v)
    table = np.array(g.table, dtype)
    inv = np.array([g.inv(x) for x in range(v)], dtype)
    # a count is at most k: each element of a set is the right end of at
    # most one difference equal to a given d
    batches = [(np.zeros((1, 0), dtype), np.zeros((1, v), np.min_scalar_type(k)))]
    found = []
    nodes = 0
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    while batches:
        prefixes, counts = batches.pop()
        level = prefixes.shape[1]
        if level == k:
            found.append(prefixes[(counts[:, 1:] == lam).all(axis=1)])
            continue
        start = prefixes[:, -1].astype(np.intp) + 1 if level else np.zeros(1, np.intp)
        width = np.maximum(v - (k - level) + 1 - start, 0)
        total = int(width.sum())
        if total > _BATCH_PAIRS and len(prefixes) > 1:
            half = len(prefixes) // 2
            batches += [(prefixes[half:], counts[half:]), (prefixes[:half], counts[:half])]
            continue
        nodes += total
        if nodes > _MAX_NODES:
            raise ResourceLimitError("enumeration budget exceeded")
        # as in the design search, the first 4096 nodes do not read the clock
        if deadline is not None and nodes > 4096 and time.monotonic() > deadline:
            raise ResourceLimitError("difference-set enumeration time budget exceeded")
        parent = np.repeat(np.arange(len(prefixes)), width)
        x = (np.arange(total) + np.repeat(start - np.cumsum(width) + width, width)).astype(dtype)
        prefixes = np.column_stack([prefixes[parent], x])
        counts = counts[parent]
        rows = np.arange(total)
        for y in prefixes[:, :-1].T:
            # two scatters, so that a difference y^-1 x = x^-1 y (an involution)
            # counts twice
            counts[rows, table[inv[y], x]] += 1
            counts[rows, table[inv[x], y]] += 1
        keep = (counts[:, 1:] <= lam).all(axis=1)
        batches.append((prefixes[keep], counts[keep]))
    rows = np.concatenate(found)
    if not _difference_set_rows(g, rows, lam).all():
        raise ConstructionBugError("the enumeration found a set that is not a difference set")
    return [_checked_difference_set(g, tuple(row), (v, k, lam)) for row in rows.tolist()]


def _checked_difference_set(
    g: FiniteGroup, elements: tuple[int, ...], params: tuple[int, int, int]
) -> DifferenceSet:
    """The DifferenceSet of sorted ``elements`` already checked to be one,
    built without the constructor's check."""
    ds = object.__new__(DifferenceSet)
    object.__setattr__(ds, "group", g)
    object.__setattr__(ds, "elements", elements)
    object.__setattr__(ds, "params", params)
    return ds


def difference_sets_up_to_equivalence(
    g: FiniteGroup,
    k: int,
    lam: int,
    all_sets: Sequence[DifferenceSet] | None = None,
) -> list[DifferenceSet]:
    """Orbit representatives under D -> a*phi(D), phi in Aut(G), a in G.

    Representatives are the lexicographic minima of their orbits, returned in
    lexicographic order.
    """
    if all_sets is None:
        all_sets = enumerate_difference_sets(g, k, lam)
    if not all_sets:
        return []
    sets = sorted(all_sets, key=lambda ds: ds.elements)
    moves = automorphism_generators(g)
    moves += [g.table[a] for a in g.generating_sequence()]  # left translations
    minima = orbit_minima([ds.elements for ds in sets], moves)
    if minima is None:
        raise ConstructionBugError("difference-set orbit left the enumerated set")
    return [sets[i] for i in minima]


def multipliers(d: DifferenceSet) -> list[Multiplier]:
    """The subgroup Mult(D) of Aut(G) mapping D onto a left translate, in
    the row order of ``automorphism_group``, with the witnessing translate
    for each member (the last one if several translates coincide)."""
    auts = automorphism_group(d.group)
    elements = list(d.elements)
    images = void_rows(np.sort(auts[:, elements], axis=1))
    translates = void_rows(np.sort(np.asarray(d.group.table)[:, elements], axis=1))
    order = np.argsort(translates, kind="stable")
    translates = translates[order]
    pos = np.maximum(np.searchsorted(translates, images, side="right") - 1, 0)
    hits = np.flatnonzero(translates[pos] == images)
    return [Multiplier(tuple(auts[i].tolist()), int(order[pos[i]])) for i in hits]
