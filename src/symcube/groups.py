"""Finite groups as Cayley tables, their automorphisms, and difference sets.

Elements are indices ``0..v-1`` with 0 always the identity.  A group is
its Cayley table, one read-only v x v int64 array: ``table[i, j]`` is the
index of the product of elements ``i`` and ``j``.  Beside it lie the
read-only rows ``inverses`` and ``element_orders``; every other module
reads these arrays and builds none of its own.  A map between groups is
its image row: ``phi[i]`` is the image of element ``i``.  Aut(G) is one
read-only |Aut| x v array per group table, enumerated once per process and
cached (``automorphism_group``); its generators, the multipliers of a
difference set and the orbit moves of the difference-set classes are all
derived from that array.  The generators of Aut(G) are chosen once per
group table too, and cached next to the array.

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

    ``table`` is a read-only v x v int64 array, ``table[i, j]`` the index of
    the product of elements i and j, and ``inverses`` the read-only int64
    row of the inverse of each element; the read-only ``element_orders``
    holds the order of each element.  Equal tables give equal, equally
    hashed groups, so the caches of Aut(G) are keyed by the table.

    The constructor validates the Cayley-table axioms (identity, Latin-square
    rows and columns, associativity) unless ``validate=False`` is passed by
    a caller that has already proved them.
    """

    __slots__ = ("order", "table", "inverses", "element_orders", "labels", "name")

    def __init__(
        self,
        table: Sequence[Sequence[int]] | np.ndarray,
        labels: Sequence[str] | None = None,
        name: str | None = None,
        validate: bool = True,
    ):
        self.order = len(table)
        self.labels = tuple(labels) if labels is not None else None
        self.name = name
        if validate:
            table = self._validate(table)
        t = self.table = _read_only(np.array(table, np.int64))
        self.inverses = _read_only((t == 0).argmax(axis=1))
        # the powers x^n of every x at once, until each has reached 0
        orders = np.zeros(self.order, np.int64)
        power, n = np.arange(self.order), 1
        while not orders.all() and n <= self.order:
            orders[(power == 0) & (orders == 0)] = n
            power, n = t[power, np.arange(self.order)], n + 1
        self.element_orders = _read_only(orders)

    def _validate(self, table) -> np.ndarray:
        """The table as an integer array, or InvalidInputError naming the
        first axiom it violates."""
        v = self.order
        if v == 0:
            raise InvalidInputError("invalid-order: group must have at least one element")
        try:
            t = np.array(table)
        except ValueError:  # ragged rows
            raise InvalidInputError("table is not square") from None
        if t.shape != (v, v) or t.dtype.kind not in "iu":
            raise InvalidInputError("table is not square")
        full = np.arange(v)
        if not ((t[0] == full).all() and (t[:, 0] == full).all()):
            raise InvalidInputError("element 0 is not a two-sided identity")
        rows = (np.sort(t, axis=1) != full).any(axis=1)
        if rows.any():
            raise InvalidInputError(f"row {np.argmax(rows)} is not a permutation")
        cols = (np.sort(t, axis=0) != full[:, None]).any(axis=0)
        if cols.any():
            raise InvalidInputError(f"column {np.argmax(cols)} is not a permutation")
        for i in range(v):
            # entry (j, k) of t[t[i]] is (ij)k, of t[i][t] is i(jk)
            bad = t[t[i]] != t[i][t]
            if bad.any():
                j, k = np.argwhere(bad)[0]
                raise InvalidInputError(f"associativity fails at ({i},{j},{k})")
        if self.labels is not None and len(self.labels) != v:
            raise InvalidInputError("label count must equal group order")
        return t

    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())

    def generating_sequence(self) -> list[int]:
        """Greedy minimal generating sequence: repeatedly adjoin the
        lowest-index element outside the subgroup generated so far."""
        gens: list[int] = []
        closed = np.zeros(self.order, bool)
        closed[0] = True
        while not closed.all():
            gens.append(int(np.argmin(closed)))
            size = 0
            while size != closed.sum():  # close under right multiplication
                size = closed.sum()
                closed[self.table[closed][:, gens]] = True
        return gens

    def __repr__(self) -> str:
        name = self.name or "group"
        return f"FiniteGroup({name}, order={self.order})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table.tobytes() == other.table.tobytes()

    def __hash__(self) -> int:
        return hash(self.table.tobytes())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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

# the largest order the constructors build: a Cayley table holds v^2 int64
# entries, 8 MB at v = 1024 and 800 MB at v = 10^4
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
    a = np.arange(v)
    return FiniteGroup((a[:, None] + a) % v, name=f"Z{v}", validate=False)


def make_direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product; element (i, j) has index i*h.order + j."""
    vh = h.order
    order = g.order * vh
    _check_group_order(order)
    # entry (a1, a2, b1, b2): the index of (g_a1 g_b1, h_a2 h_b2)
    table = (g.table[:, None, :, None] * vh + h.table[None, :, None, :]).reshape(order, order)
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

    # entry (i, j, k, l): the index of a^(i+k) b^(j r^k + l)
    i, j, k, l = np.ix_(range(m), range(c), range(m), range(c))
    r_k = np.array([pow(r, e, c) for e in range(m)], np.int64)[k]
    table = (((i + k) % m) * c + (j * r_k + l) % c).reshape(m * c, m * c)
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
    regular representation of the generated group as a Cayley table, its
    elements numbered as ``_permutation_closure`` lists them;
    ResourceLimitError once the closure exceeds MAX_GROUP_ORDER elements."""
    if not gens:
        return make_cyclic(1)
    degree = len(gens[0])
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise InvalidInputError("generators must be bijections on a common set")
    elements, left, tree = _permutation_closure(gens, degree)
    table = np.empty((len(elements), len(elements)), dtype=np.int64)
    table[0] = np.arange(len(elements))
    for i, (s, p) in enumerate(tree, start=1):
        table[i] = left[s, table[p]]  # e_i e_j = gens[s] (e_p e_j)
    return FiniteGroup(table, name=name, validate=False)


def _permutation_closure(gens: Sequence[Perm], degree: int) -> tuple[list[Perm], np.ndarray, list]:
    """The elements of the group generated by the permutations ``gens`` of
    range(degree), in the order of a BFS from the identity along p -> g p,
    and the BFS's edges: ``left[s, j]`` is the index of gens[s] e_j, and
    element i > 0 was found as gens[s] e_p for (s, p) = ``tree[i - 1]``;
    ResourceLimitError once there are more than MAX_GROUP_ORDER."""
    elements = [id_perm(degree)]
    index = {elements[0]: 0}
    left, tree = [[] for _ in gens], []
    for p, e in enumerate(elements):  # the list grows behind the loop: a FIFO queue
        for s, g in enumerate(gens):
            q = tuple(g[x] for x in e)
            if q not in index:
                _check_group_order(len(elements) + 1)
                index[q] = len(elements)
                elements.append(q)
                tree.append((s, p))
            left[s].append(index[q])
    return elements, np.array(left, dtype=np.int64).reshape(len(gens), -1), tree


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
    src_orders, tgt_orders = source.element_orders, target.element_orders
    if not np.array_equal(np.sort(src_orders), np.sort(tgt_orders)):
        return none
    # the target table flattened and scaled: a map holds v * (image of x)
    # per row, so the image of x*g is one gather, scaled[map + image of g],
    # at an index below v^2
    wide = np.min_scalar_type(v * v - 1)
    scaled = (target.table.astype(wide) * v).ravel()
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
                y = source.table[x, g]
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
        auts = _AUT_CACHE[g] = _read_only(auts)
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
    table = g.table.ravel()
    inv = g.inverses[rows]
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
    table, inv = g.table, g.inverses
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
    moves += [tuple(g.table[a].tolist()) for a in g.generating_sequence()]  # left translations
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
    translates = void_rows(np.sort(d.group.table[:, elements], axis=1))
    order = np.argsort(translates, kind="stable")
    translates = translates[order]
    pos = np.maximum(np.searchsorted(translates, images, side="right") - 1, 0)
    hits = np.flatnonzero(translates[pos] == images)
    return [Multiplier(tuple(auts[i].tolist()), int(order[pos[i]])) for i in hits]
