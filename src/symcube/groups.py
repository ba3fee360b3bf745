"""Finite groups as Cayley tables, their automorphisms, and difference sets.

Elements are indices ``0..v-1`` with 0 always the identity.  Tables are
immutable tuples; ``table[i][j]`` is the index of the product of elements
``i`` and ``j``.  A map between groups is its image row: ``phi[i]`` is the
image of element ``i``.  Aut(G) is one read-only |Aut| x v array per group
table, enumerated once per process and cached (``automorphism_group``); its
generators, the multipliers of a difference set and the orbit moves of the
difference-set classes are all derived from that array.
"""

from __future__ import annotations

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

    def translate(self, a: int) -> "DifferenceSet":
        t = self.group.table
        return DifferenceSet(self.group, tuple(t[a][x] for x in self.elements), self.params)


@dataclass(frozen=True)
class Multiplier:
    """An automorphism, as its image row, mapping a difference set onto its
    left translate by ``translate``."""

    images: tuple[int, ...]
    translate: int


# -- constructors --------------------------------------------------------------


def make_cyclic(v: int) -> FiniteGroup:
    if v < 1:
        raise InvalidInputError("invalid-order: v must be positive")
    table = [[(i + j) % v for j in range(v)] for i in range(v)]
    return FiniteGroup(table, name=f"Z{v}", validate=False)


def make_direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product; element (i, j) has index i*h.order + j."""
    vh = h.order
    order = g.order * vh
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
    gens: Sequence[Perm],
    max_order: int = 10000,
    name: str | None = None,
) -> FiniteGroup:
    """Close permutation generators under composition and return the left
    regular representation of the generated group as a Cayley table."""
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
                if len(elements) >= max_order:
                    raise ResourceLimitError(
                        f"closure-too-large: exceeded {max_order} elements"
                    )
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


def _extend_homomorphism(
    source: FiniteGroup,
    target: FiniteGroup,
    gens: Sequence[int],
    gen_images: Sequence[int],
    require_full: bool = False,
) -> tuple[int, ...] | None:
    """Extend generator images over the generated subgroup; None on conflict.

    Walks the Cayley graph of the source on the given generators, checking
    the homomorphism law on every edge and injectivity throughout.  Elements
    outside the closure stay mapped to -1 unless ``require_full``.
    """
    img = [-1] * source.order
    img[0] = 0
    used = [False] * target.order
    used[0] = True
    for g, ig in zip(gens, gen_images):
        if img[g] == -1:
            if used[ig]:
                return None
            img[g] = ig
            used[ig] = True
        elif img[g] != ig:
            return None
    queue = [0] + list(gens)
    seen = {0} | set(gens)
    while queue:
        x = queue.pop()
        for g, ig in zip(gens, gen_images):
            y = source.table[x][g]
            iy = target.table[img[x]][ig]
            if img[y] == -1:
                if used[iy]:
                    return None
                img[y] = iy
                used[iy] = True
            elif img[y] != iy:
                return None
            if y not in seen:
                seen.add(y)
                queue.append(y)
    if require_full and -1 in img:
        return None
    return tuple(img)


def _isomorphism_search(
    source: FiniteGroup, target: FiniteGroup, find_all: bool
) -> list[tuple[int, ...]]:
    if source.order != target.order:
        return []
    src_orders = [source.element_order(x) for x in range(source.order)]
    tgt_orders = [target.element_order(x) for x in range(target.order)]
    if sorted(src_orders) != sorted(tgt_orders):
        return []
    gens = source.generating_sequence()
    found: list[tuple[int, ...]] = []
    candidates_by_order: dict[int, list[int]] = {}
    for x in range(target.order):
        candidates_by_order.setdefault(tgt_orders[x], []).append(x)

    def backtrack(level: int, images: list[int]) -> bool:
        if level == len(gens):
            img = _extend_homomorphism(source, target, gens, images, require_full=True)
            if img is not None:
                found.append(img)
                return not find_all
            return False
        g = gens[level]
        for cand in candidates_by_order.get(src_orders[g], ()):
            images.append(cand)
            if _extend_homomorphism(source, target, gens[: level + 1], images) is not None:
                if backtrack(level + 1, images):
                    images.pop()
                    return True
            images.pop()
        return False

    backtrack(0, [])
    return found


# keyed by table (FiniteGroup hashes and compares by it); the entries are
# read-only and live for the process, which holds few distinct tables
_AUT_CACHE: dict[FiniteGroup, np.ndarray] = {}


def automorphism_group(g: FiniteGroup) -> np.ndarray:
    """All automorphisms as a read-only |Aut| x v int32 array of image rows,
    in the order of a backtracking search over images of a minimal
    generating sequence.  Each group table is enumerated once per process
    and the array cached; intended for small orders (v <= 32)."""
    auts = _AUT_CACHE.get(g)
    if auts is None:
        auts = np.array(_isomorphism_search(g, g, find_all=True), dtype=np.int32)
        auts.flags.writeable = False
        _AUT_CACHE[g] = auts
    return auts


def find_isomorphism(g1: FiniteGroup, g2: FiniteGroup) -> tuple[int, ...] | None:
    """The image row of an isomorphism g1 -> g2, or None."""
    result = _isomorphism_search(g1, g2, find_all=False)
    return result[0] if result else None


def automorphism_generators(
    g: FiniteGroup, auts: np.ndarray | Sequence[Sequence[int]] | None = None
) -> list[Perm]:
    """A small generating subset of Aut(g), or of the group whose elements
    are the rows ``auts``, chosen greedily in row order by group order."""
    if auts is None:
        auts = automorphism_group(g)
    target = len(auts)
    chosen: list[Perm] = []
    group = PermGroup([], g.order)
    for a in map(tuple, np.asarray(auts).tolist()):
        if a in group:
            continue
        group.add_generator(a)
        chosen.append(a)
        if group.order() == target:
            break
    return chosen


# -- difference sets ---------------------------------------------------------------


def is_difference_set(
    g: FiniteGroup, subset: Iterable[int], lam: int, check_right: bool = __debug__
) -> bool:
    """True iff every non-identity element is a left difference d1^{-1} d2
    of exactly ``lam`` ordered pairs from the subset.

    With ``check_right`` (on by default under __debug__), also recomputes the
    right-difference counts and asserts agreement.
    """
    elems = list(subset)
    v = g.order
    if any(not 0 <= x < v for x in elems) or len(set(elems)) != len(elems):
        return False
    counts = [0] * v
    for d1 in elems:
        i1 = g.inv(d1)
        row = g.table[i1]
        for d2 in elems:
            counts[row[d2]] += 1
    ok = all(counts[x] == lam for x in range(1, v))
    if check_right:
        rcounts = [0] * v
        for d1 in elems:
            row = g.table[d1]
            for d2 in elems:
                rcounts[row[g.inv(d2)]] += 1
        rok = all(rcounts[x] == lam for x in range(1, v))
        if ok != rok:
            raise ConstructionBugError(
                "left and right difference counts disagree"
            )
    return ok


def enumerate_difference_sets(
    g: FiniteGroup, k: int, lam: int, max_nodes: int = 50_000_000
) -> list[DifferenceSet]:
    """All (v,k,lam) difference sets, in lexicographic order of element tuples.

    Lexicographic subset backtracking; partial left-difference counts prune any
    branch where some element already occurs more than ``lam`` times.
    """
    v = g.order
    if lam * (v - 1) != k * (k - 1):
        return []
    inv = [g.inv(x) for x in range(v)]
    table = g.table
    counts = [0] * v
    chosen: list[int] = []
    out: list[DifferenceSet] = []
    nodes = 0

    def add_diffs(x: int, sign: int) -> bool:
        """Update counts for differences between x and current elements."""
        ok = True
        ix = inv[x]
        for y in chosen:
            a = table[inv[y]][x]
            b = table[ix][y]
            counts[a] += sign
            counts[b] += sign
            if counts[a] > lam or counts[b] > lam:
                ok = False
        return ok

    def backtrack(start: int) -> None:
        nonlocal nodes
        if len(chosen) == k:
            if all(counts[x] == lam for x in range(1, v)):
                out.append(DifferenceSet(g, tuple(chosen), (v, k, lam)))
            return
        # not enough elements left to finish
        for x in range(start, v - (k - len(chosen)) + 1):
            nodes += 1
            if nodes > max_nodes:
                raise ResourceLimitError("enumeration budget exceeded")
            ok = add_diffs(x, +1)
            if ok:
                chosen.append(x)
                backtrack(x + 1)
                chosen.pop()
            add_diffs(x, -1)

    backtrack(0)
    return out


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
