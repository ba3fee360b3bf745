"""Search for designs whose blocks are all difference sets, classification
of the resulting group cubes, and orbit-generated cube reconstruction.

The design search is a clique search (Kaski & Ostergard, *Classification
Algorithms for Codes and Designs*, 2006).  By the dual of Ryser's theorem,
v blocks of size k on v points that pairwise meet in lambda points are the
blocks of a symmetric (v,k,lambda) design, so a design is a v-clique of the
graph joining the candidates that meet in lambda points.  Each node branches
on the point lying in fewer than k chosen blocks that has the fewest allowed
candidates through it, and prunes when some point has fewer of them left
than it still needs.  The least candidate through the branching point is
taken (the allowed set shrinks to its neighbours, less the candidates
through points already in k blocks) and then excluded, so every block set
is found exactly once.  A rooted search takes one given block first.

Group cubes are classified up to the design moves: the group M of point
maps generated by Aut(G), the left and right translations and the
inversion x -> x^-1.  Each of them maps difference sets to difference sets
(right differences of a difference set are balanced too), hence designs to
designs, and the group cubes of a design and of its image are paratopic.
For the inversion: swapping axes 2 and 3 of C(i1,i2,i3) = [g_i2 g_i3 in
B_i1] gives [g_i3 g_i2 in B_i1] = [g_i2^-1 g_i3^-1 in B_i1^-1], and
relabelling both axes by inversion then gives the group cube of the blocks
B_i^-1.

The designs are searched only through candidate-orbit minima (orbit-based
isomorph rejection: Kaski & Ostergard, ch. 4 and 10; McKay, *Isomorph-free
exhaustive generation*, J. Algorithms 1998).  Let O be an M-orbit of
candidates with least index m, and S_m the designs that contain m and whose
blocks all lie in orbits with least index >= m.  The least design of a
design orbit (as a sorted tuple of candidate indices) starts with the least
block that any member contains; that block is the least of its candidate
orbit, and no block of the design lies in an orbit with a smaller least
index.  So each design orbit meets exactly one S_m, in those members that
contain m, its least design among them, and a search rooted at m finds S_m.
If D and hD (h in M) both lie in S_m, then b = h^-1(m) lies in D and in O;
with t_b a fixed transporter m -> b, s = h t_b fixes m and hD = s(t_b^-1 D).
So the rerooting moves D -> t_b^-1 D (b in D and O) and the generators of
Stab_M(m), which map S_m onto itself, connect the members of each orbit
within S_m, and the least member of each component is its orbit's least
design.  M is transitive on O, so each b in O lies in equally many designs
of a design orbit; counting the pairs (D, b) with b in D and O then gives
the number of designs as the sum over the orbits O of |O| times the sum of
1/|D and O| over S_m.

Stab_M(m) and each Stab_M(D) come from one Schreier walk (``_schreier_walk``;
Kaski & Ostergard, ch. 4), which sifts Schreier generators along a BFS tree
until their group has order |M| / |orbit|.  On the candidates it walks all
of O, so every t_b exists; on S_m it stops at the order.  The moves act on
candidate indices: the generators' candidate permutations are computed once,
by ``induced_permutations``, each t_b^-1 and each generator of Stab_M(m) is
composed from them along the tree, and the point maps serve only the order
check.  The rerooting and stabiliser edges are looked up in S_m in chunks
of a fixed number of moves (``_EDGE_CHUNK``), so the temporaries do not
grow with S_m.

Every cube labelled here is seeded with the automorphisms its construction
proves, each built once as an int64 row of transversal point images.  Canon
verifies each seed and prunes its tree with them, and the slice-pair keys
are computed only on the points their orbits leave
(``equivalence._slice_pair_keys``).  The seeds come from three sources:

* Any group cube over G (``_group_cube_seeds``): the copies of G on axes 2
  and 3 (x -> x a^-1 on axis 2 and y -> a y on axis 3 keep every product
  xy).  When G is abelian, the swap of axes 2 and 3 is one too, since xy =
  yx.
* A difference cube (``_difference_cube_seeds``): the rows of
  ``equivalence._difference_cube_autotopies`` (G^2 x| Mult(D)), which
  ``theoretical_autotopies`` decodes.  When G is abelian, the swaps of
  adjacent axes join them, since g_i1 g_i2 g_i3 is then symmetric in them.
* The group cube of a design-orbit representative D
  (``_stabiliser_seeds``): one seed per generator h of Stab_M(D), from the
  Schreier walk on D's component in the move graph.  Each design move is
  h = R_c psi or h = R_c psi inv, with c = h(e), psi in Aut(G) and inv the
  inversion; a left translation x -> a x is R_a after the inner
  automorphism x -> a x a^-1.  Let h map the block B_i onto B_sigma(i).
  Then xy lies in B_i iff h(xy) = psi(x) psi(y) c lies in B_sigma(i), so
  (i, x, y) -> (sigma(i), psi(x), psi(y) c) fixes the cube.
  With the inversion, h(xy) = psi(y^-1) psi(x^-1) c, so the seed is
  (i, x, y) -> (sigma(i), psi(y^-1), psi(x^-1) c), which swaps axes 2 and 3.
"""

from __future__ import annotations

import array
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, NamedTuple, Sequence

import numpy as np

from .catalog import reference_catalog
from .cubes import Cube, difference_cube, group_cube, slice_invariant
from .designs import DesignParams, design_class, development
from .equivalence import (
    _certificate,
    _cube,
    _difference_cube_autotopies,
    _translation_autotopies,
    _verified,
    cube_certificate,
)
from .errors import (
    ConstructionBugError,
    InvalidInputError,
    NotACubeError,
    ResourceLimitError,
    deadline_of,
)
from .groups import (
    DifferenceSet,
    FiniteGroup,
    automorphism_generators,
    difference_sets_up_to_equivalence,
    enumerate_difference_sets,
)
from .perms import (
    PermGroup,
    Perm,
    RowIndex,
    component_ids,
    compose,
    identity,
    induced_permutations,
    inverse,
    orbit_ids,
)

__all__ = [
    "find_ds_block_designs",
    "classify_group_cubes",
    "GroupCubeClassification",
    "difference_cube_reference",
    "build_seeded_cube_certificate",
    "OrbitCubeInput",
    "OrbitCubeResult",
    "orbit_cube",
    "is_group_cube",
]

Design = tuple[tuple[int, ...], ...]  # blocks as sorted element tuples, sorted


def _check_order(g: FiniteGroup, params: DesignParams) -> None:
    """InvalidInputError unless the designs' v is the order of g."""
    if params.v != g.order:
        raise InvalidInputError(
            f"design parameters {params} have v = {params.v}, "
            f"but group {g.name or '?'} has order {g.order}"
        )


def _bitmasks(rows: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int with bit j set for column j."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def find_ds_block_designs(
    g: FiniteGroup,
    params: DesignParams,
    candidates: Sequence[DifferenceSet] | None = None,
    time_budget: float | None = None,
    collect=None,
    *,
    root: int | None = None,
) -> list[Design]:
    """All (v,k,lambda) designs over g whose blocks are difference sets,
    as unordered block multisets (each found exactly once), sorted.

    With ``collect``, each solution is passed to it as a sorted tuple of
    candidate indices instead of being accumulated (for streaming callers).
    With ``root`` (a candidate index), only the designs that contain that
    candidate are found.  ``time_budget`` (seconds) bounds the enumeration
    of the candidates, when they are not given, and the search together;
    ResourceLimitError is raised when it runs out.
    """
    _check_order(g, params)
    v, k, lam = params.v, params.k, params.lam
    deadline = deadline_of(time_budget)
    if candidates is None:
        candidates = enumerate_difference_sets(g, k, lam, time_budget=time_budget)
    blocks = [tuple(d.elements) for d in candidates]
    member = np.zeros((len(blocks), v), dtype=np.int32)
    for i, b in enumerate(blocks):
        member[i, list(b)] = 1
    meets = member @ member.T == lam
    np.fill_diagonal(meets, False)
    adj = _bitmasks(meets)
    through = _bitmasks(member.T.astype(bool))
    found: list[tuple[int, ...]] = []
    emit = collect if collect is not None else found.append
    nodes = itertools.count(1)

    # need[x]: how many more chosen blocks must contain point x
    def take(i: int, allowed: int, need: list[int], chosen: tuple[int, ...]) -> None:
        sub, rest = allowed & adj[i], need.copy()
        for x in blocks[i]:
            rest[x] -= 1
            if not rest[x]:
                sub &= ~through[x]
        rec(sub, rest, chosen + (i,))

    def rec(allowed: int, need: list[int], chosen: tuple[int, ...]) -> None:
        if deadline is not None and next(nodes) % 4096 == 0 and time.monotonic() > deadline:
            raise ResourceLimitError("design search time budget exceeded")
        point, fewest = -1, len(blocks) + 1
        for x in range(v):
            if need[x] > 0:
                left = (allowed & through[x]).bit_count()
                if left < need[x]:
                    return
                if left < fewest:
                    point, fewest = x, left
        if point < 0:
            if need.count(0) != v:
                raise ConstructionBugError("a point lies in other than k chosen blocks")
            emit(tuple(sorted(chosen)))
            return
        while (cands := allowed & through[point]).bit_count() >= need[point]:
            i = (cands & -cands).bit_length() - 1
            take(i, allowed, need, chosen)
            allowed ^= 1 << i

    if root is None:
        rec((1 << len(blocks)) - 1, [k] * v, ())
    else:
        take(root, (1 << len(blocks)) - 1, [k] * v, ())
    return sorted(tuple(sorted(blocks[i] for i in sol)) for sol in found)


# -- one design per orbit ----------------------------------------------------------


def _design_moves(g: FiniteGroup) -> list[Perm]:
    """Point maps generating the design moves M: generators of Aut(G), left
    and right translations by group generators, and the inversion.

    Designs in one orbit of M yield paratopic cubes (see the module
    docstring), so orbit representatives suffice for classification by
    certificate.
    """
    maps = automorphism_generators(g)
    for a in g.generating_sequence():
        maps.append(tuple(g.table[a].tolist()))  # left translation
        maps.append(tuple(g.table[:, a].tolist()))  # right translation
    maps.append(tuple(g.inverses.tolist()))
    return maps


class _RootMoves(NamedTuple):
    """The moves of the search rooted at the candidate m: the M-orbit O of
    m in BFS order, and candidate permutations (rows, in the dtype of the
    generators' moves) with the point maps that induce them."""

    orbit: np.ndarray
    back: np.ndarray  # row r: t_b^-1, for the transporter t_b: m -> b = orbit[r]
    stab: np.ndarray  # generators of Stab_M(m)
    back_maps: list[Perm]
    stab_maps: list[Perm]


def _schreier_walk(
    start: int,
    order: int,
    moves_from: Callable[[int], Iterable[tuple[int, Perm]]],
    degree: int,
    span: int = 1,
) -> tuple[dict[int, tuple[int, int, Perm]], list[Perm], list[tuple[int, int]]]:
    """Sifted generators, of the given order, of the stabiliser in M of the
    node ``start`` of an action graph, and the BFS tree they came from.

    ``moves_from(E)`` gives the edges out of the node E in a fixed order,
    as (F, g): the point map g moves E onto F.  Every h in the stabiliser
    is the product of the edge labels along a closed walk at ``start``, so
    the Schreier generators u_F^-1 g u_E of the edges, u_E being the tree
    path ``start`` -> E, generate it.  They are sifted in BFS order, and
    the walk stops as soon as their group has ``order`` and the tree has
    ``span`` nodes.  Returns the tree, node -> (parent, edge number, u_node)
    in BFS order, the sifted generators, and the edge (E, edge number) of
    each."""
    tree = {start: (start, -1, identity(degree))}
    queue = [start]
    group = PermGroup((), degree)
    gens: list[Perm] = []
    edges: list[tuple[int, int]] = []
    full = order == 1  # the group has the order
    for e in queue:
        if full and len(tree) >= span:
            break
        path = tree[e][2]
        for j, (f, move) in enumerate(moves_from(e)):
            if f not in tree:
                tree[f] = (e, j, compose(move, path))
                queue.append(f)
            elif not full:
                h = compose(inverse(tree[f][2]), compose(move, path))
                if h not in group:
                    group.add_generator(h)
                    gens.append(h)
                    edges.append((e, j))
                    full = group.order() == order
                    if full and len(tree) >= span:
                        break
    if not full or len(tree) < span:
        raise ConstructionBugError(
            f"stabiliser order {group.order()} is not |M|/|orbit| = {order}, "
            f"or the orbit has fewer than {span} members"
        )
    return tree, gens, edges


def _rerooting_and_stabiliser(
    m: int, span: int, maps: Sequence[Perm], moves: np.ndarray, group_order: int
) -> _RootMoves:
    """For each candidate b in the M-orbit of the candidate m, which has
    ``span`` members, the inverse of a transporter m -> b; and generators
    of Stab_M(m).  Both come from a Schreier walk over the point maps
    ``maps``, which act on the candidates as the rows of ``moves``; the
    candidate permutations are composed from ``moves`` along its tree."""
    n, dtype = moves.shape[1], moves.dtype
    tree, gens, edges = _schreier_walk(
        m, group_order // span, lambda b: zip(moves[:, b].tolist(), maps), len(maps[0]), span
    )
    row = {b: r for r, b in enumerate(tree)}  # candidate b -> its row in the orbit
    inv_moves = np.argsort(moves, axis=1).astype(dtype)
    back = np.empty((len(tree), n), dtype=dtype)
    back[0] = np.arange(n)
    for r, (q, j, _) in enumerate(itertools.islice(tree.values(), 1, None), 1):
        back[r] = back[row[q]][inv_moves[j]]  # t_c^-1 = t_b^-1 p^-1
    # t_c^-1 p t_b, with t_b the inverse of the row of t_b^-1
    stab = [back[row[int(moves[j, b])]][moves[j][np.argsort(back[row[b]])]] for b, j in edges]
    back_maps = [inverse(path) for _, _, path in tree.values()]
    stab_rows = np.array(stab, dtype=dtype).reshape(-1, n)
    return _RootMoves(np.array(list(tree)), back, stab_rows, back_maps, gens)


# rerooting or stabiliser moves looked up per ``RowIndex.find`` call in
# ``_orbits_within_root``: bounds its temporaries on large roots
_EDGE_CHUNK = 2048


def _orbits_within_root(
    designs: np.ndarray,
    m: int,
    orbit_min: np.ndarray,
    maps: Sequence[Perm],
    moves: np.ndarray,
    group_order: int,
) -> tuple[list[tuple[int, ...]], int, list[list[Perm]]]:
    """The least design of each design orbit that meets S_m, the number of
    designs in those orbits, and sifted generators of each least design's
    stabiliser in M (point maps).  ``designs`` is S_m as sorted rows of
    indices into the candidates, in increasing order; ``orbit_min`` labels
    each candidate by the least index of its M-orbit."""
    root = _rerooting_and_stabiliser(m, int((orbit_min == m).sum()), maps, moves, group_order)
    slot = np.full(len(orbit_min), -1, dtype=np.int32)
    slot[root.orbit] = np.arange(len(root.orbit))
    index = RowIndex(designs)
    n = len(designs)
    in_orbit = orbit_min[designs] == m
    cells = np.flatnonzero(in_orbit)  # design * v + position, for each block of O
    src = (cells // designs.shape[1]).astype(np.int32)
    reroot = slot[designs.ravel()[cells]]

    # the edges of the move graph on S_m: one rerooting move for each block
    # of O in a design, then one move per stabiliser generator
    def images() -> Iterable[np.ndarray]:
        for start in range(0, len(src), _EDGE_CHUNK):
            chunk = slice(start, start + _EDGE_CHUNK)
            yield root.back[reroot[chunk, None], designs[src[chunk]]]
        for perm in root.stab:
            for start in range(0, n, _EDGE_CHUNK):
                yield perm[designs[start : start + _EDGE_CHUNK]]

    dst = []
    for chunk in images():
        found = index.find(chunk.astype(np.int32))
        if found is None:
            raise ConstructionBugError("a rerooting or stabiliser move left S_m")
        dst.append(found)
    # the rerooting edges, sorted by design, then n edges per generator
    dst = np.concatenate(dst)
    reroot_src = src
    src = np.concatenate([src] + [np.arange(n, dtype=np.int32)] * len(root.stab))
    ids = component_ids(n, src, dst)
    reps = np.flatnonzero(ids == np.arange(n))
    # |orbit of D| = |O| times the sum of 1/|E and O| over the designs E of
    # D's component, summed in units of 1/unit
    sizes = in_orbit.sum(axis=1)
    unit = int(np.lcm.reduce(sizes))
    weights = np.zeros(n, dtype=np.int64)
    np.add.at(weights, ids, unit // sizes)
    orbit_sizes, rest = np.divmod(len(root.orbit) * weights[reps], unit)
    if rest.any() or (group_order % orbit_sizes).any():
        raise ConstructionBugError("a design orbit size does not divide |M|")

    def moves_from(e: int) -> Iterable[tuple[int, Perm]]:
        edges = slice(*np.searchsorted(reroot_src, (e, e + 1)).tolist())
        yield from zip(dst[edges].tolist(), [root.back_maps[r] for r in reroot[edges].tolist()])
        for k, move in enumerate(root.stab_maps):
            yield int(dst[len(reroot_src) + k * n + e]), move

    stabilisers = [
        _schreier_walk(int(r), group_order // int(size), moves_from, len(maps[0]))[1]
        for r, size in zip(reps, orbit_sizes)
    ]
    return [tuple(d) for d in designs[reps].tolist()], int(orbit_sizes.sum()), stabilisers


def _design_orbit_representatives(
    g: FiniteGroup,
    params: DesignParams,
    candidates: Sequence[DifferenceSet],
    time_budget: float | None = None,
) -> tuple[list[tuple[int, ...]], int, list[list[Perm]]]:
    """The least design of each orbit of the design moves, as sorted tuples
    of indices into ``candidates`` (all difference sets of g, sorted), in
    increasing order; the number of designs; and, for each least design D,
    sifted generators of Stab_M(D) as point maps.  Searched through the
    candidate-orbit minima as the module docstring describes."""
    deadline = deadline_of(time_budget)
    rows = np.array([d.elements for d in candidates], dtype=np.int32)
    if not len(rows):
        return [], 0, []
    maps = _design_moves(g)
    moves = induced_permutations(rows, maps)
    if moves is None:
        raise ConstructionBugError("candidate set is not closed under the design moves")
    # the narrowest dtype that holds a candidate index, for every move
    moves = np.stack(moves).astype(np.min_scalar_type(len(rows) - 1))
    orbit_min = orbit_ids(moves, len(rows))
    group_order = PermGroup(maps, g.order).order()
    reps: list[tuple[tuple[int, ...], list[Perm]]] = []
    count = 0
    for m in np.flatnonzero(orbit_min == np.arange(len(rows))).tolist():
        remaining = deadline - time.monotonic() if deadline is not None else None
        if remaining is not None and remaining <= 0:
            raise ResourceLimitError("design search time budget exceeded")
        keep = np.flatnonzero(orbit_min >= m).astype(moves.dtype)  # m is the least index kept
        found = array.array("i")  # the designs' indices into keep, flat
        find_ds_block_designs(
            g,
            params,
            [candidates[i] for i in keep],
            time_budget=remaining,
            collect=found.extend,
            root=0,
        )
        if found:
            designs = keep[np.frombuffer(found, dtype=np.intc).reshape(-1, params.v)]
            designs = designs[np.lexsort(designs.T[::-1])]
            root_reps, root_count, root_stabs = _orbits_within_root(
                designs, m, orbit_min, maps, moves, group_order
            )
            reps += zip(root_reps, root_stabs)
            count += root_count
    reps.sort(key=lambda rep: rep[0])
    return [d for d, _ in reps], count, [stab for _, stab in reps]


# -- seeded certificates -----------------------------------------------------------


def _axis_swaps(n: int, v: int, axes: Sequence[int]) -> np.ndarray:
    """Transversal point permutations of an n-cube of order v, one row for
    each axis a given, that swap axes a and a + 1 and keep the values."""
    out = np.tile(np.arange(n * v), (len(axes), 1))
    for row, a in zip(out, axes):
        row[a * v : (a + 2) * v] = np.roll(row[a * v : (a + 2) * v], v)
    return out


def _group_cube_seeds(g: FiniteGroup, n: int) -> np.ndarray:
    """Point permutations of the transversal representation fixing any
    group cube over g, one row each: the embedded copies of G on axes
    2..n, and when g is abelian the swaps of adjacent axes among them."""
    seeds = _translation_autotopies(g, n, start=1)
    if g.is_abelian():
        seeds = np.concatenate([seeds, _axis_swaps(n, g.order, range(1, n - 1))])
    return seeds


def _stabiliser_seeds(
    g: FiniteGroup, blocks: Sequence[tuple[int, ...]], stabiliser: Sequence[Perm]
) -> np.ndarray:
    """Point permutations of the transversal representation fixing the
    group 3-cube of ``blocks``, one row for each design move h that fixes
    the block set: h = R_c psi, or h = R_c psi inv when it involves the
    inversion (see the module docstring)."""
    v = g.order
    table, inv = g.table, g.inverses
    moves = np.asarray(stabiliser, dtype=np.int64).reshape(-1, v)
    sigma = induced_permutations(blocks, moves)  # h maps B_i onto B_sigma(i)
    if sigma is None:
        raise ConstructionBugError("a stabiliser generator does not fix its design")
    c = moves[:, :1]
    psi = table[moves, inv[c]]  # x -> h(x) c^-1
    # (i, x, y) -> (sigma(i), psi(x), psi(y) c), or, when psi is no automorphism
    # (h involves the inversion), (i, x, y) -> (sigma(i), psi(y), psi(x) c)
    second, third = v + psi, 2 * v + table[psi, c]
    inverted = (psi[:, table] != table[psi[:, :, None], psi[:, None]]).any(axis=(1, 2))
    second[inverted], third[inverted] = third[inverted], second[inverted]
    return np.concatenate([np.asarray(sigma, dtype=np.int64).reshape(-1, v), second, third], 1)


def build_seeded_cube_certificate(
    c: Cube, seeds: np.ndarray | Sequence[Sequence[int]] = (), time_budget: float | None = None
) -> bytes:
    """Uncolored cube certificate, seeding the canonicalizer with known
    automorphisms (given as transversal point permutations); raises
    ResourceLimitError if the labelling exceeds ``time_budget``."""
    return _certificate(c, "uncolored", seeds, time_budget)


def _difference_cube_seeds(g: FiniteGroup, rep: DifferenceSet) -> np.ndarray:
    """Point permutations of the transversal representation fixing the
    difference 3-cube of rep, one row each: its theoretical autotopies,
    unverified, and when g is abelian the axis permutations
    (g_i1 g_i2 g_i3 is then symmetric in the axes)."""
    seeds = _difference_cube_autotopies(g, rep, 3)
    if g.is_abelian():
        seeds = np.concatenate([seeds, _axis_swaps(3, g.order, (0, 1))])
    return seeds


def _difference_cube_certificate(
    g: FiniteGroup, rep: DifferenceSet, time_budget: float | None = None
) -> bytes:
    """Certificate of the difference 3-cube of rep, seeded with
    ``_difference_cube_seeds`` (which the canonicalizer verifies)."""
    return build_seeded_cube_certificate(
        difference_cube(g, rep, 3), _difference_cube_seeds(g, rep), time_budget
    )


def difference_cube_reference(
    groups: Sequence[FiniteGroup], params: DesignParams
) -> dict[bytes, tuple[str, tuple[int, ...]]]:
    """Certificates of the difference 3-cubes from every difference-set
    class of the given groups: cert -> (group name, class representative)."""
    for g in groups:
        _check_order(g, params)
    out: dict[bytes, tuple[str, tuple[int, ...]]] = {}
    for g in groups:
        for rep in difference_sets_up_to_equivalence(g, params.k, params.lam):
            cert = _difference_cube_certificate(g, rep)
            out.setdefault(cert, (g.name or f"order{g.order}", rep.elements))
    return out


# -- classification ----------------------------------------------------------------


@dataclass
class GroupCubeClassification:
    group_name: str
    params: DesignParams
    nds: int
    ndc: int
    dev_classes: list[str]
    tds: int
    ngc: int
    design_count: int
    orbit_rep_count: int
    difference_certs: list[bytes] = field(repr=False, default_factory=list)
    non_difference_certs: list[bytes] = field(repr=False, default_factory=list)

    @property
    def all_certs(self) -> list[bytes]:
        return sorted(self.difference_certs + self.non_difference_certs)


def classify_group_cubes(
    g: FiniteGroup,
    params: DesignParams,
    reference: Collection[bytes] | None = None,
    time_budget: float | None = None,
) -> GroupCubeClassification:
    """Classify the 3-cubes of designs over g with all blocks difference
    sets: counts of difference sets (total and up to equivalence), their
    developments' catalog names, and inequivalent cubes split into
    difference cubes and the rest.  The trivial designs, k = 0 and k = v,
    are rejected.

    ``reference`` holds difference-cube certificates (only membership is
    tested, so a set or the dict of ``difference_cube_reference`` will do)
    and should cover all groups of the relevant order (certificates of cubes
    equivalent to a difference cube over *any* group count as difference
    cubes); when omitted, this group's own difference cubes are used.

    ``time_budget`` (seconds) bounds the difference-set enumeration, the
    design search and the cube labellings together, and is checked after
    the difference-set classes (and their cubes' labellings) and after
    naming the developments; ResourceLimitError is raised when it runs
    out.
    """
    _check_order(g, params)
    if params.k in (0, params.v):
        raise InvalidInputError(f"design parameters {params} are trivial: k must lie in 1..v-1")
    deadline = deadline_of(time_budget)

    def remaining() -> float | None:
        return deadline - time.monotonic() if deadline is not None else None

    def check_budget(stage: str) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise ResourceLimitError(f"classification time budget exceeded while {stage}")

    catalog = reference_catalog()
    all_sets = enumerate_difference_sets(g, params.k, params.lam, time_budget=remaining())
    tds = len(all_sets)
    classes = difference_sets_up_to_equivalence(g, params.k, params.lam, all_sets)
    nds = len(classes)
    own_dc_certs = {_difference_cube_certificate(g, rep, remaining()) for rep in classes}
    check_budget("classing the difference sets and labelling their cubes")
    if reference is None:
        reference = own_dc_certs
    dev_names = set()
    for rep in classes:
        name = design_class(development(rep), catalog).name
        dev_names.add(name if name is not None else "?")
    check_budget("naming the developments")
    ndc = len(own_dc_certs)
    reps, design_count, stabilisers = _design_orbit_representatives(
        g, params, all_sets, remaining()
    )
    candidates = [tuple(d.elements) for d in all_sets]
    seeds = _group_cube_seeds(g, 3)
    diff_certs: set[bytes] = set()
    nondiff_certs: set[bytes] = set()
    for rep, stabiliser in zip(reps, stabilisers):
        blocks = [candidates[i] for i in rep]
        cube = group_cube(g, blocks, 3)
        cert = build_seeded_cube_certificate(
            cube, np.concatenate([seeds, _stabiliser_seeds(g, blocks, stabiliser)]), remaining()
        )
        if cert in reference:
            diff_certs.add(cert)
        else:
            nondiff_certs.add(cert)
    if reps and not own_dc_certs <= diff_certs:
        raise ConstructionBugError(
            "development cubes missing from the classified group cubes"
        )
    return GroupCubeClassification(
        group_name=g.name or f"order{g.order}",
        params=params,
        nds=nds,
        ndc=ndc,
        dev_classes=sorted(dev_names),
        tds=tds,
        ngc=len(nondiff_certs),
        design_count=design_count,
        orbit_rep_count=len(reps),
        difference_certs=sorted(diff_certs),
        non_difference_certs=sorted(nondiff_certs),
    )


# -- orbit-generated cubes -----------------------------------------------------------


@dataclass(frozen=True)
class OrbitCubeInput:
    """Permutation generators on 3v symbols preserving the three point
    classes setwise, plus base blocks (one point per class), 0-based."""

    v: int
    generators: tuple[Perm, ...]
    base_blocks: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.v < 2:
            raise InvalidInputError(f"orbit-cube order v={self.v} must be at least 2")
        n_pts = 3 * self.v
        for p in self.generators:
            if len(p) != n_pts:
                raise InvalidInputError("generator degree must be 3v")
            if sorted(p) != list(range(n_pts)):
                raise InvalidInputError("generators must be permutations of range(3v)")
            for t in range(3):
                lo, hi = t * self.v, (t + 1) * self.v
                if any(not lo <= p[x] < hi for x in range(lo, hi)):
                    raise InvalidInputError("generators must preserve the point classes")
        for b in self.base_blocks:
            klass = sorted(x // self.v for x in b)
            if klass != [0, 1, 2]:
                raise InvalidInputError("base blocks must take one point per class")


@dataclass
class OrbitCubeResult:
    cube: Cube
    group_order: int
    block_count: int
    orbit_sizes: tuple[int, ...]


def orbit_cube(inp: OrbitCubeInput) -> OrbitCubeResult:
    """The cube whose 1-cells are the orbits of the base blocks' cells.

    A generator p preserves the classes, so it maps the cell (x, y, z) of
    the block {x, v+y, 2v+z} to (p(x), p(v+y)-v, p(2v+z)-2v), a permutation
    of the v^3 cells; ``orbit_ids`` closes all cells under them at once.
    The union must hold k v^2 cells for an integer k, which fixes the
    parameters (v, k, k(k-1)/(v-1)), and NotACubeError is raised unless
    every slice is a design with them."""
    v = inp.v
    # p[g, t, x]: generator g's image of the point t*v + x, as a value of axis t
    p = np.asarray(inp.generators, dtype=np.int32).reshape(-1, 3, v) % v
    cells = (p[:, 0, :, None, None] * v + p[:, 1, None, :, None]) * v + p[:, 2, None, None, :]
    ids = orbit_ids(cells.reshape(len(p), v**3), v**3)
    base = np.sort(np.asarray(inp.base_blocks, dtype=np.int64).reshape(-1, 3), axis=1) % v
    base_ids = ids[np.ravel_multi_index(base.T, (v, v, v))]
    bits = np.isin(ids, base_ids).reshape(v, v, v)
    block_count = int(bits.sum())
    if block_count % (v * v) != 0:
        raise NotACubeError(
            f"total block count {block_count} is not a multiple of v^2", "block-count"
        )
    cube = _verified(_cube(bits, block_count // (v * v)))
    return OrbitCubeResult(
        cube=cube,
        group_order=PermGroup(inp.generators, 3 * v).order(),
        block_count=block_count,
        orbit_sizes=tuple(np.bincount(ids)[base_ids].tolist()),
    )


def is_group_cube(c: Cube, reference_certs: Iterable[bytes]) -> bool:
    """Whether c is equivalent to a group cube, via the reference list of
    group-cube certificates.

    A shortcut handles the decidedly-negative case first: a 3-cube from the
    group construction has all slices isomorphic to one design in the two
    directions that vary the block axis, so a cube with mixed design classes
    in all three directions is not equivalent to any group cube.  That
    answer needs no reference.  Past the shortcut, the answer is membership
    of c's uncolored certificate in ``reference_certs``, so a negative
    answer there is sound only if the reference is complete.
    """
    if c.n == 3:
        inv = slice_invariant(c)
        mixed = [len(set(inner)) > 1 for inner in inv.classes]
        uniform_certs = {inner[0] for inner, m in zip(inv.classes, mixed) if not m}
        if sum(not m for m in mixed) < 2 or (
            sum(not m for m in mixed) == 2 and len(uniform_certs) != 1
        ):
            return False
    return cube_certificate(c, "uncolored") in set(reference_certs)