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
is found exactly once.
"""

from __future__ import annotations

import itertools
import time
import warnings
from dataclasses import dataclass, field
from typing import Collection, Iterable, Sequence

import numpy as np

from .catalog import reference_catalog
from .cubes import Cube, difference_cube, group_cube, slice_invariant
from .designs import DesignParams, design_class, development
from .equivalence import (
    _certificate,
    _difference_cube_autotopies,
    _translation_autotopies,
    cube_certificate,
    from_transversal,
    paratopy_to_point_perm,
    TransversalRep,
    validate_transversal,
)
from .errors import ConstructionBugError, InvalidInputError, NotACubeError, ResourceLimitError
from .groups import (
    DifferenceSet,
    FiniteGroup,
    automorphism_generators,
    difference_sets_up_to_equivalence,
    enumerate_difference_sets,
)
from .perms import PermGroup, Perm, induced_permutations, orbit_minima

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


def find_ds_block_designs(
    g: FiniteGroup,
    params: DesignParams,
    candidates: Sequence[DifferenceSet] | None = None,
    time_budget: float | None = None,
    collect=None,
) -> list[Design]:
    """All (v,k,lambda) designs over g whose blocks are difference sets,
    as unordered block multisets (each found exactly once), sorted.

    With ``collect``, each solution is passed to it as a sorted tuple of
    candidate indices instead of being accumulated (for streaming callers).
    """
    v, k, lam = params.v, params.k, params.lam
    if candidates is None:
        candidates = enumerate_difference_sets(g, k, lam)
    blocks = [tuple(d.elements) for d in candidates]
    elem_mask = [sum(1 << x for x in b) for b in blocks]
    adj = [
        sum(1 << j for j, mj in enumerate(elem_mask) if j != i and (mi & mj).bit_count() == lam)
        for i, mi in enumerate(elem_mask)
    ]
    through = [sum(1 << i for i, b in enumerate(blocks) if x in b) for x in range(v)]
    found: list[tuple[int, ...]] = []
    emit = collect if collect is not None else found.append
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    nodes = itertools.count(1)
    # need[x]: how many more chosen blocks must contain point x
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
            sub, rest = allowed & adj[i], need.copy()
            for x in blocks[i]:
                rest[x] -= 1
                if not rest[x]:
                    sub &= ~through[x]
            rec(sub, rest, chosen + (i,))
            allowed ^= 1 << i

    rec((1 << len(blocks)) - 1, [k] * v, ())
    return sorted(tuple(sorted(blocks[i] for i in sol)) for sol in found)


# -- orbit dedup of found designs ------------------------------------------------


def _design_moves(g: FiniteGroup, candidates: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Permutations of the candidate-block index set induced by Aut(G)
    generators and left/right translations by group generators.

    Designs in one orbit of these moves yield paratopic cubes, so orbit
    representatives suffice for classification by certificate.
    """
    maps = automorphism_generators(g)
    for a in g.generating_sequence():
        maps.append(g.table[a])  # left translation
        maps.append([g.table[x][a] for x in range(g.order)])  # right translation
    moves = induced_permutations(candidates, maps)
    if moves is None:
        raise ConstructionBugError("candidate set is not closed under the action")
    return moves


# -- seeded certificates -----------------------------------------------------------


def _group_cube_seeds(g: FiniteGroup, n: int) -> list[tuple[int, ...]]:
    """Point permutations of the transversal representation fixing any
    group cube over g: the embedded copies of G on axes 2..n."""
    return [paratopy_to_point_perm(w, n, g.order) for w in _translation_autotopies(g, n, start=1)]


def build_seeded_cube_certificate(
    c: Cube, seeds: Sequence[tuple[int, ...]] = (), time_budget: float | None = None
) -> bytes:
    """Uncolored cube certificate, seeding the canonicalizer with known
    automorphisms (given as transversal point permutations); raises
    ResourceLimitError if the labelling exceeds ``time_budget``."""
    return _certificate(c, "uncolored", seeds, time_budget)


def _difference_cube_certificate(
    g: FiniteGroup, rep: DifferenceSet, n: int, time_budget: float | None = None
) -> bytes:
    """Certificate of the difference n-cube of rep, seeded with its
    theoretical autotopies (which the canonicalizer verifies as seeds)."""
    seeds = [paratopy_to_point_perm(w, n, g.order) for w in _difference_cube_autotopies(g, rep, n)]
    return build_seeded_cube_certificate(difference_cube(g, rep, n), seeds, time_budget)


def difference_cube_reference(
    groups: Sequence[FiniteGroup], params: DesignParams, n: int = 3
) -> dict[bytes, tuple[str, tuple[int, ...]]]:
    """Certificates of the difference n-cubes from every difference-set
    class of the given groups: cert -> (group name, class representative)."""
    out: dict[bytes, tuple[str, tuple[int, ...]]] = {}
    for g in groups:
        for rep in difference_sets_up_to_equivalence(g, params.k, params.lam):
            cert = _difference_cube_certificate(g, rep, n)
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
    difference cubes and the rest.

    ``reference`` holds difference-cube certificates (only membership is
    tested, so a set or the dict of ``difference_cube_reference`` will do)
    and should cover all groups of the relevant order (certificates of cubes
    equivalent to a difference cube over *any* group count as difference
    cubes); when omitted, this group's own difference cubes are used.

    ``time_budget`` (seconds) bounds the design search and the cube
    labellings together; ResourceLimitError is raised when it runs out.
    """
    deadline = time.monotonic() + time_budget if time_budget is not None else None

    def remaining() -> float | None:
        return deadline - time.monotonic() if deadline is not None else None

    catalog = reference_catalog()
    all_sets = enumerate_difference_sets(g, params.k, params.lam)
    tds = len(all_sets)
    classes = difference_sets_up_to_equivalence(g, params.k, params.lam, all_sets)
    nds = len(classes)
    own_dc_certs = {_difference_cube_certificate(g, rep, 3, remaining()) for rep in classes}
    if reference is None:
        reference = own_dc_certs
    dev_names = set()
    for rep in classes:
        name = design_class(development(rep), catalog).name
        dev_names.add(name if name is not None else "?")
    ndc = len(own_dc_certs)
    index_solutions: list[tuple[int, ...]] = []
    find_ds_block_designs(
        g, params, all_sets, time_budget=remaining(), collect=index_solutions.append
    )
    candidates = [tuple(d.elements) for d in all_sets]
    reps: list[tuple[int, ...]] = []
    if index_solutions:
        # one representative per orbit of designs: the least member of each
        sols = sorted(index_solutions)
        minima = orbit_minima(sols, _design_moves(g, candidates))
        if minima is None:
            raise ConstructionBugError("design orbit left the solution set")
        reps = [sols[i] for i in minima]
    seeds = _group_cube_seeds(g, 3)
    diff_certs: set[bytes] = set()
    nondiff_certs: set[bytes] = set()
    for rep in reps:
        cube = group_cube(g, [candidates[i] for i in rep], 3)
        cert = build_seeded_cube_certificate(cube, seeds, remaining())
        if cert in reference:
            diff_certs.add(cert)
        else:
            nondiff_certs.add(cert)
    if index_solutions and not own_dc_certs <= diff_certs:
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
        design_count=len(index_solutions),
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


def orbit_cube(inp: OrbitCubeInput, params: DesignParams | None = None) -> OrbitCubeResult:
    """Close the base blocks under the generated group, validate the union
    as a transversal representation, and convert it to a cube."""
    v = inp.v
    blocks: set[tuple[int, ...]] = set()
    orbit_sizes = []
    for base in inp.base_blocks:
        orbit = {tuple(sorted(base))}
        queue = [tuple(sorted(base))]
        while queue:
            cur = queue.pop()
            for p in inp.generators:
                img = tuple(sorted(p[x] for x in cur))
                if img not in orbit:
                    orbit.add(img)
                    queue.append(img)
        orbit_sizes.append(len(orbit))
        blocks |= orbit
    if params is None:
        k_num = len(blocks)
        if k_num % (v * v) != 0:
            raise NotACubeError(
                f"total block count {k_num} is not a multiple of v^2", "block-count"
            )
        k = k_num // (v * v)
        lam = k * (k - 1) // (v - 1)
        params = DesignParams(v, k, lam)
    rep = TransversalRep(n=3, v=v, k=params.k, blocks=tuple(sorted(blocks)))
    validate_transversal(rep)
    cube = from_transversal(rep, params)
    order = PermGroup(inp.generators, 3 * v).order()
    return OrbitCubeResult(
        cube=cube, group_order=order, block_count=len(blocks), orbit_sizes=tuple(orbit_sizes)
    )


def is_group_cube(
    c: Cube,
    reference_certs: Iterable[bytes],
    reference_complete: bool = True,
) -> bool:
    """Whether c is equivalent to a group cube, via the reference list of
    group-cube certificates.

    A shortcut handles the decidedly-negative case first: a 3-cube from the
    group construction has all slices isomorphic to one design in the two
    directions that vary the block axis, so a cube with mixed design classes
    in all three directions is not equivalent to any group cube.
    """
    if c.n == 3:
        inv = slice_invariant(c)
        mixed = [len(set(inner)) > 1 for inner in inv.classes]
        uniform_certs = {inner[0] for inner, m in zip(inv.classes, mixed) if not m}
        if sum(not m for m in mixed) < 2 or (
            sum(not m for m in mixed) == 2 and len(uniform_certs) != 1
        ):
            return False
    cert = cube_certificate(c, "uncolored").bytes_
    member = cert in set(reference_certs)
    if not member and not reference_complete:
        warnings.warn(
            "cube certificate not found, but the reference list is not "
            "certified complete; the negative answer may be unsound",
            stacklevel=2,
        )
    return member