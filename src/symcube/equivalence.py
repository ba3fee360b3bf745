"""Equivalence of cubes via their transversal-design representation.

A cube C corresponds to the incidence structure on n*v points (class t holds
the values of axis t, offset by t*v) whose blocks are the class-offset
supports of the 1-cells.  Structure isomorphisms with all point classes
colored alike decide paratopy; coloring each class separately decides
isotopy.  Automorphism groups of the structure translate back to autotopy
and autoparatopy groups of the cube.

Every cube, 2-cubes (symmetric designs) included, goes through one path:
``_canonicalize`` labels its structure (optionally seeded with known
automorphisms), and ``_certificate`` prefixes the canonical form with the
header (n, v, k, lambda, colored flag).  A certificate is those bytes:
``cube_certificate``, ``canonical_certificate`` and the seeded
``search.build_seeded_cube_certificate`` return them, and equivalence tests
compare them.  The witness and automorphism reports read the labelling and
generators of the same result.  For n = 2 the uncolored certificate decides
isomorphism up to duality, as ``designs.design_class`` does for the design.
Symmetries travel as transversal point permutations (rows of point images);
only ``_witness_from_point_map`` decodes one into the ``ParatopyElement``
that the witness, the reports and ``theoretical_autotopies`` return, each
verified on the cube.

For a 3-cube the labelling starts from a vertex invariant, not from one
cell (or one per axis), as nauty does on regular graphs, where refinement
alone splits nothing (McKay & Piperno, *Practical graph isomorphism II*,
JSC 2014).  The group cubes are refinement-stable, so without it canon's
tree did all the work of telling them apart, and its size followed the
input labels.  The key of point (d, i) comes from the slices S_j of
direction d: for each j != i, the entry histograms of S_i S_j^T and
S_i^T S_j, as a sorted pair; the key is the multiset of those pairs.  A
paratopy permutes slices, permutes the rows or columns of all slices of a
direction together, and permutes the directions, possibly transposing the
slices; the histograms ignore the first two, and the sorted pair absorbs the
transpose, so the key is a paratopy invariant.  The initial colors are the
dense ranks of the keys, of (axis, key) in colored mode
(``_point_colors``); other dimensions keep one cell, or one per axis.  The
certificate is still the relabelled block list, which determines the cube,
so equal certificates still mean equivalent cubes.

Each ``Cube`` caches its unseeded labelling per mode (``Cube._labellings``),
so ``are_isotopic(c, x)``, ``autotopy_report(c)`` and
``cube_certificate(c, "colored")`` label ``c`` once between them.  Seeded
labellings neither read nor fill that cache.  The slice-pair keys are
cached on the cube too (``Cube._pair_keys``): its uncolored, colored and
seeded labellings all start from them.  A seeded labelling of a cube
without keys computes them only on the orbits of its seeds, and caches
them once canon has verified the seeds.  A labelling either completes
or raises ``ResourceLimitError`` once its ``time_budget`` has passed, so the
cache only ever holds complete ones.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .canon import CanonResult, canonicalize
from .cubes import Cube, ParatopyElement, apply_paratopy, difference_cube, verify_cube
from .designs import DesignParams
from .errors import ConstructionBugError, InvalidInputError, NotACubeError
from .groups import DifferenceSet, FiniteGroup, automorphism_generators, multipliers as _multipliers
from .perms import inverse as perm_inverse, orbit_ids, void_rows

__all__ = [
    "TransversalRep",
    "AutomorphismReport",
    "to_transversal",
    "from_transversal",
    "cube_certificate",
    "canonical_certificate",
    "are_paratopic",
    "are_isotopic",
    "paratopy_witness",
    "autotopy_report",
    "autoparatopy_report",
    "theoretical_autotopies",
    "validate_transversal",
]


@dataclass(frozen=True)
class TransversalRep:
    """Transversal-design encoding of a cube: one block per 1-cell."""

    n: int
    v: int
    k: int
    blocks: tuple[tuple[int, ...], ...]  # class-offset point ids, 0-based

    @property
    def n_points(self) -> int:
        return self.n * self.v


@dataclass(frozen=True)
class AutomorphismReport:
    generators: tuple[ParatopyElement, ...]
    order: int


def _transversal_blocks(c: Cube) -> np.ndarray:
    """The blocks of the transversal design of c, one row per 1-cell."""
    return np.argwhere(c.bits) + np.arange(c.n, dtype=np.int64) * c.v


def to_transversal(c: Cube) -> TransversalRep:
    return TransversalRep(
        n=c.n, v=c.v, k=c.params.k, blocks=tuple(map(tuple, _transversal_blocks(c).tolist()))
    )


def _cube(bits: np.ndarray, k: int) -> Cube:
    """The cube of ``bits`` with the parameters (v, k, k(k-1)/(v-1)), or
    NotACubeError when k(k-1)/(v-1) is not an integer: then no design of
    order v has blocks of size k."""
    v = bits.shape[0]
    if v > 1 and k * (k - 1) % (v - 1):
        raise NotACubeError(
            f"lambda = k(k-1)/(v-1) = {k * (k - 1)}/{v - 1} is not an integer", "lambda-condition"
        )
    return Cube(bits, DesignParams(v, k, k * (k - 1) // (v - 1) if v > 1 else k))


def _verified(c: Cube) -> Cube:
    """c, or NotACubeError unless ``verify_cube`` holds: every slice is a
    design with c's parameters, so every line along every axis has k ones."""
    if not verify_cube(c):
        raise NotACubeError("a slice violates the design equation", "lambda-condition")
    return c


def from_transversal(t: TransversalRep) -> Cube:
    """The cube t encodes, with k from t and lambda = k(k-1)/(v-1).  Each
    block, sorted, must take its i-th point from class i (else NotACubeError),
    and its points modulo v are then its cell."""
    v, n = t.v, t.n
    try:
        blocks = np.sort(np.array(t.blocks, dtype=np.int64).reshape(len(t.blocks), n), axis=1)
    except ValueError:
        raise NotACubeError(f"a block does not have {n} points", "transversal") from None
    if not (blocks // v == np.arange(n)).all():
        raise NotACubeError("a block is not a transversal of the classes", "transversal")
    bits = np.zeros((v,) * n, dtype=np.uint8)
    bits[tuple((blocks % v).T)] = 1
    return _cube(bits, t.k)


def validate_transversal(t: TransversalRep) -> Cube:
    """The cube t encodes, or NotACubeError naming the first violated
    constraint: k v^(n-1) blocks, each a transversal, none repeated (fewer
    1-cells than blocks), and every slice a design (``_verified``)."""
    v, n, k = t.v, t.n, t.k
    if len(t.blocks) != k * v ** (n - 1):
        raise NotACubeError(
            f"block count {len(t.blocks)} differs from k*v^(n-1) = {k * v ** (n - 1)}",
            "block-count",
        )
    cube = from_transversal(t)
    if int(cube.bits.sum()) != len(t.blocks):
        raise NotACubeError("repeated block", "block-count")
    return _verified(cube)


# product entries per batch of ``_slice_pair_keys``: bounds its temporaries
# for large v
_KEY_BATCH = 1 << 16


def _dense_ranks(rows: np.ndarray) -> np.ndarray:
    """Rank of each row of non-negative ints among the distinct rows, in
    lexicographic order."""
    return np.unique(void_rows(rows), return_inverse=True)[1].ravel()


def _slice_pair_keys(bits: np.ndarray, orbits: np.ndarray | None = None) -> np.ndarray:
    """The slice-pair key of every transversal point (d, i) of a 3-cube,
    one row per point in point order (point d*v + i).

    Let S_i be the slices of direction d.  For i != j, take the entry
    histograms of S_i S_j^T and S_i^T S_j, each contracted over one of the
    two other axes t, and sort the two histograms; the key of (d, i) is the
    sorted row of those pairs over j != i, each pair given by its rank among
    the cube's pairs in lexicographic order, so the keys compare as the
    multisets of pairs do.  Entry (x, z) of the product contracted over t counts
    the y with both cells 1, the popcount of the AND of the two rows packed
    over t, so packing the cube over t once serves both directions left.
    The pair (j, i) has the pair (i, j) of histograms, since it transposes
    both products, so each slice pair is computed once.

    ``orbits`` labels each point by the least point of its orbit under
    autoparatopies of the cube (``perms.orbit_ids`` of verified seeds).
    Only the slice pairs that hold an orbit's least point are computed, and
    each orbit takes the key of its least point.  These are the full keys:
    an autoparatopy maps every slice pair onto one with the same pair of
    histograms, so every pair of the cube has an equal pair among those
    computed (the ranks stay the same), and it maps each point onto one with
    the same key.  Without ``orbits`` every point is its own orbit.
    """
    v = bits.shape[0]
    points = np.arange(3 * v)
    reps = points if orbits is None else np.flatnonzero(orbits == points)
    # a row packs into n_words words of the least width that holds it
    n_bytes = -(-v // 8)
    width = 8 if n_bytes > 8 else 1 << (n_bytes - 1).bit_length()
    n_words = -(-n_bytes // width)
    # rows[w, d, s, i, x]: word w of row x of slice i of direction d,
    # packed over the axis t = (d + 1 + s) % 3
    rows = np.empty((n_words, 3, 2, v, v), dtype=f"<u{width}")
    for t in range(3):
        padded = np.zeros((v, v, 8 * width * n_words), dtype=np.uint8)
        padded[..., :v] = np.moveaxis(bits, t, -1)
        words = np.packbits(padded, axis=-1, bitorder="little").view(f"<u{width}")
        a, b = (x for x in range(3) if x != t)
        rows[:, a, (t - a) % 3 - 1] = words.transpose(2, 0, 1)
        rows[:, b, (t - b) % 3 - 1] = words.transpose(2, 1, 0)
    rows = rows.reshape(n_words, 6, v, v)
    # the slice pairs {i, j}, i < j, of direction d that hold a least point
    is_rep = np.zeros(3 * v, dtype=bool)
    is_rep[reps] = True
    is_rep = is_rep.reshape(3, v)
    first, second = np.triu_indices(v, 1)
    direction, pair = np.nonzero(is_rep[:, first] | is_rep[:, second])
    first, second = first[pair], second[pair]
    # sides[p]: the two packed directions of pair p
    sides = 2 * direction[:, None] + np.arange(2)
    hist = np.empty((len(pair), 2, v + 1), dtype=np.intp)
    span = max(1, _KEY_BATCH // (2 * v * v))
    for start in range(0, len(pair), span):
        batch = slice(start, start + span)
        s, i, j = sides[batch], first[batch, None], second[batch, None]
        prod = np.bitwise_count(rows[:, s, i, :, None] & rows[:, s, j, None, :])
        entries = prod.sum(axis=0, dtype=np.uint32)
        # one bincount for the batch: each histogram gets its own v + 1 bins
        n_hist = 2 * len(s)
        entries += (np.arange(n_hist, dtype=np.uint32) * (v + 1)).reshape(-1, 2, 1, 1)
        counts = np.bincount(entries.ravel(), minlength=n_hist * (v + 1))
        hist[batch] = counts.reshape(-1, 2, v + 1)
    ranks = np.sort(_dense_ranks(hist.reshape(-1, v + 1)).reshape(-1, 2), axis=1)
    pairs = _dense_ranks(ranks)
    full = np.empty((3, v, v), dtype=np.int64)  # read only in the least points' rows
    full[direction, first, second] = pairs
    full[direction, second, first] = pairs
    off_diagonal = ~np.eye(v, dtype=bool)
    keys = np.sort(full.reshape(3 * v, v)[reps][off_diagonal[reps % v]].reshape(-1, v - 1), axis=1)
    return keys if orbits is None else keys[np.searchsorted(reps, orbits)]


def _point_colors(c: Cube, mode: str, keys: np.ndarray | None = None) -> np.ndarray:
    """Initial point colors: for a 3-cube the dense ranks of the slice-pair
    keys, prefixed by the axis in colored mode; otherwise (n != 3, or no
    pair of slices) one color, or one per axis in colored mode.  The keys
    are ``keys`` if given, else c's own, computed once and cached
    (``Cube._pair_keys``).  Keys computed on the orbits of autoparatopy
    seeds are the full keys, since an autoparatopy maps each point onto one
    with the same key; so they color the points as c's own keys do."""
    if mode == "colored":
        axes = np.repeat(np.arange(c.n), c.v)
    elif mode == "uncolored":
        axes = np.zeros(c.n * c.v, dtype=np.int64)
    else:
        raise InvalidInputError(f"unknown mode {mode!r}")
    if c.n != 3 or c.v < 2:
        return axes
    if keys is None:
        if c._pair_keys is None:
            c._pair_keys = _slice_pair_keys(c.bits)
        keys = c._pair_keys
    return _dense_ranks(np.column_stack([axes, keys]))


def _seed_orbits(seeds: Sequence[Sequence[int]], n_points: int) -> np.ndarray | None:
    """``perms.orbit_ids`` of the seeds, or None unless they are
    permutations of range(n_points) (canon then rejects them)."""
    maps = np.asarray(seeds, dtype=np.int64)
    if maps.ndim != 2 or maps.shape[1] != n_points:
        return None
    if (np.sort(maps, axis=1) != np.arange(n_points)).any():
        return None
    return orbit_ids(maps, n_points)


def _canonicalize(
    c: Cube, mode: str, seeds: Sequence[Sequence[int]] = (), time_budget: float | None = None
) -> CanonResult:
    """Canonical labelling of the transversal design of c under the point
    colors of ``mode``, seeded with known automorphisms (transversal point
    permutations that preserve those colors).

    For a 3-cube the initial colors are the slice-pair keys
    (``_slice_pair_keys``), which are paratopy invariants: a value
    permutation of axis d permutes the slices of direction d, and one of
    another axis permutes the rows or columns of every such slice together,
    which keeps every histogram; an axis permutation carries direction d to
    another and may transpose the slices, which swaps S_i S_j^T and
    S_i^T S_j, and the sorted pair of histograms absorbs that swap.  So a
    paratopy maps each point to one with the same key, and an isotopy keeps
    the axis too.  Seeded autotopies preserve the colors, and canon
    checks that they do.  The certificate is still the relabelled block
    list, so equal certificates still mean equivalent cubes; the colors only
    shrink the search tree and make its size depend less on the input
    labels.  Cubes with n != 3 keep the plain colors (one cell, or one per
    axis).

    When c has no keys yet, a seeded labelling computes them on the orbits
    of its seeds, and keeps them on c only once canon has verified the
    seeds: keys read off the orbits of a non-automorphism would be wrong.

    An unseeded labelling is kept on the cube (``Cube._labellings``) and
    returned by every later unseeded call in the same mode, whatever its
    ``time_budget``.  Seeded calls neither read nor fill it.
    """
    seeded = len(seeds) > 0
    if not seeded and mode in c._labellings:
        return c._labellings[mode]
    keys = None
    if seeded and c._pair_keys is None and c.n == 3 and c.v >= 2:
        keys = _slice_pair_keys(c.bits, _seed_orbits(seeds, 3 * c.v))
    res = canonicalize(
        c.n * c.v,
        _transversal_blocks(c),
        _point_colors(c, mode, keys),
        time_budget=time_budget,
        known_automorphisms=seeds,
    )
    if keys is not None:
        c._pair_keys = keys  # canon has verified the seeds they were read from
    if not seeded:
        c._labellings[mode] = res
    return res


def _certificate(
    c: Cube, mode: str, seeds: Sequence[Sequence[int]] = (), time_budget: float | None = None
) -> bytes:
    """Header (n, v, k, lambda, colored flag) plus the canonical form;
    raises ResourceLimitError if the labelling exceeds ``time_budget``."""
    head = struct.pack(
        "<5I", c.n, c.v, c.params.k, c.params.lam, 0 if mode == "uncolored" else 1
    )
    return head + _canonicalize(c, mode, seeds, time_budget).certificate


def cube_certificate(c: Cube, mode: str = "uncolored") -> bytes:
    """Certificate of c; equal for two cubes iff they are paratopic
    ("uncolored") or isotopic ("colored")."""
    return _certificate(c, mode)


def canonical_certificate(t: TransversalRep, mode: str = "uncolored") -> bytes:
    """Certificate of the cube a transversal representation encodes; raises
    NotACubeError (via ``validate_transversal``) if t is not a transversal
    design."""
    return _certificate(validate_transversal(t), mode)


def _check_shapes(c1: Cube, c2: Cube) -> None:
    if c1.n != c2.n or c1.v != c2.v or c1.params != c2.params:
        raise InvalidInputError("cubes differ in dimension, order, or parameters")


def are_paratopic(c1: Cube, c2: Cube) -> bool:
    _check_shapes(c1, c2)
    return cube_certificate(c1, "uncolored") == cube_certificate(c2, "uncolored")


def are_isotopic(c1: Cube, c2: Cube) -> bool:
    _check_shapes(c1, c2)
    return cube_certificate(c1, "colored") == cube_certificate(c2, "colored")


def _witness_from_point_map(n: int, v: int, point_map: np.ndarray) -> ParatopyElement:
    """Translate a class-respecting point bijection into a paratopy."""
    classes, values = np.divmod(np.asarray(point_map).reshape(n, v), v)
    if (classes != classes[:, :1]).any():
        raise ConstructionBugError("point map does not respect classes")
    gamma = perm_inverse(classes[:, 0].tolist())
    perms = tuple(map(tuple, values[list(gamma)].tolist()))
    return ParatopyElement(perms, gamma)


def paratopy_witness(c1: Cube, c2: Cube, mode: str = "uncolored") -> ParatopyElement | None:
    """An explicit paratopy mapping c1 onto c2, or None if inequivalent.

    The witness is recovered from the two canonical labelings and verified
    by applying it before returning.
    """
    _check_shapes(c1, c2)
    res1 = _canonicalize(c1, mode)
    res2 = _canonicalize(c2, mode)
    if res1.certificate != res2.certificate:
        return None
    lab1, lab2 = np.asarray(res1.point_labeling), np.asarray(res2.point_labeling)
    point_map = np.argsort(lab2)[lab1]  # c1 point -> c2 point
    w = _witness_from_point_map(c1.n, c1.v, point_map)
    if apply_paratopy(c1, w) != c2:
        raise ConstructionBugError("recovered witness does not map c1 to c2")
    return w


def _fixing_paratopies(c: Cube, point_maps, what: str) -> list[ParatopyElement]:
    """The paratopies of c's transversal point permutations ``point_maps``,
    each verified to fix c (else ConstructionBugError naming ``what``)."""
    out = []
    for point_map in point_maps:
        w = _witness_from_point_map(c.n, c.v, np.asarray(point_map))
        if apply_paratopy(c, w) != c:
            raise ConstructionBugError(f"{what} does not fix the cube")
        out.append(w)
    return out


def _report(c: Cube, mode: str) -> AutomorphismReport:
    res = _canonicalize(c, mode)
    gens = _fixing_paratopies(c, res.aut_point_gens, "automorphism generator")
    return AutomorphismReport(tuple(gens), res.aut_order)


def autotopy_report(c: Cube) -> AutomorphismReport:
    """Generators and exact order of the autotopy group Atop(C).  The
    report reads c's cached colored labelling when an earlier unseeded call
    (an isotopy test, a certificate, a report) made one."""
    return _report(c, "colored")


def autoparatopy_report(c: Cube) -> AutomorphismReport:
    """Generators and exact order of the autoparatopy group Apar(C)."""
    return _report(c, "uncolored")


# -- the theoretical autotopy subgroup of difference cubes ---------------------


def _isotopy_rows(alphas: np.ndarray) -> np.ndarray:
    """Transversal point permutations, row m mapping (t, x) to (t, alphas[m, t, x])."""
    m, n, v = alphas.shape
    return (alphas + v * np.arange(n)[:, None]).reshape(m, n * v)


def _translation_autotopies(g: FiniteGroup, n: int, start: int) -> np.ndarray:
    """The embedded copies of G on adjacent axes, as transversal point
    permutations: for each generator a and each axis pos >= start,
    x -> x a^{-1} on axis pos and x -> a x on axis pos + 1.  They fix every
    product g_{i_pos} g_{i_(pos+1)}, so with start=0 they fix a difference
    cube and with start=1 any group cube."""
    gens = np.asarray(g.generating_sequence(), dtype=np.int64)
    pos = np.arange(start, n - 1)
    alphas = np.tile(np.arange(g.order), (len(gens), len(pos), n, 1))
    alphas[:, pos - start, pos] = g.table[:, g.inverses[gens]].T[:, None]  # i -> g_i a^{-1}
    alphas[:, pos - start, pos + 1] = g.table[gens][:, None]  # i -> a g_i
    return _isotopy_rows(alphas.reshape(-1, n, g.order))


def _difference_cube_autotopies(g: FiniteGroup, d: DifferenceSet, n: int) -> np.ndarray:
    """Generators of G^(n-1) x| Mult(D), unverified, as point-permutation rows."""
    # phi -> w(phi) below respects products (phi psi maps D onto phi(b) a D
    # when phi(D) = aD and psi(D) = bD), so generators of Mult(D) suffice
    translate = {m.images: m.translate for m in _multipliers(d)}
    phis = automorphism_generators(g, list(translate))
    phi = np.asarray(phis, dtype=np.int64).reshape(-1, 1, g.order)
    ia = g.inverses[[translate[p] for p in phis]]
    alphas = np.repeat(phi, n, axis=1)
    alphas[:, 0] = g.table[ia[:, None], phi[:, 0]]  # i -> a^{-1} phi(g_i)
    return np.concatenate([_translation_autotopies(g, n, start=0), _isotopy_rows(alphas)])


def theoretical_autotopies(g: FiniteGroup, d: DifferenceSet, n: int) -> list[ParatopyElement]:
    """Generators of the autotopy subgroup G^(n-1) x| Mult(D) of the
    difference cube, decoded from ``_difference_cube_autotopies`` and each
    verified here to fix the cube; ``search`` seeds canon with those rows."""
    rows = _difference_cube_autotopies(g, d, n)
    return _fixing_paratopies(difference_cube(g, d, n), rows, "theoretical autotopy")
