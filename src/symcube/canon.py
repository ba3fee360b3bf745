"""Canonical labeling of point/block incidence structures.

The engine performs individualization-refinement over colorings of the
points alone (the vertex-coloring view of McKay & Piperno, *Practical graph
isomorphism II*, JSC 2014).  Blocks are pairwise distinct and of one size,
so a point coloring determines the block coloring: a block's color is the
multiset of its points' colors.  Each refinement round splits every point
cell by the multiset of its points' block colors.

Both multisets are hashed, not sorted, as Weisfeiler-Lehman graph kernels
do (Shervashidze et al., JMLR 2011).  A block's key is the wrapping uint64
sum of ``_mix(color)`` over its points; a point's key is the wrapping sum of
``_mix(block key)`` over its blocks; the new colors are the dense ranks of
the pairs (old color, point key).  ``_mix`` is splitmix64's finalizer, with
fixed constants and one fixed salt for colors and another for block keys,
so every key is a function of the colors alone and the labeling stays a
function of the isomorphism type.  Without a hash collision a round splits
exactly the cells the multisets split.  A collision can only keep together
two cells that the multisets would separate: that weakens pruning, not
correctness, because leaves are compared by their exact relabeled block
sets and every automorphism is verified.

A node's invariant is its refinement trace (as in Traces: McKay & Piperno,
above): one digest per round of the cell boundaries, in the sorted order of
(old color, point key), and of the point key at each boundary.  It is a pure
function of the node's ordered partition.  The round that would only confirm
a discrete coloring is skipped; a discrete coloring is stable.

Each node branches on its first largest point cell (``_Search._choose_cell``):
cell sizes and the canonical color order depend only on the node's ordered
partition, so the choice is label-invariant.  Branching on the first
smallest cell instead can make the tree of a refinement-stable structure (a
cube over an elementary abelian group, say) exponentially deep: on seed 1 of
perfbench's ``equivalence`` and ``classify16`` workloads it did not finish
one pass within 170 s, against 1-2 s for the largest cell (2-vCPU x86-64
host).  The tree is pruned four ways:

* invariant-path comparison against the best path found so far, unless the
  node tracks the first path,
* aborted refinement: every child is compared round by round with the best
  and first paths' traces at its depth (``_Search._bound``), and refinement
  stops once the trace is sure to lose that comparison; only the root
  refines without a bound,
* sibling orbits: a child is skipped when an explored sibling lies in its
  orbit (``perms.orbit_ids``) under the known automorphisms that fix the
  node's individualized points, recomputed whenever one is found,
* backjumping: a leaf whose certificate equals a reference leaf yields an
  automorphism mapping its individualized points onto the reference's, so
  the search unwinds to the deepest node the two paths share.

The canonical form of a structure is the minimum, over explored leaves, of
the pair (node-invariant sequence, serialized relabeled block set).  Both
components are pure functions of the isomorphism type, so two structures are
isomorphic (respecting initial colors) iff their certificates are equal.
Blocks are handled as bitsets (``perms.Bitsets``): a block over n points is
W = ceil(n / 64) uint64 words, point p being bit p % 64 of word p // 64.  A
leaf's serialized block set is the sorted bitsets of the relabeled blocks,
m * W little-endian 64-bit words; the certificate is a header of four
little-endian uint32 (points, blocks, block size, point degree) followed by
the canonical leaf's words.

Automorphisms are point permutations, kept as the rows of one array.  Those
discovered as equal-certificate leaves generate the full automorphism group;
each one, and each seeded one, is verified exactly: the sorted bitsets of
its block images must equal the structure's sorted block bitsets, which
also reveal repeated blocks.  The exact order
(``CanonResult.aut_order``) comes from a stabilizer chain on the point
action, which is faithful because blocks are pairwise distinct; it is
computed on first read only.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConstructionBugError, InvalidInputError, ResourceLimitError
from .perms import Bitsets, PermGroup, orbit_ids

__all__ = ["CanonResult", "canonicalize", "design_canonical"]


@dataclass
class CanonResult:
    certificate: bytes
    point_labeling: tuple[int, ...]  # point -> canonical point id
    aut_point_gens: list[tuple[int, ...]]
    leaf_count: int = 0
    node_count: int = 0

    @cached_property
    def aut_order(self) -> int:
        """Order of the group the generators generate (Schreier-Sims)."""
        return PermGroup(self.aut_point_gens, len(self.point_labeling)).order()


# splitmix64's finalizer (Steele, Lea & Flood, OOPSLA 2014) after adding a
# salt; the point colors and the block keys are mixed with different salts
_COLOR_SALT = np.uint64(0x9E3779B97F4A7C15)
_BLOCK_SALT = np.uint64(0x3C6EF372FE94F82A)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(x: np.ndarray, salt: np.uint64) -> np.ndarray:
    """A fixed bijection of uint64 arrays that scatters nearby values
    (arithmetic wraps)."""
    z = x + salt
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _as_int64(values, message: str) -> np.ndarray:
    """``values`` as an int64 array; raises InvalidInputError(message)
    unless the cast keeps every value (it would truncate 0.7 to 0)."""
    try:
        given = np.asarray(values)
        with np.errstate(invalid="ignore"):
            arr = given.astype(np.int64, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(message) from None
    if arr is not given and (arr != given).any():
        raise InvalidInputError(message)
    return arr


class _Structure:
    def __init__(
        self,
        n_points: int,
        blocks: np.ndarray | Sequence[Sequence[int]],
        point_colors: np.ndarray | Sequence[int],
    ):
        self.n_points = n_points
        arr = _as_int64(blocks, "blocks must be integer rows of uniform size")
        if n_points == 0 or arr.ndim == 0 or len(arr) == 0:
            raise InvalidInputError("structure needs at least one point and one block")
        if arr.ndim != 2:
            raise InvalidInputError("blocks must be integer rows of uniform size")
        self.m = len(arr)
        self.block_size = arr.shape[1]
        arr = np.sort(arr, axis=1)
        if self.block_size and (arr.min() < 0 or arr.max() >= n_points):
            raise InvalidInputError("block entry out of range")
        if (arr[:, 1:] == arr[:, :-1]).any():
            raise InvalidInputError("a block repeats a point")
        self.B = arr
        # the blocks' points by position, so a sum over each block adds
        # whole rows
        self.block_columns = np.ascontiguousarray(arr.T)
        # the blocks' sorted bitsets, for the whole search: they reveal the
        # repeated blocks here and verify every automorphism later
        self.sets = Bitsets(n_points)
        self.sorted_blocks = self.sets.sort(self.sets.of(self.block_columns))
        if (self.sorted_blocks[1:] == self.sorted_blocks[:-1]).all(axis=1).any():
            raise InvalidInputError("repeated blocks are not supported")
        degs = np.bincount(arr.ravel(), minlength=n_points)
        if (degs != degs[0]).any():
            raise InvalidInputError("points must have uniform degree")
        self.point_degree = int(degs[0])
        order = np.argsort(arr.ravel(), kind="stable")
        self.P = (order // self.block_size).reshape(n_points, self.point_degree)
        pc = _as_int64(point_colors, "point colors must be integers")
        if pc.shape != (n_points,):
            raise InvalidInputError("one initial color per point required")
        _, dense = np.unique(pc, return_inverse=True)
        self.init_colors = dense.astype(np.int32)
        self.init_cells = int(dense.max()) + 1

    def are_automorphisms(self, point_maps: np.ndarray) -> bool:
        """True iff every row of ``point_maps`` (point permutations) maps
        the blocks onto the blocks: each row's sorted block-image bitsets
        equal the sorted block bitsets; one gather for all rows."""
        images = self.sets.of(point_maps[:, self.block_columns].swapaxes(0, 1))
        return bool((self.sets.sort(images) == self.sorted_blocks).all())


class _Search:
    def __init__(self, struct: _Structure, deadline: float | None = None):
        self.s = struct
        self.deadline = deadline
        # the first and the best leaf, each ((invariant path, leaf words), labelling)
        self.first: tuple[tuple, np.ndarray] | None = None
        self.best: tuple[tuple, np.ndarray] | None = None
        # the known automorphisms, one point permutation per row
        self.aut = np.empty((0, struct.n_points), dtype=np.int64)
        self.node_count = 0
        self.leaf_count = 0
        self.unwind_to: int | None = None
        # colors stay below 2 * n_points: _child_state doubles at most
        # n_points - 1
        self.color_hash = _mix(np.arange(2 * struct.n_points, dtype=np.uint64), _COLOR_SALT)

    # -- refinement -----------------------------------------------------------

    def refine(
        self, colors: np.ndarray, n_cells: int, bound: tuple | None = None
    ) -> tuple[np.ndarray, int, tuple[bytes, ...]] | None:
        """Refine the point ``colors`` (with ``n_cells`` cells) to the stable
        coloring: (colors, n_cells, trace), the trace one digest per round.

        With a ``bound`` (best entry, first entry) from ``_bound``, returns
        None as soon as the partial trace shows that the whole trace is
        greater than the best entry and differs from the first entry: the
        search would prune the node on entry.
        """
        s = self.s
        trace: tuple[bytes, ...] = ()
        while True:
            # a block's key hashes the multiset of its points' colors, a
            # point's the multiset of its blocks' keys; ranking by (old color,
            # point key) makes the new order refine the old one
            bkey = self.color_hash[colors][s.block_columns].sum(axis=0)
            pkey = _mix(bkey, _BLOCK_SALT)[s.P].sum(axis=1)
            order = np.lexsort((pkey, colors))
            sorted_colors = colors[order]
            sorted_keys = pkey[order]
            boundary = np.empty(len(order), dtype=bool)
            boundary[0] = True
            boundary[1:] = (sorted_colors[1:] != sorted_colors[:-1]) | (
                sorted_keys[1:] != sorted_keys[:-1]
            )
            colors = np.empty(len(order), dtype=np.int32)
            colors[order] = np.cumsum(boundary) - 1
            new_n_cells = int(colors[order[-1]]) + 1
            # the round's entry: its cell boundaries in the sorted order and
            # the point key at each boundary
            h = hashlib.blake2b(boundary.tobytes(), digest_size=16)
            h.update(sorted_keys[boundary].tobytes())
            trace += (h.digest(),)
            # a discrete coloring is stable: no round confirms it
            stable = new_n_cells == n_cells or new_n_cells == s.n_points
            if bound is not None:
                best, first = bound
                k = len(trace)
                # a trace greater than a prefix of the best entry stays
                # greater, and one unequal to a prefix of the first entry
                # stays unequal, however many rounds follow
                if trace > best[:k] and trace != (first if stable else first[:k]):
                    return None
            if stable:
                return colors, new_n_cells, trace
            n_cells = new_n_cells

    # -- leaves ---------------------------------------------------------------

    def leaf_certificate(self, colors: np.ndarray) -> bytes:
        """The relabeled blocks' sorted bitsets, as little-endian words; the
        leaf's ``colors`` are its point labeling."""
        s = self.s
        return s.sets.sort(s.sets.of(colors[s.block_columns])).astype("<u8", copy=False).tobytes()

    def handle_leaf(self, colors: np.ndarray, path: tuple, fixed: list[int]) -> int | None:
        """Record the leaf; returns a backjump depth if it yielded an
        automorphism that maps the current branch onto an explored sibling.

        The jump target is the deepest prefix of the individualized points
        fixed pointwise by the automorphism g; g then preserves that node's
        refined coloring, so it maps the branch taken there to another point
        of the same target cell.  Only when that image is a smaller point id
        (hence a sibling whose subtree was already fully processed) is the
        rest of the current subtree abandoned; this keeps the minimum over
        explored leaves intact without circular reasoning.
        """
        self.leaf_count += 1
        key = (path, self.leaf_certificate(colors))
        unwind: int | None = None
        for ref in (self.first, self.best):
            if ref is not None and key == ref[0]:
                g = self.record_automorphism(colors, ref[1])
                if g is not None:
                    h = 0
                    while h < len(fixed) and g[fixed[h]] == fixed[h]:
                        h += 1
                    if h < len(fixed):
                        image = min(int(g[fixed[h]]), int(np.argsort(g)[fixed[h]]))
                        if image < fixed[h]:
                            unwind = h
                break
        if self.first is None:
            self.first = (key, colors.copy())
        if self.best is None or key < self.best[0]:
            self.best = (key, colors.copy())
        return unwind

    def record_automorphism(self, lab1: np.ndarray, lab2: np.ndarray) -> np.ndarray | None:
        """Equal certificates mean inv(lab2) . lab1 is an automorphism;
        returns it (even if already known), or None for the identity."""
        g = np.argsort(lab2)[lab1]
        if (g == np.arange(len(g))).all():
            return None
        if (self.aut == g).all(axis=1).any():
            return g
        if not self.s.are_automorphisms(g[None]):
            raise ConstructionBugError("discovered generator is not an automorphism")
        self.aut = np.vstack([self.aut, g])
        return g

    # -- tree -----------------------------------------------------------------

    def _child_state(self, colors: np.ndarray, v: int, n_cells: int, bound: tuple | None):
        child = colors * 2
        child[v] -= 1
        return self.refine(child, n_cells + 1, bound)

    def _bound(self, prefix: tuple) -> tuple | None:
        """The bound for refining a child of the node whose invariant path is
        ``prefix``: (best entry, first entry), the best path's and the first
        path's traces at the child's depth, or None if no trace gets the
        child pruned.  An entry is the empty tuple when the paths part above
        the child: every trace is then greater than the best path's, or
        differs from the first path's, whatever it is."""
        if self.best is None:
            return None
        depth = len(prefix)
        best, first = self.best[0][0], self.first[0][0]  # first is set before best
        best_entry = best[depth] if len(best) > depth and prefix == best[:depth] else ()
        first_entry = first[depth] if len(first) > depth and prefix == first[:depth] else ()
        return best_entry, first_entry

    def _choose_cell(self, colors: np.ndarray, n_cells: int) -> np.ndarray:
        """The points of the branching cell, the first largest one (see the
        module docstring)."""
        sizes = np.bincount(colors, minlength=n_cells)
        return np.flatnonzero(colors == np.argmax(sizes))

    def search(self, state, path: tuple, fixed: list[int]) -> None:
        self.node_count += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimitError("canonical labelling time budget exceeded")
        colors, n_cells, trace = state
        depth = len(path)
        path += (trace,)
        # a node survives if it can still lead to the canonical leaf (invariant
        # prefix not worse than the best path) or if it tracks the first path,
        # whose equal-invariant leaves are where automorphisms are discovered;
        # prefixes are compared in full, as a position-wise comparison would be
        # meaningless on paths that already diverged higher up
        same_as_first = self.first is None or path == self.first[0][0][: depth + 1]
        if self.best is not None:
            ref_prefix = self.best[0][0][: depth + 1]
            if path < ref_prefix:
                # strictly better subtree: stored best cannot be canonical
                self.best = None
            elif path > ref_prefix and not same_as_first:
                return
        if n_cells == self.s.n_points:
            self.unwind_to = self.handle_leaf(colors, path, fixed)
            return
        cell = self._choose_cell(colors, n_cells)
        known = -1
        for v in cell.tolist():
            if known != len(self.aut):
                # orbits of the known automorphisms fixing the individualized
                # points, labelled by their least point
                known = len(self.aut)
                fixing = self.aut[(self.aut[:, fixed] == fixed).all(axis=1)]
                orbits = orbit_ids(fixing, self.s.n_points)
            # skip v when an explored sibling is in its orbit, that is when
            # the orbit's least point is not v: those automorphisms keep the
            # node's coloring, so that point is in the cell and came first,
            # and it was explored or skipped for an explored sibling
            if orbits[v] != v:
                continue
            child_state = self._child_state(colors, v, n_cells, self._bound(path))
            if child_state is None:
                self.node_count += 1  # aborted: a node pruned on entry
            else:
                self.search(child_state, path, fixed + [v])
            if self.unwind_to is not None:
                if self.unwind_to < depth:
                    return  # propagate the backjump
                self.unwind_to = None  # this node is the backjump target

    # -- public ---------------------------------------------------------------

    def seed_automorphisms(self, point_gens) -> None:
        """Install known automorphisms, given as point permutations that
        preserve the initial point colors; one check for all of them
        verifies that each maps the blocks onto the blocks."""
        s = self.s
        points = np.arange(s.n_points)
        maps = _as_int64(point_gens, "seed must permute the points")
        if maps.ndim != 2 or maps.shape[1] != s.n_points or (np.sort(maps, axis=1) != points).any():
            raise InvalidInputError("seed must permute the points")
        if not (s.init_colors[maps] == s.init_colors).all():
            raise ConstructionBugError("seed permutation does not preserve the point colors")
        if not s.are_automorphisms(maps):
            raise ConstructionBugError("seed permutation is not an automorphism")
        self.aut = maps[(maps != points).any(axis=1)]

    def run(self) -> CanonResult:
        self.search(self.refine(self.s.init_colors.copy(), self.s.init_cells), (), [])
        assert self.best is not None
        (_, words), labeling = self.best
        head = struct.pack(
            "<4I", self.s.n_points, self.s.m, self.s.block_size, self.s.point_degree
        )
        return CanonResult(
            certificate=head + words,
            point_labeling=tuple(int(x) for x in labeling),
            aut_point_gens=[tuple(g) for g in self.aut.tolist()],
            leaf_count=self.leaf_count,
            node_count=self.node_count,
        )


def canonicalize(
    n_points: int,
    blocks: np.ndarray | Sequence[Sequence[int]],
    point_colors: np.ndarray | Sequence[int] | None = None,
    time_budget: float | None = None,
    known_automorphisms: Sequence[Sequence[int]] = (),
) -> CanonResult:
    """Canonical form of a point/block incidence structure.

    ``blocks`` is an m x block-size integer array of point ids, or a
    sequence of equal-length rows; ragged, repeated or out-of-range blocks
    raise ``InvalidInputError``.  ``point_colors`` fixes an initial coloring
    that any isomorphism must preserve; omit it to allow arbitrary point
    permutations.
    ``known_automorphisms`` (point permutations) seed the orbit pruning; each
    is verified against the structure.  A labelling either completes or, once
    its ``time_budget`` (seconds) has passed, raises ``ResourceLimitError``.
    """
    if point_colors is None:
        point_colors = np.zeros(n_points, dtype=np.int64)
    struct_ = _Structure(n_points, blocks, point_colors)
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    search = _Search(struct_, deadline)
    if len(known_automorphisms):
        search.seed_automorphisms(known_automorphisms)
    return search.run()


def design_canonical(bits: np.ndarray) -> CanonResult:
    """Canonicalize a v x v incidence matrix (rows as points, columns as blocks)."""
    v = bits.shape[0]
    sizes = bits.sum(axis=0)
    if (sizes != sizes[:1]).any():
        raise InvalidInputError("blocks must be integer rows of uniform size")
    # the points of each column, column by column
    blocks = np.nonzero(bits.T)[1].reshape(v, int(sizes[0]) if v else 0)
    return canonicalize(v, blocks)
