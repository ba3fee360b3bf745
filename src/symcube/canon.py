"""Canonical labeling of point/block incidence structures.

The engine performs individualization-refinement over vertex colorings of the
bipartite point-block incidence graph.  Cells are refined by the multiset of
neighbor colors.  At each node a lookahead individualizes members of the few
smallest non-singleton cells and branches on the cell whose best member
splits the coloring the most (``_Search._choose_cell``).  The tree is pruned
three ways:

* partial-invariant comparison against the best path found so far,
* orbits of the known automorphisms that fix the node's individualized
  vertices, among the children of a node (the lookahead scores one member
  per orbit, too),
* backjumping: a leaf whose certificate equals a reference leaf yields an
  automorphism mapping its individualized vertices onto the reference's, so
  the search unwinds to the deepest node the two paths share.

The canonical form of a structure is the minimum, over explored leaves, of
the pair (node-invariant sequence, serialized relabeled block list).  Both
components are pure functions of the isomorphism type, so two structures are
isomorphic (respecting initial colors) iff their certificates are equal.

Automorphisms discovered as equal-certificate leaves generate the full
automorphism group; the exact order comes from a stabilizer chain on the
point action, which is faithful because blocks are pairwise distinct.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConstructionBugError, InvalidInputError, ResourceLimitError
from .perms import PermGroup

__all__ = ["CanonResult", "canonicalize", "design_canonical"]


@dataclass
class CanonResult:
    certificate: bytes
    point_labeling: tuple[int, ...]  # point -> canonical point id
    aut_point_gens: list[tuple[int, ...]]
    aut_order: int
    complete: bool = True
    leaf_count: int = 0
    node_count: int = 0


class _Deadline(Exception):
    pass


def _void_rows(arr: np.ndarray) -> np.ndarray:
    """View rows as fixed-size byte strings that compare lexicographically."""
    be = np.ascontiguousarray(arr.astype(">i4"))
    if be.shape[1] == 0:
        return np.zeros(be.shape[0], dtype="V1")
    return be.view(f"V{be.shape[1] * 4}").ravel()


def _orbit_ids(gens: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Orbits of the group generated by ``gens`` (permutations of range(n)):
    each point is labelled by the least point of its orbit."""
    ids = np.arange(n)
    if not gens:
        return ids
    stacked = np.stack(gens)
    while True:
        # pull the least label over one generator step, then shortcut labels
        # through their own labels; every label stays inside its orbit, and
        # at the fixed point ids[x] <= ids[g[x]] for all g makes the labels
        # constant on orbits
        pulled = np.minimum(ids, ids[stacked].min(axis=0))
        if np.array_equal(pulled, ids):
            return ids
        ids = pulled[pulled]


class _Structure:
    def __init__(self, n_points: int, blocks: Sequence[Sequence[int]], point_colors: Sequence[int]):
        self.n_points = n_points
        self.m = len(blocks)
        if self.m == 0 or n_points == 0:
            raise InvalidInputError("structure needs at least one point and one block")
        sizes = {len(b) for b in blocks}
        if len(sizes) != 1:
            raise InvalidInputError("blocks must have uniform size")
        self.block_size = sizes.pop()
        arr = np.sort(np.asarray(list(blocks), dtype=np.int64).reshape(self.m, self.block_size), axis=1)
        if self.block_size and (arr.min() < 0 or arr.max() >= n_points):
            raise InvalidInputError("block entry out of range")
        if len({r.tobytes() for r in arr}) != self.m:
            raise InvalidInputError("repeated blocks are not supported")
        self.B = arr
        degs = np.bincount(arr.ravel(), minlength=n_points)
        if len(set(degs.tolist())) > 1:
            raise InvalidInputError("points must have uniform degree")
        self.point_degree = int(degs[0])
        order = np.argsort(arr.ravel(), kind="stable")
        self.P = (order // self.block_size).reshape(n_points, self.point_degree)
        pc = np.asarray(point_colors, dtype=np.int64)
        if pc.shape != (n_points,):
            raise InvalidInputError("one initial color per point required")
        _, dense = np.unique(pc, return_inverse=True)
        self.init_colors = np.concatenate(
            [dense, np.full(self.m, int(dense.max()) + 1, dtype=np.int64)]
        ).astype(np.int32)
        self.init_cells = int(dense.max()) + 2
        self.n_vertices = n_points + self.m
        # block refinement keys are (own color, member colors); pack them into
        # one int64 when the field width allows, else fall back to byte rows
        self.key_bits = max(2, int(np.ceil(np.log2(2 * self.n_vertices + 2))))
        self.packable = self.key_bits * (self.block_size + 1) <= 63


class _Search:
    def __init__(self, struct: _Structure, deadline: float | None = None):
        self.s = struct
        self.deadline = deadline
        self.best_key: tuple | None = None  # (invariant path tuple, cert bytes)
        self.best_labeling: np.ndarray | None = None
        self.best_fixed: list[int] = []
        self.first_key: tuple | None = None
        self.first_labeling: np.ndarray | None = None
        self.first_fixed: list[int] = []
        self.aut_gens: list[np.ndarray] = []  # full-vertex permutations
        self.node_count = 0
        self.leaf_count = 0
        self.unwind_to: int | None = None

    # -- refinement -----------------------------------------------------------

    @staticmethod
    def _ranks_sorted(primary: np.ndarray, order: np.ndarray, srows: np.ndarray):
        boundary = np.empty(len(order), dtype=bool)
        boundary[0] = True
        boundary[1:] = srows[1:] != srows[:-1]
        rank_sorted = np.cumsum(boundary) - 1
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = rank_sorted
        return rank, primary[order[boundary]]

    def refine(self, colors: np.ndarray, n_cells: int | None = None) -> tuple[np.ndarray, int, bytes]:
        """Refine to the stable coloring: (colors, n_cells, invariant)."""
        s = self.s
        npts = s.n_points
        if n_cells is None:
            n_cells = len(np.unique(colors))
        while True:
            pk = np.sort(colors[npts + s.P], axis=1)
            bk = np.sort(colors[s.B], axis=1)

            pcol = colors[:npts]
            combined = np.empty((npts, pk.shape[1] + 1), dtype=np.int32)
            combined[:, 0] = pcol
            combined[:, 1:] = pk
            prows = _void_rows(combined)
            porder = np.argsort(prows, kind="stable")
            prank, p_oc = self._ranks_sorted(pcol, porder, prows[porder])

            bcol = colors[npts:]
            if s.packable:
                bkey = bcol.astype(np.int64) << np.int64(s.key_bits * s.block_size)
                for c in range(s.block_size):
                    bkey |= bk[:, c].astype(np.int64) << np.int64(
                        s.key_bits * (s.block_size - 1 - c)
                    )
                border = np.argsort(bkey, kind="stable")
                brank, b_oc = self._ranks_sorted(bcol, border, bkey[border])
            else:
                bcombined = np.empty((s.m, bk.shape[1] + 1), dtype=np.int32)
                bcombined[:, 0] = bcol
                bcombined[:, 1:] = bk
                brows = _void_rows(bcombined)
                border = np.argsort(brows, kind="stable")
                brank, b_oc = self._ranks_sorted(bcol, border, brows[border])

            # merge the two sides' groups by old color; sides never share one
            p_new = np.arange(len(p_oc)) + np.searchsorted(b_oc, p_oc)
            b_new = np.arange(len(b_oc)) + np.searchsorted(p_oc, b_oc)
            new_colors = np.empty_like(colors)
            new_colors[:npts] = p_new[prank]
            new_colors[npts:] = b_new[brank]
            new_n_cells = len(p_oc) + len(b_oc)
            colors = new_colors
            if new_n_cells == n_cells:
                sizes = np.bincount(colors, minlength=new_n_cells)
                h = hashlib.blake2b(digest_size=16)
                h.update(sizes.astype(np.int64).tobytes())
                h.update(np.sort(_void_rows(pk)).tobytes())
                h.update(np.sort(_void_rows(bk)).tobytes())
                return colors, new_n_cells, h.digest()
            n_cells = new_n_cells

    # -- leaves ---------------------------------------------------------------

    def leaf_certificate(self, colors: np.ndarray) -> bytes:
        s = self.s
        relabeled = np.sort(colors[s.B], axis=1)
        order = np.argsort(_void_rows(relabeled), kind="stable")
        rows = relabeled[order]
        enc = np.empty_like(rows)
        enc[:, 1:] = rows[:, 1:] - rows[:, :-1]
        enc[0, 0] = rows[0, 0]
        enc[1:, 0] = rows[1:, 0] - rows[:-1, 0]
        return enc.astype("<u2").tobytes()

    def handle_leaf(self, colors: np.ndarray, path: list[bytes], fixed: list[int]) -> int | None:
        """Record the leaf; returns a backjump depth if it yielded an
        automorphism that maps the current branch onto an explored sibling.

        The jump target is the deepest prefix of the individualized vertices
        fixed pointwise by the automorphism g; g then preserves that node's
        refined coloring, so it maps the branch taken there to another vertex
        of the same target cell.  Only when that image is a smaller vertex id
        (hence a sibling whose subtree was already fully processed) is the
        rest of the current subtree abandoned; this keeps the minimum over
        explored leaves intact without circular reasoning.
        """
        self.leaf_count += 1
        cert = self.leaf_certificate(colors)
        key = (tuple(path), cert)
        unwind: int | None = None
        for ref_key, ref_lab in (
            (self.first_key, self.first_labeling),
            (self.best_key, self.best_labeling),
        ):
            if ref_key is not None and key == ref_key and ref_lab is not None:
                g = self.record_automorphism(colors, ref_lab)
                if g is not None:
                    h = 0
                    while h < len(fixed) and g[fixed[h]] == fixed[h]:
                        h += 1
                    if h < len(fixed):
                        ginv = np.empty_like(g)
                        ginv[g] = np.arange(len(g))
                        image = min(int(g[fixed[h]]), int(ginv[fixed[h]]))
                        if image < fixed[h]:
                            unwind = h if unwind is None else min(unwind, h)
                break
        if self.first_key is None:
            self.first_key = key
            self.first_labeling = colors.copy()
            self.first_fixed = list(fixed)
        if self.best_key is None or key < self.best_key:
            self.best_key = key
            self.best_labeling = colors.copy()
            self.best_fixed = list(fixed)
        return unwind

    def record_automorphism(self, lab1: np.ndarray, lab2: np.ndarray) -> np.ndarray | None:
        """Equal certificates mean inv(lab2) . lab1 is an automorphism;
        returns it (even if already known), or None for the identity."""
        inv2 = np.empty_like(lab2)
        inv2[lab2] = np.arange(len(lab2))
        g = inv2[lab1]
        if (g == np.arange(len(g))).all():
            return None
        for known in self.aut_gens:
            if np.array_equal(known, g):
                return g
        self._check_automorphism(g)
        self.aut_gens.append(g)
        return g

    # -- tree -----------------------------------------------------------------

    # Lookahead bounds for target cell selection (see _choose_cell); both are
    # functions of cell sizes only, keeping the choice label-invariant.
    LOOKAHEAD_CELLS = 4
    LOOKAHEAD_MEMBERS = 256

    def _child_state(self, colors: np.ndarray, v: int, n_cells: int):
        child = colors * 2
        child[v] -= 1
        return self.refine(child, n_cells + 1)

    def _choose_cell(self, colors: np.ndarray, n_cells: int, cache: dict, orbits: np.ndarray):
        """Pick the branching cell: among the few smallest cells, the one
        whose best member splits the partition the most when individualized.

        On refinement-stable structures (cubes over elementary abelian
        groups, say) the smallest cell can be near-useless to branch on,
        making the tree exponentially deep, so a lookahead scores up to
        LOOKAHEAD_CELLS of the smallest cells (at most LOOKAHEAD_MEMBERS
        members in all, the first cell always) by the cell count their
        members reach.  A cell's score is the maximum over its members,
        which depends only on the isomorphism type of the node, keeping the
        canonical form label-invariant.

        ``orbits`` labels each vertex by its orbit under the known
        automorphisms fixing the individualized vertices; these preserve the
        node's coloring, so all members of an orbit reach the same count and
        one member per orbit is scored.  A cell stops being scored once it
        has won (its running score beats every earlier cell and reaches the
        cascade level that ends the lookahead).  The child states computed
        for the winner go to ``cache``; the search builds the others when it
        visits them.
        """
        sizes = np.bincount(colors, minlength=n_cells)
        eligible = np.flatnonzero(sizes > 1)
        order = eligible[np.argsort(sizes[eligible], kind="stable")]
        budget = self.LOOKAHEAD_MEMBERS
        best_color = int(order[0])
        best_score = -1
        best_cache: dict = {}
        # a member always splits off its own singleton and usually its
        # incident blocks, so scores up to n_cells + 2 are "generic"; a score
        # beyond that signals a real cascade and ends the lookahead (all
        # stopping criteria depend on cell sizes and scores only, which are
        # isomorphism-invariant, so the chosen cell is label-invariant)
        cascade = n_cells + 3
        for rank, color in enumerate(order.tolist()):
            if rank >= self.LOOKAHEAD_CELLS or best_score >= cascade:
                break
            cell = np.flatnonzero(colors == color)
            if rank > 0 and budget - len(cell) < 0:
                break
            budget -= len(cell)
            _, first = np.unique(orbits[cell], return_index=True)
            states: dict = {}
            score = -1
            for v in cell[np.sort(first)].tolist():
                states[v] = self._child_state(colors, v, n_cells)
                score = max(score, states[v][1])
                if score > best_score and score >= cascade:
                    break
            if score > best_score:
                best_score = score
                best_color = color
                best_cache = states
        cache.update(best_cache)
        return np.flatnonzero(colors == best_color)

    def _fixing_gens(self, start: int, fixed: np.ndarray) -> list[np.ndarray]:
        """The known automorphisms from index ``start`` on that fix every
        vertex in ``fixed``."""
        return [g for g in self.aut_gens[start:] if bool((g[fixed] == fixed).all())]

    def search(self, state, path: list[bytes], fixed: list[int]) -> None:
        self.node_count += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _Deadline
        colors, n_cells, inv = state
        depth = len(path)
        path = path + [inv]
        prefix = tuple(path)
        # a node survives if it can still lead to the canonical leaf (invariant
        # prefix not worse than the best path) or if it tracks the first path,
        # whose equal-invariant leaves are where automorphisms are discovered;
        # prefixes are compared in full, as a position-wise comparison would be
        # meaningless on paths that already diverged higher up
        same_as_first = self.first_key is None or prefix == self.first_key[0][: depth + 1]
        if self.best_key is not None:
            ref_prefix = self.best_key[0][: depth + 1]
            if prefix < ref_prefix:
                # strictly better subtree: stored best cannot be canonical
                self.best_key = None
                self.best_labeling = None
                self.best_fixed = []
            elif prefix > ref_prefix and not same_as_first:
                return
        if n_cells == self.s.n_vertices:
            self.unwind_to = self.handle_leaf(colors, path, fixed)
            return
        # orbits of the known automorphisms fixing the individualized
        # vertices, shared by the lookahead and the sibling pruning below
        fixed_arr = np.asarray(fixed, dtype=np.int64)
        gen_count = len(self.aut_gens)
        usable = self._fixing_gens(0, fixed_arr)
        orbits = _orbit_ids(usable, self.s.n_vertices)
        cache: dict = {}
        cell = self._choose_cell(colors, n_cells, cache, orbits)
        explored: list[int] = []
        explored_orbits: set[int] = set()
        for v in cell.tolist():
            if gen_count != len(self.aut_gens):
                new_gens = self._fixing_gens(gen_count, fixed_arr)
                gen_count = len(self.aut_gens)
                if new_gens:
                    usable += new_gens
                    orbits = _orbit_ids(usable, self.s.n_vertices)
                    explored_orbits = {int(orbits[x]) for x in explored}
            if int(orbits[v]) in explored_orbits:
                continue
            child_state = cache.pop(v, None)
            if child_state is None:
                child_state = self._child_state(colors, v, n_cells)
            self.search(child_state, path, fixed + [v])
            explored.append(v)
            explored_orbits.add(int(orbits[v]))
            if self.unwind_to is not None:
                if self.unwind_to < depth:
                    return  # propagate the backjump
                self.unwind_to = None  # this node is the backjump target
        return

    # -- public ---------------------------------------------------------------

    def seed_automorphisms(self, point_gens) -> None:
        """Install known automorphisms, given as point permutations that
        preserve the initial point colors; the induced block permutation is
        found by a sorted search over the block rows (and thereby verified)."""
        s = self.s
        rows = _void_rows(s.B)
        order = np.argsort(rows, kind="stable")
        sorted_rows = rows[order]
        point_colors = s.init_colors[: s.n_points]
        for pg in point_gens:
            p = np.asarray(pg, dtype=np.int64)
            if p.shape != (s.n_points,) or not np.array_equal(np.sort(p), np.arange(s.n_points)):
                raise InvalidInputError("seed must permute the points")
            if not np.array_equal(point_colors[p], point_colors):
                raise ConstructionBugError("seed permutation does not preserve the point colors")
            mapped = _void_rows(np.sort(p[s.B], axis=1))
            pos = np.minimum(np.searchsorted(sorted_rows, mapped), s.m - 1)
            if not (sorted_rows[pos] == mapped).all():
                raise ConstructionBugError("seed permutation is not an automorphism")
            full = np.concatenate([p, s.n_points + order[pos]])
            if not (full == np.arange(s.n_vertices)).all():
                self.aut_gens.append(full)

    def run(self) -> CanonResult:
        complete = True
        try:
            self.search(self.refine(self.s.init_colors.copy(), self.s.init_cells), [], [])
        except _Deadline:
            complete = False
        npts = self.s.n_points
        point_gens = [tuple(int(x) for x in g[:npts]) for g in self.aut_gens]
        order = PermGroup(point_gens, npts).order()
        if not complete:
            return CanonResult(
                certificate=b"",
                point_labeling=(),
                aut_point_gens=point_gens,
                aut_order=order,
                complete=False,
                leaf_count=self.leaf_count,
                node_count=self.node_count,
            )
        assert self.best_key is not None and self.best_labeling is not None
        head = struct.pack(
            "<4I", self.s.n_points, self.s.m, self.s.block_size, self.s.point_degree
        )
        return CanonResult(
            certificate=head + self.best_key[1],
            point_labeling=tuple(int(x) for x in self.best_labeling[:npts]),
            aut_point_gens=point_gens,
            aut_order=order,
            complete=True,
            leaf_count=self.leaf_count,
            node_count=self.node_count,
        )

    def _check_automorphism(self, g: np.ndarray) -> None:
        s = self.s
        mapped = np.sort(g[s.B], axis=1)
        if set(map(bytes, _void_rows(mapped))) != set(map(bytes, _void_rows(s.B))):
            raise ConstructionBugError("discovered generator is not an automorphism")


def canonicalize(
    n_points: int,
    blocks: Sequence[Sequence[int]],
    point_colors: Sequence[int] | None = None,
    time_budget: float | None = None,
    known_automorphisms: Sequence[Sequence[int]] = (),
) -> CanonResult:
    """Canonical form of a point/block incidence structure.

    ``point_colors`` fixes an initial coloring that any isomorphism must
    preserve; omit it to allow arbitrary point permutations.
    ``known_automorphisms`` (point permutations) seed the orbit pruning; each
    is verified against the structure.  With a ``time_budget`` (seconds), a
    partial result flagged ``complete=False`` is returned when the budget
    runs out; its certificate is empty and only the discovered automorphisms
    are meaningful.
    """
    if point_colors is None:
        point_colors = [0] * n_points
    struct_ = _Structure(n_points, blocks, point_colors)
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    search = _Search(struct_, deadline)
    if known_automorphisms:
        search.seed_automorphisms(known_automorphisms)
    return search.run()


def design_canonical(bits: np.ndarray) -> CanonResult:
    """Canonicalize a v x v incidence matrix (rows as points, columns as blocks)."""
    v = bits.shape[0]
    blocks = [tuple(int(i) for i in np.flatnonzero(bits[:, j])) for j in range(v)]
    return canonicalize(v, blocks, [0] * v)
