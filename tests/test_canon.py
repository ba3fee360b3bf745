import hashlib
import random

import numpy as np
import pytest

from symcube import equivalence
from symcube.canon import _Search, _Structure, canonicalize, design_canonical
from symcube.catalog import elementary_16, switched_16_designs
from symcube.cubes import ParatopyElement, apply_paratopy, difference_cube
from symcube.datafiles import frobenius_21, load_group_16
from symcube.designs import DesignParams, block_quadruple, development
from symcube.equivalence import (
    _transversal_blocks,
    cube_certificate,
    to_transversal,
)
from symcube.errors import ConstructionBugError, InvalidInputError, ResourceLimitError
from symcube.groups import DifferenceSet, make_cyclic
from symcube.perms import void_rows
from symcube.search import _group_cube_seeds, classify_group_cubes

from named_cubes import fano_cube, named_cube, point_perm, random_paratopy


def _cube_result(c, colored, seeds=()):
    t = to_transversal(c)
    colors = [p // t.v for p in range(t.n_points)] if colored else None
    return canonicalize(t.n_points, t.blocks, colors, known_automorphisms=seeds)


def _corpus():
    z7 = make_cyclic(7)
    fano_set = DifferenceSet(z7, (1, 2, 4), (7, 3, 1))
    fano = fano_cube()
    d1, d2, d3 = switched_16_designs()
    g16 = elementary_16()
    z2_4 = difference_cube(g16, DifferenceSet(g16, (1, 2, 3, 4, 8, 12), (16, 6, 2)), 3)
    return {
        "fano design": lambda: design_canonical(development(fano_set).bits),
        "D1 design": lambda: design_canonical(d1.bits),
        "D2 design": lambda: design_canonical(d2.bits),
        "D3 design": lambda: design_canonical(d3.bits),
        "fano cube colored": lambda: _cube_result(fano, True),
        "fano cube uncolored": lambda: _cube_result(fano, False),
        "C3 uncolored": lambda: _cube_result(named_cube("C3"), False),
        "Z2^4 difference cube seeded": lambda: _cube_result(
            z2_4, False, _group_cube_seeds(g16, 3)
        ),
    }


# name -> (sha256 of the certificate, node_count, leaf_count, aut_order)
PINNED = {
    "fano design": ("3531a769a753826ada0e45224b2bed8e6e9d1f2ba87fb4a76a73314f7cdfdbd2", 11, 5, 168),
    "D1 design": ("2f0fd7635d66e72d441c378adc6295e6a96d390c604ea4845b97f18334195e08", 24, 7, 11520),
    "D2 design": ("41c2858ea633df9ed4cfb1fc4d4635bb56757a7828056f153dbe63616a71a0d4", 68, 7, 768),
    "D3 design": ("b4556c0a7e77ca2d7571227796c91df2ee54318d803fc882fdc367601edde333", 42, 8, 384),
    "fano cube colored": ("1368854186fb546bc63954679059ce42bae68e27d8b33f7205f88cf65b87dc3e", 12, 4, 147),
    "fano cube uncolored": ("bb28e73860ecc6721739f1ebea50374bb3b2aa67b4186d21ee24a1cd995bdd14", 17, 6, 882),
    "C3 uncolored": ("48b0a53fb8292f11b4a9587b2457da0426891e9107b98983632e3086a98b34bf", 261, 8, 882),
    "Z2^4 difference cube seeded": (
        "10d4067e91d9952c46b6c91d9fc06dd1a287578ec97b45bf766f6ec0382333dc", 32, 8, 1105920
    ),
}


@pytest.mark.parametrize("name", sorted(_corpus()))
def test_pinned_certificates(name):
    res = _corpus()[name]()
    got = (hashlib.sha256(res.certificate).hexdigest(), res.node_count, res.leaf_count, res.aut_order)
    assert got == PINNED[name]


def _results_digest(results) -> str:
    """sha256 over every field of each result, in order."""
    h = hashlib.sha256()
    for res in results:
        fields = (res.certificate, res.point_labeling, res.aut_point_gens, res.node_count, res.leaf_count)
        h.update(repr(fields).encode())
    return h.hexdigest()


def _seeded_classification_results(make_group, params, monkeypatch):
    """The seeded labellings that one classification makes, in call order."""
    results = []

    def recorded(*args, **kwargs):
        res = canonicalize(*args, **kwargs)
        if len(kwargs.get("known_automorphisms", ())):
            results.append(res)
        return res

    monkeypatch.setattr(equivalence, "canonicalize", recorded)
    classify_group_cubes(make_group(), DesignParams(*params))
    return results


@pytest.mark.parametrize(
    "labellings, count, digest",
    [
        pytest.param(
            lambda _: [make() for _, make in sorted(_corpus().items())],
            8,
            "ea42f3f2dec25f32cdd8b414f298f7cc90fa0946e76be57dd9d0ee20a0e1f737",
            id="corpus",
        ),
        pytest.param(
            lambda mp: _seeded_classification_results(frobenius_21, (21, 5, 1), mp),
            3,
            "7592c2e28371e6f2e43194eef7bef99ca5b9cd714c1d1eda01b3b4525b2b6dbc",
            id="F21",
        ),
        pytest.param(
            lambda mp: _seeded_classification_results(lambda: load_group_16(14), (16, 6, 2), mp),
            11,
            "719127141a6f665be246cb255a794d0e4b9748b0448089c312ef57f3106b8074",
            id="id16:14",
        ),
    ],
)
def test_full_results_are_pinned(labellings, count, digest, monkeypatch):
    """Every field of every result (certificate, labelling, generators,
    node and leaf counts) of the corpus and of the seeded labellings of two
    classifications: a change to the search's bookkeeping that keeps its
    decisions keeps these bytes."""
    results = labellings(monkeypatch)
    assert len(results) == count
    assert _results_digest(results) == digest


ABORT_IMAGES = [f"{name} image {i}" for name in ("D2", "D3", "C3") for i in range(3)]


def _abort_case(name):
    """A corpus entry, or the uncolored labelling of a random paratopy image
    of a named cube."""
    if name in PINNED:
        return _corpus()[name]
    cube, _, i = name.split()
    c = named_cube(cube)
    image = apply_paratopy(c, random_paratopy(random.Random(f"{cube} {i}"), c.n, c.v))
    return lambda: canonicalize(image.n * image.v, _transversal_blocks(image))


@pytest.mark.parametrize("name", sorted(PINNED) + ABORT_IMAGES)
def test_aborted_refinement_changes_no_result(name, monkeypatch):
    """Refining a child against the best and first paths' traces only skips
    work: without the bound the search gives the same certificate,
    labelling, generators, node and leaf counts."""
    case = _abort_case(name)
    aborted = []
    refine = _Search.refine

    def counted(self, *args):
        out = refine(self, *args)
        aborted.append(out is None)
        return out

    monkeypatch.setattr(_Search, "refine", counted)
    bounded = case()
    bounded_aborts = sum(aborted)
    aborted.clear()
    monkeypatch.setattr(_Search, "_bound", lambda self, prefix: None)
    assert case() == bounded
    assert not any(aborted)
    if name in ABORT_IMAGES:
        assert bounded_aborts  # the bound did cut refinements short


class TestRefinementBound:
    """``refine``'s bound (best entry, first entry) on a child of the root
    of the Fano cube's transversal design, which takes two rounds."""

    def setup_method(self):
        self.search = _Search(_Structure(*_refinement_structure("fano", "uncolored")))
        colors, n_cells, _ = self.search.refine(self.search.s.init_colors.copy(), 1)
        self.child = colors * 2
        self.child[0] -= 1
        self.n_cells = n_cells + 1
        self.colors, _, self.trace = self.search.refine(self.child, self.n_cells)
        assert len(self.trace) >= 2

    def refine(self, best, first):
        return self.search.refine(self.child, self.n_cells, (best, first))

    @staticmethod
    def smaller(entry):
        """A digest that sorts before ``entry``."""
        return b"" if entry == bytes(len(entry)) else bytes(len(entry))

    def test_no_abort_when_the_best_entry_is_the_trace(self):
        for first in ((), self.trace[:1], (b"\xff" * 16,)):
            out = self.refine(self.trace, first)
            assert out is not None
            assert (out[0] == self.colors).all() and out[2] == self.trace

    def test_abort_when_greater_than_best_and_unlike_first(self):
        t = self.trace
        smaller_last = t[:-1] + (self.smaller(t[-1]),)
        for best in ((), t[:1], t[:-1], smaller_last, (self.smaller(t[0]),) + t[1:]):
            # the first entry parts from the trace in its last round, or
            # goes on after it
            for first in ((), t[:-1], t[:-1] + (b"\xff" * 16,), t + t[:1]):
                assert self.refine(best, first) is None, (best, first)

    def test_no_abort_while_the_first_entry_matches(self):
        t = self.trace
        for best in ((), t[:1], (self.smaller(t[0]),)):
            out = self.refine(best, t)
            assert out is not None and out[2] == t


def test_branching_cell_is_the_first_largest():
    """The search branches on the lowest-colored cell among the largest:
    with cell sizes 1, 3, 2, 3 that is color 1, not the equally large
    color 3 nor the smallest non-singleton color 2."""
    search = _Search(_Structure(9, [[p] for p in range(9)], [0] * 9))
    colors = np.array([3, 1, 2, 0, 1, 3, 2, 3, 1], dtype=np.int32)
    assert search._choose_cell(colors, 4).tolist() == [1, 4, 8]


def _check_invariance(name, images):
    """The paratopy certificate of ``images`` random paratopy images, and the
    isotopy certificate of as many random isotopy images, equal the cube's."""
    c = named_cube(name)
    rng = random.Random(name)
    ident = tuple(range(c.n))
    for mode in ("uncolored", "colored"):
        cert = cube_certificate(c, mode)
        for _ in range(images):
            p = random_paratopy(rng, c.n, c.v)
            if mode == "colored":
                p = ParatopyElement(p.perms, ident)
            assert cube_certificate(apply_paratopy(c, p), mode) == cert


STRESS_CUBES = ["D1", "D2", "D3", "C3", "example52"]


@pytest.mark.parametrize("name", STRESS_CUBES)
def test_certificate_invariance(name):
    _check_invariance(name, 3)


@pytest.mark.extended
@pytest.mark.parametrize("name", STRESS_CUBES)
def test_certificate_invariance_extended(name):
    _check_invariance(name, 200)


def _dense_ranks(rows):
    """Rank of each byte row among the distinct rows, and their count."""
    order = np.argsort(rows, kind="stable")
    srows = rows[order]
    boundary = np.empty(len(order), dtype=bool)
    boundary[0] = True
    boundary[1:] = srows[1:] != srows[:-1]
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.cumsum(boundary) - 1
    return rank, int(boundary.sum())


def _exact_refine(s, colors, n_cells):
    """Reference refinement without hashing: a block's key is the sorted row
    of its points' colors, a point's its old color followed by the sorted
    ranks of its blocks' keys.  Returns the stable colors, their cell count
    and the number of rounds, the last of which confirms stability."""
    key = np.empty((s.n_points, s.point_degree + 1), dtype=np.int32)
    rounds = 0
    while True:
        rounds += 1
        brank, _ = _dense_ranks(void_rows(np.sort(colors[s.B], axis=1)))
        key[:, 0] = colors
        key[:, 1:] = np.sort(brank[s.P], axis=1)
        colors, new_n_cells = _dense_ranks(void_rows(key))
        if new_n_cells == n_cells:
            return colors, n_cells, rounds
        n_cells = new_n_cells


REFINEMENT_CASES = (
    [(name, "design") for name in ("fano", "D1", "D2", "D3")]
    + [(name, "quadruple") for name in ("D1", "D2", "D3")]
    + [
        (name, mode)
        for name in ("fano", "C1", "C3", "example52")
        for mode in ("uncolored", "colored")
    ]
)


def _refinement_structure(name, kind):
    """(n_points, blocks, point colors) of a design, of the (64,28,12) block
    quadruple of a (16,6,2) design, or of a cube's transversal design."""
    if kind in ("design", "quadruple"):
        if name == "fano":
            z7 = make_cyclic(7)
            design = development(DifferenceSet(z7, (1, 2, 4), (7, 3, 1)))
        else:
            design = switched_16_designs()[int(name[1]) - 1]
        bits = block_quadruple(design).bits if kind == "quadruple" else design.bits
        v = bits.shape[0]
        return v, [np.flatnonzero(bits[:, j]).tolist() for j in range(v)], [0] * v
    t = to_transversal(named_cube(name))
    colors = [p // t.v for p in range(t.n_points)] if kind == "colored" else [0] * t.n_points
    return t.n_points, t.blocks, colors


@pytest.mark.parametrize("name,kind", REFINEMENT_CASES)
def test_hashed_refinement_matches_exact(name, kind):
    """At every step of random individualization chains, the hashed
    refinement reaches the exact refinement's partition, up to the order of
    the cells, in as many rounds, one per trace entry; only a coloring that
    turns discrete returns without the round that confirms stability."""
    search = _Search(_Structure(*_refinement_structure(name, kind)))
    s = search.s
    rng = random.Random(f"{name} {kind}")
    for _ in range(24):
        colors, n_cells = s.init_colors.copy(), s.init_cells
        while True:
            hashed, n_hashed, trace = search.refine(colors, n_cells)
            exact, n_exact, rounds = _exact_refine(s, colors, n_cells)
            assert n_hashed == n_exact
            # equal partitions: the cell pairs (hashed, exact) are a bijection
            assert len(set(zip(hashed.tolist(), exact.tolist()))) == n_exact
            turned_discrete = n_cells < s.n_points == n_exact
            assert len(trace) == rounds - turned_discrete
            if n_hashed == s.n_points:
                break
            sizes = np.bincount(hashed, minlength=n_hashed)
            v = rng.choice(np.flatnonzero(sizes[hashed] > 1).tolist())
            colors, n_cells = hashed * 2, n_hashed + 1
            colors[v] -= 1


@pytest.mark.parametrize("name", ["fano", "C3"])
@pytest.mark.parametrize("colored", [False, True])
def test_array_and_tuple_blocks_give_equal_results(name, colored):
    c = named_cube(name)
    n_points, arr = c.n * c.v, _transversal_blocks(c)
    colors = [p // c.v for p in range(n_points)] if colored else None
    rng = np.random.default_rng(5)
    # rows in another order, and the points of each row shuffled
    shuffled = rng.permuted(arr[rng.permutation(len(arr))], axis=1)
    from_array = canonicalize(n_points, shuffled, colors)
    from_tuples = canonicalize(n_points, [tuple(int(x) for x in row) for row in shuffled], colors)
    assert from_array == from_tuples
    assert from_array == canonicalize(n_points, arr, colors)


@pytest.mark.parametrize(
    "blocks",
    [
        pytest.param([(0, 1), (1, 2), (2,)], id="ragged"),
        pytest.param([(0, 1), (1, 2), (2, 0), (1, 0)], id="repeated"),
        pytest.param([(0, 0), (1, 1), (2, 2)], id="repeated-point"),
        pytest.param([(0, 1), (1, 2), (2, 3)], id="out-of-range"),
        pytest.param([(0, 1), (1, 2), (2, -1)], id="negative"),
        pytest.param([0, 1, 2], id="not-rows"),
        pytest.param([(0.7, 1.2, 2.9)], id="fractional"),  # truncates to (0, 1, 2)
        pytest.param([], id="empty"),
    ],
)
def test_malformed_blocks_raise_in_both_forms(blocks):
    try:
        arr = np.array(blocks)
    except ValueError:  # ragged rows make only an object array
        arr = np.array(blocks, dtype=object)
    for form in (blocks, arr):
        with pytest.raises(InvalidInputError):
            canonicalize(3, form)



def test_point_colors_must_be_integers():
    """[0.2, 0.9, 1.5] would truncate to the colors 0, 0, 1; integral
    floats, which the int64 cast keeps, are accepted."""
    with pytest.raises(InvalidInputError, match="integers"):
        canonicalize(3, [[0, 1, 2]], [0.2, 0.9, 1.5])
    assert canonicalize(3, [[0.0, 1.0, 2.0]], [1.0, 1.0, 1.0]) == canonicalize(3, [[0, 1, 2]])


class TestMultiWordSets:
    """PG(2,8), developed from a Singer difference set in Z73: 73 points, so
    every block is a bitset of two words."""

    def setup_method(self):
        singer = DifferenceSet(make_cyclic(73), (1, 2, 4, 8, 16, 32, 37, 55, 64), (73, 9, 1))
        self.bits = development(singer).bits
        self.res = design_canonical(self.bits)

    def test_certificate_ignores_row_and_column_order(self):
        rng = np.random.default_rng(73)
        for _ in range(3):
            image = self.bits[rng.permutation(73)][:, rng.permutation(73)]
            assert design_canonical(image).certificate == self.res.certificate

    def test_aut_order_is_that_of_pgaml_3_8(self):
        assert self.res.aut_order == 49_448_448  # |PGammaL(3,8)|

    def test_transposition_seed_raises(self):
        blocks = [np.flatnonzero(self.bits[:, j]).tolist() for j in range(73)]
        swap = list(range(73))
        swap[0], swap[1] = 1, 0
        with pytest.raises(ConstructionBugError, match="not an automorphism"):
            canonicalize(73, blocks, known_automorphisms=[swap])


def test_design_canonical_rejects_unequal_block_sizes():
    bits = np.eye(4, dtype=np.uint8)
    bits[0, 1] = 1
    with pytest.raises(InvalidInputError):
        design_canonical(bits)
    with pytest.raises(InvalidInputError):
        design_canonical(np.zeros((0, 0), dtype=np.uint8))


class TestSeeds:
    def setup_method(self):
        self.t = to_transversal(fano_cube())
        self.colors = [p // 7 for p in range(self.t.n_points)]
        ident = tuple(range(7))
        # the difference cube of an abelian group is totally symmetric, so
        # swapping the first two axes is an autoparatopy but no autotopy
        self.axis_swap = point_perm(ParatopyElement((ident, ident, ident), (1, 0, 2)), 3, 7)

    def test_seeded_certificate_equals_unseeded(self):
        plain = canonicalize(self.t.n_points, self.t.blocks)
        seeded = canonicalize(self.t.n_points, self.t.blocks, known_automorphisms=[self.axis_swap])
        assert seeded.certificate == plain.certificate
        assert seeded.aut_order == plain.aut_order

    @pytest.mark.parametrize("seeded", [False, True])
    def test_labelling_over_budget_raises(self, seeded):
        seeds = [self.axis_swap] if seeded else ()
        with pytest.raises(ResourceLimitError, match="labelling"):
            canonicalize(self.t.n_points, self.t.blocks, time_budget=-1.0, known_automorphisms=seeds)

    def test_nan_budget_is_rejected(self):
        with pytest.raises(InvalidInputError, match="time budget .* nan"):
            canonicalize(self.t.n_points, self.t.blocks, time_budget=float("nan"))

    def test_seed_must_preserve_colors(self):
        with pytest.raises(ConstructionBugError, match="colors"):
            canonicalize(
                self.t.n_points, self.t.blocks, self.colors, known_automorphisms=[self.axis_swap]
            )

    def test_seed_must_map_blocks_onto_blocks(self):
        swap = list(range(self.t.n_points))
        swap[0], swap[1] = 1, 0
        with pytest.raises(ConstructionBugError, match="not an automorphism"):
            canonicalize(self.t.n_points, self.t.blocks, self.colors, known_automorphisms=[swap])

    def test_seeds_are_verified_together(self):
        """One bad seed among good ones, with the blocks as an array: the
        sorted block bitsets check every seed at once and still find it."""
        blocks = np.array(self.t.blocks)
        shift = point_perm(
            ParatopyElement((tuple(range(7)), (1, 2, 3, 4, 5, 6, 0), (6, 0, 1, 2, 3, 4, 5)), (0, 1, 2)),
            3,
            7,
        )
        canonicalize(self.t.n_points, blocks, self.colors, known_automorphisms=[shift])
        swap = list(range(self.t.n_points))
        swap[0], swap[1] = 1, 0
        with pytest.raises(ConstructionBugError, match="not an automorphism"):
            canonicalize(
                self.t.n_points, blocks, self.colors, known_automorphisms=[shift, swap, shift]
            )

    def test_seed_must_be_a_permutation(self):
        with pytest.raises(InvalidInputError):
            canonicalize(self.t.n_points, self.t.blocks, known_automorphisms=[[0] * self.t.n_points])
        with pytest.raises(InvalidInputError):
            canonicalize(self.t.n_points, self.t.blocks, known_automorphisms=[[0, 1]])
        with pytest.raises(InvalidInputError):  # truncates to the identity
            fractional = [0.2] + list(range(1, self.t.n_points))
            canonicalize(self.t.n_points, self.t.blocks, known_automorphisms=[fractional])
