import itertools
import random

import numpy as np
import pytest

from symcube.catalog import elementary_16, reference_catalog, switched_16_designs
from symcube.cubes import (
    Cube,
    ParatopyElement,
    _slice_view,
    apply_paratopy,
    difference_cube,
    group_cube,
    hadamard_certificate,
    hadamard_slice_checks,
    is_totally_symmetric,
    slice_invariant,
    to_hadamard,
    verify_cube,
    weak_slice_invariant,
)
from symcube.designs import DesignParams, IncidenceMatrix, verify_design
from symcube.errors import InvalidInputError
from symcube.datafiles import frobenius_21
from symcube.groups import DifferenceSet, difference_sets_up_to_equivalence, make_cyclic

from named_cubes import (
    compose_paratopies,
    identity_paratopy,
    inverse_paratopy,
    latin_square_to_cube,
    random_paratopy,
)


@pytest.fixture(scope="module")
def fano_cube():
    z7 = make_cyclic(7)
    return difference_cube(z7, DifferenceSet(z7, (1, 2, 4), (7, 3, 1)), 3)


@pytest.fixture(scope="module")
def cube321():
    z3 = make_cyclic(3)
    return difference_cube(z3, DifferenceSet(z3, (1, 2), (3, 2, 1)), 3)


class TestSlicing:
    """``_slice_view``, through which ``verify_cube`` and the slice
    invariants read every slice."""

    def test_slice_transpose_relation(self, fano_cube):
        for fixed in range(7):
            a = _slice_view(fano_cube.bits, 0, 1)[fixed]
            b = _slice_view(fano_cube.bits, 1, 0)[fixed]
            assert np.array_equal(a.T, b)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_slice_matrix_matches_index_oracle(self, n):
        z7 = make_cyclic(7)
        c = difference_cube(z7, DifferenceSet(z7, (1, 2, 4), (7, 3, 1)), n)
        bits = np.asarray(c.bits).copy()
        bits[(0,) * n] ^= 1  # break the symmetry so orientation matters
        c = Cube(bits, c.params)
        fixed = tuple(range(1, n - 1))
        for x, y in itertools.permutations(range(n), 2):
            got = _slice_view(c.bits, x, y)[fixed]
            rest = [t for t in range(n) if t not in (x, y)]
            for i, j in itertools.product(range(7), repeat=2):
                idx = [0] * n
                for axis, val in zip(rest, fixed):
                    idx[axis] = val
                idx[x], idx[y] = i, j
                assert got[i, j] == bits[tuple(idx)]

    def test_latin_square_slices_are_permutation_matrices(self):
        square = [[(i + j) % 4 for j in range(4)] for i in range(4)]
        c = latin_square_to_cube(square)
        assert verify_cube(c)
        m = _slice_view(c.bits, 0, 1)[2]
        assert (m.sum(axis=0) == 1).all()


class TestVerify:
    def test_difference_cube_verifies(self, fano_cube):
        assert verify_cube(fano_cube)

    def test_all_ones_cube(self):
        c = Cube(np.ones((3, 3, 3), dtype=np.uint8), DesignParams(3, 3, 3))
        assert verify_cube(c)

    def test_mutation_breaks_cube(self, fano_cube):
        rng = random.Random(0)
        for _ in range(25):
            bits = fano_cube.bits.copy()
            i, j, k = (rng.randrange(7) for _ in range(3))
            bits[i, j, k] ^= 1
            assert not verify_cube(Cube(bits, fano_cube.params))


class TestConstructions:
    def test_321_cubes_all_dimensions(self):
        z3 = make_cyclic(3)
        d = DifferenceSet(z3, (1, 2), (3, 2, 1))
        for n in range(2, 6):
            assert verify_cube(difference_cube(z3, d, n))

    @pytest.mark.parametrize(
        "name, n",
        [("fano", 2), ("fano", 3), ("fano", 4), ("f21", 2), ("f21", 3)],
    )
    def test_difference_cube_matches_product_oracle(self, name, n):
        if name == "fano":
            g = make_cyclic(7)
            d = DifferenceSet(g, (1, 2, 4), (7, 3, 1))
        else:  # non-abelian, so the order of the factors matters
            g = frobenius_21()
            d = difference_sets_up_to_equivalence(g, 5, 1)[0]
        members = set(d.elements)
        expected = np.zeros((g.order,) * n, dtype=np.uint8)
        for idx in itertools.product(range(g.order), repeat=n):
            prod = 0
            for i in idx:
                prod = g.table[prod][i]
            expected[idx] = prod in members
        assert np.array_equal(difference_cube(g, d, n).bits, expected)

    def test_difference_cube_abelian_totally_symmetric(self, fano_cube):
        assert is_totally_symmetric(fano_cube)

    def test_group_cube_translate_family_equals_difference_cube(self):
        z7 = make_cyclic(7)
        d = DifferenceSet(z7, (1, 2, 4), (7, 3, 1))
        # blocks g_i^{-1} D, indexed by i
        blocks = []
        for i in range(7):
            blocks.append(frozenset(z7.table[z7.inverses[i]][list(d.elements)].tolist()))
        gc = group_cube(z7, blocks, 3)
        dc = difference_cube(z7, d, 3)
        assert gc == dc

    def test_group_cube_rejects_bad_blocks(self):
        z7 = make_cyclic(7)
        blocks = [frozenset({0, 1, 2})] * 7
        with pytest.raises(InvalidInputError):
            group_cube(z7, blocks, 3)

    @pytest.mark.parametrize(
        "bad,block",
        [
            (0, {0, 1, 2}),
            (3, {0, 1, 2}),
            (6, {0, 1, 2}),
            (3, {0, 1}),
            (5, {1, 2, 7}),
            (5, {1, 2, 10**30}),
        ],
        ids=["first", "middle", "last", "size", "range", "beyond-int64"],
    )
    def test_group_cube_names_the_bad_block(self, bad, block):
        z7 = make_cyclic(7)
        # the translates g_i^{-1} D of D = {1, 2, 4}, one replaced
        blocks = [frozenset((x - i) % 7 for x in (1, 2, 4)) for i in range(7)]
        blocks[bad] = frozenset(block)
        with pytest.raises(InvalidInputError, match=f"block {bad} is not a difference set"):
            group_cube(z7, blocks, 3)

    def test_group_cube_from_nondevelopment_not_totally_symmetric(self):
        g16 = elementary_16()
        _, d2m, _ = switched_16_designs()
        c = group_cube(g16, d2m.columns_as_sets(), 3)
        assert verify_cube(c)
        assert not is_totally_symmetric(c)


class TestParatopy:
    def test_identity(self, fano_cube):
        ident = identity_paratopy(3, 7)
        assert apply_paratopy(fano_cube, ident) == fano_cube

    def test_pure_transposition_on_matrix(self):
        z7 = make_cyclic(7)
        d = DifferenceSet(z7, (1, 2, 4), (7, 3, 1))
        c2 = difference_cube(z7, d, 2)
        swap = ParatopyElement(
            (tuple(range(7)), tuple(range(7))), (1, 0)
        )
        assert np.array_equal(apply_paratopy(c2, swap).bits, c2.bits.T)

    def test_action_law_and_inverse(self, fano_cube):
        rng = random.Random(5)
        for _ in range(100):
            p = random_paratopy(rng, 3, 7)
            q = random_paratopy(rng, 3, 7)
            cp = apply_paratopy(fano_cube, p)
            assert verify_cube(cp)
            assert apply_paratopy(cp, q) == apply_paratopy(fano_cube, compose_paratopies(q, p))
            assert apply_paratopy(cp, inverse_paratopy(p)) == fano_cube

    def test_dimension_mismatch(self, fano_cube):
        with pytest.raises(InvalidInputError):
            apply_paratopy(fano_cube, identity_paratopy(3, 8))

    def test_value_map_must_be_a_permutation(self, fano_cube):
        # (0, 0, 2, ...) used to be applied as the transposition (0 1)
        ident = tuple(range(7))
        with pytest.raises(InvalidInputError, match="not a permutation"):
            ParatopyElement(((0, 0, 2, 3, 4, 5, 6), ident, ident), (0, 1, 2))

    def test_axis_map_must_be_a_permutation(self, fano_cube):
        ident = tuple(range(7))
        with pytest.raises(InvalidInputError, match="not a permutation"):
            ParatopyElement((ident, ident, ident), (0, 0, 2))


class TestSliceInvariant:
    def test_single_class_for_difference_cube(self, fano_cube):
        inv = slice_invariant(fano_cube)
        assert len(inv.classes) == 3
        flat = {cert for inner in inv.classes for cert in inner}
        assert len(flat) == 1

    def test_invariance_under_paratopy(self, fano_cube):
        rng = random.Random(9)
        base = slice_invariant(fano_cube)
        for _ in range(50):
            p = random_paratopy(rng, 3, 7)
            assert slice_invariant(apply_paratopy(fano_cube, p)) == base

    def test_weak_invariant_refinement(self, fano_cube):
        strong = slice_invariant(fano_cube)
        weak = weak_slice_invariant(fano_cube)
        # equal classes imply equal automorphism orders
        assert len({x for inner in weak.classes for x in inner}) == 1

    def test_switched_design_cube_invariants(self):
        cat = reference_catalog()
        g16 = elementary_16()
        _, d2m, d3m = switched_16_designs()
        inv2 = slice_invariant(group_cube(g16, d2m.columns_as_sets(), 3))
        inv3 = slice_invariant(group_cube(g16, d3m.columns_as_sets(), 3))
        assert inv2.rendered(cat.names()) == "{ {D1^16}^1, {D2^16}^2 }"
        assert inv3.rendered(cat.names()) == "{ {D1^16}^1, {D3^16}^2 }"

    def test_dimension_guard(self):
        z7 = make_cyclic(7)
        c2 = difference_cube(z7, DifferenceSet(z7, (1, 2, 4), (7, 3, 1)), 2)
        with pytest.raises(InvalidInputError):
            slice_invariant(c2)



@pytest.mark.parametrize(
    "make",
    [lambda bits: Cube(bits, DesignParams(2, 1, 0)), IncidenceMatrix],
    ids=["Cube", "IncidenceMatrix"],
)
@pytest.mark.parametrize("entry", [256, 257, 0.5, 1.7])
def test_entries_are_checked_before_the_uint8_cast(make, entry):
    """256 and 257 would wrap to 0 and 1 as uint8, 0.5 and 1.7 truncate to
    0 and 1: each is rejected, while 0/1 of the same dtype and bool pass."""
    bits = np.eye(2, dtype=np.asarray(entry).dtype)
    assert (make(bits).bits == np.eye(2)).all()
    assert (make(bits.astype(bool)).bits == np.eye(2)).all()
    bits[0, 1] = entry
    with pytest.raises(InvalidInputError, match="0 or 1"):
        make(bits)


class TestLatinSquares:
    def test_order_one(self):
        c = latin_square_to_cube([[0]])
        assert c.bits.shape == (1, 1, 1) and c.bits[0, 0, 0] == 1

    def test_cyclic_order_three(self):
        square = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        c = latin_square_to_cube(square)
        assert verify_cube(c) and c.params == DesignParams(3, 1, 0)

    def test_rejects_non_latin(self):
        with pytest.raises(InvalidInputError):
            latin_square_to_cube([[0, 0], [1, 1]])


class TestHadamard:
    def test_menon_conversion(self):
        g16 = elementary_16()
        d = DifferenceSet(g16, (1, 2, 3, 4, 8, 12), (16, 6, 2))
        c = difference_cube(g16, d, 3)
        h = to_hadamard(c)
        assert hadamard_slice_checks(h)
        # every slice row sum is 2k - v = -4
        assert int(h[0].sum(axis=1)[0]) == -4

    def test_one_flipped_sign_fails(self):
        g16 = elementary_16()
        d = DifferenceSet(g16, (1, 2, 3, 4, 8, 12), (16, 6, 2))
        h = to_hadamard(difference_cube(g16, d, 3))
        h[3, 5, 7] *= -1
        assert not hadamard_slice_checks(h)

    def test_klein_conversion(self):
        z2 = make_cyclic(2)
        from symcube.groups import make_direct_product

        k4 = make_direct_product(z2, z2)
        d = DifferenceSet(k4, (0,), (4, 1, 0))
        h = to_hadamard(difference_cube(k4, d, 3))
        assert hadamard_slice_checks(h)

    @pytest.mark.parametrize(
        "h",
        [np.array(1), np.ones(4), np.ones((2, 3)), np.zeros((2, 2))],
        ids=["0-d", "1-d", "2x3", "zeros"],
    )
    def test_certificate_rejects_non_square_pm1(self, h):
        with pytest.raises(InvalidInputError, match="expected a square"):
            hadamard_certificate(h)

    def test_non_menon_rejected(self, fano_cube):
        with pytest.raises(InvalidInputError):
            to_hadamard(fano_cube)
