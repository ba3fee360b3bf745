import itertools
import random

import numpy as np
import pytest

from symcube import equivalence
from symcube.catalog import elementary_16, reference_catalog, switched_16_designs
from symcube.cubes import (
    Cube,
    ParatopyElement,
    apply_paratopy,
    difference_cube,
    group_cube,
)
from symcube.designs import DesignParams, IncidenceMatrix, design_class
from symcube.equivalence import (
    TransversalRep,
    are_isotopic,
    are_paratopic,
    autoparatopy_report,
    autotopy_report,
    canonical_certificate,
    cube_certificate,
    from_transversal,
    paratopy_witness,
    theoretical_autotopies,
    to_transversal,
    validate_transversal,
)
from symcube.errors import ConstructionBugError, InvalidInputError, NotACubeError, ResourceLimitError
from symcube.groups import DifferenceSet, difference_sets_up_to_equivalence, make_cyclic
from symcube.datafiles import data_dir, frobenius_21
from symcube.fileio import load_design
from symcube.perms import PermGroup
from symcube.search import _group_cube_seeds, build_seeded_cube_certificate

from named_cubes import (
    fano_cube as named_fano_cube,
    latin_square_to_cube,
    named_cube,
    point_perm,
    random_paratopy,
)


@pytest.fixture(scope="module")
def fano_cube():
    z7 = make_cyclic(7)
    return difference_cube(z7, DifferenceSet(z7, (1, 2, 4), (7, 3, 1)), 3)


class TestTransversalRep:
    def test_counts(self, fano_cube):
        t = to_transversal(fano_cube)
        assert t.n_points == 21
        assert len(t.blocks) == 3 * 49

    def test_counts_16(self):
        g16 = elementary_16()
        d = DifferenceSet(g16, (1, 2, 3, 4, 8, 12), (16, 6, 2))
        t = to_transversal(difference_cube(g16, d, 3))
        assert t.n_points == 48 and len(t.blocks) == 6 * 16 * 16

    def test_roundtrip(self, fano_cube):
        assert from_transversal(to_transversal(fano_cube)) == fano_cube

    def test_validate(self, fano_cube):
        assert validate_transversal(to_transversal(fano_cube)) == fano_cube

    def test_block_out_of_class_order_is_accepted(self, fano_cube):
        t = to_transversal(fano_cube)
        x, y, z = t.blocks[0]
        shuffled = TransversalRep(t.n, t.v, t.k, ((z, x, y),) + t.blocks[1:])
        assert validate_transversal(shuffled) == fano_cube

    def test_block_repeated_in_another_order_is_rejected(self, fano_cube):
        t = to_transversal(fano_cube)
        repeated = TransversalRep(t.n, t.v, t.k, t.blocks[:-1] + (t.blocks[0][::-1],))
        with pytest.raises(NotACubeError) as info:
            validate_transversal(repeated)
        assert info.value.constraint == "block-count"

    def test_strength_failure_is_rejected(self, fano_cube):
        # move the 1-cell (x, y, z) to a 0-cell (x, y, z') of the same line:
        # the lines through (x, *, z) and (x, *, z') then hold k -+ 1 ones
        t = to_transversal(fano_cube)
        x, y, z = t.blocks[0]
        free = next(w for w in range(2 * t.v, 3 * t.v) if (x, y, w) not in set(t.blocks))
        moved = TransversalRep(t.n, t.v, t.k, ((x, y, free),) + t.blocks[1:])
        with pytest.raises(NotACubeError):
            validate_transversal(moved)

    def test_class_partition_recoverability(self, fano_cube):
        # two points lie in the same class iff no block contains both
        t = to_transversal(fano_cube)
        together = set()
        for b in t.blocks:
            together.update(itertools.combinations(sorted(b), 2))
        for x in range(t.n_points):
            for y in range(x + 1, t.n_points):
                same_class = x // t.v == y // t.v
                assert same_class == ((x, y) not in together)


class TestCertificates:
    def test_stability_200_relabelings_small(self):
        z3 = make_cyclic(3)
        c = difference_cube(z3, DifferenceSet(z3, (1, 2), (3, 2, 1)), 3)
        rng = random.Random(21)
        for mode in ("uncolored", "colored"):
            base = cube_certificate(c, mode)
            for _ in range(200):
                img = apply_paratopy(c, random_paratopy(rng, 3, 3)) if mode == "uncolored" else c
                if mode == "colored":
                    # colored certificates only admit value permutations
                    p = random_paratopy(rng, 3, 3)
                    p = type(p)(p.perms, (0, 1, 2))
                    img = apply_paratopy(c, p)
                assert cube_certificate(img, mode) == base

    def test_stability_fano(self, fano_cube):
        rng = random.Random(22)
        base = cube_certificate(fano_cube, "uncolored")
        for _ in range(40):
            img = apply_paratopy(fano_cube, random_paratopy(rng, 3, 7))
            assert cube_certificate(img, "uncolored") == base

    def test_transversal_certificate_matches_cube(self, fano_cube):
        a = cube_certificate(fano_cube, "uncolored")
        b = canonical_certificate(to_transversal(fano_cube), "uncolored")
        assert a == b

    @pytest.mark.parametrize(
        "g,elements,params",
        [
            (make_cyclic(7), (1, 2, 4), (7, 3, 1)),
            (elementary_16(), (1, 2, 3, 4, 8, 12), (16, 6, 2)),
        ],
        ids=["fano", "z2^4"],
    )
    def test_one_certificate_path(self, g, elements, params):
        # seeded or not, from the cube or from its transversal: the same bytes
        c = difference_cube(g, DifferenceSet(g, elements, params), 3)
        seeds = _group_cube_seeds(g, 3)
        base = cube_certificate(c)
        assert build_seeded_cube_certificate(c, seeds) == base
        assert canonical_certificate(to_transversal(c)) == base

    def test_non_transversal_has_no_certificate(self, fano_cube):
        t = to_transversal(fano_cube)
        with pytest.raises(NotACubeError):
            canonical_certificate(TransversalRep(t.n, t.v, t.k, t.blocks[:-1]))
        repeated = TransversalRep(t.n, t.v, t.k, t.blocks[:-1] + t.blocks[:1])
        with pytest.raises(NotACubeError):
            canonical_certificate(repeated)
        # points 0 and 1 are both values of axis 0
        within_class = TransversalRep(t.n, t.v, t.k, ((0, 1, 9),) + t.blocks[1:])
        with pytest.raises(NotACubeError):
            canonical_certificate(within_class)

    def test_mode_separation(self, fano_cube):
        a = cube_certificate(fano_cube, "uncolored")
        b = cube_certificate(fano_cube, "colored")
        assert a != b


class TestEquivalenceDecisions:
    def test_constructed_equivalence_with_witness(self, fano_cube):
        rng = random.Random(3)
        for _ in range(5):
            p = random_paratopy(rng, 3, 7)
            other = apply_paratopy(fano_cube, p)
            assert are_paratopic(fano_cube, other)
            w = paratopy_witness(fano_cube, other)
            assert w is not None
            assert apply_paratopy(fano_cube, w) == other

    def test_isotopy_implies_paratopy(self, fano_cube):
        rng = random.Random(4)
        p = random_paratopy(rng, 3, 7)
        p = type(p)(p.perms, (0, 1, 2))  # pure isotopy
        other = apply_paratopy(fano_cube, p)
        assert are_isotopic(fano_cube, other)
        assert are_paratopic(fano_cube, other)
        w = paratopy_witness(fano_cube, other, "colored")
        assert w is not None and apply_paratopy(fano_cube, w) == other

    def test_example_4_2_cubes_inequivalent(self):
        f21 = frobenius_21()
        z21 = make_cyclic(21)
        c1 = difference_cube(f21, difference_sets_up_to_equivalence(f21, 5, 1)[0], 3)
        c2 = difference_cube(z21, difference_sets_up_to_equivalence(z21, 5, 1)[0], 3)
        assert not are_paratopic(c1, c2)
        assert paratopy_witness(c1, c2) is None

    def test_switched_design_cubes_inequivalent(self):
        g16 = elementary_16()
        _, d2m, d3m = switched_16_designs()
        a = group_cube(g16, d2m.columns_as_sets(), 3)
        b = group_cube(g16, d3m.columns_as_sets(), 3)
        assert not are_paratopic(a, b)

    def test_shape_mismatch(self, fano_cube):
        z3 = make_cyclic(3)
        small = difference_cube(z3, DifferenceSet(z3, (1, 2), (3, 2, 1)), 3)
        with pytest.raises(Exception):
            are_paratopic(fano_cube, small)


class TestTwoCubes:
    """A 2-cube is a symmetric design, and paratopy is isomorphism up to
    duality, which ``design_class`` decides on its own path."""

    @pytest.fixture(scope="class")
    def cubes(self):
        """The catalog designs (D1-D3 are the three (16,6,2) designs), their
        transposes and a seeded paratopy image of each, as 2-cubes."""
        rng = random.Random(19)
        out = []
        for entry in reference_catalog().entries:
            for bits in (entry.matrix.bits, entry.matrix.bits.T):
                c = Cube(bits, entry.params)
                out += [c, apply_paratopy(c, random_paratopy(rng, 2, c.v))]
        return out

    def test_paratopy_matches_design_class(self, cubes):
        oracle = [design_class(IncidenceMatrix(c.bits, c.params)).certificate for c in cubes]
        outcomes = set()
        for (a, cert_a), (b, cert_b) in itertools.combinations(zip(cubes, oracle), 2):
            if a.params == b.params:
                assert are_paratopic(a, b) == (cert_a == cert_b)
                outcomes.add(cert_a == cert_b)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("seed", range(4))
    def test_witness(self, seed):
        rng = random.Random(seed)
        d1, d2, _ = switched_16_designs()
        c = Cube(d1.bits, d1.params)
        image = apply_paratopy(c, random_paratopy(rng, 2, 16))
        w = paratopy_witness(c, image)
        assert w is not None and apply_paratopy(c, w) == image
        assert paratopy_witness(c, Cube(d2.bits, d2.params)) is None


class TestReports:
    def test_fano_autotopy_group(self, fano_cube):
        rep = autotopy_report(fano_cube)
        assert rep.order == 147  # 7^2 * |Mult| with |Mult| = 3
        for w in rep.generators:
            assert apply_paratopy(fano_cube, w) == fano_cube

    def test_fano_autoparatopy_index(self, fano_cube):
        atop = autotopy_report(fano_cube).order
        apar = autoparatopy_report(fano_cube).order
        assert apar % atop == 0
        assert apar // atop == 6  # totally symmetric: full S_3 on axes
        assert apar // atop <= 6


class TestLabellingCache:
    """Each cube keeps its unseeded labelling per mode, so the isotopy
    test, the autotopy report and the certificate label it once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        canonicalize = equivalence.canonicalize

        def counting(*args, **kwargs):
            res = canonicalize(*args, **kwargs)
            counted.append(res)
            return res

        monkeypatch.setattr(equivalence, "canonicalize", counting)
        return counted

    @staticmethod
    def _cube_and_isotope():
        z7 = make_cyclic(7)
        c = difference_cube(z7, DifferenceSet(z7, (1, 2, 4), (7, 3, 1)), 3)
        perms = tuple(tuple(random.Random(t).sample(range(7), 7)) for t in range(3))
        return c, apply_paratopy(c, ParatopyElement(perms, (0, 1, 2)))

    def test_one_colored_labelling_per_cube(self, calls):
        c, isotope = self._cube_and_isotope()
        assert are_isotopic(c, isotope)
        assert len(calls) == 2  # c and its isotope
        assert autotopy_report(c).order == 147
        cert = cube_certificate(c, "colored")
        assert len(calls) == 2
        # the cached labelling gives the certificate a fresh cube gets
        assert cert == cube_certificate(Cube(c.bits, c.params), "colored")
        assert len(calls) == 3

    def test_seeded_certificate_is_not_cached(self, calls):
        c, _ = self._cube_and_isotope()
        plain = cube_certificate(c, "uncolored")
        seeds = _group_cube_seeds(make_cyclic(7), 3)
        assert build_seeded_cube_certificate(c, seeds) == plain
        assert build_seeded_cube_certificate(c, seeds) == plain
        assert len(calls) == 3
        cube_certificate(c, "uncolored")
        assert len(calls) == 3

    def test_labelling_over_budget_caches_nothing(self, calls):
        c, _ = self._cube_and_isotope()
        # a labelling either completes or raises: nothing partial is kept
        with pytest.raises(ResourceLimitError, match="labelling"):
            build_seeded_cube_certificate(c, (), time_budget=-1.0)
        assert not c._labellings
        assert autotopy_report(c).order == 147
        assert len(calls) == 1
        cert = build_seeded_cube_certificate(c)
        assert cube_certificate(c, "uncolored") == cert
        assert len(calls) == 2

    def test_unverified_seeds_leave_no_keys(self):
        # keys read off the orbits of a non-automorphism would be wrong:
        # canon rejects the seed, and the cube keeps no keys
        c = named_cube("D2")
        keys = equivalence._slice_pair_keys(c.bits)
        i, j = next((i, j) for i in range(16) for j in range(i) if (keys[i] != keys[j]).any())
        bogus = list(range(48))
        bogus[i], bogus[j] = j, i
        with pytest.raises(ConstructionBugError, match="not an automorphism"):
            build_seeded_cube_certificate(c, [bogus])
        assert c._pair_keys is None
        assert cube_certificate(c) == cube_certificate(Cube(c.bits, c.params))
        assert c._pair_keys.tobytes() == keys.tobytes()

    @pytest.mark.parametrize("seed", [[0] * 48, [0, 1], list(range(47)) + [48]])
    def test_malformed_seeds_are_rejected(self, seed):
        # the keys are then computed without orbits, and canon rejects the seed
        c = named_cube("D2")
        with pytest.raises(InvalidInputError, match="permute"):
            build_seeded_cube_certificate(c, [seed])
        assert c._pair_keys is None

    def test_verified_seeds_leave_the_full_keys(self):
        g = elementary_16()
        c = named_cube("D2")
        build_seeded_cube_certificate(c, _group_cube_seeds(g, 3))
        assert c._pair_keys.tobytes() == equivalence._slice_pair_keys(c.bits).tobytes()

    def test_one_slice_pair_key_per_cube(self, monkeypatch):
        keyed = []
        keys = equivalence._slice_pair_keys

        def counting(bits):
            keyed.append(bits)
            return keys(bits)

        monkeypatch.setattr(equivalence, "_slice_pair_keys", counting)
        c, isotope = self._cube_and_isotope()
        ident = tuple(range(7))
        image = apply_paratopy(isotope, ParatopyElement((ident, ident, ident), (2, 0, 1)))
        assert paratopy_witness(c, image) is not None
        assert are_isotopic(c, isotope)
        # the uncolored and colored labellings of c share its keys, and a
        # seeded one reads them too
        assert sum(bits is c.bits for bits in keyed) == 1 and len(keyed) == 3
        build_seeded_cube_certificate(c, _group_cube_seeds(make_cyclic(7), 3))
        assert len(keyed) == 3


def _reference_colors(c, mode):
    """The slice-pair colors of a 3-cube from their definition, one slice
    product at a time: the key of point (d, i) is the sorted tuple, over
    j != i, of the sorted pair of entry histograms of S_i S_j^T and
    S_i^T S_j; the colors rank (axis, key) in colored mode and the key alone
    in uncolored mode."""
    v = c.v
    keys = []
    for d in range(3):
        slices = [np.take(c.bits, i, axis=d).astype(np.int64) for i in range(v)]
        for i, s in enumerate(slices):
            pairs = []
            for j, t in enumerate(slices):
                if j != i:
                    row = tuple(np.bincount((s @ t.T).ravel(), minlength=v + 1))
                    col = tuple(np.bincount((s.T @ t).ravel(), minlength=v + 1))
                    pairs.append(tuple(sorted((row, col))))
            keys.append((d if mode == "colored" else 0, tuple(sorted(pairs))))
    ranks = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [ranks[k] for k in keys]


class TestSlicePairColors:
    """The initial point colors of a 3-cube's labelling are the dense ranks
    of its slice-pair keys: paratopy invariants that split the points of
    the refinement-stable group cubes, so canon's tree no longer depends
    much on the labels of its input."""

    @pytest.mark.parametrize("name", ["fano", "D2", "C3", "example52"])
    @pytest.mark.parametrize("mode", ["uncolored", "colored"])
    def test_colors_follow_the_definition(self, name, mode):
        c = named_cube(name)
        assert equivalence._point_colors(c, mode).tolist() == _reference_colors(c, mode)

    @pytest.mark.parametrize("name", ["D2", "D3", "C3", "example52"])
    @pytest.mark.parametrize("mode", ["uncolored", "colored"])
    def test_colors_are_invariant(self, name, mode):
        """Point q of the cube and its image under a random paratopy (an
        isotopy in colored mode) have one color."""
        c = named_cube(name)
        colors = equivalence._point_colors(c, mode)
        assert len(set(colors.tolist())) > (3 if mode == "colored" else 1)
        rng = random.Random(f"{name} {mode}")
        for _ in range(3):
            p = random_paratopy(rng, c.n, c.v)
            if mode == "colored":
                p = ParatopyElement(p.perms, (0, 1, 2))
            image_colors = equivalence._point_colors(apply_paratopy(c, p), mode)
            to_image = np.asarray(point_perm(p, c.n, c.v))
            assert (image_colors[to_image] == colors).all()

    def test_other_dimensions_keep_the_plain_colors(self):
        c = named_fano_cube(4)
        assert equivalence._point_colors(c, "uncolored").tolist() == [0] * 28
        colored = equivalence._point_colors(c, "colored")
        assert colored.tolist() == [t for t in range(4) for _ in range(7)]

    @pytest.mark.parametrize("v", [0, 1])
    def test_cubes_without_slice_pairs_keep_the_plain_colors(self, v):
        c = Cube(np.ones((v, v, v), dtype=np.uint8), DesignParams(v, v, 0))
        assert equivalence._point_colors(c, "uncolored").tolist() == [0] * (3 * v)
        assert equivalence._point_colors(c, "colored").tolist() == [0] * v + [1] * v + [2] * v

    @pytest.mark.parametrize("name", ["D2", "D3"])
    def test_tree_size_barely_depends_on_the_labels(self, name):
        """Without the slice-pair colors, random paratopy images of D2 and
        D3 took 214 to 3,633 nodes; with them, at most a few dozen."""
        c = named_cube(name)
        rng = random.Random(f"{name} labels")
        for _ in range(3):
            image = apply_paratopy(c, random_paratopy(rng, c.n, c.v))
            assert equivalence._canonicalize(image, "uncolored").node_count <= 100


class TestTheoreticalAutotopies:
    def test_trivial_group(self):
        g = make_cyclic(1)
        d = DifferenceSet(g, (0,), (1, 1, 1))
        gens = theoretical_autotopies(g, d, 3)
        assert PermGroup([point_perm(w, 3, 1) for w in gens], 3).order() == 1

    def test_fano_subgroup_order(self, fano_cube):
        z7 = make_cyclic(7)
        d = DifferenceSet(z7, (1, 2, 4), (7, 3, 1))
        gens = theoretical_autotopies(z7, d, 3)
        order = PermGroup([point_perm(w, 3, 7) for w in gens], 21).order()
        assert order == 147  # 7^2 * 3
        assert autotopy_report(fano_cube).order % order == 0

    def test_fano_subgroup_order_n4(self):
        z7 = make_cyclic(7)
        d = DifferenceSet(z7, (1, 2, 4), (7, 3, 1))
        gens = theoretical_autotopies(z7, d, 4)
        order = PermGroup([point_perm(w, 4, 7) for w in gens], 28).order()
        assert order == 1029  # 7^3 * 3

    def test_f21_subgroup_is_full_group(self):
        f21 = frobenius_21()
        d = difference_sets_up_to_equivalence(f21, 5, 1)[0]
        gens = theoretical_autotopies(f21, d, 3)
        assert PermGroup([point_perm(w, 3, 21) for w in gens], 63).order() == 1323

    def test_group_cube_seeds_fix_f21_nondevelopment_cube_n4(self):
        f21 = frobenius_21()
        nondev = load_design(data_dir() / "designs" / "f21_nondev.design")
        c = group_cube(f21, nondev.columns_as_sets(), 4)
        blocks = np.array(to_transversal(c).blocks)

        def block_set(arr):
            return set(map(tuple, np.sort(arr, axis=1).tolist()))

        seeds = _group_cube_seeds(f21, 4)
        assert len(seeds) == 2 * len(f21.generating_sequence())
        for seed in seeds:
            assert block_set(np.asarray(seed)[blocks]) == block_set(blocks)


class TestBruteForceOracle:
    """Certificate decisions versus exhaustive search over the full
    paratopy and isotopy groups at tiny scale."""

    @staticmethod
    def latin_cubes(v):
        squares = []
        for perm_rows in itertools.permutations(itertools.permutations(range(v)), v):
            cols = list(zip(*perm_rows))
            if all(sorted(col) == list(range(v)) for col in cols):
                squares.append(perm_rows)
        return [latin_square_to_cube([list(r) for r in s]) for s in squares]

    def test_oracle_k1_order3(self):
        self._check(self.latin_cubes(3), 3)

    def test_oracle_k2_order3(self):
        z3 = make_cyclic(3)
        base = difference_cube(z3, DifferenceSet(z3, (1, 2), (3, 2, 1)), 3)
        rng = random.Random(8)
        cubes = [base] + [
            apply_paratopy(base, random_paratopy(rng, 3, 3)) for _ in range(11)
        ]
        self._check(cubes, 3)

    def _check(self, cubes, v):
        from symcube.cubes import Cube

        maps_iso, maps_par = _cell_maps(v, 3)
        brute_iso = [_brute_canon(c.bits, maps_iso) for c in cubes]
        brute_par = [_brute_canon(c.bits, maps_par) for c in cubes]
        cert_iso = [cube_certificate(c, "colored") for c in cubes]
        cert_par = [cube_certificate(c, "uncolored") for c in cubes]
        for i in range(len(cubes)):
            for j in range(i + 1, len(cubes)):
                assert (brute_iso[i] == brute_iso[j]) == (cert_iso[i] == cert_iso[j])
                assert (brute_par[i] == brute_par[j]) == (cert_par[i] == cert_par[j])


def _cell_maps(v, n):
    """Flat-index permutation tables for the full isotopy and paratopy
    groups, built by applying each element to an index cube."""
    from symcube.cubes import ParatopyElement

    idx = np.arange(v**n).reshape((v,) * n)
    iso_maps = []
    par_maps = []
    perms = list(itertools.permutations(range(v)))
    for alphas in itertools.product(perms, repeat=n):
        for gamma in itertools.permutations(range(n)):
            p = ParatopyElement(tuple(alphas), tuple(gamma))
            conj = np.transpose(idx, axes=p.axis_perm)
            gathers = tuple(
                np.asarray([p.perms[t].index(x) for x in range(v)]) for t in range(n)
            )
            table = conj[np.ix_(*gathers)].ravel()
            par_maps.append(table)
            if gamma == tuple(range(n)):
                iso_maps.append(table)
    return np.array(iso_maps), np.array(par_maps)


def _brute_canon(bits, maps):
    flat = bits.ravel().astype(np.uint8)
    images = flat[maps]
    packed = np.packbits(images, axis=1)
    return min(row.tobytes() for row in packed)
