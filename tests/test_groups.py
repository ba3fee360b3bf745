import itertools
import random
import time

import numpy as np
import pytest

from symcube import groups
from symcube.cli import main
from symcube.datafiles import frobenius_21, load_group_16, nonabelian_27
from symcube.designs import DesignParams, development, verify_design
from symcube.errors import ConstructionBugError, InvalidInputError, ResourceLimitError
from symcube.groups import (
    DifferenceSet,
    FiniteGroup,
    automorphism_generators,
    automorphism_group,
    difference_sets_up_to_equivalence,
    enumerate_difference_sets,
    find_isomorphism,
    is_difference_set,
    make_cyclic,
    make_direct_product,
    make_from_permutation_generators,
    make_metacyclic,
    multipliers,
)
from symcube.perms import PermGroup, compose


def klein():
    return make_direct_product(make_cyclic(2), make_cyclic(2))


def z2_4():
    return make_direct_product(klein(), klein())


def left_translations(g):
    """The permutations x -> a x of g's generating sequence."""
    return [tuple(g.table[a].tolist()) for a in g.generating_sequence()]


def is_isomorphism(source, target, images):
    """Whether the image row is a bijective homomorphism source -> target."""
    v = source.order
    s, t = source.table.tolist(), target.table.tolist()
    return sorted(images) == list(range(target.order)) and all(
        images[s[i][j]] == t[images[i]][images[j]]
        for i in range(v)
        for j in range(v)
    )


class TestConstructors:
    def test_trivial_group(self):
        g = make_cyclic(1)
        assert g.table.tolist() == [[0]]

    def test_cyclic_arithmetic(self):
        z7 = make_cyclic(7)
        assert z7.table[3][5] == 1

    def test_cyclic_generator_order(self):
        z21 = make_cyclic(21)
        assert z21.element_orders[1] == 21

    def test_invalid_order(self):
        with pytest.raises(InvalidInputError):
            make_cyclic(0)

    def test_klein_group_exponent(self):
        k4 = klein()
        assert (k4.element_orders <= 2).all()

    def test_z2_4_order_and_xor(self):
        g = z2_4()
        assert g.order == 16
        # lexicographic bit numbering makes multiplication XOR of indices
        for a, b in itertools.product(range(16), repeat=2):
            assert g.table[a][b] == a ^ b

    def test_z2_x_z3_is_cyclic(self):
        g = make_direct_product(make_cyclic(2), make_cyclic(3))
        z6 = make_cyclic(6)
        iso = find_isomorphism(g, z6)
        assert iso is not None and is_isomorphism(g, z6, iso)

    def test_metacyclic_f21(self):
        f21 = make_metacyclic(3, 7, 2)
        assert f21.order == 21 and not f21.is_abelian()

    def test_metacyclic_trivial_action(self):
        g = make_metacyclic(2, 3, 1)
        assert g.is_abelian()
        assert find_isomorphism(g, make_cyclic(6)) is not None

    def test_metacyclic_27(self):
        g = make_metacyclic(3, 9, 4)
        assert g.order == 27 and not g.is_abelian()
        assert g.element_orders.max() == 9

    def test_metacyclic_invalid_action(self):
        with pytest.raises(InvalidInputError):
            make_metacyclic(3, 7, 3)  # 3^3 = 27 != 1 mod 7

    def test_from_permutation_generators(self):
        z2 = make_from_permutation_generators([(1, 0)])
        assert z2.order == 2
        dihedral = make_from_permutation_generators([(1, 2, 3, 0), (2, 1, 0, 3)])
        assert dihedral.order == 8 and not dihedral.is_abelian()

    @pytest.mark.parametrize(
        "make_gens",
        [
            pytest.param(lambda: [(1, 2, 3, 0), (2, 1, 0, 3)], id="D4-on-4-points"),
            pytest.param(lambda: [(1, 2, 0, 4, 5, 3), (3, 4, 5, 0, 1, 2)], id="Z6-on-6-points"),
        ]
        + [
            pytest.param(lambda gid=gid: left_translations(load_group_16(gid)), id=f"id16:{gid}")
            for gid in (1, 6, 9, 14)
        ],
    )
    def test_permutation_table_is_the_composition_table(self, make_gens):
        """Each row is filled from its BFS parent's; entry (i, j) must be the
        index of e_i e_j, recomputed here one composition at a time."""
        gens = make_gens()
        elements = groups._permutation_closure(gens, len(gens[0]))[0]
        index = {p: i for i, p in enumerate(elements)}
        table = make_from_permutation_generators(gens).table.tolist()
        assert table == [[index[compose(p, q)] for q in elements] for p in elements]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_cyclic(groups.MAX_GROUP_ORDER + 1),
            lambda: make_metacyclic(2, groups.MAX_GROUP_ORDER // 2 + 1, 1),
            lambda: make_direct_product(make_cyclic(33), make_cyclic(32)),
        ],
        ids=["cyclic", "metacyclic", "product"],
    )
    def test_constructors_bound_the_order(self, build):
        with pytest.raises(ResourceLimitError, match="exceeds the limit"):
            build()

    def test_from_permutation_generators_limits(self):
        # S_8 (order 40320) from an 8-cycle and a transposition
        s8 = [tuple(list(range(1, 8)) + [0]), (1, 0, 2, 3, 4, 5, 6, 7)]
        with pytest.raises(ResourceLimitError, match="exceeds the limit"):
            make_from_permutation_generators(s8)
        assert make_from_permutation_generators([]).order == 1


class TestValidation:
    def test_corrupted_tables_rejected(self):
        z5 = make_cyclic(5)
        rng = random.Random(3)
        rejected = 0
        for _ in range(40):
            table = z5.table.tolist()
            i, j = rng.randrange(5), rng.randrange(5)
            delta = rng.randrange(1, 5)
            table[i][j] = (table[i][j] + delta) % 5
            try:
                FiniteGroup(table)
            except InvalidInputError:
                rejected += 1
        assert rejected == 40

    def test_non_associative_rejected(self):
        # a Latin square with identity that is not a group table
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
        with pytest.raises(InvalidInputError):
            FiniteGroup(table)


ARRAY_GROUPS = [
    pytest.param(lambda gid=gid: load_group_16(gid), id=f"id16:{gid}") for gid in range(1, 15)
] + [
    pytest.param(frobenius_21, id="F21"),
    pytest.param(nonabelian_27, id="Z9:Z3"),
]


class TestArrays:
    @pytest.mark.parametrize("make_group", ARRAY_GROUPS)
    def test_inverses_and_orders_match_brute_force(self, make_group):
        g = make_group()
        t = g.table.tolist()
        inverses = [next(y for y in range(g.order) if t[x][y] == 0) for x in range(g.order)]
        orders = []
        for x in range(g.order):
            n, y = 1, x
            while y != 0:
                n, y = n + 1, t[y][x]
            orders.append(n)
        assert g.inverses.tolist() == inverses and g.element_orders.tolist() == orders

    def test_arrays_are_read_only_int64(self):
        g = frobenius_21()
        for name in ("table", "inverses", "element_orders"):
            a = getattr(g, name)
            assert a.dtype == np.int64
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1

    @pytest.mark.parametrize(
        "make_group", [frobenius_21, nonabelian_27, lambda: load_group_16(9), klein]
    )
    def test_unvalidated_table_gives_an_equal_group(self, make_group):
        g = make_group()
        for table in (g.table, g.table.tolist()):
            h = FiniteGroup(table, validate=False)
            assert h == g and hash(h) == hash(g) and h == FiniteGroup(table)
        assert g != make_cyclic(g.order)

    @pytest.mark.parametrize(
        "table,message",
        [
            ([], "invalid-order"),
            ([[0, 1], [1]], "table is not square"),
            ([[0, 1], [1, 0], [0, 1]], "table is not square"),
            ([[0, 1], [1, 0.5]], "table is not square"),
            ([[0.0, 1.0], [1.0, 0.0]], "table is not square"),
            ([["0", "1"], ["1", "0"]], "table is not square"),
            ([[1, 0], [0, 1]], "element 0 is not a two-sided identity"),
            ([[0, 1, 2], [1, 1, 0], [2, 0, 1]], "row 1 is not a permutation"),
            ([[0, 1], [1, 2]], "row 1 is not a permutation"),
            ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "column 1 is not a permutation"),
            (
                [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]],
                r"associativity fails at \(1,1,2\)",
            ),
        ],
    )
    def test_each_axiom_has_its_own_message(self, table, message):
        with pytest.raises(InvalidInputError, match=message):
            FiniteGroup(table)

    def test_label_count_is_checked(self):
        with pytest.raises(InvalidInputError, match="label count"):
            FiniteGroup([[0, 1], [1, 0]], labels=["1"])


class TestAutomorphisms:
    def test_aut_z7_brute_force(self):
        z7 = make_cyclic(7)
        auts = automorphism_group(z7)
        # independent oracle: all bijections fixing 0 that are homomorphisms
        brute = []
        for images in itertools.permutations(range(1, 7)):
            img = (0,) + images
            if all(
                img[z7.table[i][j]] == z7.table[img[i]][img[j]]
                for i in range(7)
                for j in range(7)
            ):
                brute.append(img)
        assert sorted(map(tuple, auts.tolist())) == sorted(brute)
        assert len(auts) == 6

    def test_aut_trivial(self):
        auts = automorphism_group(make_cyclic(1))
        assert len(auts) == 1

    def test_aut_z2_4_order(self):
        # |GL(4,2)| by counting ordered bases: (16-1)(16-2)(16-4)(16-8)
        expected = 15 * 14 * 12 * 8
        assert len(automorphism_group(z2_4())) == expected

    def test_aut_group_closure(self):
        g = make_metacyclic(2, 4, 3)  # D8
        auts = [tuple(row) for row in automorphism_group(g).tolist()]
        images = set(auts)
        ident = tuple(range(g.order))
        assert ident in images
        for a in auts:
            inv = [0] * g.order
            for i, j in enumerate(a):
                inv[j] = i
            assert tuple(inv) in images
        for a, b in itertools.islice(itertools.product(auts, repeat=2), 64):
            composed = tuple(a[b[x]] for x in range(g.order))
            assert composed in images

    def test_find_isomorphism_negative(self):
        assert find_isomorphism(make_cyclic(4), klein()) is None

    def test_find_isomorphism_identity_case(self):
        g = make_cyclic(9)
        iso = find_isomorphism(g, g)
        assert iso is not None and is_isomorphism(g, g, iso)


class TestDifferenceSets:
    def test_fano_set(self):
        z7 = make_cyclic(7)
        assert is_difference_set(z7, [1, 2, 4], 1)
        assert not is_difference_set(z7, [1, 2, 3], 1)

    def test_full_group_is_difference_set(self):
        g = make_cyclic(5)
        assert is_difference_set(g, range(5), 5)

    def test_enumeration_against_brute_force(self):
        z7 = make_cyclic(7)
        out = enumerate_difference_sets(z7, 3, 1)
        brute = [
            s
            for s in itertools.combinations(range(7), 3)
            if is_difference_set(z7, s, 1)
        ]
        assert [d.elements for d in out] == brute
        assert len(out) == 14

    def test_enumeration_z16_empty(self):
        assert enumerate_difference_sets(make_cyclic(16), 6, 2) == []

    def test_enumeration_z2_4_count(self):
        assert len(enumerate_difference_sets(z2_4(), 6, 2)) == 448

    def test_classes_z2_4(self):
        assert len(difference_sets_up_to_equivalence(z2_4(), 6, 2)) == 1

    def test_classes_z4_z4_against_full_orbits(self):
        # oracle: the orbit of every set under all maps D -> a*phi(D),
        # phi in Aut(G), a in G, with the lexicographic minimum as its label
        z4 = make_cyclic(4)
        g = make_direct_product(z4, z4)
        all_sets = enumerate_difference_sets(g, 6, 2)
        auts = automorphism_group(g)
        reps = set()
        t = g.table.tolist()
        for d in all_sets:
            orbit = {
                tuple(sorted(t[a][phi[x]] for x in d.elements))
                for phi in auts
                for a in range(g.order)
            }
            reps.add(min(orbit))
        classes = difference_sets_up_to_equivalence(g, 6, 2, all_sets)
        assert len(classes) == 3
        assert [d.elements for d in classes] == sorted(reps)

    def test_classes_need_a_closed_family(self):
        all_sets = enumerate_difference_sets(z2_4(), 6, 2)
        with pytest.raises(ConstructionBugError, match="left the enumerated set"):
            difference_sets_up_to_equivalence(z2_4(), 6, 2, all_sets[:-1])

    def test_orbit_property(self):
        z13 = make_cyclic(13)
        d = difference_sets_up_to_equivalence(z13, 4, 1)[0]
        rng = random.Random(11)
        auts = automorphism_group(z13)
        for _ in range(20):
            phi = rng.choice(auts)
            a = rng.randrange(13)
            image = [z13.table[a][phi[x]] for x in d.elements]
            assert is_difference_set(z13, image, 1)

    def test_left_right_agreement_forced(self):
        # right differences stay consistent on every accepted and rejected set
        z7 = make_cyclic(7)
        for s in itertools.combinations(range(7), 3):
            is_difference_set(z7, s, 1)

    def test_difference_set_type_validation(self):
        z7 = make_cyclic(7)
        with pytest.raises(InvalidInputError):
            DifferenceSet(z7, (1, 2, 3), (7, 3, 1))
        with pytest.raises(InvalidInputError):
            DifferenceSet(z7, (1, 2, 4), (7, 3, 2))


DOUBLE_COUNT_CASES = [
    pytest.param(lambda gid=gid: load_group_16(gid), 6, 2, id=f"id16:{gid}")
    for gid in range(1, 15)
] + [
    pytest.param(frobenius_21, 5, 1, id="F21"),
    pytest.param(lambda: make_cyclic(21), 5, 1, id="Z21"),
    pytest.param(lambda: make_cyclic(15), 7, 3, id="Z15"),
    pytest.param(lambda: make_cyclic(13), 4, 1, id="Z13"),
]


@pytest.mark.parametrize("make_group,k,lam", DOUBLE_COUNT_CASES)
def test_difference_sets_by_double_counting(make_group, k, lam):
    # the maps x -> a*phi(x) number |G|*|Aut(G)|, and those fixing D are
    # Mult(D) (its translates are distinct), so D's class has
    # |G|*|Aut(G)|/|Mult(D)| members
    g = make_group()
    sets = enumerate_difference_sets(g, k, lam)
    n_aut = len(automorphism_group(g))
    classes = difference_sets_up_to_equivalence(g, k, lam, sets)
    assert sum(g.order * n_aut // len(multipliers(d)) for d in classes) == len(sets)


class TestMultipliersAndDevelopment:
    def test_multipliers_fano(self):
        z7 = make_cyclic(7)
        d = DifferenceSet(z7, (1, 2, 4), (7, 3, 1))
        mults = multipliers(d)
        maps = sorted(m.images[1] for m in mults)
        assert maps == [1, 2, 4]  # x -> x, 2x, 4x

    def test_multipliers_trivial_set(self):
        g = make_metacyclic(2, 4, 3)
        d = DifferenceSet(g, (0,), (8, 1, 0))
        assert len(multipliers(d)) == len(automorphism_group(g))

    def test_development_design_equation(self):
        z7 = make_cyclic(7)
        d = DifferenceSet(z7, (1, 2, 4), (7, 3, 1))
        dev = development(d)
        assert verify_design(dev, DesignParams(7, 3, 1))
        m = dev.bits.astype(int)
        assert np.array_equal(m @ m.T, 2 * np.eye(7, dtype=int) + 1)

    def test_development_of_identity_singleton(self):
        z3 = make_cyclic(3)
        d = DifferenceSet(z3, (0,), (3, 1, 0))
        dev = development(d)
        assert (dev.bits.sum(axis=0) == 1).all() and (dev.bits.sum(axis=1) == 1).all()


# -- depth-first oracles ---------------------------------------------------------
#
# The depth-first searches that the level-wise batch searches of
# ``symcube.groups`` replaced.  Both visit their solutions in lexicographic
# order, so the batch searches must return the same rows in the same order.


def dfs_extend_homomorphism(source, target, gens, gen_images, require_full=False):
    """Extend generator images over the generated subgroup along a walk of
    its Cayley graph; None on a broken homomorphism law or injectivity."""
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
    s, t = source.table.tolist(), target.table.tolist()
    while queue:
        x = queue.pop()
        for g, ig in zip(gens, gen_images):
            y = s[x][g]
            iy = t[img[x]][ig]
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


def dfs_isomorphism_search(source, target, find_all):
    if source.order != target.order:
        return []
    src_orders = source.element_orders.tolist()
    tgt_orders = target.element_orders.tolist()
    if sorted(src_orders) != sorted(tgt_orders):
        return []
    gens = source.generating_sequence()
    found = []
    candidates_by_order = {}
    for x in range(target.order):
        candidates_by_order.setdefault(tgt_orders[x], []).append(x)

    def backtrack(level, images):
        if level == len(gens):
            img = dfs_extend_homomorphism(source, target, gens, images, require_full=True)
            if img is not None:
                found.append(img)
                return not find_all
            return False
        for cand in candidates_by_order.get(src_orders[gens[level]], ()):
            images.append(cand)
            if dfs_extend_homomorphism(source, target, gens[: level + 1], images) is not None:
                if backtrack(level + 1, images):
                    images.pop()
                    return True
            images.pop()
        return False

    backtrack(0, [])
    return found


def dfs_difference_sets(g, k, lam, max_nodes=50_000_000):
    """Element tuples of the (v,k,lam) difference sets by lexicographic
    subset backtracking, pruned by partial left-difference counts."""
    v = g.order
    if lam * (v - 1) != k * (k - 1):
        return []
    table, inv = g.table.tolist(), g.inverses.tolist()
    counts = [0] * v
    chosen = []
    out = []
    nodes = 0

    def add_diffs(x, sign):
        ok = True
        for y in chosen:
            a = table[inv[y]][x]
            b = table[inv[x]][y]
            counts[a] += sign
            counts[b] += sign
            if counts[a] > lam or counts[b] > lam:
                ok = False
        return ok

    def backtrack(start):
        nonlocal nodes
        if len(chosen) == k:
            if all(counts[x] == lam for x in range(1, v)):
                out.append(tuple(chosen))
            return
        for x in range(start, v - (k - len(chosen)) + 1):
            nodes += 1
            if nodes > max_nodes:
                raise ResourceLimitError("enumeration budget exceeded")
            if add_diffs(x, +1):
                chosen.append(x)
                backtrack(x + 1)
                chosen.pop()
            add_diffs(x, -1)

    backtrack(0)
    return out


def relabelled(g, seed):
    """A copy of g with its non-identity elements shuffled."""
    perm = [0] + random.Random(seed).sample(range(1, g.order), g.order - 1)
    inv = [0] * g.order
    for i, p in enumerate(perm):
        inv[p] = i
    n, t = g.order, g.table.tolist()
    return FiniteGroup([[perm[t[inv[a]][inv[b]]] for b in range(n)] for a in range(n)])


AUT_ORACLE_CASES = [
    pytest.param(lambda gid=gid: load_group_16(gid), id=f"id16:{gid}") for gid in range(1, 15)
] + [
    pytest.param(frobenius_21, id="F21"),
    pytest.param(lambda: make_cyclic(21), id="Z21"),
    pytest.param(lambda: make_metacyclic(2, 4, 3), id="D8"),
    pytest.param(lambda: make_cyclic(1), id="Z1"),
    # the oracle takes about 1 s per copy of Aut(Z2^4) = GL(4,2)
    pytest.param(
        lambda: relabelled(load_group_16(14), 14),
        id="id16:14-relabelled",
        marks=pytest.mark.extended,
    ),
]


@pytest.mark.parametrize("make_group", AUT_ORACLE_CASES)
def test_automorphism_group_matches_depth_first_search(make_group):
    g = make_group()
    expected = np.array(dfs_isomorphism_search(g, g, find_all=True), dtype=np.int32)
    auts = automorphism_group(g)
    assert auts.dtype == expected.dtype and auts.shape == expected.shape
    assert auts.tobytes() == expected.tobytes()


@pytest.mark.parametrize("gid", range(1, 15))
def test_find_isomorphism_matches_depth_first_search(gid):
    g = load_group_16(gid)
    h = relabelled(g, gid)
    for source, target in ((g, h), (h, g)):
        [expected] = dfs_isomorphism_search(source, target, find_all=False)
        assert find_isomorphism(source, target) == expected


def test_find_isomorphism_in_single_row_runs(monkeypatch):
    """Searched one survivor at a time, depth first, the first complete map
    is still the depth-first search's first."""
    monkeypatch.setattr(groups, "_ISO_RUN", 1)
    for gid in (1, 4, 9, 14):
        g = load_group_16(gid)
        h = relabelled(g, gid)
        [expected] = dfs_isomorphism_search(g, h, find_all=False)
        assert find_isomorphism(g, h) == expected
    assert find_isomorphism(load_group_16(2), load_group_16(4)) is None


def test_find_isomorphism_rejects_groups_with_equal_element_orders():
    z4xz4, z4_z4 = load_group_16(2), load_group_16(4)  # Z4 x Z4 and Z4 x| Z4

    def census(g):
        return sorted(g.element_orders.tolist())

    # equal censuses, so the search itself must tell the groups apart
    assert census(z4xz4) == census(z4_z4)
    for source, target in ((z4xz4, z4_z4), (z4_z4, z4xz4)):
        assert dfs_isomorphism_search(source, target, find_all=False) == []
        assert find_isomorphism(source, target) is None


DS_ORACLE_CASES = (
    [
        pytest.param(lambda gid=gid: load_group_16(gid), 6, 2, id=f"id16:{gid}")
        for gid in range(1, 15)
    ]
    + [
        pytest.param(lambda gid=gid: load_group_16(gid), 10, 6, id=f"id16:{gid}-complements")
        for gid in (2, 14)
    ]
    + [
        pytest.param(lambda: make_cyclic(7), 3, 1, id="Z7"),
        pytest.param(frobenius_21, 5, 1, id="F21"),
        pytest.param(lambda: make_cyclic(21), 5, 1, id="Z21"),
        pytest.param(lambda: make_cyclic(15), 7, 3, id="Z15"),
        pytest.param(lambda: make_cyclic(13), 4, 1, id="Z13"),
        pytest.param(lambda: make_cyclic(11), 5, 2, id="Z11"),
        pytest.param(lambda: make_cyclic(7), 7, 7, id="Z7-whole"),
        pytest.param(lambda: make_cyclic(1), 1, 0, id="Z1"),
    ]
)


@pytest.mark.parametrize("make_group,k,lam", DS_ORACLE_CASES)
def test_enumeration_matches_depth_first_search(monkeypatch, make_group, k, lam):
    g = make_group()
    expected = dfs_difference_sets(g, k, lam)
    assert [d.elements for d in enumerate_difference_sets(g, k, lam)] == expected
    monkeypatch.setattr(groups, "_BATCH_PAIRS", 64)  # split the larger levels into runs
    assert [d.elements for d in enumerate_difference_sets(g, k, lam)] == expected


@pytest.mark.parametrize("batch_pairs", [groups._BATCH_PAIRS, 64])
@pytest.mark.parametrize(
    "max_nodes,passes",
    # the depth-first search over z2_4() tries 8944 nodes
    [(10, False), (1000, False), (5000, False), (8943, False), (8944, True), (10000, True)],
)
def test_node_budget_matches_depth_first_search(monkeypatch, batch_pairs, max_nodes, passes):
    monkeypatch.setattr(groups, "_BATCH_PAIRS", batch_pairs)
    monkeypatch.setattr(groups, "_MAX_NODES", max_nodes)
    for search in (
        lambda: enumerate_difference_sets(z2_4(), 6, 2),
        lambda: dfs_difference_sets(z2_4(), 6, 2, max_nodes=max_nodes),
    ):
        if passes:
            search()
        else:
            with pytest.raises(ResourceLimitError):
                search()


def test_time_budget_bounds_the_enumeration():
    # the full (31,15,7) enumeration passes the 50M-node cap after about 40 s
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="time budget"):
        enumerate_difference_sets(make_cyclic(31), 15, 7, time_budget=0.3)
    assert time.perf_counter() - start < 3
    # the clock is first read past 4096 nodes, so a tiny search finishes
    assert len(enumerate_difference_sets(make_cyclic(7), 3, 1, time_budget=0)) == 14


def test_nan_time_budget_is_rejected():
    with pytest.raises(InvalidInputError, match="time budget .* nan"):
        enumerate_difference_sets(make_cyclic(7), 3, 1, time_budget=float("nan"))


# (1,1,-1) satisfies lambda(v-1) = k(k-1) and would enumerate {0}
@pytest.mark.parametrize("v,k,lam", [(7, 3, -1), (1, 1, -1)])
def test_negative_lambda_is_rejected(v, k, lam):
    with pytest.raises(InvalidInputError, match=f"lambda = {lam} "):
        enumerate_difference_sets(make_cyclic(v), k, lam)


def test_cli_rejects_negative_lambda(capsys):
    assert main(["ds", "enumerate", "cyclic:7", "3", "-1"]) == 2
    captured = capsys.readouterr()
    assert "lambda = -1" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


# (7,-2,1) and (2,3,6) satisfy lambda(v-1) = k(k-1)
@pytest.mark.parametrize("v,k,lam", [(7, -2, 1), (2, 3, 6)])
def test_block_size_outside_the_group_is_rejected(v, k, lam):
    with pytest.raises(InvalidInputError, match=f"k = {k} .* v = {v}"):
        enumerate_difference_sets(make_cyclic(v), k, lam)


@pytest.mark.parametrize("command", ["enumerate", "classes"])
def test_cli_rejects_negative_block_size(capsys, command):
    assert main(["ds", command, "cyclic:7", "--", "-2", "1"]) == 2
    captured = capsys.readouterr()
    assert "k = -2" in captured.err and "v = 7" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def loop_is_difference_set(g, subset, lam):
    """Oracle for the batch check: the left differences of all ordered pairs
    of distinct elements, counted one by one."""
    if any(not 0 <= x < g.order for x in subset) or len(set(subset)) != len(subset):
        return False
    counts = [0] * g.order
    for d1, d2 in itertools.permutations(subset, 2):
        counts[g.table[g.inverses[d1], d2]] += 1
    return all(c == lam for c in counts[1:])


LOOP_5 = [[0, 1, 2, 3, 4], [1, 2, 0, 4, 3], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 0, 3, 1, 2]]


def greedy_generators(rows, degree):
    """Oracle for the cached generators of Aut(G): the rows, in order, that
    a PermGroup does not yet contain, until it has all rows' order."""
    chosen = []
    group = PermGroup([], degree)
    for row in np.asarray(rows):
        a = tuple(row.tolist())
        if a in group:
            continue
        group.add_generator(a)
        chosen.append(a)
        if group.order() == len(rows):
            break
    return chosen


@pytest.mark.parametrize(
    "make_group",
    [
        pytest.param(lambda gid=gid: relabelled(load_group_16(gid), gid), id=f"id16:{gid}-relabelled")
        for gid in range(1, 15)
    ]
    + [
        pytest.param(frobenius_21, id="F21"),
        pytest.param(lambda: make_direct_product(make_cyclic(2), frobenius_21()), id="Z2xF21"),
    ],
)
def test_cached_generators_match_greedy_scan(monkeypatch, make_group):
    monkeypatch.setattr(groups, "_AUT_GENS_CACHE", {})
    g = make_group()
    expected = greedy_generators(automorphism_group(g), g.order)
    first = automorphism_generators(g)
    assert first == expected and all(type(a) is tuple for a in first)
    assert set(groups._AUT_GENS_CACHE) == {g}
    second = automorphism_generators(g)
    assert second == expected and second is not first


def test_extending_the_generators_changes_no_later_result():
    g = frobenius_21()
    gens = automorphism_generators(g)
    expected = list(gens)
    gens.append(tuple(g.table[1].tolist()))
    assert automorphism_generators(g) == expected


def test_explicit_rows_are_not_cached(monkeypatch):
    monkeypatch.setattr(groups, "_AUT_GENS_CACHE", {})
    z7 = make_cyclic(7)
    squares = [(0, 2, 4, 6, 1, 3, 5), (0, 4, 1, 5, 2, 6, 3)]  # x -> 2x, x -> 4x
    assert automorphism_generators(z7, [tuple(range(7))] + squares) == squares[:1]
    assert groups._AUT_GENS_CACHE == {}
    # in row order, x -> 2x of order 3 comes first and x -> 3x completes Aut(Z7)
    assert automorphism_generators(z7) == [squares[0], (0, 3, 6, 2, 5, 1, 4)]


class TestBatchDifferenceSetCheck:
    @pytest.mark.parametrize(
        "make_group,k,lam",
        [(lambda: load_group_16(9), 6, 2), (frobenius_21, 5, 1), (lambda: make_cyclic(13), 4, 1)],
        ids=["id16:9", "F21", "Z13"],
    )
    def test_rows_match_a_loop_over_pairs(self, make_group, k, lam):
        g = make_group()
        rng = random.Random(g.order)
        rows = [d.elements for d in enumerate_difference_sets(g, k, lam)[:30]]
        rows += [tuple(rng.sample(range(g.order), k)) for _ in range(60)]
        rows.append((1, 1) + rows[0][2:])
        outside = [rows[0][:-1] + (g.order,), (-1,) + rows[0][1:]]
        for l in (lam, lam + 1):
            expected = [loop_is_difference_set(g, r, l) for r in rows]
            assert groups._difference_set_rows(g, np.array(rows), l).tolist() == expected
            assert [is_difference_set(g, r, l) for r in rows + outside] == expected + [False] * 2

    def test_enumeration_raises_on_a_corrupted_row(self, monkeypatch):
        check = groups._difference_set_rows

        def corrupting(g, rows, lam):
            rows = rows.copy()
            rows[5, 0] = rows[5, 1]  # a repeated element
            return check(g, rows, lam)

        monkeypatch.setattr(groups, "_difference_set_rows", corrupting)
        with pytest.raises(ConstructionBugError, match="not a difference set"):
            enumerate_difference_sets(z2_4(), 6, 2)

    def test_left_and_right_counts_disagree_on_a_loop(self):
        # a Latin square with identity 0 that is no group; the inverse of x
        # is the y with x*y = 0.  Over the ordered pairs of {3, 4}, the left
        # products inv(d1)*d2 are 1, 2, 3, 4, each once, and the right
        # products d1*inv(d2) are 0, 0, 2, 4
        loop = FiniteGroup(LOOP_5, validate=False)
        rows = np.array([[3, 4]])
        with pytest.raises(ConstructionBugError, match="disagree"):
            groups._difference_set_rows(loop, rows, 1)

    def test_enumerated_sets_equal_validated_ones(self):
        for g, k, lam in ((z2_4(), 6, 2), (frobenius_21(), 5, 1), (make_cyclic(7), 3, 1)):
            for d in enumerate_difference_sets(g, k, lam):
                validated = DifferenceSet(g, d.elements, (g.order, k, lam))
                assert d == validated and hash(d) == hash(validated)
                assert d.group is g and d.params == (g.order, k, lam)
                assert all(type(x) is int for x in d.elements)
