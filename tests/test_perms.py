import itertools
import math
import random

import numpy as np
import pytest

from symcube.perms import (
    Bitsets,
    PermGroup,
    RowIndex,
    component_ids,
    compose,
    format_cycles,
    identity,
    induced_permutations,
    inverse,
    orbit_ids,
    orbit_minima,
    parse_cycles,
)


def brute_order(gens, n):
    elems = {tuple(range(n))}
    frontier = list(elems)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple(g[i] for i in x)
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return len(elems)


def test_compose_inverse_laws():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 12)
        p = tuple(rng.sample(range(n), n))
        q = tuple(rng.sample(range(n), n))
        assert compose(p, inverse(p)) == identity(n)
        assert compose(inverse(p), p) == identity(n)
        assert inverse(compose(p, q)) == compose(inverse(q), inverse(p))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_compose_returns_tuples_at_small_degrees(n):
    p = tuple(range(n))[::-1]
    assert compose(p, p) == identity(n) and type(compose(p, p)) is tuple
    assert compose(list(p), list(p)) == identity(n)


def test_cycle_roundtrip():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 20)
        p = tuple(rng.sample(range(n), n))
        assert parse_cycles(format_cycles(p), n) == p
    assert parse_cycles("()", 5) == identity(5)
    assert format_cycles(identity(4)) == "()"


def test_cycle_parse_examples():
    p = parse_cycles("(1,16)(4,5)", 16)
    assert p[0] == 15 and p[15] == 0 and p[3] == 4 and p[4] == 3
    with pytest.raises(ValueError):
        parse_cycles("(1,1)", 4)
    with pytest.raises(ValueError):
        parse_cycles("(1,99)", 4)


def test_permgroup_versus_bruteforce():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(2, 8)
        gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))]
        assert PermGroup(gens, n).order() == brute_order(gens, n)


def test_permgroup_known_orders():
    n = 8
    cycle = tuple(list(range(1, n)) + [0])
    swap = tuple([1, 0] + list(range(2, n)))
    g = PermGroup([cycle, swap], n)
    assert g.order() == math.factorial(n)
    assert swap in g
    assert tuple(range(n)) in g


def test_permgroup_membership_negative():
    rot = (1, 2, 3, 0)
    g = PermGroup([rot], 4)
    assert g.order() == 4
    assert (1, 0, 2, 3) not in g


def test_orbit_ids_match_permgroup_orbits():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 12)
        gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 3))]
        ids = orbit_ids([np.asarray(g) for g in gens], n)
        group = PermGroup(gens, n)
        for x in range(n):
            orbit = group.orbit(x)
            assert int(ids[x]) == min(orbit)
            assert set(np.flatnonzero(ids == ids[x]).tolist()) == orbit


def test_orbit_ids_trivial_cases():
    assert orbit_ids([], 5).tolist() == [0, 1, 2, 3, 4]
    assert orbit_ids([np.array([0])], 1).tolist() == [0]
    # a point fixed by every generator is a singleton orbit
    assert orbit_ids([np.array([1, 0, 2]), np.array([1, 0, 2])], 3).tolist() == [0, 0, 2]


def _closed_family(rng, gens, n, k):
    """Sorted k-sets closed under gens, in random order."""
    family = set()
    for _ in range(rng.randint(1, 4)):
        queue = [tuple(sorted(rng.sample(range(n), k)))]
        while queue:
            row = queue.pop()
            if row not in family:
                family.add(row)
                queue.extend(tuple(sorted(g[x] for x in row)) for g in gens)
    rows = sorted(family)
    rng.shuffle(rows)
    return rows


def test_induced_permutations_match_dict_lookup():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 10)
        k = rng.randint(1, n)
        gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))]
        rows = _closed_family(rng, gens, n, k)
        index = {row: i for i, row in enumerate(rows)}
        maps = gens + [compose(gens[0], gens[-1])]
        perms = induced_permutations(rows, maps)
        assert perms is not None and len(perms) == len(maps)
        for pm, induced in zip(maps, perms):
            expected = [index[tuple(sorted(pm[x] for x in row))] for row in rows]
            assert induced.tolist() == expected


@pytest.mark.parametrize("n", [1, 63, 64, 65, 150])
def test_bitsets_are_the_sets_as_integers(n):
    """A set's bitset is the integer sum of 2**p over its points, in
    base-2**64 digits, and families sort in the order of those integers."""
    rng = random.Random(n)
    sets = Bitsets(n)
    rows = [rng.sample(range(n), min(n, 3)) for _ in range(200)]
    # two families of 100 sets each, the points of each set along axis 0
    members = np.array(rows).T.reshape(-1, 2, 100)
    bits = sets.of(members)
    assert bits.shape == (2, 100, max(1, -(-n // 64))) and bits.dtype == np.uint64

    def value(words):
        return sum(int(w) << (64 * i) for i, w in enumerate(words))

    assert [value(b) for b in bits.reshape(200, -1)] == [sum(1 << p for p in r) for r in rows]
    for family, ordered, order in zip(bits, sets.sort(bits), sets.order(bits)):
        expected = sorted(value(b) for b in family)
        assert [value(b) for b in ordered] == expected
        assert [value(family[i]) for i in order] == expected


@pytest.mark.parametrize("n", [63, 64, 65, 150])
def test_induced_permutations_match_dict_lookup_on_words(n):
    """Universes of one, two and three 64-bit words per set, under the
    dihedral group of the n-gon."""
    rng = random.Random(n)
    gens = [tuple((x + 1) % n for x in range(n)), tuple(-x % n for x in range(n))]
    rows = _closed_family(rng, gens, n, 3)
    index = {row: i for i, row in enumerate(rows)}
    maps = gens + [compose(gens[0], gens[1])]
    perms = induced_permutations(rows, maps)
    assert perms is not None
    for pm, induced in zip(maps, perms):
        assert induced.dtype == np.int32
        expected = [index[tuple(sorted(pm[x] for x in row))] for row in rows]
        assert induced.tolist() == expected


def test_induced_permutations_leaving_the_family_in_the_second_word():
    """The family {0, 64}, {1, 65} over 67 points: swapping 65 and 66 sends
    {1, 65} to {1, 66}, whose first word is that of {1, 65}, so the only
    image outside the family differs from it in the second word alone."""
    rows = [(0, 64), (1, 65)]
    swap = list(range(67))
    swap[0], swap[1], swap[64], swap[65] = 1, 0, 65, 64
    assert induced_permutations(rows, [swap])[0].tolist() == [1, 0]
    wrong = list(range(67))
    wrong[65], wrong[66] = 66, 65
    assert induced_permutations(rows, [swap, wrong]) is None


def test_induced_permutations_leaving_the_family():
    rows = [(0, 1), (2, 3)]
    assert induced_permutations(rows, [(1, 0, 3, 2)]) is not None
    # the first map keeps the family, the second maps (0, 1) to (1, 2)
    assert induced_permutations(rows, [(1, 0, 3, 2), (1, 2, 0, 3)]) is None


def test_induced_permutations_without_maps():
    assert induced_permutations([(0, 1), (1, 2)], []) == []


def test_orbit_minima_match_orbit_closure():
    rng = random.Random(11)
    rows = sorted(itertools.combinations(range(7), 3))
    maps = [(1, 0, 2, 3, 4, 5, 6), tuple(rng.sample(range(7), 7))]
    expected = set()
    seen = set()
    for row in rows:
        if row in seen:
            continue
        orbit, queue = {row}, [row]
        while queue:
            cur = queue.pop()
            for m in maps:
                img = tuple(sorted(m[x] for x in cur))
                if img not in orbit:
                    orbit.add(img)
                    queue.append(img)
        seen |= orbit
        expected.add(rows.index(min(orbit)))
    assert orbit_minima(rows, maps).tolist() == sorted(expected)


def test_orbit_minima_leaving_the_family():
    assert orbit_minima([(0, 1), (1, 2)], [(2, 0, 1)]) is None


def test_component_ids_match_graph_search():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 30)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
        u = np.array([a for a, _ in edges], dtype=np.int64)
        w = np.array([b for _, b in edges], dtype=np.int64)
        neighbours = {x: set() for x in range(n)}
        for a, b in edges:
            neighbours[a].add(b)
            neighbours[b].add(a)
        expected = list(range(n))
        for x in range(n):
            if expected[x] != x:
                continue
            queue = [x]
            while queue:
                for y in neighbours[queue.pop()]:
                    if expected[y] == y and y != x:
                        expected[y] = x
                        queue.append(y)
        assert component_ids(n, u, w).tolist() == expected


def test_row_index_finds_rows_in_any_order():
    rows = [(0, 2), (1, 2), (0, 1)]
    index = RowIndex(rows)
    assert index.find(np.array([[2, 1], [1, 0], [2, 0]])).tolist() == [1, 2, 0]
    assert index.find(np.array([[0, 3]])) is None
