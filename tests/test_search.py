import hashlib
import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest

from symcube import equivalence, groups, search
from symcube.catalog import elementary_16, reference_catalog, switched_16_designs
from symcube.cli import main
from symcube.cubes import (
    Cube,
    apply_paratopy,
    difference_cube,
    group_cube,
    slice_invariant,
    verify_cube,
)
from symcube.datafiles import data_dir, frobenius_21, load_group_16
from symcube.designs import DesignParams, IncidenceMatrix, verify_design
from symcube.errors import (
    ConstructionBugError,
    InvalidInputError,
    NotACubeError,
    ResourceLimitError,
)
from symcube.fileio import load_design, load_orbit_input, save_orbit_input
from symcube.equivalence import (
    TransversalRep,
    _translation_autotopies,
    theoretical_autotopies,
    to_transversal,
    validate_transversal,
)
from symcube.groups import (
    DifferenceSet,
    FiniteGroup,
    difference_sets_up_to_equivalence,
    enumerate_difference_sets,
    is_difference_set,
    make_cyclic,
)
from symcube.perms import (
    PermGroup,
    compose,
    identity,
    induced_permutations,
    inverse,
    orbit_ids,
    orbit_minima,
)
from symcube.search import (
    OrbitCubeInput,
    classify_group_cubes,
    difference_cube_reference,
    find_ds_block_designs,
    is_group_cube,
    orbit_cube,
)

from named_cubes import point_perm, random_paratopy


def naive_pair_coverage_search(g, params, candidates):
    """Independent oracle: plain backtracking on the first uncovered point
    pair, with no block-compatibility filtering."""
    v, k, lam = params.v, params.k, params.lam
    blocks = [tuple(d.elements) for d in candidates]
    pair_list = [
        tuple(b[i] * v + b[j] for i in range(k) for j in range(i + 1, k)) for b in blocks
    ]
    by_pair = {}
    for idx, pairs in enumerate(pair_list):
        for p in pairs:
            by_pair.setdefault(p, []).append(idx)
    all_pairs = sorted({i * v + j for i in range(v) for j in range(i + 1, v)})
    counts = {p: 0 for p in all_pairs}
    out = []
    chosen = []

    def rec(scan, run_pair, min_idx):
        pos = scan
        while pos < len(all_pairs) and counts[all_pairs[pos]] == lam:
            pos += 1
        if pos == len(all_pairs):
            out.append(tuple(sorted(chosen)))
            return
        p = all_pairs[pos]
        for idx in by_pair.get(p, []):
            if p == run_pair and idx < min_idx:
                continue
            if any(counts[q] == lam for q in pair_list[idx]):
                continue
            for q in pair_list[idx]:
                counts[q] += 1
            chosen.append(idx)
            rec(pos, p, idx + 1)
            chosen.pop()
            for q in pair_list[idx]:
                counts[q] -= 1

    rec(0, None, 0)
    return sorted(out)


class TestDesignSearch:
    def test_fano_solutions_are_developments(self):
        z7 = make_cyclic(7)
        sols = find_ds_block_designs(z7, DesignParams(7, 3, 1))
        assert len(sols) == 2
        for sol in sols:
            bits = np.zeros((7, 7), dtype=np.uint8)
            for j, b in enumerate(sol):
                bits[list(b), j] = 1
            assert verify_design(IncidenceMatrix(bits), DesignParams(7, 3, 1))
            for b in sol:
                assert is_difference_set(z7, b, 1)

    @pytest.mark.parametrize(
        "make_group,v,k,lam,n_designs",
        [
            pytest.param(lambda: make_cyclic(7), 7, 3, 1, 2, id="7-3-1"),
            pytest.param(lambda: make_cyclic(13), 13, 4, 1, 4, id="13-4-1"),
            pytest.param(frobenius_21, 21, 5, 1, 70, id="f21-21-5-1"),
            pytest.param(lambda: load_group_16(6), 16, 6, 2, 576, id="id16:6-16-6-2"),
        ],
    )
    def test_against_naive_backtracking(self, make_group, v, k, lam, n_designs):
        g = make_group()
        params = DesignParams(v, k, lam)
        cands = enumerate_difference_sets(g, k, lam)
        fast = []
        find_ds_block_designs(g, params, cands, collect=fast.append)
        assert len(fast) == n_designs
        assert sorted(fast) == naive_pair_coverage_search(g, params, cands)

    def test_fano_brute_force_subsets(self):
        # all 7-subsets of the 14 candidate blocks, checked directly
        z7 = make_cyclic(7)
        params = DesignParams(7, 3, 1)
        cands = enumerate_difference_sets(z7, 3, 1)
        brute = []
        for combo in itertools.combinations(range(len(cands)), 7):
            bits = np.zeros((7, 7), dtype=np.uint8)
            for j, idx in enumerate(combo):
                bits[list(cands[idx].elements), j] = 1
            if verify_design(IncidenceMatrix(bits), params):
                brute.append(combo)
        fast = []
        find_ds_block_designs(z7, params, cands, collect=fast.append)
        assert sorted(fast) == sorted(brute)

    def test_no_candidates(self):
        z16 = make_cyclic(16)
        assert find_ds_block_designs(z16, DesignParams(16, 6, 2)) == []


def full_enumeration_minima(g, params, cands):
    """Oracle for the rooted search: every design, then the least member of
    each orbit of the design moves, and the number of designs."""
    sols = []
    find_ds_block_designs(g, params, cands, collect=sols.append)
    if not sols:
        return [], 0
    sols.sort()
    moves = induced_permutations([d.elements for d in cands], search._design_moves(g))
    minima = orbit_minima(sols, moves)
    assert minima is not None
    return [sols[i] for i in minima], len(sols)


def _order16(gid, *marks):
    return pytest.param(lambda: load_group_16(gid), (16, 6, 2), id=f"id16:{gid}", marks=marks)


ORBIT_CASES = [
    pytest.param(lambda: make_cyclic(7), (7, 3, 1), id="Z7"),
    pytest.param(lambda: make_cyclic(13), (13, 4, 1), id="Z13"),
    pytest.param(frobenius_21, (21, 5, 1), id="F21"),
    _order16(2),
    _order16(6),
    _order16(14),
] + [_order16(gid, pytest.mark.extended) for gid in range(1, 15) if gid not in (2, 6, 14)]


class TestRootedDesignOrbits:
    """One design per orbit of the design moves, searched through the
    candidate-orbit minima, against full enumeration and orbit_minima."""

    @pytest.mark.parametrize("make_group,params", ORBIT_CASES)
    def test_matches_full_enumeration(self, make_group, params):
        g = make_group()
        params = DesignParams(*params)
        cands = enumerate_difference_sets(g, params.k, params.lam)
        reps, count, _ = search._design_orbit_representatives(g, params, cands)
        assert (reps, count) == full_enumeration_minima(g, params, cands)

    @pytest.mark.parametrize(
        "make_group,params,n_designs,n_reps,n_reps_without_inversion",
        [
            pytest.param(lambda: load_group_16(6), (16, 6, 2), 576, 36, 46, id="id16:6"),
            pytest.param(frobenius_21, (21, 5, 1), 70, 2, 3, id="F21"),
        ],
    )
    def test_inversion_merges_orbits(
        self, make_group, params, n_designs, n_reps, n_reps_without_inversion
    ):
        g = make_group()
        params = DesignParams(*params)
        cands = enumerate_difference_sets(g, params.k, params.lam)
        reps, count, _ = search._design_orbit_representatives(g, params, cands)
        assert (count, len(reps)) == (n_designs, n_reps)
        maps = search._design_moves(g)
        assert maps[-1] == tuple(row.index(0) for row in g.table.tolist())
        moves = induced_permutations([d.elements for d in cands], maps)
        sols = []
        find_ds_block_designs(g, params, cands, collect=sols.append)
        sols.sort()
        # the inversion maps designs onto designs and merges orbits
        assert induced_permutations(sols, moves[-1:]) is not None
        assert len(orbit_minima(sols, moves[:-1])) == n_reps_without_inversion

    @pytest.mark.parametrize(
        "make_group,params,group_order",
        [
            pytest.param(frobenius_21, (21, 5, 1), 1764, id="F21"),
            pytest.param(lambda: load_group_16(6), (16, 6, 2), None, id="id16:6"),
            pytest.param(
                lambda: load_group_16(8), (16, 6, 2), None, id="id16:8", marks=pytest.mark.extended
            ),
            pytest.param(
                lambda: load_group_16(3), (16, 6, 2), None, id="id16:3", marks=pytest.mark.extended
            ),
            pytest.param(
                lambda: load_group_16(12), (16, 6, 2), 6144, id="id16:12",
                marks=pytest.mark.extended,
            ),
        ],
    )
    def test_design_count_by_stabilisers(self, make_group, params, group_order):
        # design_count = sum over the representatives of |M| / |Stab_M(D)|,
        # with M listed element by element
        g = make_group()
        params = DesignParams(*params)
        cands = enumerate_difference_sets(g, params.k, params.lam)
        reps, count, stabilisers = search._design_orbit_representatives(g, params, cands)
        gens = search._design_moves(g)
        elements, queue = {tuple(range(g.order))}, [tuple(range(g.order))]
        while queue:
            x = queue.pop()
            for p in gens:
                y = tuple(p[i] for i in x)
                if y not in elements:
                    elements.add(y)
                    queue.append(y)
        if group_order is not None:
            assert len(elements) == group_order
        moves = np.stack(induced_permutations([d.elements for d in cands], sorted(elements)))
        total = 0
        for rep, generators in zip(reps, stabilisers):
            images = np.sort(moves[:, list(rep)], axis=1)
            stabiliser = int((images == np.array(rep)).all(axis=1).sum())
            # the generators taken from the move graph give the whole stabiliser
            assert PermGroup(generators, g.order).order() == stabiliser
            assert len(elements) % stabiliser == 0
            total += len(elements) // stabiliser
        assert total == count

    def test_classification_counts_with_inversion(self):
        cls = classify_group_cubes(frobenius_21(), DesignParams(21, 5, 1))
        assert (cls.design_count, cls.orbit_rep_count) == (70, 2)

    @pytest.mark.parametrize("root", [0, 17, 63])
    def test_rooted_search_finds_the_designs_through_its_root(self, root):
        g = load_group_16(6)
        params = DesignParams(16, 6, 2)
        cands = enumerate_difference_sets(g, 6, 2)
        every, rooted = [], []
        find_ds_block_designs(g, params, cands, collect=every.append)
        find_ds_block_designs(g, params, cands, collect=rooted.append, root=root)
        assert rooted and sorted(rooted) == [d for d in sorted(every) if root in d]
        designs = find_ds_block_designs(g, params, cands, root=root)
        assert designs == sorted(tuple(cands[i].elements for i in d) for d in rooted)

    def test_tiny_budget_on_id12(self):
        g = load_group_16(12)
        params = DesignParams(16, 6, 2)
        cands = enumerate_difference_sets(g, 6, 2)
        with pytest.raises(ResourceLimitError, match="design search"):
            search._design_orbit_representatives(g, params, cands, time_budget=1e-9)
        with pytest.raises(ResourceLimitError):
            classify_group_cubes(g, params, time_budget=1e-9)

    def test_design_missing_from_its_root_search(self, monkeypatch):
        # drop one design of S_m: a move that reaches it must then fail
        search_designs = search.find_ds_block_designs

        def dropping_first(*args, collect, **kwargs):
            found = []
            search_designs(*args, collect=found.append, **kwargs)
            for sol in sorted(found)[1:]:
                collect(sol)

        monkeypatch.setattr(search, "find_ds_block_designs", dropping_first)
        g = load_group_16(6)
        cands = enumerate_difference_sets(g, 6, 2)
        with pytest.raises(ConstructionBugError, match="left S_m"):
            search._design_orbit_representatives(g, DesignParams(16, 6, 2), cands)

    def test_stabiliser_order_is_checked(self):
        g = frobenius_21()
        cands = enumerate_difference_sets(g, 5, 1)
        maps = search._design_moves(g)
        moves = np.stack(induced_permutations([d.elements for d in cands], maps))
        order = PermGroup(maps, g.order).order()

        root = search._rerooting_and_stabiliser(0, len(cands), maps, moves, order)
        assert sorted(root.orbit.tolist()) == list(range(len(cands)))  # one orbit
        # the inverse transporters take b to m, the generators fix m
        assert root.back[np.arange(len(root.orbit)), root.orbit].tolist() == [0] * len(cands)
        assert root.stab[:, 0].tolist() == [0] * len(root.stab_maps)
        assert PermGroup(root.stab_maps, g.order).order() * len(cands) == order
        with pytest.raises(ConstructionBugError, match="stabiliser order"):
            search._rerooting_and_stabiliser(0, len(cands) // 2, maps, moves, order)

        # the right order, but an orbit one member short of the span
        def moves_from(b):
            return zip(moves[:, b].tolist(), maps)

        with pytest.raises(ConstructionBugError, match="fewer than"):
            search._schreier_walk(0, order // len(cands), moves_from, g.order, len(cands) + 1)

    def test_walk_stops_at_the_stabiliser_order(self):
        # with span 1 the walk returns as soon as its group has the order:
        # the last generator sifted completes it, and no edge after it is
        # taken; with the whole orbit as span it walks on to every node
        g = frobenius_21()
        cands = enumerate_difference_sets(g, 5, 1)
        maps = search._design_moves(g)
        moves = np.stack(induced_permutations([d.elements for d in cands], maps))
        stab_order = PermGroup(maps, g.order).order() // len(cands)
        taken = []

        def moves_from(b):
            for f, move in zip(moves[:, b].tolist(), maps):
                taken.append((b, f))
                yield f, move

        tree, gens, edges = search._schreier_walk(0, stab_order, moves_from, g.order)
        assert PermGroup(gens, g.order).order() == stab_order
        assert PermGroup(gens[:-1], g.order).order() < stab_order
        last = edges[-1]
        assert taken[-1] == (last[0], int(moves[last[1], last[0]]))
        assert len(tree) < len(cands)
        whole = search._schreier_walk(0, stab_order, moves_from, g.order, len(cands))
        assert list(whole[0])[: len(tree)] == list(tree) and len(whole[0]) == len(cands)
        assert whole[1:] == (gens, edges)
        for h in gens:  # each u_F^-1 g u_E fixes the start
            assert tuple(sorted(h[x] for x in cands[0].elements)) == cands[0].elements

    @pytest.mark.parametrize(
        "make_group,params",
        [
            pytest.param(lambda: load_group_16(12), (16, 6, 2), id="id16:12"),
            pytest.param(lambda: load_group_16(14), (16, 6, 2), id="id16:14"),
            pytest.param(frobenius_21, (21, 5, 1), id="F21"),
        ],
    )
    def test_composed_moves_match_induced_permutations(self, make_group, params):
        # each candidate permutation composed along the BFS tree is the one
        # its point map induces, at every root of the search
        g = make_group()
        cands = enumerate_difference_sets(g, params[1], params[2])
        rows = [d.elements for d in cands]
        maps = search._design_moves(g)
        moves = np.stack(induced_permutations(rows, maps)).astype(np.uint16)
        order = PermGroup(maps, g.order).order()
        minima = orbit_minima(rows, maps)
        minimum = orbit_ids(moves, len(rows))
        for m in minima.tolist():
            span = int((minimum == m).sum())
            root = search._rerooting_and_stabiliser(m, span, maps, moves, order)
            assert len(root.orbit) == span
            assert root.back.dtype == root.stab.dtype == np.uint16
            assert len(root.back_maps) == len(root.back) and len(root.stab_maps) == len(root.stab)
            expected = induced_permutations(rows, root.back_maps + root.stab_maps)
            assert np.array_equal(np.concatenate([root.back, root.stab]), np.stack(expected))

    def test_dedup_memory_is_bounded(self):
        # the rerooting edges are looked up in fixed chunks; gathering all
        # of them at once peaked at 8-9 MB on this row
        g = load_group_16(14)
        params = DesignParams(16, 6, 2)
        cands = enumerate_difference_sets(g, 6, 2)
        search._design_orbit_representatives(g, params, cands)  # fill the caches
        tracemalloc.start()
        try:
            reps, count, _ = search._design_orbit_representatives(g, params, cands)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(reps), count) == (10, 54208)
        assert peak < 3_000_000


def brute_force_stabiliser(g, blocks):
    """Stab_M(D) element by element: the moves x -> psi(x^e) c (psi in
    Aut(G), c in G, e = +-1) that map the block set of D onto itself."""
    v = g.order
    auts = groups.automorphism_group(g)
    table, inv = g.table, g.inverses
    bit = 1 << np.arange(v, dtype=np.int64)
    rows = np.array(blocks)
    want = np.sort(bit[rows].sum(axis=1))
    found = set()
    # over an abelian group the inversion is an automorphism
    for pre in (np.arange(v),) if g.is_abelian() else (np.arange(v), inv):
        for c in range(v):
            maps = table[auts[:, pre], c]
            fixed = (np.sort(bit[maps[:, rows]].sum(axis=2), axis=1) == want).all(axis=1)
            found.update(map(tuple, maps[fixed].tolist()))
    return sorted(found)


def classification_seeds(g, blocks, stabiliser):
    """The seeds ``classify_group_cubes`` gives the cube of ``blocks``."""
    return np.concatenate(
        [search._group_cube_seeds(g, 3), search._stabiliser_seeds(g, blocks, stabiliser)]
    )


def assert_seeded_keys_are_the_keys(cube, seeds):
    """The keys read off the seed orbits equal the unseeded keys byte for
    byte, and a seeded certificate (canon verifies the seeds) caches them."""
    orbits = orbit_ids(np.array(seeds), 3 * cube.v)
    assert len(np.unique(orbits)) < 3 * cube.v  # the seeds merge points
    plain = equivalence._slice_pair_keys(cube.bits)
    seeded = equivalence._slice_pair_keys(cube.bits, orbits)
    assert seeded.dtype == plain.dtype and seeded.shape == plain.shape
    assert seeded.tobytes() == plain.tobytes()
    fresh = Cube(cube.bits, cube.params)
    cert = search.build_seeded_cube_certificate(fresh, seeds)
    assert fresh._pair_keys.tobytes() == plain.tobytes()
    assert cert == equivalence.cube_certificate(Cube(cube.bits, cube.params))


class TestConstructionSeeds:
    """The seeds each construction proves: canon verifies them, the
    certificates stay the same, and the slice-pair keys computed on their
    orbits are the full keys."""

    @pytest.mark.parametrize(
        "make_group,params,orbits",
        [
            pytest.param(lambda: load_group_16(14), (16, 6, 2), 1, id="Z2^4"),
            pytest.param(lambda: load_group_16(2), (16, 6, 2), 1, id="Z4xZ4"),
            pytest.param(frobenius_21, (21, 5, 1), 3, id="F21"),
        ],
    )
    def test_difference_cube_keys(self, make_group, params, orbits):
        g = make_group()
        for rep in difference_sets_up_to_equivalence(g, params[1], params[2]):
            seeds = search._difference_cube_seeds(g, rep)
            # over an abelian group the axis permutations join the three axes
            assert len(np.unique(orbit_ids(np.array(seeds), 3 * g.order))) == orbits
            assert_seeded_keys_are_the_keys(difference_cube(g, rep, 3), seeds)

    @pytest.mark.parametrize("name", ["D1", "D2", "D3", "C3"])
    def test_group_cube_keys(self, name):
        if name == "C3":
            g = frobenius_21()
            blocks = load_design(data_dir() / "designs" / "f21_nondev.design").columns_as_sets()
        else:
            g = elementary_16()
            blocks = switched_16_designs()[int(name[1]) - 1].columns_as_sets()
        blocks = [tuple(sorted(b)) for b in blocks]
        stabiliser = brute_force_stabiliser(g, blocks)
        generators = groups.automorphism_generators(g, stabiliser)
        seeds = classification_seeds(g, blocks, generators)
        assert_seeded_keys_are_the_keys(group_cube(g, blocks, 3), seeds)

    def test_stabiliser_seeds_with_the_inversion_swap_axes(self):
        # F21 is not abelian: a move h = R_c psi inv that fixes the design
        # gives an autoparatopy swapping axes 2 and 3
        g = frobenius_21()
        blocks = [
            tuple(sorted(b))
            for b in load_design(data_dir() / "designs" / "f21_nondev.design").columns_as_sets()
        ]
        stabiliser = brute_force_stabiliser(g, blocks)
        seeds = search._stabiliser_seeds(g, blocks, stabiliser)
        swaps = [p for p in seeds if p[21] >= 42]
        assert len(stabiliser) == 42 and len(swaps) == 21
        assert all(p[x] >= 42 and 21 <= p[x + 21] < 42 for p in swaps for x in range(21, 42))
        cube = group_cube(g, blocks, 3)
        certificate = equivalence.cube_certificate(Cube(cube.bits, cube.params))
        assert search.build_seeded_cube_certificate(cube, swaps) == certificate

    def test_stabiliser_seed_of_a_move_off_the_design_raises(self):
        g = elementary_16()
        blocks = [tuple(sorted(b)) for b in switched_16_designs()[1].columns_as_sets()]
        swap = (0, 2, 1) + tuple(range(3, 16))  # a point map that moves a block off the design
        with pytest.raises(ConstructionBugError, match="does not fix its design"):
            search._stabiliser_seeds(g, blocks, [swap])


@pytest.mark.parametrize(
    "make_group,params",
    [
        pytest.param(lambda: load_group_16(5), (16, 6, 2), id="id16:5"),
        pytest.param(lambda: load_group_16(6), (16, 6, 2), id="id16:6"),
        pytest.param(lambda: load_group_16(14), (16, 6, 2), id="id16:14"),
        pytest.param(frobenius_21, (21, 5, 1), id="F21"),
        pytest.param(lambda: make_cyclic(21), (21, 5, 1), id="Z21"),
    ],
)
def test_stabilisers_count_the_designs(make_group, params):
    """Each stabiliser generator fixes its design, and the orbits
    |M| / |Stab_M(D)| of the representatives add up to the design count."""
    g, params = make_group(), DesignParams(*params)
    cands = enumerate_difference_sets(g, params.k, params.lam)
    reps, count, stabilisers = search._design_orbit_representatives(g, params, cands)
    group_order = PermGroup(search._design_moves(g), g.order).order()
    total = 0
    for rep, generators in zip(reps, stabilisers):
        design = sorted(cands[i].elements for i in rep)
        for h in generators:
            assert sorted(tuple(sorted(h[x] for x in b)) for b in design) == design
        stabiliser_order = PermGroup(generators, g.order).order()
        assert group_order % stabiliser_order == 0
        total += group_order // stabiliser_order
    assert total == count


@pytest.mark.parametrize(
    "make_group,params,digest",
    [
        pytest.param(
            frobenius_21,
            (21, 5, 1),
            "9d2aeb70884f9af8f55189c473b13446302488ce376e3ab226f95a4d317a19f1",
            id="F21",
        ),
        pytest.param(
            lambda: load_group_16(14),
            (16, 6, 2),
            "6f6c4993a2a5ab42a8eacf71af61da3ef0c23bb4402ca23629d7ccaebec56794",
            id="id16:14",
        ),
    ],
)
def test_orbit_representatives_are_pinned(make_group, params, digest):
    """The representatives, the design count and every sifted stabiliser
    generator, in order: the seeds of each labelling are these generators,
    so a change here can move canon's node counts."""
    g, params = make_group(), DesignParams(*params)
    cands = enumerate_difference_sets(g, params.k, params.lam)
    out = search._design_orbit_representatives(g, params, cands)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "make_group,params,digest",
    [
        pytest.param(
            frobenius_21,
            (21, 5, 1),
            "9c8b60fec82c1ba9e3dd242dff727d25f5c220ee46e5855c3eb0c5137bb41e85",
            id="F21",
        ),
        pytest.param(
            lambda: load_group_16(12),
            (16, 6, 2),
            "c0750473a2dec32fcbc968f23fc201f43801fffc1811e572509863cbfbaf2974",
            id="id16:12",
        ),
        pytest.param(
            lambda: load_group_16(14),
            (16, 6, 2),
            "8393b07494b8e54a65cc24e0da654f521c448107869129c206f5e3d0f69d04c0",
            id="id16:14",
        ),
    ],
)
def test_construction_seeds_are_pinned(make_group, params, digest):
    """The seed rows, in order, of the group cubes (n = 3, 4), of each
    difference-set class's difference cube and of each design-orbit
    representative's stabiliser: canon prunes its tree with them, so a
    change here can move its node counts."""
    g, params = make_group(), DesignParams(*params)
    h = hashlib.sha256()

    def add(seeds, n):
        rows = np.asarray(seeds, dtype="<i8").reshape(-1, n * g.order)
        h.update(repr(rows.shape).encode() + rows.tobytes())

    add(search._group_cube_seeds(g, 3), 3)
    add(search._group_cube_seeds(g, 4), 4)
    for rep in difference_sets_up_to_equivalence(g, params.k, params.lam):
        add(search._difference_cube_seeds(g, rep), 3)
    cands = enumerate_difference_sets(g, params.k, params.lam)
    reps, _, stabilisers = search._design_orbit_representatives(g, params, cands)
    for rep, generators in zip(reps, stabilisers):
        add(search._stabiliser_seeds(g, [cands[i].elements for i in rep], generators), 3)
    assert h.hexdigest() == digest


@pytest.mark.parametrize(
    "make_group,params",
    [
        pytest.param(lambda: load_group_16(14), (16, 6, 2), id="id16:14"),
        pytest.param(frobenius_21, (21, 5, 1), id="F21"),
    ],
)
def test_stabiliser_seeds_keep_the_certificates(make_group, params):
    """Each representative's certificate is the same with the translation
    seeds alone as with the classification's seeds."""
    g, params = make_group(), DesignParams(*params)
    cands = enumerate_difference_sets(g, params.k, params.lam)
    reps, _, stabilisers = search._design_orbit_representatives(g, params, cands)
    translations = _translation_autotopies(g, 3, start=1)
    for rep, generators in zip(reps, stabilisers):
        blocks = [cands[i].elements for i in rep]
        cube = group_cube(g, blocks, 3)
        seeded = search.build_seeded_cube_certificate(
            cube, classification_seeds(g, blocks, generators)
        )
        assert seeded == search.build_seeded_cube_certificate(
            Cube(cube.bits, cube.params), translations
        )


class TestClassification:
    def test_z7(self):
        cls = classify_group_cubes(make_cyclic(7), DesignParams(7, 3, 1))
        assert (cls.nds, cls.ndc, cls.tds, cls.ngc) == (1, 1, 14, 0)
        assert cls.dev_classes == ["D0"]

    def test_own_reference_equals_explicit_reference(self):
        z7 = make_cyclic(7)
        params = DesignParams(7, 3, 1)
        own = classify_group_cubes(z7, params)
        explicit = classify_group_cubes(
            z7, params, reference=difference_cube_reference([z7], params)
        )
        assert own.difference_certs  # the fields compared below include the certificates
        assert own == explicit

    def test_counts_invariant_under_relabeling(self):
        z7 = make_cyclic(7)
        rng = random.Random(17)
        perm = [0] + rng.sample(range(1, 7), 6)
        inv = [0] * 7
        for i, p in enumerate(perm):
            inv[p] = i
        table = [[perm[z7.table[inv[a]][inv[b]]] for b in range(7)] for a in range(7)]
        shuffled = FiniteGroup(table)
        a = classify_group_cubes(z7, DesignParams(7, 3, 1))
        b = classify_group_cubes(shuffled, DesignParams(7, 3, 1))
        assert (a.nds, a.ndc, a.tds, a.ngc) == (b.nds, b.ndc, b.tds, b.ngc)
        assert sorted(a.all_certs) == sorted(b.all_certs)

    def test_f21_finds_the_nondevelopment_design(self):
        f21 = frobenius_21()
        params = DesignParams(21, 5, 1)
        cls = classify_group_cubes(f21, params)
        assert cls.nds == 1 and cls.ndc == 1
        assert cls.ngc == 1  # the unique non-difference group cube

    def test_budget_too_small_for_one_certificate(self, capsys):
        # the 1e-6 s budget runs out in the difference-cube labelling, which
        # runs before the rooted design search first reads the clock
        with pytest.raises(ResourceLimitError, match="labelling"):
            classify_group_cubes(make_cyclic(7), DesignParams(7, 3, 1), time_budget=1e-6)
        assert main(["search", "classify", "cyclic:7", "7,3,1", "--time-budget", "1e-6"]) == 2
        assert "time budget" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "stage,message",
        [
            ("difference_sets_up_to_equivalence", "time budget"),
            ("design_class", "naming the developments"),
        ],
    )
    def test_budget_is_checked_after_each_stage(self, monkeypatch, stage, message):
        # a stage that overruns the budget stops the classification before
        # the design search
        slow = getattr(search, stage)

        def overrunning(*args):
            time.sleep(0.3)
            return slow(*args)

        monkeypatch.setattr(search, stage, overrunning)
        monkeypatch.setattr(search, "_design_orbit_representatives", None)
        with pytest.raises(ResourceLimitError, match=message):
            classify_group_cubes(make_cyclic(7), DesignParams(7, 3, 1), time_budget=0.2)


# Z31 has (31,15,7) difference sets (the quadratic residues), but a full
# enumeration passes the 50M-node cap after about 40 s
@pytest.mark.parametrize(
    "call",
    [
        lambda: classify_group_cubes(make_cyclic(31), DesignParams(31, 15, 7), time_budget=0.3),
        lambda: find_ds_block_designs(make_cyclic(31), DesignParams(31, 15, 7), time_budget=0.3),
    ],
    ids=["classify", "designs"],
)
def test_budget_bounds_the_difference_set_enumeration(call):
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="enumeration time budget"):
        call()
    assert time.perf_counter() - start < 3


def test_cli_classify_budget_bounds_the_enumeration(capsys):
    start = time.perf_counter()
    argv = ["search", "classify", "cyclic:31", "31,15,7", "--time-budget", "0.5"]
    assert main(argv) == 2
    assert time.perf_counter() - start < 3
    err = capsys.readouterr().err
    assert "time budget" in err and "Traceback" not in err


@pytest.mark.parametrize("params", [(0, 0, 0), (16, 6, 2)], ids=["0,0,0", "16,6,2"])
@pytest.mark.parametrize(
    "call",
    [
        find_ds_block_designs,
        classify_group_cubes,
        lambda g, params: difference_cube_reference([g], params),
    ],
    ids=["designs", "classify", "reference"],
)
def test_design_order_must_be_the_group_order(call, params):
    with pytest.raises(InvalidInputError, match=rf"v = {params[0]}\b.*order 7\b"):
        call(make_cyclic(7), DesignParams(*params))


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "ds-designs", "cyclic:7", "0,0,0"],
        ["search", "ds-designs", "cyclic:7", "16,6,2"],
        ["search", "classify", "cyclic:7", "16,6,2"],
    ],
    ids=["designs-0,0,0", "designs-16,6,2", "classify-16,6,2"],
)
def test_cli_rejects_design_order_other_than_group_order(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    v = argv[-1].split(",")[0]
    assert f"v = {v}," in captured.err and "order 7" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("call", [find_ds_block_designs, classify_group_cubes])
def test_nan_time_budget_is_rejected(call):
    with pytest.raises(InvalidInputError, match="time budget .* nan"):
        call(make_cyclic(7), DesignParams(7, 3, 1), time_budget=float("nan"))


@pytest.mark.parametrize("command", ["ds-designs", "classify"])
def test_cli_rejects_nan_time_budget(capsys, command):
    assert main(["search", command, "cyclic:7", "7,3,1", "--time-budget", "nan"]) == 2
    captured = capsys.readouterr()
    assert "time budget" in captured.err and "nan" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("params", [(7, 0, 0), (7, 7, 7)], ids=["k=0", "k=v"])
def test_trivial_designs_are_not_classified(capsys, monkeypatch, params):
    # rejected before any search
    monkeypatch.setattr(search, "enumerate_difference_sets", None)
    message = rf"parameters \({params[0]},{params[1]},{params[2]}\) are trivial"
    with pytest.raises(InvalidInputError, match=message):
        classify_group_cubes(make_cyclic(7), DesignParams(*params))
    assert main(["search", "classify", "cyclic:7", ",".join(map(str, params))]) == 2
    captured = capsys.readouterr()
    assert f"({params[0]},{params[1]},{params[2]}) are trivial" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


class TestWorkDoneOnce:
    """Aut(G) is enumerated once per group and each difference cube is
    built once per certificate."""

    @pytest.fixture
    def enumerations(self, monkeypatch):
        reference_catalog()  # built once per process, before counting
        monkeypatch.setattr(groups, "_AUT_CACHE", {})
        calls = []
        enumerate_maps = groups._isomorphism_search

        def counting(source, target, find_all):
            calls.append(source)
            return enumerate_maps(source, target, find_all)

        monkeypatch.setattr(groups, "_isomorphism_search", counting)
        return calls

    def test_classification_enumerates_aut_once(self, enumerations):
        classify_group_cubes(make_cyclic(7), DesignParams(7, 3, 1))
        assert len(enumerations) == 1

    def test_reference_enumerates_aut_once(self, enumerations):
        difference_cube_reference([elementary_16()], DesignParams(16, 6, 2))
        assert len(enumerations) == 1

    def test_aut_array_is_cached_and_read_only(self, enumerations):
        z7 = make_cyclic(7)
        auts = groups.automorphism_group(z7)
        assert groups.automorphism_group(make_cyclic(7)) is auts
        assert len(enumerations) == 1
        assert auts.shape == (6, 7) and not auts.flags.writeable
        with pytest.raises(ValueError):
            auts[0, 0] = 1

    def test_difference_cube_built_once(self, monkeypatch):
        builds = []
        for module in (search, equivalence):
            build = module.difference_cube

            def counting(*args, build=build):
                builds.append(args)
                return build(*args)

            monkeypatch.setattr(module, "difference_cube", counting)
        difference_cube_reference([make_cyclic(7)], DesignParams(7, 3, 1))
        assert len(builds) == 1

    def test_difference_cube_seeds_are_verified(self, monkeypatch):
        # transposes the values 0 and 1 of the first axis only
        bogus = np.array([[1, 0] + list(range(2, 21))])
        monkeypatch.setattr(search, "_difference_cube_autotopies", lambda g, d, n: bogus)
        with pytest.raises(ConstructionBugError, match="not an automorphism"):
            difference_cube_reference([make_cyclic(7)], DesignParams(7, 3, 1))


def alternate_generators(generators):
    """Another generating set of the group of Example 5.2's three
    generators."""
    g1, g2, g3 = generators
    return (compose(g1, g2), compose(g2, compose(g3, g3)), g3, compose(inverse(g1), g3))


def tuple_orbit(block, generators):
    """Oracle for ``orbit_cube``: the orbit of a block, closed by a search
    over sorted block tuples kept in a set."""
    orbit = {tuple(sorted(block))}
    queue = list(orbit)
    while queue:
        cur = queue.pop()
        for p in generators:
            img = tuple(sorted(p[x] for x in cur))
            if img not in orbit:
                orbit.add(img)
                queue.append(img)
    return orbit


def tuple_orbit_cube(inp):
    """Oracle for ``orbit_cube``: the bits of the union of the base blocks'
    orbits (a sorted block {x, v+y, 2v+z} is the cell (x, y, z)) and the
    orbit sizes."""
    orbits = [tuple_orbit(b, inp.generators) for b in inp.base_blocks]
    bits = np.zeros((inp.v,) * 3, dtype=np.uint8)
    for block in set().union(*orbits):
        bits[tuple(x % inp.v for x in block)] = 1
    return bits, tuple(len(o) for o in orbits)


def difference_cube_orbit_input(g, d):
    """The difference 3-cube of d as an orbit input: its theoretical
    autotopies as point maps and one base block per orbit of its blocks."""
    gens = tuple(point_perm(w, 3, g.order) for w in theoretical_autotopies(g, d, 3))
    base, covered = [], set()
    for block in to_transversal(difference_cube(g, d, 3)).blocks:
        if block not in covered:
            base.append(block)
            covered |= tuple_orbit(block, gens)
    return OrbitCubeInput(g.order, gens, tuple(base))


class TestOrbitCube:
    @pytest.fixture(scope="class")
    def bundled(self):
        return load_orbit_input(data_dir() / "orbit" / "ngc_example.orbit")

    @pytest.mark.parametrize("alternate", [False, True], ids=["given", "alternate"])
    def test_example52_matches_tuple_orbit_oracle(self, bundled, alternate):
        gens = alternate_generators(bundled.generators) if alternate else bundled.generators
        inp = OrbitCubeInput(16, gens, bundled.base_blocks)
        bits, sizes = tuple_orbit_cube(inp)
        res = orbit_cube(inp)
        assert np.array_equal(res.cube.bits, bits)
        assert res.orbit_sizes == sizes == (96, 192, 192, 192, 192, 96, 192, 96, 192, 96)

    @pytest.mark.parametrize("case", ["Z7", "F21"])
    def test_difference_cube_from_its_autotopies(self, case):
        if case == "Z7":
            g = make_cyclic(7)
            d = DifferenceSet(g, (1, 2, 4), (7, 3, 1))
        else:
            g = frobenius_21()
            d = difference_sets_up_to_equivalence(g, 5, 1)[0]
        inp = difference_cube_orbit_input(g, d)
        bits, sizes = tuple_orbit_cube(inp)
        res = orbit_cube(inp)
        assert res.cube == difference_cube(g, d, 3)
        assert np.array_equal(res.cube.bits, bits)
        assert res.orbit_sizes == sizes and sum(sizes) == res.block_count

    def test_published_instance(self, bundled):
        res = orbit_cube(bundled)
        assert res.group_order == 384
        assert res.block_count == 1536
        assert verify_cube(res.cube)

    def test_slice_invariant(self, bundled):
        cat = reference_catalog()
        res = orbit_cube(bundled)
        assert slice_invariant(res.cube).rendered(cat.names()) == "{ {D1^4,D2^12}^3 }"

    def test_not_a_group_cube(self, bundled):
        res = orbit_cube(bundled)
        assert not is_group_cube(res.cube, ())

    def test_generator_set_invariance(self, bundled):
        # replace the generators by another generating set of the same group
        from symcube.equivalence import cube_certificate

        alt = alternate_generators(bundled.generators)
        assert PermGroup(alt, 48).order() == 384
        res1 = orbit_cube(bundled)
        res2 = orbit_cube(OrbitCubeInput(16, alt, bundled.base_blocks))
        assert res2.group_order == 384
        assert (
            cube_certificate(res1.cube) == cube_certificate(res2.cube)
        )

    def test_trivial_group_orbit(self):
        # identity generators with all blocks of a known cube reproduce it
        from symcube.cubes import difference_cube
        from symcube.equivalence import to_transversal
        from symcube.groups import DifferenceSet
        from symcube.perms import identity

        z3 = make_cyclic(3)
        cube = difference_cube(z3, DifferenceSet(z3, (1, 2), (3, 2, 1)), 3)
        t = to_transversal(cube)
        inp = OrbitCubeInput(3, (identity(9),), tuple(t.blocks))
        res = orbit_cube(inp)
        assert res.cube == cube

    def test_class_violation_rejected(self, bundled):
        # generators must preserve the three classes
        bad = tuple(range(1, 48)) + (0,)
        with pytest.raises(InvalidInputError):
            OrbitCubeInput(16, (bad,), bundled.base_blocks)

    def test_generator_must_be_a_permutation(self):
        # (0, 0, 2, 3, 4, 5) keeps the classes but is no bijection; it used
        # to reach PermGroup and die there with RecursionError
        latin = ((0, 2, 4), (0, 3, 5), (1, 2, 5), (1, 3, 4))
        with pytest.raises(InvalidInputError, match="permutations"):
            OrbitCubeInput(2, ((0, 0, 2, 3, 4, 5),), latin)

    def test_partial_orbit_rejected(self, bundled):
        with pytest.raises(NotACubeError):
            orbit_cube(OrbitCubeInput(16, bundled.generators, bundled.base_blocks[:3]))


# the 32 cells of two shifted Latin squares of order 4, z = x + y and
# z = x + y + 1 (mod 4), as blocks {x, 4+y, 8+z}: 2 v^2 blocks, so k = 2,
# but k(k-1)/(v-1) = 2/3 is no lambda
TWO_LATIN_SQUARES = tuple(
    (x, 4 + y, 8 + (x + y + s) % 4) for x in range(4) for y in range(4) for s in (0, 1)
)


class TestNonIntegralLambda:
    def test_orbit_cube(self):
        with pytest.raises(NotACubeError, match="not an integer") as err:
            orbit_cube(OrbitCubeInput(4, (identity(12),), TWO_LATIN_SQUARES))
        assert err.value.constraint == "lambda-condition"

    def test_validate_transversal(self):
        with pytest.raises(NotACubeError, match="not an integer") as err:
            validate_transversal(TransversalRep(3, 4, 2, TWO_LATIN_SQUARES))
        assert err.value.constraint == "lambda-condition"

    def test_cli_orbit_cube(self, tmp_path, capsys):
        path = tmp_path / "latin.orbit"
        save_orbit_input(OrbitCubeInput(4, (identity(12),), TWO_LATIN_SQUARES), path)
        assert main(["search", "orbit-cube", str(path)]) == 2
        captured = capsys.readouterr()
        assert "k(k-1)/(v-1) = 2/3 is not an integer" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


class TestGroupCubeMembership:
    def test_group_cube_is_member(self):
        f21 = frobenius_21()
        params = DesignParams(21, 5, 1)
        z21 = make_cyclic(21)
        ref = difference_cube_reference([f21, z21], params)
        nondev = load_design(data_dir() / "designs" / "f21_nondev.design")
        c3 = group_cube(f21, nondev.columns_as_sets(), 3)
        from symcube.equivalence import cube_certificate

        refs = set(ref.keys()) | {cube_certificate(c3)}
        assert is_group_cube(c3, refs)

    def test_difference_cube_is_group_cube(self):
        from symcube.cubes import difference_cube
        from symcube.groups import DifferenceSet

        z7 = make_cyclic(7)
        d = DifferenceSet(z7, (1, 2, 4), (7, 3, 1))
        cube = difference_cube(z7, d, 3)
        ref = difference_cube_reference([z7], DesignParams(7, 3, 1))
        assert is_group_cube(cube, ref.keys())


@pytest.mark.extended
@pytest.mark.parametrize(
    "make_group, params",
    [
        pytest.param(frobenius_21, (21, 5, 1), id="pg21:F21"),
        pytest.param(lambda: make_cyclic(21), (21, 5, 1), id="pg21:Z21"),
        # rows 1 and 7 have no (16,6,2) difference sets
        *(
            pytest.param(lambda row=row: load_group_16(row), (16, 6, 2), id=f"table1:{row}")
            for row in (2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14)
        ),
    ],
)
def test_orbit_representative_certificates_ignore_labels(make_group, params):
    """Every class count rests on certificates: a seeded random paratopy
    image of each design-orbit representative's cube, labelled unseeded,
    gets the certificate that the classification counts for it."""
    g, params = make_group(), DesignParams(*params)
    all_sets = enumerate_difference_sets(g, params.k, params.lam)
    reps, _, _ = search._design_orbit_representatives(g, params, all_sets)
    candidates = [d.elements for d in all_sets]
    seeds = search._group_cube_seeds(g, 3)
    rng = random.Random(g.name)
    certs = set()
    for rep in reps:
        cube = group_cube(g, [candidates[i] for i in rep], 3)
        cert = search.build_seeded_cube_certificate(cube, seeds)
        image = apply_paratopy(cube, random_paratopy(rng, 3, g.order))
        assert equivalence.cube_certificate(image) == cert
        certs.add(cert)
    assert sorted(certs) == classify_group_cubes(g, params).all_certs
