"""Results checked against independent oracles that share no code with
``canon.py`` or ``perms.PermGroup``: sympy's permutation groups for Aut(G),
Mult(D) and the autotopy orders (plus a direct homomorphism check of every
row of Aut(G)), and networkx's VF2 graph isomorphism for the paratopy and
isotopy decisions."""

import itertools
import random

import networkx as nx
import numpy as np
import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from symcube.cli import main
from symcube.cubes import ParatopyElement, apply_paratopy
from symcube.datafiles import frobenius_21, load_group_16
from symcube.equivalence import (
    are_isotopic,
    are_paratopic,
    autotopy_report,
    to_transversal,
)
from symcube.groups import (
    automorphism_generators,
    automorphism_group,
    difference_sets_up_to_equivalence,
    make_cyclic,
    multipliers,
)
from symcube.perms import PermGroup

from named_cubes import fano_cube, latin_square_to_cube, named_cube, point_perm, random_paratopy

GROUPS = {f"id16:{gid}": lambda gid=gid: load_group_16(gid) for gid in range(1, 15)}
GROUPS.update({"Z7": lambda: make_cyclic(7), "Z13": lambda: make_cyclic(13), "F21": frobenius_21})


def sympy_order(gens, degree: int) -> int:
    if not gens:
        return 1
    return PermutationGroup([Permutation(list(p), size=degree) for p in gens]).order()


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_aut_order_agrees_with_sympy(name):
    g = GROUPS[name]()
    auts = automorphism_group(g)
    gens = automorphism_generators(g)
    assert len(auts) == PermGroup(gens, g.order).order() == sympy_order(gens, g.order)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_aut_rows_are_distinct_automorphisms(name):
    g = GROUPS[name]()
    auts = automorphism_group(g)
    table = g.table
    assert len(np.unique(auts, axis=0)) == len(auts)
    assert (np.sort(auts, axis=1) == np.arange(g.order)).all()
    for rows in np.array_split(auts, -(-len(auts) // 1024)):
        # phi(x y) == phi(x) phi(y) for every pair, all rows of the chunk at once
        assert (rows[:, table] == table[rows[:, :, None], rows[:, None, :]]).all()


@pytest.mark.parametrize("gid", [2, 10, 14])
def test_multiplier_order_agrees_with_sympy(gid):
    g = load_group_16(gid)
    for d in difference_sets_up_to_equivalence(g, 6, 2):
        mults = multipliers(d)
        for m in mults:
            image = sorted(m.images[x] for x in d.elements)
            assert image == sorted(g.table[m.translate][x] for x in d.elements)
        gens = automorphism_generators(g, [m.images for m in mults])
        assert len(mults) == sympy_order(gens, g.order)


def _multipliers_output(tmp_path, capsys, group, line):
    path = tmp_path / "set.ds"
    path.write_text(line)
    assert main(["ds", "multipliers", group, str(path)]) == 0
    return capsys.readouterr().out.splitlines()


def test_cli_multipliers_fano(tmp_path, capsys):
    assert _multipliers_output(tmp_path, capsys, "cyclic:7", "ds 7 3 1\n1 2 4\n") == [
        "multipliers: 3",
        "translate 0 images 0 1 2 3 4 5 6",
        "translate 0 images 0 2 4 6 1 3 5",
        "translate 0 images 0 4 1 5 2 6 3",
    ]


def test_cli_multipliers_z2_4(tmp_path, capsys):
    out = _multipliers_output(tmp_path, capsys, "id16:14", "ds 16 6 2\n0 1 2 3 4 15\n")
    assert len(out) == 721
    assert out[0] == "multipliers: 720"
    assert out[1] == "translate 0 images 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15"
    assert out[-1] == "translate 15 images 0 15 14 13 12 1 2 3 5 6 8 10 9 7 4 11"


# -- autotopy orders --------------------------------------------------------


AUTOTOPY_ORDERS = {
    "fano": 147,
    "D1": 184320,
    "D2": 3072,
    "D3": 768,
    "C1": 1323,
    "C2": 2646,
    "C3": 441,
}


@pytest.mark.parametrize("name", sorted(AUTOTOPY_ORDERS))
def test_autotopy_order_agrees_with_sympy(name):
    c = named_cube(name)
    report = autotopy_report(c)
    gens = [point_perm(w, c.n, c.v) for w in report.generators]
    assert report.order == sympy_order(gens, c.n * c.v) == AUTOTOPY_ORDERS[name]


# -- paratopy and isotopy against VF2 ---------------------------------------


def _incidence_graph(c, colored):
    """The point/block graph of the transversal design of c; points carry
    their axis as color when ``colored``, blocks carry -1."""
    t = to_transversal(c)
    g = nx.Graph()
    g.add_nodes_from((p, {"color": p // t.v if colored else 0}) for p in range(t.n_points))
    for j, block in enumerate(t.blocks):
        g.add_node(t.n_points + j, color=-1)
        g.add_edges_from((t.n_points + j, p) for p in block)
    return g


def _vf2_equivalent(c1, c2, colored):
    return nx.is_isomorphic(
        _incidence_graph(c1, colored),
        _incidence_graph(c2, colored),
        node_match=lambda a, b: a["color"] == b["color"],
    )


def _vf2_classes(cubes, colored):
    """Equivalence class of each cube by VF2.  A cube is compared with one
    member per known class, newest first, so transitivity settles every
    other pair; a proof of inequivalence costs far more than one of
    equivalence (2.5 s against 0.03 s on order-4 Latin cubes, 45 s on
    order 5)."""
    reps: list = []
    labels = []
    for c in cubes:
        known = reversed(range(len(reps)))
        hit = next((i for i in known if _vf2_equivalent(reps[i], c, colored)), None)
        if hit is None:
            hit = len(reps)
            reps.append(c)
        labels.append(hit)
    return labels


def _images(c, rng, count):
    """c, ``count`` random paratopy images and one random isotopy image."""
    out = [c] + [apply_paratopy(c, random_paratopy(rng, c.n, c.v)) for _ in range(count)]
    iso = random_paratopy(rng, c.n, c.v)
    return out + [apply_paratopy(c, ParatopyElement(iso.perms, tuple(range(c.n))))]


def _cyclic_square(v):
    return [[(i + j) % v for j in range(v)] for i in range(v)]


# main class representatives: order 4 has two (Z4 and Z2^2, whose Cayley
# table is i XOR j), and so has order 5 (Z5, and a square with an
# intercalate, a 2x2 Latin subsquare, which Z5 lacks)
LATIN_SQUARES = {
    4: [_cyclic_square(4), [[i ^ j for j in range(4)] for i in range(4)]],
    5: [
        _cyclic_square(5),
        [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]],
    ],
}


@pytest.mark.parametrize(
    "v", [4, pytest.param(5, marks=pytest.mark.extended)]  # order 5: 45 s of VF2
)
def test_latin_cube_equivalence_agrees_with_vf2(v):
    rng = random.Random(v)
    cubes = [img for sq in LATIN_SQUARES[v] for img in _images(latin_square_to_cube(sq), rng, 2)]
    for colored, decide in ((False, are_paratopic), (True, are_isotopic)):
        labels = _vf2_classes(cubes, colored)
        assert len(set(labels)) == 2  # the main classes, and the isotopy classes
        for i, j in itertools.combinations(range(len(cubes)), 2):
            assert decide(cubes[i], cubes[j]) == (labels[i] == labels[j])


@pytest.mark.parametrize("n", [2, 3])
def test_fano_cube_equivalence_agrees_with_vf2(n):
    rng = random.Random(n)
    base, *images = _images(fano_cube(n), rng, 2)
    for img in images:
        assert are_paratopic(base, img) == _vf2_equivalent(base, img, False)
        assert are_isotopic(base, img) == _vf2_equivalent(base, img, True)
