"""Aut(G) and Mult(D) checked against an independent oracle: sympy's
permutation groups, plus a direct homomorphism check of every row."""

import numpy as np
import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from symcube.cli import main
from symcube.datafiles import frobenius_21, load_group_16
from symcube.groups import (
    automorphism_generators,
    automorphism_group,
    difference_sets_up_to_equivalence,
    make_cyclic,
    multipliers,
)
from symcube.perms import PermGroup

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
    table = np.asarray(g.table)
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
