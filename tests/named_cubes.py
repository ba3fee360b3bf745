"""The 3-cubes that the tests name after the paper: the Fano difference
cube, the group cubes D1, D2 and D3 of the three (16,6,2) designs over
Z2^4, the difference cubes C1 (F21) and C2 (Z21) of (21,5,1), and C3, the
group cube of the non-developable (21,5,1) design over F21."""

from symcube.catalog import elementary_16, switched_16_designs
from symcube.cubes import difference_cube, group_cube
from symcube.datafiles import data_dir, frobenius_21
from symcube.fileio import load_design
from symcube.groups import DifferenceSet, difference_sets_up_to_equivalence, make_cyclic


def fano_cube(n=3):
    z7 = make_cyclic(7)
    return difference_cube(z7, DifferenceSet(z7, (1, 2, 4), (7, 3, 1)), n)


def named_cube(name):
    if name == "fano":
        return fano_cube()
    if name in ("D1", "D2", "D3"):
        design = switched_16_designs()[int(name[1]) - 1]
        return group_cube(elementary_16(), design.columns_as_sets(), 3)
    f21 = frobenius_21()
    if name == "C3":
        nondev = load_design(data_dir() / "designs" / "f21_nondev.design")
        return group_cube(f21, nondev.columns_as_sets(), 3)
    g = {"C1": f21, "C2": make_cyclic(21)}[name]
    return difference_cube(g, difference_sets_up_to_equivalence(g, 5, 1)[0], 3)
