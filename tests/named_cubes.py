"""The 3-cubes that the tests name after the paper: the Fano difference
cube, the group cubes D1, D2 and D3 of the three (16,6,2) designs over
Z2^4, the difference cubes C1 (F21) and C2 (Z21) of (21,5,1), C3, the
group cube of the non-developable (21,5,1) design over F21, and example52,
the (16,6,2) orbit cube of Example 5.2."""

from symcube.catalog import elementary_16, switched_16_designs
from symcube.cubes import difference_cube, group_cube
from symcube.datafiles import data_dir, frobenius_21
from symcube.fileio import load_design, load_orbit_input
from symcube.groups import DifferenceSet, difference_sets_up_to_equivalence, make_cyclic
from symcube.search import orbit_cube


def fano_cube(n=3):
    z7 = make_cyclic(7)
    return difference_cube(z7, DifferenceSet(z7, (1, 2, 4), (7, 3, 1)), n)


def named_cube(name):
    if name == "fano":
        return fano_cube()
    if name in ("D1", "D2", "D3"):
        design = switched_16_designs()[int(name[1]) - 1]
        return group_cube(elementary_16(), design.columns_as_sets(), 3)
    if name == "example52":
        return orbit_cube(load_orbit_input(data_dir() / "orbit" / "ngc_example.orbit")).cube
    f21 = frobenius_21()
    if name == "C3":
        nondev = load_design(data_dir() / "designs" / "f21_nondev.design")
        return group_cube(f21, nondev.columns_as_sets(), 3)
    g = {"C1": f21, "C2": make_cyclic(21)}[name]
    return difference_cube(g, difference_sets_up_to_equivalence(g, 5, 1)[0], 3)
