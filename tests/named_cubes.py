"""The 3-cubes that the tests name after the paper: the Fano difference
cube, the group cubes D1, D2 and D3 of the three (16,6,2) designs over
Z2^4, the difference cubes C1 (F21) and C2 (Z21) of (21,5,1), C3, the
group cube of the non-developable (21,5,1) design over F21, and example52,
the (16,6,2) orbit cube of Example 5.2; the Latin-square cubes; random
paratopies to move any of them with; and the paratopy algebra (identity,
inverse, composition, transversal point permutation) that only tests use."""

import numpy as np

from symcube.catalog import elementary_16, switched_16_designs
from symcube.cubes import Cube, ParatopyElement, difference_cube, group_cube
from symcube.datafiles import data_dir, frobenius_21
from symcube.designs import DesignParams
from symcube.errors import InvalidInputError
from symcube.fileio import load_design, load_orbit_input
from symcube.groups import DifferenceSet, difference_sets_up_to_equivalence, make_cyclic
from symcube.perms import compose, identity, inverse
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


def latin_square_to_cube(square):
    """C(i1, i2, i3) = [square[i1][i2] == i3]; symbols are 0..v-1."""
    arr = np.asarray(square, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidInputError("not-a-Latin-square: must be square")
    v = arr.shape[0]
    symbols = set(range(v))
    for i in range(v):
        if set(arr[i].tolist()) != symbols or set(arr[:, i].tolist()) != symbols:
            raise InvalidInputError("not-a-Latin-square: repeated symbol in a line")
    bits = np.zeros((v, v, v), dtype=np.uint8)
    i1, i2 = np.meshgrid(np.arange(v), np.arange(v), indexing="ij")
    bits[i1, i2, arr] = 1
    return Cube(bits, DesignParams(v, 1, 0))


def random_paratopy(rng, n, v):
    """A paratopy of n-cubes of order v drawn with ``rng`` (a random.Random)."""
    perms = tuple(tuple(rng.sample(range(v), v)) for _ in range(n))
    gamma = tuple(rng.sample(range(n), n))
    return ParatopyElement(perms, gamma)


def identity_paratopy(n, v):
    return ParatopyElement(tuple(identity(v) for _ in range(n)), identity(n))


def inverse_paratopy(p):
    gamma_inv = inverse(p.axis_perm)
    perms = tuple(inverse(p.perms[gamma_inv[t]]) for t in range(len(p.perms)))
    return ParatopyElement(perms, gamma_inv)


def compose_paratopies(q, p):
    """q after p: applying it equals applying p, then q."""
    beta, delta = q.perms, q.axis_perm
    alpha, gamma = p.perms, p.axis_perm
    zeta = tuple(gamma[delta[t]] for t in range(len(delta)))
    eps = tuple(compose(beta[t], alpha[delta[t]]) for t in range(len(delta)))
    return ParatopyElement(eps, zeta)


def point_perm(w, n, v):
    """The permutation of the n*v transversal points induced by a paratopy:
    point (t, x) maps to (gamma^{-1}(t), alpha_{gamma^{-1}(t)}(x))."""
    gamma_inv = np.asarray(inverse(w.axis_perm))
    perms = np.asarray(w.perms, dtype=np.int64).reshape(n, v)
    return tuple((gamma_inv[:, None] * v + perms[gamma_inv]).ravel().tolist())
