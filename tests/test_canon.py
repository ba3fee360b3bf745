import hashlib
import random

import pytest

from symcube.canon import canonicalize, design_canonical
from symcube.catalog import elementary_16, switched_16_designs
from symcube.cubes import ParatopyElement, apply_paratopy, difference_cube, random_paratopy
from symcube.equivalence import cube_certificate, paratopy_to_point_perm, to_transversal
from symcube.errors import ConstructionBugError, InvalidInputError
from symcube.groups import DifferenceSet, development, make_cyclic
from symcube.search import _group_cube_seeds

from named_cubes import fano_cube, named_cube


def _cube_result(c, colored, seeds=()):
    t = to_transversal(c)
    colors = [p // t.v for p in range(t.n_points)] if colored else None
    return canonicalize(t.n_points, t.blocks, colors, known_automorphisms=seeds)


def _corpus():
    z7 = make_cyclic(7)
    fano_set = DifferenceSet(z7, (1, 2, 4), (7, 3, 1))
    fano = fano_cube()
    d1, d2, d3 = switched_16_designs()
    g16 = elementary_16()
    z2_4 = difference_cube(g16, DifferenceSet(g16, (1, 2, 3, 4, 8, 12), (16, 6, 2)), 3)
    return {
        "fano design": lambda: design_canonical(development(fano_set).bits),
        "D1 design": lambda: design_canonical(d1.bits),
        "D2 design": lambda: design_canonical(d2.bits),
        "D3 design": lambda: design_canonical(d3.bits),
        "fano cube colored": lambda: _cube_result(fano, True),
        "fano cube uncolored": lambda: _cube_result(fano, False),
        "C3 uncolored": lambda: _cube_result(named_cube("C3"), False),
        "Z2^4 difference cube seeded": lambda: _cube_result(
            z2_4, False, _group_cube_seeds(g16, 3)
        ),
    }


# name -> (sha256 of the certificate, node_count, leaf_count, aut_order)
PINNED = {
    "fano design": ("7450fcb2854bb42f11c2255ea34ce25fe2054b414f3924a6637ef8739b1a5910", 11, 5, 168),
    "D1 design": ("02ddb703f1c6776e313243c32f144c98f20061156e1fbfaca058627a9a3a5a8f", 26, 8, 11520),
    "D2 design": ("08592ab38d200584c0e411b07706952f5b5c0d51291c7739525e1c075695a366", 28, 9, 768),
    "D3 design": ("8f44c4722bba0724ba240b6510d78191b75439c991742a5c1e658d29061c459b", 35, 8, 384),
    "fano cube colored": ("5ed4c52f69cc7d94b544795e508d8222a7f4320dd352ee0023b04d21e153b6fc", 10, 4, 147),
    "fano cube uncolored": ("be0a163841f294b8102f12153f4f922a6b5e654a99af34d5ce4d5ecbc18669ee", 15, 6, 882),
    "C3 uncolored": ("379b4ee25aff0c25153724f0e0462e0d7ae76988a1757601659dafa8f26bb4be", 63, 9, 882),
    "Z2^4 difference cube seeded": (
        "eed45854da6890c2036e5d4567c8ed1c66bb756990716cce4a92428c7ea372f6", 43, 9, 1105920
    ),
}


@pytest.mark.parametrize("name", sorted(_corpus()))
def test_pinned_certificates(name):
    res = _corpus()[name]()
    assert res.complete
    got = (hashlib.sha256(res.certificate).hexdigest(), res.node_count, res.leaf_count, res.aut_order)
    assert got == PINNED[name]


def _check_invariance(name, images):
    """The paratopy certificate of ``images`` random paratopy images, and the
    isotopy certificate of as many random isotopy images, equal the cube's."""
    c = named_cube(name)
    rng = random.Random(name)
    ident = tuple(range(c.n))
    for mode in ("uncolored", "colored"):
        cert = cube_certificate(c, mode)
        for _ in range(images):
            p = random_paratopy(rng, c.n, c.v)
            if mode == "colored":
                p = ParatopyElement(p.perms, ident)
            assert cube_certificate(apply_paratopy(c, p), mode) == cert


STRESS_CUBES = ["D1", "D2", "D3", "C3"]


@pytest.mark.parametrize("name", STRESS_CUBES)
def test_certificate_invariance(name):
    _check_invariance(name, 3)


@pytest.mark.extended
@pytest.mark.parametrize("name", STRESS_CUBES)
def test_certificate_invariance_extended(name):
    _check_invariance(name, 200)


class TestSeeds:
    def setup_method(self):
        self.t = to_transversal(fano_cube())
        self.colors = [p // 7 for p in range(self.t.n_points)]
        ident = tuple(range(7))
        # the difference cube of an abelian group is totally symmetric, so
        # swapping the first two axes is an autoparatopy but no autotopy
        self.axis_swap = paratopy_to_point_perm(
            ParatopyElement((ident, ident, ident), (1, 0, 2)), 3, 7
        )

    def test_seeded_certificate_equals_unseeded(self):
        plain = canonicalize(self.t.n_points, self.t.blocks)
        seeded = canonicalize(self.t.n_points, self.t.blocks, known_automorphisms=[self.axis_swap])
        assert seeded.certificate == plain.certificate
        assert seeded.aut_order == plain.aut_order

    def test_seed_must_preserve_colors(self):
        with pytest.raises(ConstructionBugError, match="colors"):
            canonicalize(
                self.t.n_points, self.t.blocks, self.colors, known_automorphisms=[self.axis_swap]
            )

    def test_seed_must_map_blocks_onto_blocks(self):
        swap = list(range(self.t.n_points))
        swap[0], swap[1] = 1, 0
        with pytest.raises(ConstructionBugError, match="not an automorphism"):
            canonicalize(self.t.n_points, self.t.blocks, self.colors, known_automorphisms=[swap])

    def test_seed_must_be_a_permutation(self):
        with pytest.raises(InvalidInputError):
            canonicalize(self.t.n_points, self.t.blocks, known_automorphisms=[[0] * self.t.n_points])
        with pytest.raises(InvalidInputError):
            canonicalize(self.t.n_points, self.t.blocks, known_automorphisms=[[0, 1]])
