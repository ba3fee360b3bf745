import hashlib

import pytest

from symcube.canon import canonicalize, design_canonical
from symcube.catalog import elementary_16, switched_16_designs
from symcube.cubes import ParatopyElement, difference_cube, group_cube
from symcube.datafiles import data_dir, frobenius_21
from symcube.equivalence import paratopy_to_point_perm, to_transversal
from symcube.errors import ConstructionBugError, InvalidInputError
from symcube.fileio import load_design
from symcube.groups import DifferenceSet, development, make_cyclic
from symcube.search import _group_cube_seeds


def _cube_result(c, colored, seeds=()):
    t = to_transversal(c)
    colors = [p // t.v for p in range(t.n_points)] if colored else None
    return canonicalize(t.n_points, t.blocks, colors, known_automorphisms=seeds)


def _fano_cube():
    z7 = make_cyclic(7)
    return difference_cube(z7, DifferenceSet(z7, (1, 2, 4), (7, 3, 1)), 3)


def _corpus():
    z7 = make_cyclic(7)
    fano = DifferenceSet(z7, (1, 2, 4), (7, 3, 1))
    fano_cube = _fano_cube()
    d1, d2, d3 = switched_16_designs()
    f21 = frobenius_21()
    nondev = load_design(data_dir() / "designs" / "f21_nondev.design")
    g16 = elementary_16()
    z2_4 = difference_cube(g16, DifferenceSet(g16, (1, 2, 3, 4, 8, 12), (16, 6, 2)), 3)
    return {
        "fano design": lambda: design_canonical(development(fano).bits),
        "D1 design": lambda: design_canonical(d1.bits),
        "D2 design": lambda: design_canonical(d2.bits),
        "D3 design": lambda: design_canonical(d3.bits),
        "fano cube colored": lambda: _cube_result(fano_cube, True),
        "fano cube uncolored": lambda: _cube_result(fano_cube, False),
        "C3 uncolored": lambda: _cube_result(group_cube(f21, nondev.columns_as_sets(), 3), False),
        "Z2^4 difference cube seeded": lambda: _cube_result(
            z2_4, False, _group_cube_seeds(g16, 3)
        ),
    }


# name -> (sha256 of the certificate, node_count, leaf_count, aut_order)
PINNED = {
    "fano design": ("40a92dea104015ea63903109616d0ba5a9bbe5f9d92180e7807df8085c189c37", 11, 5, 168),
    "D1 design": ("8ebcc347662360757d6be375650aba51256adaadbcba7e8ee66322d9ce63528b", 28, 7, 11520),
    "D2 design": ("988b7a5f003117060e0b60a954e64ac53d7c241ea9d869f78b2ec084eac427d7", 69, 7, 768),
    "D3 design": ("422193859cc546c7b44b73704b9f487b6328261457e8a7f1f703fcf68bebb049", 57, 6, 384),
    "fano cube colored": ("0da5929c64088c4a81ddc2b5df65907c345d356117eab47edd085760547c0d9a", 5, 4, 147),
    "fano cube uncolored": ("b96f4f842c6071706f42e471e5680427bb4f19307cf37a2d720591ab8f306fc4", 15, 6, 882),
    "C3 uncolored": ("1783cefeccba1d54f7e38ea85f0518bf2ecd6f88f28143e7e728c1307d3cdfd0", 64, 14, 882),
    "Z2^4 difference cube seeded": (
        "509c7202c21f73f47cceb5578a4f8294a65472cdae4ba83babaf7151e5f23aac", 43, 9, 1105920
    ),
}


@pytest.mark.parametrize("name", sorted(_corpus()))
def test_pinned_certificates(name):
    res = _corpus()[name]()
    assert res.complete
    got = (hashlib.sha256(res.certificate).hexdigest(), res.node_count, res.leaf_count, res.aut_order)
    assert got == PINNED[name]


class TestSeeds:
    def setup_method(self):
        self.t = to_transversal(_fano_cube())
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
