import numpy as np
import pytest

from symcube.catalog import (
    elementary_16,
    klein_group,
    reference_catalog,
    switched_16_designs,
)
from symcube.designs import (
    DesignParams,
    IncidenceMatrix,
    block_quadruple,
    design_class,
    development,
    mann_product,
    menon_params,
    switch_blocks,
    verify_design,
)
from symcube.errors import InvalidInputError
from symcube.groups import DifferenceSet, make_cyclic


@pytest.fixture(scope="module")
def fano():
    z7 = make_cyclic(7)
    return development(DifferenceSet(z7, (1, 2, 4), (7, 3, 1)))


def test_params_validation():
    DesignParams(7, 3, 1)
    with pytest.raises(InvalidInputError):
        DesignParams(7, 3, 2)
    with pytest.raises(InvalidInputError):
        DesignParams(4, 5, 1)


def test_verify_fano(fano):
    assert verify_design(fano, DesignParams(7, 3, 1))


def test_identity_matrix_is_design():
    eye = IncidenceMatrix(np.eye(5, dtype=np.uint8), DesignParams(5, 1, 0))
    assert verify_design(eye, DesignParams(5, 1, 0))


def test_single_flip_breaks_design(fano):
    for i in range(7):
        for j in range(7):
            bits = fano.bits.copy()
            bits[i, j] ^= 1
            assert not verify_design(IncidenceMatrix(bits), DesignParams(7, 3, 1))


def test_dimension_mismatch(fano):
    with pytest.raises(InvalidInputError):
        verify_design(fano, DesignParams(13, 4, 1))


def test_dual_preserves_design(fano):
    assert verify_design(IncidenceMatrix(fano.bits.T.copy()), DesignParams(7, 3, 1))


def test_menon_complement_pair():
    assert menon_params(2) == DesignParams(16, 6, 2)


def test_switch_twice_is_identity():
    d1, _, _ = switched_16_designs()
    once = switch_blocks(d1, (0, 1, 12, 13), (2, 3, 14, 15))
    twice = switch_blocks(once, (0, 1, 12, 13), (2, 3, 14, 15))
    assert twice == d1
    assert switch_blocks(d1, (), (2, 3)) == d1


@pytest.mark.parametrize(
    "blocks,points,message",
    [
        ((7,), (1,), "block index 7 is out of range 0..6"),
        ((0,), (7,), "point index 7 is out of range 0..6"),
        ((-1,), (1,), "block index -1 is out of range"),
        ((0,), (-1,), "point index -1 is out of range"),
        ((0, 0), (1,), "block indices must be distinct"),
        ((0,), (1, 1), "point indices must be distinct"),
    ],
)
def test_switch_rejects_bad_indices(fano, blocks, points, message):
    with pytest.raises(InvalidInputError, match=message):
        switch_blocks(fano, blocks, points)


def test_switched_designs_verify():
    d1, d2, d3 = switched_16_designs()
    p = DesignParams(16, 6, 2)
    assert verify_design(d1, p) and verify_design(d2, p) and verify_design(d3, p)


def test_catalog_names_and_orders():
    cat = reference_catalog()
    d1, d2, d3 = switched_16_designs()
    for mat, name, order in ((d1, "D1", 11520), (d2, "D2", 768), (d3, "D3", 384)):
        cls = design_class(mat, cat)
        assert cls.name == name
        assert cls.aut_order == order


def test_design_class_certificate_invariance(fano):
    rng = np.random.default_rng(0)
    base = design_class(fano).certificate
    for _ in range(25):
        p = rng.permutation(7)
        q = rng.permutation(7)
        shuffled = IncidenceMatrix(fano.bits[p][:, q], fano.params)
        assert design_class(shuffled).certificate == base
    assert design_class(IncidenceMatrix(fano.bits.T.copy())).certificate == base


def test_design_class_distinguishes():
    cat = reference_catalog()
    z11 = make_cyclic(11)
    biplane = development(DifferenceSet(z11, (1, 3, 4, 5, 9), (11, 5, 2)))
    cls = design_class(biplane, cat)
    assert cls.name == "D0"
    assert cls.aut_order == 660


def test_mann_product_chain():
    k4 = klein_group()
    seed = DifferenceSet(k4, (0,), (4, 1, 0))
    d2 = mann_product(seed, seed)
    assert d2.params == (16, 6, 2)
    d3 = mann_product(d2, seed)
    assert d3.params == (64, 28, 12)
    # formula consistency at m=1: the seed itself
    assert menon_params(1) == DesignParams(4, 1, 0)


def test_mann_product_rejects_bad_seed():
    z4 = make_cyclic(4)
    bad_seed = DifferenceSet(z4, (0,), (4, 1, 0))
    k4 = klein_group()
    good = DifferenceSet(k4, (0,), (4, 1, 0))
    with pytest.raises(InvalidInputError):
        mann_product(good, bad_seed)


def test_block_quadruple():
    d1, d2, _ = switched_16_designs()
    big = block_quadruple(d1)
    assert big.params == DesignParams(64, 28, 12)
    assert verify_design(big, big.params)
    # row sums of the block structure: 3k + (v - k)
    assert (big.bits.sum(axis=1) == 3 * 6 + 10).all()
    with pytest.raises(InvalidInputError):
        block_quadruple(IncidenceMatrix(np.eye(7, dtype=np.uint8), DesignParams(7, 1, 0)))


def test_quadruple_images_distinct():
    d1, d2, d3 = switched_16_designs()
    certs = {design_class(block_quadruple(m)).certificate for m in (d1, d2, d3)}
    assert len(certs) == 3
