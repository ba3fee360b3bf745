"""The catalog's shortcut: a design of a completely catalogued parameter
set is named by its 2-rank, and must get the certificate and |Aut| that
canon gives it; every other input must reach canon."""

import dataclasses
import random

import numpy as np
import pytest

from named_cubes import named_cube, random_paratopy
from symcube import canon, catalog, designs
from symcube.catalog import COMPLETE_PARAMS, Catalog, reference_catalog, switched_16_designs
from symcube.cubes import _parallel_classes, apply_paratopy
from symcube.designs import DesignParams, IncidenceMatrix, block_quadruple, design_class
from symcube.errors import ConstructionBugError
from symcube.groups import make_cyclic
from symcube.search import classify_group_cubes


def _assert_shortcut_matches_canon(a: IncidenceMatrix):
    fast = design_class(a, reference_catalog())
    slow = design_class(a)
    assert fast.certificate == slow.certificate
    assert fast.aut_order == slow.aut_order


def _slices_of_images(name: str, count: int, seed: int):
    cube = named_cube(name)
    rng = random.Random(seed)
    for _ in range(count):
        image = apply_paratopy(cube, random_paratopy(rng, cube.n, cube.v))
        for group in _parallel_classes(image):
            for m in group:
                yield IncidenceMatrix(m, cube.params)


@pytest.fixture
def canon_calls(monkeypatch):
    """The design_canonical calls made through design_class, counted once
    the catalog is labelled."""
    reference_catalog().names()  # labels every entry, before counting
    calls = []
    original = designs.design_canonical

    def counting(bits):
        calls.append(bits.shape)
        return original(bits)

    monkeypatch.setattr(designs, "design_canonical", counting)
    return calls


def test_hussain_classes_are_separated_by_2_rank():
    ranks = {key[1] for key in reference_catalog()._by_rank if key[0] == DesignParams(16, 6, 2)}
    assert ranks == {6, 7, 8}


def test_shortcut_matches_canon_on_example52_slices():
    for a in _slices_of_images("example52", 1, seed=52):
        _assert_shortcut_matches_canon(a)


def test_shortcut_matches_canon_on_catalog_images():
    rng = np.random.default_rng(8)
    entries = [e for e in reference_catalog().entries if e.params in COMPLETE_PARAMS]
    assert len(entries) == 7
    for entry in entries:
        v = entry.params.v
        for i in range(5):
            bits = entry.matrix.bits[rng.permutation(v)][:, rng.permutation(v)]
            _assert_shortcut_matches_canon(IncidenceMatrix(bits.T if i % 2 else bits))


@pytest.mark.extended
@pytest.mark.parametrize("name", ["fano", "D1", "D2", "D3", "C3", "example52"])
def test_shortcut_matches_canon_on_many_images(name):
    for a in _slices_of_images(name, 20, seed=1):
        _assert_shortcut_matches_canon(a)


def test_shortcut_skips_canon(canon_calls):
    d1, d2, d3 = switched_16_designs()
    for mat, name in ((d1, "D1"), (d2, "D2"), (d3, "D3")):
        assert design_class(mat, reference_catalog()).name == name
    assert canon_calls == []


def test_entries_are_labelled_on_first_read(canon_calls):
    """Building a catalog and naming a design by it run no canon; reading
    the certificate labels that entry, and the names label every entry."""
    cat = catalog._build()
    d1 = switched_16_designs()[0]
    cls = design_class(d1, cat)
    assert cls.name == "D1" and canon_calls == []
    (entry,) = [e for e in cat.entries if e.name == "D1"]
    assert cls.certificate == entry.certificate and canon_calls == [(16, 16)] * 2
    names = cat.names()
    assert len(canon_calls) == 16 and names[entry.certificate] == "D1"
    assert len(set(names)) == 8 and design_class(d1).certificate == entry.certificate


def test_classification_labels_no_catalog_entry(canon_calls, monkeypatch):
    monkeypatch.setattr(catalog, "_CATALOG", None)
    cls = classify_group_cubes(make_cyclic(7), DesignParams(7, 3, 1))
    assert cls.dev_classes == ["D0"]
    assert canon_calls == []
    assert not any("design" in vars(e) for e in reference_catalog().entries)


def test_aut_orders_are_computed_on_first_read(monkeypatch):
    """Building the catalog and naming a design by it compute no |Aut|; the
    first read computes it once, for the entry and the class alike."""
    chains = []

    class CountingGroup(canon.PermGroup):
        def __init__(self, *args):
            chains.append(args[1])
            super().__init__(*args)

    monkeypatch.setattr(canon, "PermGroup", CountingGroup)
    cat = catalog._build()
    d1 = switched_16_designs()[0]
    cls = design_class(d1, cat)
    assert cls.name == "D1" and chains == []
    assert cls.aut_order == 11520 and chains == [16]
    (entry,) = [e for e in cat.entries if e.name == "D1"]
    assert entry.aut_order == 11520 and chains == [16]


def test_incomplete_parameters_reach_canon(canon_calls):
    cat = reference_catalog()
    (d15,) = [e for e in cat.entries if e.params == DesignParams(15, 7, 3)]
    assert design_class(d15.matrix, cat).name == "D0"
    assert canon_calls == [(15, 15)] * 2
    canon_calls.clear()
    quadruple = block_quadruple(switched_16_designs()[2])
    assert design_class(quadruple, cat).name is None
    assert canon_calls == [(64, 64)] * 2


def test_non_design_reaches_canon(canon_calls):
    # every line sum is 3, so (7,3,1) is inferred, but {0,1,2} is no
    # difference set in Z7
    bits = np.array([[(i - j) % 7 < 3 for j in range(7)] for i in range(7)], dtype=np.uint8)
    a = IncidenceMatrix(bits)
    assert reference_catalog().lookup(a) is None
    assert design_class(a, reference_catalog()).name is None
    assert canon_calls == [(7, 7)] * 2


def test_same_rank_entries_raise():
    d1 = next(e for e in reference_catalog().entries if e.name == "D1")
    twin = dataclasses.replace(d1, name="D1'", matrix=IncidenceMatrix(d1.matrix.bits.T))
    with pytest.raises(ConstructionBugError, match="D1 and D1' share .* 2-rank 6"):
        Catalog([d1, twin])
