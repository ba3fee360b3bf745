"""Reproduction targets tying the modules together.

Each target recomputes one of the small-parameter results and renders a
deterministic plain-text report (stable ordering, no timestamps).
``symcube reproduce <target> --check`` compares it byte for byte with the
target's one golden, ``data/expected/<target>.txt``:

- ``fano`` (``fano.txt``): the order-7 cube from shifts of the Fano plane.
- ``small-unique`` (``small-unique.txt``): one cyclic group cube each.
- ``pg21`` (``pg21.txt``): the three (21,5,1) group cubes.
- ``table1`` (``table1.txt``): Table 1, rows 1, 5, 6, 7 and 14.
- ``table1-all`` (``table1-all.txt``): Table 1, all 14 rows.
- ``prop51`` (``prop51.txt``): Proposition 5.1, 27 + 946 = 973 cubes.
- ``menon-family`` (``menon-family.txt``): products and quadruples.
- ``hadamard16`` (``hadamard16.txt``): Hadamard (16,6,2) cubes.
- ``example52`` (``example52.txt``): Example 5.2, a non-group cube.
- ``diffcubes27`` (``diffcubes27.txt``): the 27 (16,6,2) difference cubes.

pg21, table1, table1-all and prop51 classify through ``_classify``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .catalog import elementary_16, klein_group, reference_catalog, switched_16_designs
from .cubes import (
    Cube,
    difference_cube,
    group_cube,
    hadamard_certificate,
    hadamard_slice_checks,
    is_totally_symmetric,
    slice_invariant,
    to_hadamard,
    verify_cube,
)
from .datafiles import all_groups_16, data_dir, frobenius_21
from .designs import DesignParams, block_quadruple, design_class, verify_design, mann_product
from .equivalence import autotopy_report
from .fileio import load_design, load_orbit_input
from .groups import (
    DifferenceSet,
    FiniteGroup,
    difference_sets_up_to_equivalence,
    make_cyclic,
)
from .search import (
    GroupCubeClassification,
    classify_group_cubes,
    difference_cube_reference,
    is_group_cube,
    orbit_cube,
)

TABLE1_PINNED_IDS = [1, 5, 6, 7, 14]
ORDER16 = DesignParams(16, 6, 2)


def _classify(
    reference_groups: Sequence[FiniteGroup], params: DesignParams, groups: Sequence[FiniteGroup]
) -> list[GroupCubeClassification]:
    """The classification of each of ``groups`` against the difference
    cubes of all ``reference_groups``, which are built once."""
    ref = difference_cube_reference(reference_groups, params)
    return [classify_group_cubes(g, params, reference=ref) for g in groups]


def _union(records: Sequence[GroupCubeClassification], attr: str) -> set[bytes]:
    """The certificates ``attr`` of all ``records``."""
    return set().union(*(getattr(cls, attr) for cls in records))


def target_fano() -> str:
    """Rebuild the order-7 cube by stacking upward cyclic shifts of the
    bundled Fano incidence matrix."""
    a1 = load_design(data_dir() / "designs" / "fano_a1.design")
    layers = [np.roll(a1.bits, -j, axis=0) for j in range(7)]
    cube = Cube(np.stack(layers, axis=0), DesignParams(7, 3, 1))
    lines = ["target: fano"]
    lines.append("layer stack: A1..A7 by upward cyclic shifts")
    lines.append(f"verify_cube: {verify_cube(cube)}")
    lines.append(f"totally_symmetric: {is_totally_symmetric(cube)}")
    ones = int(cube.bits.sum())
    lines.append(f"one_cells: {ones}")
    return "\n".join(lines) + "\n"


def target_small_unique() -> str:
    """For each of the four smallest parameter sets, the only designs with
    difference-set blocks over the cyclic group are developments, so there
    is a single group cube, equivalent to the difference cube."""
    lines = ["target: small-unique"]
    for (v, k, lam) in ((7, 3, 1), (11, 5, 2), (13, 4, 1), (15, 7, 3)):
        g = make_cyclic(v)
        params = DesignParams(v, k, lam)
        cls = classify_group_cubes(g, params)
        unique = cls.ngc == 0 and cls.ndc == 1 and len(cls.all_certs) == 1
        lines.append(
            f"({v},{k},{lam}): designs={cls.design_count} cube_classes={len(cls.all_certs)} "
            f"difference_cubes={cls.ndc} non_difference={cls.ngc} unique_group_cube={unique}"
        )
    return "\n".join(lines) + "\n"


def target_pg21() -> str:
    """The three inequivalent (21,5,1) group cubes and their autotopy orders."""
    f21 = frobenius_21()
    z21 = make_cyclic(21)
    records = _classify([f21, z21], DesignParams(21, 5, 1), [f21, z21])
    lines = ["target: pg21"]
    lines.append(f"inequivalent group cubes: {len(_union(records, 'all_certs'))}")
    lines.append(f"difference cubes: {len(_union(records, 'difference_certs'))}")
    d_f21 = difference_sets_up_to_equivalence(f21, 5, 1)[0]
    d_z21 = difference_sets_up_to_equivalence(z21, 5, 1)[0]
    nondev = load_design(data_dir() / "designs" / "f21_nondev.design")
    for label, cube in (
        ("C1 (difference cube over F21)", difference_cube(f21, d_f21, 3)),
        ("C2 (difference cube over Z21)", difference_cube(z21, d_z21, 3)),
        ("C3 (group cube over F21)", group_cube(f21, nondev.columns_as_sets(), 3)),
    ):
        lines.append(f"|Atop| {label}: {autotopy_report(cube).order}")
    for cls in records:
        lines.append(
            f"group {cls.group_name}: designs={cls.design_count} difference_classes={cls.nds} "
            f"non_difference_cubes={cls.ngc}"
        )
    return "\n".join(lines) + "\n"


def _table1(label: str, ids: Sequence[int]) -> str:
    """Table 1 rows for the order-16 group ids, classified against the
    difference cubes of all 14 groups."""
    groups = all_groups_16()
    records = _classify(groups, ORDER16, [groups[gid - 1] for gid in ids])
    lines = [f"target: table1 ({label})", "id structure nds ndc dev tds ngc"]
    for gid, cls in zip(ids, records):
        structure = cls.group_name.split(":", 1)[-1]
        dev = ",".join(cls.dev_classes) or "-"
        lines.append(f"{gid} {structure} {cls.nds} {cls.ndc} {dev} {cls.tds} {cls.ngc}")
    return "\n".join(lines) + "\n"


def target_table1() -> str:
    """Per-group counts for the order-16 classification, pinned rows."""
    return _table1("pinned rows", TABLE1_PINNED_IDS)


def target_table1_all() -> str:
    """Per-group counts for the order-16 classification, all 14 rows."""
    return _table1("all rows", range(1, 15))


def target_prop51() -> str:
    """Aggregate classification over all 14 groups of order 16 with global
    deduplication: difference cubes and other group cubes."""
    groups = all_groups_16()
    records = _classify(groups, ORDER16, groups)
    diff_certs = _union(records, "difference_certs")
    nondiff_certs = _union(records, "non_difference_certs")
    lines = ["target: prop51"]
    lines.append(f"difference cubes: {len(diff_certs)}")
    lines.append(f"group cubes that are not difference cubes: {len(nondiff_certs)}")
    lines.append(f"total inequivalent group cubes: {len(diff_certs | nondiff_certs)}")
    return "\n".join(lines) + "\n"


def target_menon_family() -> str:
    """The product construction and block quadrupling at m = 2, 3."""
    lines = ["target: menon-family"]
    k4 = klein_group()
    seed = DifferenceSet(k4, (0,), (4, 1, 0))
    d_m2 = mann_product(seed, seed)
    lines.append(f"product m=2: params={d_m2.params} elements={len(d_m2.elements)}")
    d_m3 = mann_product(d_m2, seed)
    lines.append(f"product m=3: params={d_m3.params} elements={len(d_m3.elements)}")
    d1, d2, d3 = switched_16_designs()
    certs = []
    for name, mat in (("D1", d1), ("D2", d2), ("D3", d3)):
        big = block_quadruple(mat)
        ok = verify_design(big, big.params)
        cls = design_class(big)
        certs.append(cls.certificate)
        lines.append(f"quadruple {name}: params={big.params} verified={ok}")
    lines.append(f"distinct (64,28,12) classes from D1,D2,D3: {len(set(certs))}")
    return "\n".join(lines) + "\n"


def target_hadamard16() -> str:
    """Hadamard conversion of the (16,6,2) cubes from the three designs."""
    g16 = elementary_16()
    d1, d2, d3 = switched_16_designs()
    lines = ["target: hadamard16"]
    h_certs = []
    for name, mat in (("D1", d1), ("D2", d2), ("D3", d3)):
        cube = group_cube(g16, mat.columns_as_sets(), 3)
        h = to_hadamard(cube)
        ok = hadamard_slice_checks(h)
        lines.append(f"cube from {name}: proper_and_totally_regular={ok}")
        h_certs.append(hadamard_certificate((2 * mat.bits.astype(np.int64) - 1).astype(np.int8)))
    lines.append(f"distinct Hadamard classes from D1,D2,D3 slices: {len(set(h_certs))}")
    return "\n".join(lines) + "\n"


def target_example52() -> str:
    """The order-384 orbit cube: a non-group cube of (16,6,2) designs."""
    inp = load_orbit_input(data_dir() / "orbit" / "ngc_example.orbit")
    res = orbit_cube(inp)
    cat = reference_catalog()
    inv = slice_invariant(res.cube)
    lines = ["target: example52"]
    lines.append(f"group order: {res.group_order}")
    lines.append(f"blocks: {res.block_count}")
    lines.append(f"verify_cube: {verify_cube(res.cube)}")
    lines.append(f"slice invariant: {inv.rendered(cat.names())}")
    # mixed slice classes in all three directions settle the question without
    # a reference list, so an empty one will do
    group_cube_flag = is_group_cube(res.cube, ())
    lines.append(f"is_group_cube: {group_cube_flag}")
    return "\n".join(lines) + "\n"


def target_diffcubes27() -> str:
    """The 27 pairwise inequivalent (16,6,2) difference 3-cubes."""
    ref = difference_cube_reference(all_groups_16(), ORDER16)
    by_group: dict[str, int] = {}
    for name, _ in ref.values():
        by_group[name] = by_group.get(name, 0) + 1
    lines = ["target: diffcubes27"]
    lines.append(f"inequivalent difference cubes: {len(ref)}")
    for name in sorted(by_group):
        lines.append(f"{name}: {by_group[name]}")
    return "\n".join(lines) + "\n"


TARGETS: dict[str, Callable[[], str]] = {
    "fano": target_fano,
    "small-unique": target_small_unique,
    "pg21": target_pg21,
    "table1": target_table1,
    "table1-all": target_table1_all,
    "prop51": target_prop51,
    "menon-family": target_menon_family,
    "hadamard16": target_hadamard16,
    "example52": target_example52,
    "diffcubes27": target_diffcubes27,
}
