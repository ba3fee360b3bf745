"""The benchmark's workloads: seeded inputs and checked operations.

Every operation goes through ``symcube``'s public functions, looked up as
module attributes at call time so that the tracer's wrappers see the calls.
The seed only changes labels (group element names, point orders, paratopy
images); every pinned output is an isomorphism invariant, so every check
holds for any seed.

Why these two workloads:

* ``classify16`` is the pipeline behind the order-16 classification: the
  difference-cube reference over the five abelian groups of order 16 plus
  the Table 1 rows 1, 7 and 14.  It is the only workload where Aut(G),
  difference-set enumeration, the design search and orbit dedup do real
  work; its canonicalisations are seeded ones on 48-point, 1536-block
  structures, and it canonicalises almost no small designs.  The reference
  over all 14 groups would add about 14 s a pass, more than the run budget
  allows.
* ``equivalence`` runs two parts in one pass.  The paratopy part is
  unseeded canon on the same large structures: witnesses, isotopy tests and
  autotopy groups, with the full search tree, automorphism discovery and
  Schreier-Sims; neither ``groups`` nor ``search`` runs.  The invariants
  part is canon on hundreds of small designs (7 to 64 points), where
  per-call overhead dominates; it leaves out the D1 image, whose slices are
  all of one class, to keep the run within its time budget.  How long canon
  takes depends on the labels of its input, so each part alone spread by
  15-30% from seed to seed; together they average out, and the per-layer
  split tells the parts apart.  A change to small-design canon moves
  ``equivalence`` and leaves ``classify16`` alone.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import numpy as np

import symcube
import symcube.catalog
import symcube.datafiles
import symcube.fileio

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
PARAMS_16 = (16, 6, 2)
REFERENCE_GROUPS = (1, 2, 5, 10, 14)  # the abelian groups of order 16
TABLE1_ROWS = (1, 7, 14)
PARATOPY_CUBES = ("fano", "D1", "D2", "D3", "C1", "C2", "C3")
INVARIANT_CUBES = ("fano", "D2", "D3", "C3", "example52")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


class Checks:
    """Counts attempted checks, records each failure and times each check
    on ``clock``.  A check fails if computing its value raised an exception
    or gave a wrong value."""

    def __init__(self, clock):
        self.clock = clock
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, label: str, compute, expected, view=lambda x: x):
        """Run ``compute`` and compare ``view`` of its result with the
        pinned value; returns the result, or None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = compute()
            got = view(result)
        except Exception as exc:  # a raising operation is a failed check
            self.failures.append(f"{label}: raised {type(exc).__name__}: {exc}")
            return None
        finally:
            self.clock.add(time.perf_counter() - start)
        if got != expected:
            self.failures.append(f"{label}: got {got!r}, expected {expected!r}")
        return result


# -- seeded input generation ----------------------------------------------------


def relabel_group(g, rng: random.Random):
    """The same group with its non-identity elements renamed at random."""
    v = g.order
    pi = [0] + rng.sample(range(1, v), v - 1)
    table = [[0] * v for _ in range(v)]
    for a in range(v):
        for b in range(v):
            table[pi[a]][pi[b]] = pi[g.table[a][b]]
    return symcube.FiniteGroup(table, name=g.name)


def paratopy_bits(bits: np.ndarray, perms, axis_perm) -> np.ndarray:
    """Apply a paratopy (axis permutation first, then a value permutation
    per axis), independently of the program's own implementation."""
    conjugated = np.transpose(bits, axes=tuple(axis_perm))
    gathers = [np.argsort(np.asarray(p)) for p in perms]
    return conjugated[np.ix_(*gathers)]


def random_image(cube, rng: random.Random, isotopy_only: bool = False):
    n, v = cube.n, cube.v
    perms = [rng.sample(range(v), v) for _ in range(n)]
    axes = list(range(n)) if isotopy_only else rng.sample(range(n), n)
    return symcube.Cube(paratopy_bits(cube.bits, perms, axes), cube.params)


def base_cubes(names) -> dict:
    """The named cubes, built from the bundled data as in ``reproduce``."""
    data = symcube.datafiles.data_dir()
    out = {}
    if "fano" in names:
        a1 = symcube.fileio.load_design(data / "designs" / "fano_a1.design")
        layers = [np.roll(a1.bits, -j, axis=0) for j in range(7)]
        out["fano"] = symcube.Cube(np.stack(layers, axis=0), symcube.DesignParams(7, 3, 1))
    g16 = symcube.catalog.elementary_16()
    for name, mat in zip(("D1", "D2", "D3"), symcube.catalog.switched_16_designs()):
        if name in names:
            out[name] = symcube.group_cube(g16, mat.columns_as_sets(), 3)
    f21 = symcube.datafiles.frobenius_21()
    if "C1" in names:
        d = symcube.difference_sets_up_to_equivalence(f21, 5, 1)[0]
        out["C1"] = symcube.difference_cube(f21, d, 3)
    if "C2" in names:
        z21 = symcube.make_cyclic(21)
        d = symcube.difference_sets_up_to_equivalence(z21, 5, 1)[0]
        out["C2"] = symcube.difference_cube(z21, d, 3)
    if "C3" in names:
        nondev = symcube.fileio.load_design(data / "designs" / "f21_nondev.design")
        out["C3"] = symcube.group_cube(f21, nondev.columns_as_sets(), 3)
    if "example52" in names:
        inp = symcube.fileio.load_orbit_input(data / "orbit" / "ngc_example.orbit")
        out["example52"] = symcube.orbit_cube(inp).cube
    return out


# -- classify16 -------------------------------------------------------------------


def setup_classify16(rng: random.Random) -> dict:
    groups = symcube.datafiles.all_groups_16()
    return {"groups": [relabel_group(g, rng) for g in groups]}


def _group_id(name: str) -> str:
    """'16#14:Z2^4' -> '14'."""
    return str(int(name.split("#", 1)[1].split(":", 1)[0]))


def _reference_split(ref: dict) -> dict:
    split: dict[str, int] = {}
    for name, _ in ref.values():
        gid = _group_id(name)
        split[gid] = split.get(gid, 0) + 1
    return split


def _row(cls) -> str:
    dev = ",".join(cls.dev_classes) if cls.dev_classes else "-"
    return f"{cls.nds} {cls.ndc} {dev} {cls.tds} {cls.ngc}"


def run_classify16(inputs: dict, expected: dict, checks: Checks) -> dict:
    groups = inputs["groups"]
    params = symcube.DesignParams(*PARAMS_16)
    ref = checks.expect(
        "reference classes",
        lambda: symcube.difference_cube_reference(
            [groups[gid - 1] for gid in REFERENCE_GROUPS], params
        ),
        expected["reference_classes"],
        view=len,
    )
    checks.expect("reference split", lambda: _reference_split(ref), expected["reference_split"])
    facts = {"reference_classes": len(ref) if ref else 0, "nds": 0, "orbit_reps": 0}
    for gid in TABLE1_ROWS:
        pinned = expected["rows"][str(gid)]
        cls = checks.expect(
            f"row {gid}",
            lambda: symcube.classify_group_cubes(groups[gid - 1], params, reference=ref),
            pinned["row"],
            view=_row,
        )
        checks.expect(f"row {gid} designs", lambda: cls.design_count, pinned["designs"])
        checks.expect(f"row {gid} orbit reps", lambda: cls.orbit_rep_count, pinned["orbit_reps"])
        if cls is not None:
            facts["nds"] += cls.nds
            facts["orbit_reps"] += cls.orbit_rep_count
    return facts


# -- paratopy ---------------------------------------------------------------------


def setup_paratopy(rng: random.Random, base: dict) -> dict:
    cubes = {name: base[name] for name in PARATOPY_CUBES}
    return {
        "cubes": cubes,
        "images": {name: random_image(c, rng) for name, c in cubes.items()},
        "isotopes": {name: random_image(c, rng, isotopy_only=True) for name, c in cubes.items()},
    }


def _witness_maps(cube, image) -> bool:
    w = symcube.paratopy_witness(cube, image)
    return w is not None and np.array_equal(
        paratopy_bits(cube.bits, w.perms, w.axis_perm), image.bits
    )


def run_paratopy(inputs: dict, expected: dict, checks: Checks) -> dict:
    cubes, images, isotopes = inputs["cubes"], inputs["images"], inputs["isotopes"]
    for name in PARATOPY_CUBES:
        c = cubes[name]
        checks.expect(f"{name} witness", lambda: _witness_maps(c, images[name]), True)
        checks.expect(f"{name} isotopic", lambda: symcube.are_isotopic(c, isotopes[name]), True)
        checks.expect(
            f"{name} |Atop|",
            lambda: symcube.autotopy_report(c).order,
            expected["atop"][name],
        )
    first, second = expected["not_isotopic"]
    checks.expect(
        f"{first} vs {second} isotopic",
        lambda: symcube.are_isotopic(cubes[first], isotopes[second]),
        False,
    )
    return {}


# -- invariants -------------------------------------------------------------------


def setup_invariants(rng: random.Random, base: dict) -> dict:
    cubes = {name: base[name] for name in INVARIANT_CUBES}
    quads = []
    for mat in symcube.catalog.switched_16_designs():
        big = symcube.block_quadruple(mat)
        rows, cols = (np.asarray(rng.sample(range(big.v), big.v)) for _ in range(2))
        quads.append(symcube.IncidenceMatrix(big.bits[rows][:, cols], big.params))
    return {
        "images": {name: random_image(c, rng) for name, c in cubes.items()},
        "quadruples": quads,
        "names": symcube.reference_catalog().names(),
    }


def run_invariants(inputs: dict, expected: dict, checks: Checks) -> dict:
    names = inputs["names"]
    for name in INVARIANT_CUBES:
        image = inputs["images"][name]
        checks.expect(
            f"{name} slice invariant",
            lambda: symcube.slice_invariant(image).rendered(names),
            expected["rendered"][name],
        )
    checks.expect(
        "quadruple classes",
        lambda: len({symcube.design_class(q).certificate for q in inputs["quadruples"]}),
        expected["quadruple_classes"],
    )
    return {}


# -- equivalence: paratopy then invariants ----------------------------------------


def setup_equivalence(rng: random.Random) -> dict:
    base = base_cubes(set(PARATOPY_CUBES) | set(INVARIANT_CUBES))
    return {"paratopy": setup_paratopy(rng, base), "invariants": setup_invariants(rng, base)}


def run_equivalence(inputs: dict, expected: dict, checks: Checks) -> dict:
    run_paratopy(inputs["paratopy"], expected["paratopy"], checks)
    run_invariants(inputs["invariants"], expected["invariants"], checks)
    return {}


WORKLOADS = {
    "classify16": (setup_classify16, run_classify16),
    "equivalence": (setup_equivalence, run_equivalence),
}
