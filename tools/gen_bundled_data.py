#!/usr/bin/env python3
"""Generate the remaining bundled data files: the Fano incidence matrix,
the 21-block non-development design over F21 (in a,b-word exponents mapped
to element indices), and the order-384 orbit-cube input.

Each artifact is verified before writing: the Fano matrix must be a (7,3,1)
design; all 21 blocks must be (21,5,1) difference sets forming a symmetric
design that is not the development of any of its blocks; the orbit input
must parse and satisfy its class-preservation invariant.

Run from the repository root:  python3 tools/gen_bundled_data.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from symcube.designs import DesignParams, IncidenceMatrix, verify_design
from symcube.fileio import save_design, save_orbit_input
from symcube.groups import is_difference_set, make_metacyclic
from symcube.perms import parse_cycles
from symcube.search import OrbitCubeInput

DATA = Path(__file__).resolve().parents[1] / "src" / "symcube" / "data"

FANO_A1 = [
    "1101000",
    "1010001",
    "0100011",
    "1000110",
    "0001101",
    "0011010",
    "0110100",
]

# Blocks of the (21,5,1) design over F21 = <a,b | a^3 = b^7 = 1, ba = ab^2>
# whose development it is not; entries are (i, j) exponent pairs for a^i b^j.
F21_BLOCKS = [
    [(0, 0), (1, 0), (0, 1), (0, 3), (2, 2)],
    [(2, 6), (0, 6), (2, 3), (2, 4), (1, 0)],
    [(0, 0), (2, 0), (1, 1), (0, 2), (0, 6)],
    [(2, 1), (1, 1), (0, 5), (2, 2), (2, 4)],
    [(0, 0), (2, 1), (2, 5), (1, 6), (2, 6)],
    [(1, 6), (0, 1), (0, 2), (2, 4), (0, 4)],
    [(0, 0), (1, 3), (0, 4), (2, 3), (0, 5)],
    [(2, 5), (0, 3), (2, 0), (1, 3), (2, 4)],
    [(0, 1), (2, 0), (2, 1), (2, 3), (1, 5)],
    [(1, 5), (0, 3), (0, 5), (0, 2), (2, 6)],
    [(0, 1), (1, 2), (0, 5), (0, 6), (2, 5)],
    [(2, 0), (0, 4), (2, 2), (2, 6), (1, 2)],
    [(0, 2), (2, 2), (2, 3), (1, 4), (2, 5)],
    [(1, 4), (0, 4), (0, 6), (2, 1), (0, 3)],
    [(0, 0), (1, 2), (1, 4), (2, 4), (1, 5)],
    [(1, 0), (2, 0), (1, 4), (0, 5), (1, 6)],
    [(1, 0), (1, 1), (0, 4), (1, 5), (2, 5)],
    [(1, 0), (0, 2), (2, 1), (1, 2), (1, 3)],
    [(0, 1), (1, 1), (1, 3), (1, 4), (2, 6)],
    [(1, 1), (1, 2), (0, 3), (2, 3), (1, 6)],
    [(2, 2), (1, 3), (1, 5), (0, 6), (1, 6)],
]

ORBIT_GENERATORS = [
    "(1,16)(4,5)(6,11)(7,9)(8,10)(14,15)"
    "(17,28)(20,21)(22,27)(23,26)(24,25)(31,32)"
    "(33,44)(34,37)(35,36)(38,39)(40,41)(47,48)",
    "(1,14,2)(3,16,15)(4,13,6)(5,12,11)(8,9,10)"
    "(17,20,29)(18,27,32)(19,22,31)(21,30,28)(23,24,25)"
    "(33,47,46)(34,36,37)(38,40,42)(39,41,43)(44,48,45)",
    "(1,13)(2,11)(3,6)(7,8)(12,16)(14,15)"
    "(17,30,27,18)(19,28,29,22)(20,32,21,31)(23,25,24,26)"
    "(33,43,38,46)(34,36,35,37)(39,45,44,42)(40,48,41,47)",
]

ORBIT_BASE_BLOCKS = [
    (1, 17, 33),
    (1, 17, 40),
    (1, 18, 33),
    (1, 18, 34),
    (1, 18, 42),
    (1, 23, 34),
    (1, 23, 40),
    (7, 17, 35),
    (7, 17, 40),
    (7, 23, 33),
]


def write_fano():
    mat = IncidenceMatrix(
        np.array([[int(ch) for ch in row] for row in FANO_A1], dtype=np.uint8),
        DesignParams(7, 3, 1),
    )
    if not verify_design(mat, mat.params):
        raise SystemExit("Fano matrix does not verify")
    (DATA / "designs").mkdir(parents=True, exist_ok=True)
    save_design(mat, DATA / "designs" / "fano_a1.design")
    print("wrote fano_a1.design")


def write_f21_design():
    g = make_metacyclic(3, 7, 2)
    blocks = [sorted(i * 7 + j for (i, j) in b) for b in F21_BLOCKS]
    flat = [x for b in blocks for x in b]
    if sorted(set(flat)) != list(range(21)) or len(flat) != 105:
        raise SystemExit("block list does not cover the group evenly")
    for idx, b in enumerate(blocks):
        if not is_difference_set(g, b, 1):
            raise SystemExit(f"block {idx} is not a (21,5,1) difference set")
    bits = np.zeros((21, 21), dtype=np.uint8)
    for j, b in enumerate(blocks):
        bits[b, j] = 1
    mat = IncidenceMatrix(bits, DesignParams(21, 5, 1))
    if not verify_design(mat, mat.params):
        raise SystemExit("blocks do not form a (21,5,1) design")
    # not a development: developments contain the full translate family of
    # any one of their blocks
    block_sets = {frozenset(b) for b in blocks}
    for b in blocks:
        translates = {frozenset(g.table[a][x] for x in b) for a in range(21)}
        if translates <= block_sets:
            raise SystemExit("design is a development; transcription is wrong")
    save_design(mat, DATA / "designs" / "f21_nondev.design")
    print("wrote f21_nondev.design")


def write_orbit_input():
    gens = tuple(parse_cycles(s, 48) for s in ORBIT_GENERATORS)
    base = tuple((a - 1, b - 1, c - 1) for (a, b, c) in ORBIT_BASE_BLOCKS)
    inp = OrbitCubeInput(v=16, generators=gens, base_blocks=base)
    (DATA / "orbit").mkdir(parents=True, exist_ok=True)
    save_orbit_input(inp, DATA / "orbit" / "ngc_example.orbit")
    print("wrote ngc_example.orbit")


def main():
    write_fano()
    write_f21_design()
    write_orbit_input()


if __name__ == "__main__":
    main()
