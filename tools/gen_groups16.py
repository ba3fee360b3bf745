#!/usr/bin/env python3
"""Generate the bundled permutation-generator files for the 14 groups of
order 16, keyed by their small-group catalog IDs.

Construction routes: cyclic/direct/metacyclic constructors, explicit tables
for the generalized quaternion groups, and semidirect products
(C4 x C2) x| C2 over all involutive automorphisms.  Candidates are
deduplicated by isomorphism; IDs are assigned by structural invariants, and
the two classes both described as (Z4 x Z2) x| Z2 are pinned by their
difference-set counts (Nds, Tds) = (4, 192) vs (2, 320).

Run from the repository root:  python3 tools/gen_groups16.py
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from symcube.groups import (
    FiniteGroup,
    automorphism_group,
    difference_sets_up_to_equivalence,
    enumerate_difference_sets,
    find_isomorphism,
    make_cyclic,
    make_direct_product,
    make_metacyclic,
)
from symcube.perms import format_cycles

OUT_DIR = Path(__file__).resolve().parents[1] / "src" / "symcube" / "data" / "groups16"

# (Nds, Tds) for (16,6,2) difference sets per catalog ID
EXPECTED_COUNTS = {
    1: (0, 0),
    2: (3, 192),
    3: (4, 192),
    4: (3, 192),
    5: (2, 192),
    6: (2, 64),
    7: (0, 0),
    8: (2, 128),
    9: (2, 256),
    10: (2, 448),
    11: (2, 192),
    12: (2, 704),
    13: (2, 320),
    14: (1, 448),
}

STRUCTURES = {
    1: "Z16",
    2: "Z4xZ4",
    3: "(Z4xZ2):Z2",
    4: "Z4:Z4",
    5: "Z8xZ2",
    6: "Z8:Z2",
    7: "D16",
    8: "QD16",
    9: "Q16",
    10: "Z4xZ2xZ2",
    11: "Z2xD8",
    12: "Z2xQ8",
    13: "(Z4xZ2):Z2",
    14: "Z2^4",
}


def generalized_quaternion(m: int) -> FiniteGroup:
    """Q_{4m}: a^(2m) = 1, b^2 = a^m, b a b^-1 = a^-1; elements a^i b^e."""
    n = 2 * m

    def idx(i, e):
        return (i % n) * 2 + (e % 2)

    table = [
        [
            idx(i + (k if e == 0 else -k) + (m if e and d else 0), e ^ d)
            for k in range(n)
            for d in range(2)
        ]
        for i in range(n)
        for e in range(2)
    ]
    return FiniteGroup(table, name=f"Q{4 * m}")


def semidirect_by_involution(base: FiniteGroup, phi) -> FiniteGroup:
    """(base) x| C2 with the complement acting by the automorphism phi
    (an image row)."""
    nb = base.order

    def idx(x, e):
        return (e % 2) * nb + x

    def act(e, y):
        return phi[y] if e else y

    table = [
        [idx(base.table[x, act(e, y)], e ^ d) for d in range(2) for y in range(nb)]
        for e in range(2)
        for x in range(nb)
    ]
    return FiniteGroup(table)


def relabel_identity_first(g: FiniteGroup) -> FiniteGroup:
    return g  # constructors above already put the identity at index 0


def candidates() -> list[FiniteGroup]:
    c2, c4, c8 = make_cyclic(2), make_cyclic(4), make_cyclic(8)
    k4 = make_direct_product(c2, c2)
    out = [
        make_cyclic(16),
        make_direct_product(c4, c4),
        make_metacyclic(4, 4, 3),  # Z4 x| Z4
        make_direct_product(c8, c2),
        make_metacyclic(2, 8, 5),  # modular group of order 16
        make_metacyclic(2, 8, 7),  # D16
        make_metacyclic(2, 8, 3),  # QD16
        generalized_quaternion(4),  # Q16
        make_direct_product(make_direct_product(c4, c2), c2),
        make_direct_product(c2, make_metacyclic(2, 4, 3)),  # Z2 x D8
        make_direct_product(c2, generalized_quaternion(2)),  # Z2 x Q8
        make_direct_product(k4, k4),
    ]
    base = make_direct_product(c4, c2)
    for row in automorphism_group(base):
        phi = tuple(row.tolist())
        if all(phi[phi[x]] == x for x in range(8)):  # involutions and id
            out.append(semidirect_by_involution(base, phi))
    return out


def isomorphism_classes(groups):
    reps = []
    for g in groups:
        if all(find_isomorphism(g, r) is None for r in reps):
            reps.append(g)
    return reps


def ds_counts(g: FiniteGroup):
    all_sets = enumerate_difference_sets(g, 6, 2)
    classes = difference_sets_up_to_equivalence(g, 6, 2, all_sets)
    return len(classes), len(all_sets)


def order_census(g: FiniteGroup):
    orders, counts = np.unique(g.element_orders, return_counts=True)
    return tuple(zip(orders.tolist(), counts.tolist()))


def assign_ids(reps):
    assigned = {}

    def grab(pred, gid):
        found = [g for g in reps if id(g) not in {id(x) for x in assigned.values()} and pred(g)]
        if len(found) != 1:
            raise SystemExit(f"ID {gid}: expected a unique match, got {len(found)}")
        assigned[gid] = found[0]

    census_of = {id(g): order_census(g) for g in reps}
    grab(lambda g: census_of[id(g)][-1][0] == 16, 1)
    grab(lambda g: g.is_abelian() and census_of[id(g)] == ((1, 1), (2, 3), (4, 12)), 2)
    grab(lambda g: g.is_abelian() and census_of[id(g)][-1][0] == 8, 5)
    grab(
        lambda g: g.is_abelian() and census_of[id(g)] == ((1, 1), (2, 7), (4, 8)),
        10,
    )
    grab(lambda g: g.is_abelian() and census_of[id(g)] == ((1, 1), (2, 15)), 14)
    iso = lambda g, h: find_isomorphism(g, h) is not None
    grab(lambda g: iso(g, make_metacyclic(4, 4, 3)), 4)
    grab(lambda g: iso(g, make_metacyclic(2, 8, 5)), 6)
    grab(lambda g: iso(g, make_metacyclic(2, 8, 7)), 7)
    grab(lambda g: iso(g, make_metacyclic(2, 8, 3)), 8)
    grab(lambda g: iso(g, generalized_quaternion(4)), 9)
    grab(lambda g: iso(g, make_direct_product(make_cyclic(2), make_metacyclic(2, 4, 3))), 11)
    grab(lambda g: iso(g, make_direct_product(make_cyclic(2), generalized_quaternion(2))), 12)
    # the two remaining (Z4 x Z2) x| Z2 classes, pinned by (Nds, Tds)
    remaining = [g for g in reps if id(g) not in {id(x) for x in assigned.values()}]
    if len(remaining) != 2:
        raise SystemExit(f"expected two remaining classes, got {len(remaining)}")
    counts = {id(g): ds_counts(g) for g in remaining}
    for g in remaining:
        if counts[id(g)] == EXPECTED_COUNTS[3]:
            assigned[3] = g
        elif counts[id(g)] == EXPECTED_COUNTS[13]:
            assigned[13] = g
        else:
            raise SystemExit(f"unpinnable (Nds, Tds) = {counts[id(g)]}")
    return assigned


def regular_generators(g: FiniteGroup):
    return [g.table[a].tolist() for a in g.generating_sequence()]


def main():
    reps = isomorphism_classes(candidates())
    if len(reps) != 14:
        raise SystemExit(f"expected 14 isomorphism classes, got {len(reps)}")
    assigned = assign_ids(reps)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for gid in range(1, 15):
        g = assigned[gid]
        nds, tds = ds_counts(g)
        if (nds, tds) != EXPECTED_COUNTS[gid]:
            raise SystemExit(
                f"ID {gid}: (Nds, Tds) = {(nds, tds)}, expected {EXPECTED_COUNTS[gid]}"
            )
        name = f"16#{gid}:{STRUCTURES[gid]}"
        lines = [f"group {name} order 16", "permgens 16"]
        for perm in regular_generators(g):
            lines.append(format_cycles(perm))
        path = OUT_DIR / f"id{gid:02d}.group"
        path.write_text("\n".join(lines) + "\n")
        print(f"wrote {path.name}: {STRUCTURES[gid]} Nds={nds} Tds={tds}")


if __name__ == "__main__":
    main()
