"""Command-line interface.

Exit codes: 0 for success (and affirmative predicates), 1 for a negative
predicate outcome, 2 for usage or input errors.  Structured results go to
standard output; ``--out`` writes files in the documented formats.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fileio
from .catalog import reference_catalog
from .cubes import (
    difference_cube,
    group_cube,
    hadamard_slice_checks,
    is_totally_symmetric,
    slice_invariant,
    to_hadamard,
    verify_cube,
    weak_slice_invariant,
)
from .datafiles import data_dir, frobenius_21, load_group_16, nonabelian_27
from .designs import (
    DesignParams,
    block_quadruple,
    design_class,
    switch_blocks,
    verify_design,
)
from .equivalence import (
    _verified,
    are_isotopic,
    are_paratopic,
    autoparatopy_report,
    autotopy_report,
    cube_certificate,
    paratopy_witness,
)
from .errors import InvalidInputError, SymcubeError
from .groups import (
    difference_sets_up_to_equivalence,
    enumerate_difference_sets,
    make_cyclic,
    make_direct_product,
    make_metacyclic,
    multipliers,
)
from .reproduce import TARGETS
from .search import classify_group_cubes, find_ds_block_designs, orbit_cube


def _ints(text: str, count: int | None, argument: str, form: str) -> list[int]:
    """``count`` (any number if None) comma-separated integers from
    ``text``, or an InvalidInputError that names the argument and its
    expected form."""
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        values = []
    if not values or count is not None and len(values) != count:
        raise InvalidInputError(f"{argument}: expected {form}")
    return values


def resolve_group(spec: str):
    """A group argument: a file path, or one of the shorthands
    ``cyclic:<v>``, ``metacyclic:<m>,<c>,<r>``, ``id16:<id>``, ``f21``,
    ``z9z3``, or ``product:<a>,<b>`` (the direct product of two groups
    given as comma-free specs, such as ``product:cyclic:2,cyclic:8``)."""
    if spec == "f21":
        return frobenius_21()
    if spec == "z9z3":
        return nonabelian_27()
    kind, _, arg = spec.partition(":")
    if kind == "cyclic":
        (v,) = _ints(arg, 1, f"group spec {spec!r}", "cyclic:<v> with an integer v")
        return make_cyclic(v)
    if kind == "metacyclic":
        m, c, r = _ints(
            arg, 3, f"group spec {spec!r}", "metacyclic:<m>,<c>,<r> with three integers"
        )
        return make_metacyclic(m, c, r)
    if kind == "id16":
        (gid,) = _ints(arg, 1, f"group spec {spec!r}", "id16:<id> with an integer id")
        return load_group_16(gid)
    if kind == "product":
        parts = arg.split(",")
        if len(parts) != 2:
            raise InvalidInputError(
                f"group spec {spec!r}: expected product:<a>,<b> with two comma-free specs"
            )
        a, b = parts
        return make_direct_product(resolve_group(a), resolve_group(b))
    return fileio.load_group(spec)


def _params(s: str) -> DesignParams:
    v, k, lam = _ints(s, 3, f"design parameters {s!r}", "<v>,<k>,<lambda> with three integers")
    return DesignParams(v, k, lam)


# -- subcommand handlers --------------------------------------------------------


def cmd_group_make(args) -> int:
    g = resolve_group(args.spec)
    if args.out:
        fileio.save_group(g, args.out, as_table=not args.permgens)
    print(f"group {g.name or '?'} order {g.order} abelian {g.is_abelian()}")
    return 0


def cmd_group_validate(args) -> int:
    g = fileio.load_group(args.path)  # constructor validates
    print(f"valid group of order {g.order}")
    return 0


def cmd_ds_enumerate(args) -> int:
    g = resolve_group(args.group)
    sets = enumerate_difference_sets(g, args.k, args.lam)
    print(f"difference sets: {len(sets)}")
    if args.verbose:
        for d in sets:
            print(" ".join(str(x) for x in d.elements))
    if args.out:
        Path(args.out).write_text(
            "\n".join(" ".join(str(x) for x in d.elements) for d in sets) + "\n"
        )
    return 0


def cmd_ds_classes(args) -> int:
    g = resolve_group(args.group)
    reps = difference_sets_up_to_equivalence(g, args.k, args.lam)
    print(f"equivalence classes: {len(reps)}")
    for d in reps:
        print(" ".join(str(x) for x in d.elements))
    return 0


def cmd_ds_multipliers(args) -> int:
    g = resolve_group(args.group)
    d = fileio.load_difference_set(args.path, g)
    mults = multipliers(d)
    print(f"multipliers: {len(mults)}")
    for m in sorted(mults, key=lambda m: m.images):
        print(f"translate {m.translate} images {' '.join(str(x) for x in m.images)}")
    return 0


def cmd_design_verify(args) -> int:
    a = fileio.load_design(args.path)
    ok = verify_design(a, a.params)
    print("valid" if ok else "invalid")
    return 0 if ok else 1


def cmd_design_class(args) -> int:
    a = fileio.load_design(args.path)
    cls = design_class(a, reference_catalog())
    name = cls.name or "-"
    print(f"name {name}")
    print(f"aut_order {cls.aut_order}")
    print(f"certificate {cls.certificate.hex()}")
    return 0


def cmd_design_switch(args) -> int:
    a = fileio.load_design(args.path)
    blocks = _ints(args.blocks, None, "--blocks", "comma-separated block indices")
    points = _ints(args.points, None, "--points", "comma-separated point indices")
    out = switch_blocks(a, blocks, points)
    ok = verify_design(out, out.params)
    print("valid" if ok else "invalid")
    if args.out:
        fileio.save_design(out, args.out)
    return 0 if ok else 1


def cmd_design_quadruple(args) -> int:
    a = fileio.load_design(args.path)
    out = block_quadruple(a)
    print(f"params {out.params}")
    if args.out:
        fileio.save_design(out, args.out)
    return 0


def cmd_cube_build_diff(args) -> int:
    g = resolve_group(args.group)
    d = fileio.load_difference_set(args.ds, g)
    c = difference_cube(g, d, args.n)
    print(f"cube n={c.n} v={c.v} params {c.params}")
    if args.out:
        fileio.save_cube(c, args.out)
    return 0


def cmd_cube_build_group(args) -> int:
    g = resolve_group(args.group)
    a = fileio.load_design(args.design)
    c = group_cube(g, a.columns_as_sets(), args.n)
    print(f"cube n={c.n} v={c.v} params {c.params}")
    if args.out:
        fileio.save_cube(c, args.out)
    return 0


def cmd_cube_verify(args) -> int:
    c = fileio.load_cube(args.path)
    ok = verify_cube(c)
    print("valid" if ok else "invalid")
    if ok:
        print(f"totally_symmetric {is_totally_symmetric(c)}")
    return 0 if ok else 1


def cmd_cube_invariant(args) -> int:
    c = _verified(fileio.load_cube(args.path))
    cat = reference_catalog()
    inv = slice_invariant(c)
    print(f"slice_invariant {inv.rendered(cat.names())}")
    weak = weak_slice_invariant(c)
    print(f"weak_invariant {weak.rendered()}")
    return 0


def cmd_cube_hadamard(args) -> int:
    c = fileio.load_cube(args.path)
    h = to_hadamard(c)
    ok = hadamard_slice_checks(h)
    print(f"proper_totally_regular {ok}")
    if args.out:
        flat = h.reshape(-1, h.shape[-1])
        text = "\n".join(" ".join(f"{int(x):+d}" for x in row) for row in flat)
        Path(args.out).write_text(text + "\n")
    return 0 if ok else 1


def cmd_equiv_pair(args, mode: str) -> int:
    c1 = _verified(fileio.load_cube(args.cube1))
    c2 = _verified(fileio.load_cube(args.cube2))
    same = are_paratopic(c1, c2) if mode == "uncolored" else are_isotopic(c1, c2)
    print("equivalent" if same else "inequivalent")
    if same and args.witness:
        w = paratopy_witness(c1, c2, mode)
        assert w is not None
        print(f"axis_perm {' '.join(str(x) for x in w.axis_perm)}")
        for t, perm in enumerate(w.perms):
            print(f"perm{t} {' '.join(str(x) for x in perm)}")
    return 0 if same else 1


def cmd_equiv_report(args, mode: str) -> int:
    c = _verified(fileio.load_cube(args.path))
    rep = autotopy_report(c) if mode == "colored" else autoparatopy_report(c)
    kind = "autotopy" if mode == "colored" else "autoparatopy"
    print(f"{kind}_order {rep.order}")
    print(f"generators {len(rep.generators)}")
    if args.certificate:
        print(f"certificate {cube_certificate(c, mode).hex()}")
    return 0


def cmd_search_designs(args) -> int:
    g = resolve_group(args.group)
    params = _params(args.params)
    sols = find_ds_block_designs(g, params, time_budget=args.time_budget)
    print(f"designs {len(sols)}")
    if args.out:
        with open(args.out, "w") as fh:
            for sol in sols:
                fh.write(";".join(" ".join(str(x) for x in b) for b in sol) + "\n")
    return 0


def cmd_search_classify(args) -> int:
    g = resolve_group(args.group)
    params = _params(args.params)
    cls = classify_group_cubes(g, params, time_budget=args.time_budget)
    record = {
        "group": cls.group_name,
        "nds": cls.nds,
        "ndc": cls.ndc,
        "dev_classes": cls.dev_classes,
        "tds": cls.tds,
        "ngc": cls.ngc,
        "designs": cls.design_count,
    }
    print(json.dumps(record, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            for cert in cls.all_certs:
                fh.write(cert.hex() + "\n")
    return 0


def cmd_search_orbit_cube(args) -> int:
    inp = fileio.load_orbit_input(args.path)
    res = orbit_cube(inp)
    print(f"group_order {res.group_order}")
    print(f"blocks {res.block_count}")
    print(f"verify_cube {verify_cube(res.cube)}")
    cat = reference_catalog()
    print(f"slice_invariant {slice_invariant(res.cube).rendered(cat.names())}")
    if args.out:
        fileio.save_cube(res.cube, args.out)
    return 0


def cmd_reproduce(args) -> int:
    report = TARGETS[args.target]()
    sys.stdout.write(report)
    if args.out:
        Path(args.out).write_text(report)
    if args.check:
        expected_path = data_dir() / "expected" / f"{args.target}.txt"
        expected = expected_path.read_text()
        if report != expected:
            print("MISMATCH against bundled expected output", file=sys.stderr)
            return 1
        print("matches bundled expected output", file=sys.stderr)
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="symcube", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    group = sub.add_parser("group", help="finite groups").add_subparsers(
        dest="sub", required=True
    )
    p = group.add_parser("make")
    p.add_argument("spec")
    p.add_argument("--out")
    p.add_argument("--permgens", action="store_true", help="save generators, not the table")
    p.set_defaults(func=cmd_group_make)
    p = group.add_parser("validate")
    p.add_argument("path")
    p.set_defaults(func=cmd_group_validate)

    ds = sub.add_parser("ds", help="difference sets").add_subparsers(dest="sub", required=True)
    p = ds.add_parser("enumerate")
    p.add_argument("group")
    p.add_argument("k", type=int)
    p.add_argument("lam", type=int)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ds_enumerate)
    p = ds.add_parser("classes")
    p.add_argument("group")
    p.add_argument("k", type=int)
    p.add_argument("lam", type=int)
    p.set_defaults(func=cmd_ds_classes)
    p = ds.add_parser("multipliers")
    p.add_argument("group")
    p.add_argument("path")
    p.set_defaults(func=cmd_ds_multipliers)

    design = sub.add_parser("design", help="symmetric designs").add_subparsers(
        dest="sub", required=True
    )
    p = design.add_parser("verify")
    p.add_argument("path")
    p.set_defaults(func=cmd_design_verify)
    p = design.add_parser("class")
    p.add_argument("path")
    p.set_defaults(func=cmd_design_class)
    p = design.add_parser("switch")
    p.add_argument("path")
    p.add_argument("--blocks", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_design_switch)
    p = design.add_parser("quadruple")
    p.add_argument("path")
    p.add_argument("--out")
    p.set_defaults(func=cmd_design_quadruple)

    cube = sub.add_parser("cube", help="incidence cubes").add_subparsers(
        dest="sub", required=True
    )
    p = cube.add_parser("build-diff")
    p.add_argument("group")
    p.add_argument("ds")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cube_build_diff)
    p = cube.add_parser("build-group")
    p.add_argument("group")
    p.add_argument("design")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cube_build_group)
    p = cube.add_parser("verify")
    p.add_argument("path")
    p.set_defaults(func=cmd_cube_verify)
    p = cube.add_parser("invariant")
    p.add_argument("path")
    p.set_defaults(func=cmd_cube_invariant)
    p = cube.add_parser("hadamard")
    p.add_argument("path")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cube_hadamard)

    equiv = sub.add_parser("equiv", help="equivalence and automorphisms").add_subparsers(
        dest="sub", required=True
    )
    p = equiv.add_parser("paratopic")
    p.add_argument("cube1")
    p.add_argument("cube2")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=lambda a: cmd_equiv_pair(a, "uncolored"))
    p = equiv.add_parser("isotopic")
    p.add_argument("cube1")
    p.add_argument("cube2")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=lambda a: cmd_equiv_pair(a, "colored"))
    p = equiv.add_parser("autotopy")
    p.add_argument("path")
    p.add_argument("--certificate", action="store_true")
    p.set_defaults(func=lambda a: cmd_equiv_report(a, "colored"))
    p = equiv.add_parser("autoparatopy")
    p.add_argument("path")
    p.add_argument("--certificate", action="store_true")
    p.set_defaults(func=lambda a: cmd_equiv_report(a, "uncolored"))

    search = sub.add_parser("search", help="design search and classification").add_subparsers(
        dest="sub", required=True
    )
    p = search.add_parser("ds-designs")
    p.add_argument("group")
    p.add_argument("params", help="v,k,lambda")
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_search_designs)
    p = search.add_parser("classify")
    p.add_argument("group")
    p.add_argument("params", help="v,k,lambda")
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("--out", help="write the certificate list")
    p.set_defaults(func=cmd_search_classify)
    p = search.add_parser("orbit-cube")
    p.add_argument("path")
    p.add_argument("--out")
    p.set_defaults(func=cmd_search_orbit_cube)

    p = sub.add_parser("reproduce", help="recompute a published result")
    p.add_argument("target", choices=TARGETS)
    p.add_argument("--out")
    p.add_argument("--check", action="store_true", help="compare to the bundled expected output")
    p.set_defaults(func=cmd_reproduce)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SymcubeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
