"""Which ``symcube`` functions belong to which layer, and the per-layer
metrics computed from a traced pass.

Layer metrics cover the work phase (after set-up) only, except
``catalog.build_s`` and ``datafiles.load_s``, which are set-up costs.
``self_s`` is a layer's span time minus the time of the spans it called.
"""

from __future__ import annotations

import statistics
import sys

from tracer import Tracer

# (module, function, layer); a layer may span several functions
FUNCTIONS = [
    ("symcube.canon", "canonicalize", "canon"),
    ("symcube.groups", "automorphism_group", "groups.aut"),
    ("symcube.groups", "enumerate_difference_sets", "groups.enum"),
    ("symcube.groups", "difference_sets_up_to_equivalence", "groups.ds_classes"),
    ("symcube.groups", "multipliers", "groups.mult"),
    ("symcube.search", "find_ds_block_designs", "search.designs"),
    ("symcube.search", "classify_group_cubes", "search.classify"),
    ("symcube.search", "difference_cube_reference", "search.reference"),
    ("symcube.search", "build_seeded_cube_certificate", "equiv.cert"),
    ("symcube.equivalence", "cube_certificate", "equiv.cert"),
    ("symcube.equivalence", "canonical_certificate", "equiv.cert"),
    ("symcube.equivalence", "paratopy_witness", "equiv.witness"),
    ("symcube.equivalence", "autotopy_report", "equiv.report"),
    ("symcube.equivalence", "autoparatopy_report", "equiv.report"),
    ("symcube.equivalence", "theoretical_autotopies", "equiv.theo"),
    ("symcube.cubes", "slice_invariant", "cubes.slice_inv"),
    ("symcube.cubes", "weak_slice_invariant", "cubes.slice_inv"),
    ("symcube.cubes", "cached_design_class", "cubes.design_cache"),
    ("symcube.cubes", "difference_cube", "cubes.build"),
    ("symcube.cubes", "group_cube", "cubes.build"),
    ("symcube.cubes", "apply_paratopy", "cubes.build"),
    ("symcube.cubes", "hadamard_certificate", "cubes.hadamard"),
    ("symcube.designs", "design_class", "designs.class"),
    ("symcube.catalog", "reference_catalog", "catalog"),
    ("symcube.datafiles", "all_groups_16", "datafiles"),
    ("symcube.datafiles", "load_group_16", "datafiles"),
    ("symcube.fileio", "load_group", "datafiles"),
    ("symcube.fileio", "load_design", "datafiles"),
    ("symcube.fileio", "load_orbit_input", "datafiles"),
]
PERM_METHODS = ("order", "add_generator", "__contains__")

# a canonicalisation under one of these layers labels a design, else a cube
DESIGN_PARENTS = {"designs.class", "cubes.hadamard"}

# predicted share of traced wall_s by layer self time, per workload
# (equivalence: its two parts take about equal time, and canon was predicted
# to take 99% of each)
PREDICTED_SHARES = {
    "classify16": {"canon.cube": 0.75, "groups": 0.10, "perms": 0.01},
    "equivalence": {"canon.cube": 0.50, "canon.design": 0.49, "perms": 0.01},
}
SHARE_TOLERANCE = 0.05


def _canon_counts(span, result) -> None:
    span.counts["nodes"] = result.node_count
    span.counts["leaves"] = result.leaf_count
    span.counts["aut_gens"] = len(result.aut_point_gens)


def _count_len(key):
    def on_result(span, result):
        span.counts[key] = len(result)

    return on_result


def _count_collected(span, args, kwargs):
    """Count the solutions a streaming design search hands to ``collect``."""
    collect = kwargs.get("collect")
    span.counts["solutions"] = 0
    if collect is not None:

        def counting(sol):
            span.counts["solutions"] += 1
            collect(sol)

        kwargs = dict(kwargs, collect=counting)
    return args, kwargs


def _count_design_solutions(span, result) -> None:
    span.counts["solutions"] += len(result)


def _keep_classification(span, result) -> None:
    span.counts["certs"] = set(result.all_certs)
    span.counts["orbit_reps"] = result.orbit_rep_count


def _keep_reference(span, result) -> None:
    span.counts["certs"] = set(result)


HOOKS = {
    "canonicalize": (None, _canon_counts),
    "automorphism_group": (None, _count_len("maps")),
    "enumerate_difference_sets": (None, _count_len("sets")),
    "find_ds_block_designs": (_count_collected, _count_design_solutions),
    "classify_group_cubes": (None, _keep_classification),
    "difference_cube_reference": (None, _keep_reference),
}


def install(tracer: Tracer) -> None:
    for module, name, layer in FUNCTIONS:
        on_call, on_result = HOOKS.get(name, (None, None))
        tracer.wrap_function(module, name, layer, on_call, on_result)
    perm_group = sys.modules["symcube.perms"].PermGroup
    for name in PERM_METHODS:
        tracer.wrap_method(perm_group, name, "perms")


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def _pct_ms(durations: list[float], decile: int) -> float:
    if len(durations) < 2:
        return durations[0] * 1e3 if durations else 0.0
    return statistics.quantiles(durations, n=10, method="inclusive")[decile - 1] * 1e3


def metrics(tracer: Tracer, wall_s: float) -> tuple[dict, dict]:
    """Per-layer metrics and each layer's self time as a share of wall_s."""
    spans = tracer.spans
    for idx, span in enumerate(spans):
        if span.layer == "canon":
            design = any(a.layer in DESIGN_PARENTS for a in tracer.ancestors(idx))
            span.layer = "canon.design" if design else "canon.cube"
    out: dict[str, float] = {}

    def layer(name: str, calls: bool = True, counts=()) -> list:
        found = [s for _, s in tracer.work_spans(name)]
        if calls:
            out[f"{name}.calls"] = len(found)
        out[f"{name}.self_s"] = sum(s.self_s for s in found)
        for key in counts:
            out[f"{name}.{key}"] = sum(s.counts.get(key, 0) for s in found)
        return found

    for kind, counts in (("cube", ("nodes", "leaves", "aut_gens")), ("design", ("nodes", "leaves"))):
        durations = [s.dur_s for s in layer(f"canon.{kind}", counts=counts)]
        out[f"canon.{kind}.call_p50_ms"] = _pct_ms(durations, 5)
        out[f"canon.{kind}.call_p90_ms"] = _pct_ms(durations, 9)

    layer("groups.aut", counts=("maps",))
    layer("groups.enum", counts=("sets",))
    layer("groups.ds_classes", calls=False)
    layer("groups.mult")

    layer("search.designs", counts=("solutions",))
    classify = layer("search.classify", calls=False)
    reference = layer("search.reference", calls=False)
    out["search.orbit_reps"] = sum(s.counts.get("orbit_reps", 0) for s in classify)
    classes = set().union(*(s.counts.get("certs", ()) for s in classify + reference))
    certs_computed = sum(
        1
        for idx, _ in tracer.work_spans("canon.cube")
        if any(a.layer.startswith("search.") for a in tracer.ancestors(idx))
    )
    out["search.cert_yield"] = len(classes) / certs_computed if certs_computed else 0.0

    for part in ("cert", "witness", "report", "theo"):
        layer(f"equiv.{part}")

    layer("cubes.slice_inv")
    lookups = len(tracer.work_spans("cubes.design_cache"))
    misses = sum(
        1
        for _, s in tracer.work_spans("designs.class")
        if s.parent is not None and spans[s.parent].layer == "cubes.design_cache"
    )
    out["cubes.design_cache.hit_ratio"] = 1 - misses / lookups if lookups else 0.0
    layer("cubes.build")
    layer("perms")

    out["catalog.build_s"] = sum(s.dur_s for s in spans if s.layer == "catalog")
    out["datafiles.load_s"] = sum(
        s.dur_s
        for s in spans
        if s.layer == "datafiles" and (s.parent is None or spans[s.parent].layer != "datafiles")
    )
    out["trace.overhead_s"] = tracer.overhead_ns["work"] / 1e9

    self_by_layer: dict[str, float] = {}
    for _, span in tracer.work_spans(*{s.layer for s in spans}):
        self_by_layer[span.layer] = self_by_layer.get(span.layer, 0.0) + span.self_s
    shares = {name: t / wall_s for name, t in sorted(self_by_layer.items())}
    return out, shares


def share_report(workload: str, shares: dict) -> list[str]:
    """One line per predicted layer share: predicted, measured, verdict.
    A prediction names a layer or a layer prefix (``groups``)."""
    lines = []
    for layer, predicted in PREDICTED_SHARES.get(workload, {}).items():
        measured = sum(
            v for k, v in shares.items() if k == layer or k.startswith(layer + ".")
        )
        verdict = "ok" if abs(measured - predicted) <= SHARE_TOLERANCE else "MISMATCH"
        lines.append(
            f"share {layer}: predicted {predicted:.2f}, measured {measured:.3f} ({verdict})"
        )
    return lines
