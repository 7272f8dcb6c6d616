"""The probes the traced run installs, and the per-layer metrics computed from
what they recorded.

Layers are the package's modules.  Every `_s` metric is self time (span time
minus the time of child spans), except the models layer's `class_s`,
`blowup_s` and `equal_s`, which are inclusive because those entry points do
little work of their own.
"""

from __future__ import annotations

from functools import partial, wraps

from spans import AGGREGATE, COUNT, Probe, Tracer
from workloads import LADDERS

LADDER_RUNGS = tuple(rung for rungs in LADDERS.values() for rung in rungs)

LATTICE_SPANS = (
    "groups.lattice.all", "groups.lattice.abelian_reps", "groups.lattice.reps", "groups.lattice.within",
)

PROBES = (
    Probe("burnloc.groups:build_group", "groups.build"),
    Probe("burnloc.groups:all_subgroups", "groups.lattice.all", keep=True),
    Probe("burnloc.groups:abelian_subgroups_up_to_conjugacy", "groups.lattice.abelian_reps", keep=True),
    Probe("burnloc.groups:subgroups_up_to_conjugacy", "groups.lattice.reps", keep=True),
    Probe("burnloc.groups:subgroups_within", "groups.lattice.within", keep=True),
    Probe("burnloc.groups:Subgroup.__post_init__", "groups.subgroup_inits", mode=COUNT),
    Probe("burnloc.groups:quotient", "groups.quotient_calls", mode=COUNT),
    Probe("burnloc.abelian:abelian_structure", "abelian.structure", mode=AGGREGATE),
    Probe("burnloc.abelian:transport_character", "abelian.transport_calls", mode=COUNT),
    Probe("burnloc.catalog:catalog_from_json", "catalog.load"),
    Probe("burnloc.catalog:ensure_valid_catalog", "catalog.load"),
    Probe("burnloc.catalog:ActionCatalog.induced_surface_action", "catalog.rule_lookups", mode=COUNT),
    Probe("burnloc.catalog:ActionCatalog.jacobian_of_curve_action", "catalog.rule_lookups", mode=COUNT),
    # the module-level wrapper the engine no longer calls; it feeds no metric,
    # its count in trace.json shows whether anything still uses it
    Probe("burnloc.catalog:induced_surface_action", "catalog.induced_surface_action", mode=COUNT),
    Probe("burnloc.symbols:enumerate_symbols", "symbols.enumerate", keep=True),
    Probe("burnloc.symbols:canonicalize", "symbols.canonicalize", mode=AGGREGATE),
    Probe("burnloc.relations:generate_relations", "relations.generate", keep=True),
    Probe("burnloc.relations:structure", "relations.structure"),
    Probe("burnloc.relations:filtered_structure", "relations.filtered_structure"),
    Probe("burnloc.relations:relation_lattice", "relations.lattice"),
    Probe("burnloc.relations:classes_equal", "models.equal"),
    Probe("burnloc.normalforms:cokernel_structure", "normalforms.cokernel", keep=True),
    Probe("burnloc.normalforms:IntegerLattice.from_rows", "normalforms.lattice", keep=True),
    Probe("burnloc.normalforms:smith_normal_form", "normalforms.snf"),
    Probe("burnloc.normalforms:hermite_normal_form", "normalforms.hnf"),
    Probe("burnloc.normalforms:IntegerLattice.contains", "normalforms.contains"),
    Probe("burnloc.models:class_of_action", "models.class"),
    Probe("burnloc.models:validate_model", "models.validate"),
    Probe("burnloc.models:blowup", "models.blowup"),
    Probe("burnloc.models:verify_blowup_invariance", "models.verify_blowup"),
    Probe("burnloc.models:verdict", "models.verdict"),
    Probe("burnloc.cli:main", "cli.main"),
)

# (name, unit) of every per-layer metric, in report order
METRICS = (
    ("groups.build_s", "s"),
    ("groups.lattice_s", "s"),
    ("groups.subgroups", "count"),
    ("groups.subgroup_inits", "count"),
    ("groups.quotient_calls", "count"),
    ("abelian.structure_calls", "count"),
    ("abelian.structure_s", "s"),
    ("abelian.transport_calls", "count"),
    ("catalog.load_s", "s"),
    ("catalog.rule_lookups", "count"),
    ("symbols.enumerate_calls", "count"),
    ("symbols.enumerate_s", "s"),
    ("symbols.canonicalize_calls", "count"),
    ("symbols.canonicalize_s", "s"),
    ("symbols.canonicalize_repeat_share", "share"),
    ("symbols.count.curve", "count"),
    ("symbols.count.surface", "count"),
    ("symbols.count.jac", "count"),
    ("relations.generate_calls", "count"),
    ("relations.generate_s", "s"),
    ("relations.count.B1", "count"),
    ("relations.count.B2", "count"),
    ("relations.count.B3", "count"),
    ("relations.count.B4", "count"),
    ("relations.matrix_rows", "count"),
    ("relations.matrix_cols", "count"),
    ("relations.matrix_nnz", "count"),
    ("relations.max_abs_entry", "count"),
    ("normalforms.snf_s", "s"),
    ("normalforms.hnf_s", "s"),
    ("normalforms.contains_calls", "count"),
    ("normalforms.contains_s", "s"),
    ("models.class_calls", "count"),
    ("models.class_s", "s"),
    ("models.validate_calls", "count"),
    ("models.blowup_s", "s"),
    ("models.equal_s", "s"),
    ("cli.interp_ms", "ms"),
    ("cli.import_ms", "ms"),
    *((f"cli.rung_s.{rung}", "s") for rung in LADDER_RUNGS),
    ("trace.overhead_s", "s"),
    ("trace.absent_probes", "count"),
)


def new_tracer() -> Tracer:
    tracer = Tracer()
    tracer.install(PROBES, special={"symbols.canonicalize": partial(_canonicalize_probe, tracer)})
    return tracer


def _canonicalize_probe(tracer: Tracer, probe: Probe, fn):
    """The aggregate probe, also counting calls that repeat an earlier (symbol, G, catalog)."""
    inner = tracer.timed(probe.name, fn, record=False)
    seen = set()

    @wraps(fn)
    def wrapper(sym, G, catalog, *rest, **kwargs):
        key = (sym, G, id(catalog))
        if key in seen:
            tracer.counts["symbols.canonicalize_repeats"] += 1
        else:
            seen.add(key)
        return inner(sym, G, catalog, *rest, **kwargs)

    return wrapper


def _distinct(kept) -> list:
    """Results of calls with distinct (G, catalog) arguments, first call each."""
    seen = set()
    out = []
    for args, result in kept:
        key = (args[0], id(args[1])) if len(args) >= 2 else id(result)
        if key not in seen:
            seen.add(key)
            out.append(result)
    return out


def _matrix_stats(kept) -> tuple[int, int, int, int]:
    rows = cols = nnz = biggest = 0
    for args, _ in kept:
        matrix, ncols = args[-2], args[-1]
        rows += len(matrix)
        cols += ncols
        for row in matrix:
            for x in row:
                if x:
                    nnz += 1
                    biggest = max(biggest, abs(x))
    return rows, cols, nnz, biggest


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric derivable from a finished trace (0 where unused)."""
    kept = tracer.kept
    symbols = [s for result in _distinct(kept.get("symbols.enumerate", [])) for s in result]
    relations = [r for result in _distinct(kept.get("relations.generate", [])) for r in result]
    rows, cols, nnz, biggest = _matrix_stats(
        kept.get("normalforms.cokernel", []) + kept.get("normalforms.lattice", [])
    )
    calls, own = tracer.calls, tracer.own
    canon_calls = calls("symbols.canonicalize")
    m = {
        "groups.build_s": own("groups.build"),
        "groups.lattice_s": own(*LATTICE_SPANS),
        "groups.subgroups": sum(
            len(result) for name in LATTICE_SPANS for _, result in kept.get(name, [])
        ),
        "groups.subgroup_inits": calls("groups.subgroup_inits"),
        "groups.quotient_calls": calls("groups.quotient_calls"),
        "abelian.structure_calls": calls("abelian.structure"),
        "abelian.structure_s": own("abelian.structure"),
        "abelian.transport_calls": calls("abelian.transport_calls"),
        "catalog.load_s": own("catalog.load"),
        "catalog.rule_lookups": calls("catalog.rule_lookups"),
        "symbols.enumerate_calls": calls("symbols.enumerate"),
        "symbols.enumerate_s": own("symbols.enumerate"),
        "symbols.canonicalize_calls": canon_calls,
        "symbols.canonicalize_s": own("symbols.canonicalize"),
        "symbols.canonicalize_repeat_share": (
            tracer.counts["symbols.canonicalize_repeats"] / canon_calls if canon_calls else 0.0
        ),
        "relations.generate_calls": calls("relations.generate"),
        "relations.generate_s": own("relations.generate"),
        "relations.matrix_rows": rows,
        "relations.matrix_cols": cols,
        "relations.matrix_nnz": nnz,
        "relations.max_abs_entry": biggest,
        "normalforms.snf_s": own("normalforms.snf"),
        "normalforms.hnf_s": own("normalforms.hnf"),
        "normalforms.contains_calls": calls("normalforms.contains"),
        "normalforms.contains_s": own("normalforms.contains"),
        "models.class_calls": calls("models.class"),
        "models.class_s": tracer.inclusive("models.class"),
        "models.validate_calls": calls("models.validate"),
        "models.blowup_s": tracer.inclusive("models.blowup"),
        "models.equal_s": tracer.inclusive("models.equal"),
        "trace.absent_probes": len(tracer.absent),
    }
    for kind in ("curve", "surface", "jac"):
        m[f"symbols.count.{kind}"] = sum(1 for s in symbols if getattr(s, "kind", None) == kind)
    for rule in ("B1", "B2", "B3", "B4"):
        m[f"relations.count.{rule}"] = sum(1 for r in relations if getattr(r, "rule", None) == rule)
    return m
