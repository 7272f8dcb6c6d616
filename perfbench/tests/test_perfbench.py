"""The benchmark's own tests: input generators, pinned answers, and span
arithmetic.  Run with `python3 -m pytest perfbench/tests -q`."""

import json
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import generate
import layers
import pace
import pins
import scenarios
import workloads
from burnloc import (
    abelian_structure,
    abelian_subgroups_up_to_conjugacy,
    build_group,
    catalog_from_json,
    enumerate_symbols,
    ensure_valid_catalog,
    generate_relations,
    relation_lattice,
    structure,
)
from spans import AGGREGATE, COUNT, SPAN, Probe, Tracer, clear_caches

SMALL = ("C4", "C12", "C4xC4", "D4xC2", "S4xC2", "D16")


@pytest.mark.parametrize("name", sorted(generate.GROUPS))
def test_generated_catalog_is_valid(name):
    table = generate.seeded_table(name, 7)
    build_group({"kind": "table", "mul": table})
    ensure_valid_catalog(catalog_from_json(generate.catalog_json(table)))


@pytest.mark.parametrize("name", SMALL)
def test_stabilizer_shapes_match_the_package(name):
    table = generate.seeded_table(name, 3)
    G = build_group({"kind": "table", "mul": table})
    theirs = {
        abelian_structure(H).invariant_factors
        for H in abelian_subgroups_up_to_conjugacy(G) if not H.is_trivial()
    }
    assert generate.abelian_subgroup_shapes(table) == theirs


def test_relabelling_keeps_identity_and_group_order_statistics():
    base = generate.GROUPS["D4xC2"]()
    for seed in range(3):
        table = generate.relabel(base, random.Random(seed))
        assert table[0] == list(range(len(base)))
        orders = sorted(generate._order(table, a) for a in range(len(table)))
        assert orders == sorted(generate._order(base, a) for a in range(len(base)))


def test_seeded_table_is_deterministic():
    assert generate.seeded_table("D16", 5) == generate.seeded_table("D16", 5)
    assert generate.seeded_table("D16", 5) != generate.seeded_table("D16", 6)


def test_relabel_invariance_on_c12_rung():
    want = pins.RUNGS["C12"]
    for seed in (0, 1, 2):
        table = generate.seeded_table("C12", seed)
        G = build_group({"kind": "table", "mul": table})
        catalog = ensure_valid_catalog(catalog_from_json(generate.catalog_json(table)))
        assert len(enumerate_symbols(G, catalog)) == want.symbols
        assert len(generate_relations(G, catalog)) == want.relations
        result = structure(G, catalog)
        assert (result.free_rank, result.torsion) == (want.free_rank, want.torsion)


def test_dropped_rule_makes_catalog_incomplete():
    from burnloc import CatalogIncompleteError

    table = generate.seeded_table(workloads.INCOMPLETE_GROUP, 1)
    G = build_group({"kind": "table", "mul": table})
    catalog = ensure_valid_catalog(catalog_from_json(generate.catalog_json(table, drop_rule=0)))
    with pytest.raises(CatalogIncompleteError):
        structure(G, catalog)


def test_every_fixture_command_is_pinned(tmp_path):
    ids = [c.id for c in workloads.fixture_commands(tmp_path)]
    assert len(ids) == len(set(ids))
    assert set(ids) == set(pins.COMMANDS)


def test_queries_are_seeded_cover_every_shape_and_hold():
    pools, lattices = {}, {}
    for name in ("C4", "D4xC2"):
        table = generate.seeded_table(name, 2)
        G = build_group({"kind": "table", "mul": table})
        catalog = ensure_valid_catalog(catalog_from_json(generate.catalog_json(table)))
        pools[name] = scenarios.QueryPool(G, catalog)
        lattices[name] = relation_lattice(G, catalog)
    count = 2 * len(scenarios.SHAPES)
    first = scenarios.make_queries(pools, count, seed=4)
    assert first == scenarios.make_queries(pools, count, seed=4)
    assert first != scenarios.make_queries(pools, count, seed=5)
    for name in pools:
        shapes = {
            (sum(d.kind == "fixed_curve" for d in q.model.strata),
             sum(d.kind == "ruled_divisor" for d in q.model.strata),
             len(q.model.jacobian_factors), q.center.case)
            for q in first if q.group == name
        }
        assert shapes == set(scenarios.SHAPES)
    detected = 0
    for q in first:
        holds, tried, found = scenarios.run_query(q, lattices[q.group])
        assert holds
        detected += found
    assert detected > 0


def test_times_are_rescaled_by_the_references_over_them():
    ref = pace.REFERENCE_SECONDS
    assert pace.at_pace(3.0, [ref, ref]) == pytest.approx(3.0)
    # a host running at half speed doubles both the operation and the reference
    assert pace.at_pace(6.0, [2 * ref, 2 * ref]) == pytest.approx(3.0)
    assert pace.at_pace(3.0, [ref, 2 * ref, 3 * ref]) == pytest.approx(1.5)


def test_pacer_uses_every_reference_from_before_to_after_a_time(monkeypatch):
    refs = iter([1.0, 2.0, 3.0, 4.0, 5.0])
    monkeypatch.setattr(pace, "reference", lambda runs=3: next(refs) * pace.REFERENCE_SECONDS)
    pacer = pace.Pacer()
    pacer.INTERVAL = float("inf")
    pacer.add(3.0)
    pacer.sample()  # taken while the next operation runs
    pacer.add(9.0)
    pacer.flush()
    pacer.INTERVAL = 0.0
    pacer.add(7.0)
    pacer.flush()  # nothing pending: no reference taken
    assert pacer.paced == pytest.approx([1.5, 4.5, 2.0])
    assert len(pacer.references) == 4


@pytest.mark.parametrize("paced", [False, True])
def test_child_past_its_timeout_is_killed_and_reported(monkeypatch, paced):
    pacer = None
    if paced:
        monkeypatch.setattr(pace, "reference", lambda runs=3: pace.REFERENCE_SECONDS)
        pacer = pace.Pacer()
    code, _, err, seconds = workloads.run_child(
        [sys.executable, "-c", "import time; time.sleep(30)"], timeout=0.5, pacer=pacer)
    assert (code, err) == (None, "timeout")
    assert seconds < 10
    if paced:
        assert len(pacer.references) > 2  # sampled while the child ran


def test_reference_imports_nothing_from_the_package():
    code = ("import sys, pace; assert pace.reference() > 0; "
            "sys.exit(any(name.startswith('burnloc') for name in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], cwd=Path(pace.__file__).parent,
                          env={"PYTHONPATH": ""}, timeout=60)
    assert done.returncode == 0


@pytest.fixture
def fake_package():
    """A throwaway package on a fake clock: `outer` takes 2 + 2 * leaf + 1
    ticks, `leaf` takes 3, and `user` imports `leaf` by name from `base`."""
    now = [0.0]
    pkg = types.ModuleType("fakepkg")
    base = types.ModuleType("fakepkg.base")
    user = types.ModuleType("fakepkg.user")

    def leaf(x):
        now[0] += 3
        return x + 1

    def outer(x):
        now[0] += 2
        y = user.leaf(x) + user.leaf(x)  # looked up at call time, as after `from .base import leaf`
        now[0] += 1
        return y

    base.leaf = leaf
    user.leaf = leaf
    user.outer = outer
    modules = {"fakepkg": pkg, "fakepkg.base": base, "fakepkg.user": user}
    sys.modules.update(modules)
    yield base, user, lambda: now[0]
    for name in modules:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("leaf_mode", [SPAN, AGGREGATE])
def test_self_time_is_duration_minus_direct_children(fake_package, leaf_mode):
    base, user, clock = fake_package
    original = base.leaf
    tracer = Tracer(package="fakepkg", clock=clock)
    tracer.install([Probe("fakepkg.base:leaf", "leaf", mode=leaf_mode),
                    Probe("fakepkg.user:outer", "outer")])
    try:
        assert user.leaf is base.leaf is not original
        assert user.outer(1) == 4
    finally:
        tracer.uninstall()
    assert user.leaf is base.leaf is original
    assert tracer.totals["outer"] == [1, 9.0, 3.0]
    assert tracer.totals["leaf"] == [2, 6.0, 6.0]
    kept = [(name, parent) for name, parent, *_ in tracer.spans]
    if leaf_mode == SPAN:
        assert kept == [("outer", -1), ("leaf", 0), ("leaf", 0)]
    else:
        assert kept == [("outer", -1)]


def test_missing_probe_targets_are_reported_absent():
    tracer = Tracer()
    tracer.install([
        Probe("burnloc.catalog:no_such_function", "a"),
        Probe("burnloc.catalog:ActionCatalog.no_such_method", "b"),
        Probe("burnloc.no_such_module:f", "c"),
    ])
    tracer.uninstall()
    assert tracer.absent == [
        "burnloc.catalog:no_such_function",
        "burnloc.catalog:ActionCatalog.no_such_method",
        "burnloc.no_such_module:f",
    ]


def test_class_method_probes_count_and_restore():
    from burnloc.groups import Subgroup

    G = build_group({"kind": "cyclic", "n": 4})
    raw = Subgroup.__dict__["__post_init__"]
    tracer = Tracer()
    tracer.install([Probe("burnloc.groups:Subgroup.__post_init__", "inits", mode=COUNT)])
    try:
        Subgroup(G, (0, 2))
    finally:
        tracer.uninstall()
    assert tracer.counts["inits"] == 1
    assert Subgroup.__dict__["__post_init__"] is raw


def test_clear_caches_reaches_through_wrappers():
    from burnloc import groups

    G = build_group({"kind": "cyclic", "n": 6})
    groups.subgroups_up_to_conjugacy(G)
    assert groups.subgroups_up_to_conjugacy.cache_info().currsize > 0
    tracer = Tracer()
    tracer.install([Probe("burnloc.groups:subgroups_up_to_conjugacy", "reps")])
    try:
        clear_caches()
    finally:
        tracer.uninstall()
    assert groups.subgroups_up_to_conjugacy.cache_info().currsize == 0


def test_benchmark_json_names_every_workload_and_metric():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(layers.METRICS)
