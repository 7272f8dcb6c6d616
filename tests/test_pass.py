"""One pass object: every command and library call that needs the relations
reads one `BurnsideContext`, which generates them once, and a kept context
answers as fresh calls on cold groups do, whatever it was asked first."""

import json
import random
import sys

import pytest

import burnloc
import burnloc.relations
from burnloc.cli import main
from burnloc.errors import ValidationError
from burnloc.fixtures import fixture_catalog, fixture_center, fixture_model
from burnloc.groups import build_group
from burnloc.models import verdict, verify_blowup_invariance
from burnloc.relations import (
    BurnsideContext,
    FilterSpec,
    _filter_pass,
    filter_project,
    filtered_structure,
    relation_lattice,
    structure,
    structure_from,
)
from burnloc.symbols import BurnsideClass
from scenarios import LADDER_GROUPS, dihedral_table, generated_catalog, relabel

Z2 = '{"kind":"cyclic","n":2}'
HYPER = ("--group", Z2, "--catalog", "hyperelliptic-Z2")
CLASS = json.dumps({"terms": [
    {"coeff": 1, "symbol": {"kind": "curve", "h": [0, 1], "action": "triv-C", "weights": [[1], [1]]}},
    {"coeff": 5, "symbol": {"kind": "jac", "h": [0], "action": "triv-J"}},
]})


@pytest.fixture
def passes(monkeypatch):
    """[contexts made, relation generations], counted wherever either is reached from."""
    counts = [0, 0]
    init, generate = BurnsideContext.__init__, burnloc.relations.generate_relations

    def counting_init(self, *args):
        counts[0] += 1
        init(self, *args)

    def counting_generate(*args):
        counts[1] += 1
        return generate(*args)

    monkeypatch.setattr(BurnsideContext, "__init__", counting_init)
    for name, module in list(sys.modules.items()):
        if name.startswith("burnloc") and getattr(module, "generate_relations", None) is generate:
            monkeypatch.setattr(module, "generate_relations", counting_generate)
    return counts


@pytest.mark.parametrize("argv, made", [
    (("structure", *HYPER), 1),
    (("structure", *HYPER, "--filter", "max-stabilizer"), 1),
    (("relations", *HYPER, "--dump"), 1),
    (("equal", *HYPER, "--a", CLASS, "--b", CLASS), 1),
    (("phi", *HYPER, "--class", CLASS), 1),
    (("verdict", "--model", "conic-bundle-exotic"), 1),
    (("verdict", "--model", "quadric-bundle"), 1),
    (("verify-blowup", "--model", "elliptic-fixed-curve", "--center", "elliptic-bullet1"), 1),
    (("class", "--model", "quadric-bundle"), 0),
    (("invariant", "--counts", "0,1,0"), 0),
    (("invariant", "--model", "quadric-bundle"), 0),
], ids=lambda value: value[0] if isinstance(value, tuple) else None)
def test_each_command_makes_one_pass_or_none(capsys, passes, argv, made):
    assert main([*argv, "--json"]) == 0, capsys.readouterr().err
    assert passes == [made, made]


def _library_calls():
    G = build_group(json.loads(Z2))
    catalog = fixture_catalog("hyperelliptic-Z2")
    f = FilterSpec.max_stabilizer(G)
    cls = BurnsideClass.of(BurnsideContext(G, catalog).symbols[0])
    m = fixture_model("elliptic-fixed-curve")
    return {
        "structure": lambda: structure(G, catalog),
        "filtered_structure": lambda: filtered_structure(G, catalog, f),
        "relation_lattice": lambda: relation_lattice(G, catalog),
        "filter_project": lambda: filter_project(cls, f, G, catalog),
        "generate_relations": lambda: burnloc.relations.generate_relations(G, catalog),  # the counted name
        "verdict": lambda: verdict(fixture_model("quadric-bundle")),
        "verdict exotic": lambda: verdict(fixture_model("conic-bundle-exotic")),
        "verify_blowup_invariance": lambda: verify_blowup_invariance(m, fixture_center("elliptic-bullet1")),
    }


@pytest.mark.parametrize("name", _library_calls())
def test_each_library_entry_point_makes_one_pass(passes, name):
    call = _library_calls()[name]
    passes[:] = [0, 0]
    result = call()
    assert passes == [1, 1]
    if name == "verdict exotic":  # it projected the class and reduced it for its note in that one pass
        assert result.notes[0].endswith("class is nonzero after reduction")


def test_the_package_exports_the_pass_object_of_relations():
    assert burnloc.BurnsideContext is BurnsideContext and BurnsideContext.__module__ == "burnloc.relations"


def _groups():
    for name, spec in LADDER_GROUPS.items():
        yield pytest.param(spec, id=name)
    yield pytest.param({"kind": "table", "mul": dihedral_table(32)}, id="D32")
    yield pytest.param({"kind": "table", "mul": relabel(dihedral_table(32), "D32")}, id="D32-relabelled")


def _answer(call):
    """What the call returns, or the message it is refused with."""
    try:
        return call()
    except ValidationError as exc:
        return f"refused: {exc}"


@pytest.mark.parametrize("spec", _groups())
def test_a_kept_context_answers_as_fresh_calls_on_cold_groups_do(spec):
    # each fresh call runs on a group and catalog built anew, so no table is warm;
    # one context is asked for its lattice first and another for its structure first
    def cold():
        G = build_group(spec)
        return G, generated_catalog(G)

    G, catalog = cold()
    f = FilterSpec.max_stabilizer(G)
    lattice_first, structure_first = BurnsideContext(G, catalog), BurnsideContext(G, catalog)
    basis = lattice_first.lattice.basis
    assert lattice_first.structure == structure_first.structure == structure(*cold())
    assert structure_first.lattice.basis == basis == relation_lattice(*cold()).basis

    def kept_filtered():
        admitted, vectors = _filter_pass(f, G, lattice_first.relations, lattice_first.symbols)
        return structure_from((s for s in lattice_first.symbols if s in admitted), vectors)

    G_cold, catalog_cold = cold()
    assert _answer(kept_filtered) == _answer(lambda: filtered_structure(G_cold, catalog_cold, f))
    rng = random.Random(len(lattice_first.symbols))
    cls = BurnsideClass({s: rng.choice((-2, -1, 1, 3)) for s in rng.sample(lattice_first.symbols, 8)})
    G_cold, catalog_cold = cold()
    assert _answer(lambda: lattice_first.project(cls, f)) == _answer(
        lambda: filter_project(cls, FilterSpec.max_stabilizer(G_cold), G_cold, catalog_cold))
