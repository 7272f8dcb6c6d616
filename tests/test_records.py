"""The package's value records are immutable tuples; these checks pin the
tuple behaviour they must not show: writable fields, and an order on symbols
other than `Symbol.key`."""

from itertools import product

import pytest

from burnloc.fixtures import fixture_catalog, fixture_center, fixture_model
from burnloc.groups import Subgroup, build_group
from burnloc.models import verdict
from burnloc.normalforms import IntegerLattice
from burnloc.relations import FilterSpec, generate_relations, structure
from burnloc.symbols import enumerate_symbols
from scenarios import cyclic_table, dihedral_table, direct_product, generated_catalog


def _records():
    """One instance of every value record, by class name."""
    G = build_group({"kind": "cyclic", "n": 2})
    catalog = fixture_catalog("hyperelliptic-Z2")
    elliptic = fixture_catalog("elliptic-Z2")
    quadric = fixture_model("quadric-bundle")
    H = Subgroup(G, (0, 1))
    found = [
        catalog, catalog.curve, catalog.labels[0], catalog.labels[0].group_shape,
        catalog.induce_rules[0], catalog.jacobian_rules[0], elliptic.extension_rules[0],
        enumerate_symbols(G, catalog)[0], H,
        IntegerLattice.from_rows([(2, 0)], 2),
        generate_relations(G, catalog)[0], structure(G, catalog), FilterSpec.max_stabilizer(G),
        quadric.strata[0], fixture_model("three-nodal-cubic").jacobian_factors[0],
        fixture_center("elliptic-bullet1"), verdict(quadric),
    ]
    return {type(r).__name__: r for r in found}


def test_every_record_is_covered():
    assert sorted(_records()) == sorted([
        "ActionCatalog", "CurveProfile", "ActionLabel", "GroupShape", "InduceRule",
        "JacobianOfCurveRule", "GenusOneExtensionRule", "Symbol", "Subgroup",
        "IntegerLattice", "RelationInstance", "GroupStructure", "FilterSpec", "StratumDatum",
        "JacobianFactorDatum", "BlowupCenter", "VerdictReport",
    ])


@pytest.mark.parametrize("name", sorted(_records()))
def test_record_fields_cannot_be_assigned(name):
    record = _records()[name]
    for field, value in zip(record._fields, record):
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        assert getattr(record, field) is value


def test_symbol_order_is_the_order_of_its_key():
    G = build_group({"kind": "table", "mul": direct_product(dihedral_table(4), cyclic_table(2))})
    symbols = enumerate_symbols(G, generated_catalog(G))
    assert len(symbols) > 100
    for a, b in product(symbols, repeat=2):
        ka, kb = a.key(), b.key()
        assert (a < b, a > b, a <= b, a >= b) == (ka < kb, ka > kb, ka <= kb, ka >= kb)
    assert sorted(symbols) == sorted(symbols, key=lambda s: s.key())
