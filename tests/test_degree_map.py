"""The degree map beyond prime order, over an abelian family with generated
catalogs: C_n for n <= 12, the rank-2 groups up to order 25, C2^3 and C2^4,
each as built and relabelled.

The max-stabilizer projection drops every symbol whose stabilizer is not G.
On most of these groups some relation mixes kept and dropped symbols, so the
filter's closure check refuses them; the tests pin how many relations mix and
check what phi needs instead: phi of the projection of every relation is 0.
Seeded random blow-ups move neither the counts invariant I nor the class
modulo the relations, and phi of the projected class is I.
"""

import random
from functools import cache

import pytest

from burnloc.groups import build_group
from burnloc.models import blowup, class_of_action, invariant_counts
from burnloc.relations import BurnsideContext, classes_equal, invariant_I, phi_G
from burnloc.symbols import BurnsideClass
from scenarios import ScenarioPool, cyclic_table, direct_product, generated_catalog, relabel

# each group's invariant factors, and the number of its relations with terms on both
# sides of the projection, as built and relabelled
FAMILY = {
    **{f"C{n}": ((n,), mixed) for n, mixed in zip(range(2, 13), (0, 0, 1, 0, 5, 0, 6, 6, 14, 0, 22))},
    "C2xC2": ((2, 2), 3), "C2xC4": ((2, 4), 12), "C2xC6": ((2, 6), 24), "C2xC8": ((2, 8), 48),
    "C2xC10": ((2, 10), 72), "C2xC12": ((2, 12), 96), "C3xC3": ((3, 3), 24), "C3xC6": ((3, 6), 72),
    "C4xC4": ((4, 4), 48), "C5xC5": ((5, 5), 240), "C2^3": ((2, 2, 2), 0), "C2^4": ((2, 2, 2, 2), 0),
}
BLOWUPS = 20


@cache
def _pass(name, relabelled):
    factors, _ = FAMILY[name]
    table = cyclic_table(factors[0])
    for d in factors[1:]:
        table = direct_product(table, cyclic_table(d))
    G = build_group({"kind": "table", "mul": relabel(table, name) if relabelled else table})
    return BurnsideContext(G, generated_catalog(G))


def _projection(cls, G):
    return BurnsideClass({s: c for s, c in cls.terms() if len(s.h) == G.order})


@pytest.mark.parametrize("relabelled", [False, True])
@pytest.mark.parametrize("name", FAMILY)
def test_phi_of_the_projection_kills_every_relation(name, relabelled):
    context = _pass(name, relabelled)
    G, catalog = context.group, context.catalog
    mixed = 0
    for rel in context.relations:
        kept = _projection(rel.vector, G)
        mixed += not kept.is_zero() and kept != rel.vector
        assert phi_G(kept, G, catalog) == 0, rel.describe(G)
    assert mixed == FAMILY[name][1]


@pytest.mark.parametrize("relabelled", [False, True])
@pytest.mark.parametrize("name", FAMILY)
def test_random_blowups_move_neither_the_counts_invariant_nor_the_class(name, relabelled):
    context = _pass(name, relabelled)
    G, catalog = context.group, context.catalog
    pool = ScenarioPool(G, catalog)
    rng = random.Random(f"degree-map:{name}")
    for _ in range(BLOWUPS):
        m = pool.random_model(rng)
        center = pool.random_center(rng, m)
        out = blowup(m, center)
        value = invariant_I(*invariant_counts(m))
        assert phi_G(_projection(class_of_action(m), G), G, catalog) == value
        assert invariant_I(*invariant_counts(out)) == value, center
        assert classes_equal(class_of_action(m), class_of_action(out), context.lattice), center
