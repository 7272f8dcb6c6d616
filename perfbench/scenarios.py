"""Seeded (model, blow-up center) queries for the warm library workload.

Built only on the package's public API: raw symbol data from the
`iter_*_data` enumerators become model strata, and `BlowupCenter` covers the
three blow-up cases.  A query blows the model up, compares the two classes
modulo the relation lattice (they must be equal) and then drops each appended
term once; a dropped term is detected when the mutant's class differs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from burnloc.catalog import CURVE
from burnloc.groups import all_subgroups
from burnloc.models import (
    BlowupCenter,
    JacobianFactorDatum,
    ModelDescription,
    StratumDatum,
    blowup,
    class_of_action,
)
from burnloc.relations import classes_equal
from burnloc.symbols import carrier_quotient, iter_curve_data, iter_jac_data, iter_surface_data


def _datum(G, sym):
    upstairs = carrier_quotient(G, sym.h, sym.kind).preimage(sym.y)
    if sym.kind == "jac":
        return JacobianFactorDatum(stabilizer=sym.h, residual=sym.action, residual_group=upstairs)
    return StratumDatum(
        kind="fixed_curve" if sym.kind == "curve" else "ruled_divisor",
        stabilizer=sym.h, residual=sym.action, weights=sym.weights, residual_group=upstairs,
    )


class QueryPool:
    """Every stratum, factor and center a random query over (G, catalog) may use."""

    def __init__(self, G, catalog):
        self.G = G
        self.catalog = catalog
        self.curve = [_datum(G, s) for s in iter_curve_data(G, catalog)]
        self.surface = [_datum(G, s) for s in iter_surface_data(G, catalog)]
        self.jac = [_datum(G, s) for s in iter_jac_data(G, catalog)]
        self.case1 = [
            BlowupCenter(case=1, curve_label=label.id, y_reps=Y.elements)
            for label in catalog.labels_in(CURVE)
            for Y in all_subgroups(G)
            if label.group_shape.matches(Y)
        ]
        # a curve with normal weights (0, b) inside a divisor stabilized by a
        # cyclic H with weight b, carrying a curve action over the same H
        self.case2 = [
            BlowupCenter(
                case=2, curve_label=curve.residual, y_reps=curve.residual_group,
                context_stabilizer=surf.stabilizer, context_weight=surf.weights[0],
            )
            for surf in self.surface
            for curve in self.curve
            if curve.stabilizer == surf.stabilizer
        ]

    def query(self, rng: random.Random, decks: dict, shape: tuple[int, int, int, int]):
        """A model with the given numbers of curve strata, ruled strata and
        Jacobian factors, and a center of the given case.

        Data come from shuffled decks of each pool, reshuffled when used up, so
        that every seed draws nearly the same multiset of data.
        """
        def draw(pool: str):
            if not decks.get(pool):
                decks[pool] = list(getattr(self, pool))
                rng.shuffle(decks[pool])
            return decks[pool].pop()

        curves, surfaces, jacs, case = shape
        strata = [draw("curve") for _ in range(curves)]
        strata += [draw("surface") for _ in range(surfaces)]
        factors = [draw("jac") for _ in range(jacs)]
        m = ModelDescription(
            group=self.G, catalog=self.catalog,
            strata=tuple(strata), jacobian_factors=tuple(factors),
        )
        if case == 3:
            return m, BlowupCenter(case=3, stratum=rng.randrange(curves))
        return m, draw(f"case{case}")


# every (curve strata, ruled strata, Jacobian factors, center case) a query may
# have; case 3 blows up one of the model's fixed curves, so it needs one
SHAPES = tuple(
    (curves, surfaces, jacs, case)
    for case in (1, 2, 3)
    for curves in range(3)
    for surfaces in range(2)
    for jacs in range(3)
    if case != 3 or curves
)


@dataclass(frozen=True)
class Query:
    group: str
    model: ModelDescription
    center: BlowupCenter


def make_queries(pools: dict, count: int, seed: int) -> list[Query]:
    """A seeded stream of queries.

    Groups and query shapes follow a fixed cycle, so every seed asks for the
    same mix of work; the seed draws the strata, factors and centers.
    """
    rng = random.Random(f"queries:{seed}")
    names = sorted(pools)
    decks = {name: {} for name in names}
    out = []
    for i in range(count):
        name = names[i % len(names)]
        shape = SHAPES[(i // len(names)) % len(SHAPES)]
        out.append(Query(name, *pools[name].query(rng, decks[name], shape)))
    return out


def mutants(m: ModelDescription, out: ModelDescription, case: int) -> list[ModelDescription]:
    """The blown-up model with exactly one appended term removed, once per term."""
    kept = len(m.strata) - (1 if case == 3 else 0)
    result = [
        replace(out, strata=out.strata[:i] + out.strata[i + 1:])
        for i in range(kept, len(out.strata))
    ]
    if len(out.jacobian_factors) > len(m.jacobian_factors):
        result.append(replace(out, jacobian_factors=out.jacobian_factors[:-1]))
    return result


def run_query(q: Query, lattice) -> tuple[bool, int, int]:
    """(invariance holds, mutants tried, mutants detected as unequal)."""
    out = blowup(q.model, q.center)
    base = class_of_action(q.model)
    holds = classes_equal(base, class_of_action(out), lattice)
    tried = detected = 0
    for mutant in mutants(q.model, out, q.center.case):
        tried += 1
        if not classes_equal(base, class_of_action(mutant), lattice):
            detected += 1
    return holds, tried, detected
