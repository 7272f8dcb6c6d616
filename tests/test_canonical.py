"""Canonical forms against the reference oracles, on inputs that are not yet
normalized, and under relabelling of the group's elements."""

import random

import pytest

from burnloc.abelian import abelian_structure, transport_character
from burnloc.cli import load_class
from burnloc.fixtures import fixture_catalog
from burnloc.groups import Subgroup, abelian_subgroups_up_to_conjugacy, all_subgroups, build_group
from burnloc.models import JacobianFactorDatum, ModelDescription, StratumDatum, class_of_action
from burnloc.relations import BurnsideContext, structure
from burnloc.symbols import (
    BurnsideClass,
    Symbol,
    canonical_form,
    canonicalize,
    carrier_quotient,
    iter_curve_data,
    iter_jac_data,
    iter_surface_data,
    validate_symbol,
)
from oracles import (
    all_coordinates,
    character_from_values,
    reference_canonicalize,
    reference_evaluate,
    reference_kernel,
    reference_restrict,
    reference_sum,
    reference_transport_character,
    reference_transport_symbol,
)
from scenarios import (
    ABELIAN_GROUPS,
    FIXTURE_PAIRS,
    LADDER_GROUPS,
    PERM_GROUPS,
    _datum,
    assert_tables_bounded,
    dihedral_table,
    direct_product,
    generated_catalog,
    relabel,
)


def _raw_symbols(G, catalog):
    return [*iter_curve_data(G, catalog), *iter_surface_data(G, catalog), *iter_jac_data(G, catalog)]


ORDER_64 = {
    "D32": {"kind": "table", "mul": dihedral_table(32)},
    "D4xD4": {"kind": "table", "mul": direct_product(dihedral_table(4), dihedral_table(4))},
}


def _trusted_cases():
    for name, spec in {**LADDER_GROUPS, **ORDER_64}.items():
        yield pytest.param(spec, None, id=name)
    for catalog, n in FIXTURE_PAIRS.items():
        yield pytest.param({"kind": "cyclic", "n": n}, catalog, id=catalog)


@pytest.mark.parametrize("spec, fixture", _trusted_cases())
def test_enumerated_symbols_are_valid_and_their_trusted_form_is_canonicalize(spec, fixture):
    # enumerate_symbols hands each raw symbol to canonical_form and skips
    # validate_symbol; that holds only if every raw symbol is valid, its weights
    # reduced, and canonicalize, on a cold group, gives the same form
    G = build_group(spec)
    catalog = generated_catalog(G) if fixture is None else fixture_catalog(fixture)
    data = _raw_symbols(G, catalog)
    trusted = [canonical_form(raw, G) for raw in data]
    cold = build_group(spec)
    for raw, form in zip(data, trusted):
        if raw.weights:
            struct = abelian_structure(Subgroup(cold, raw.h))
            assert all(reference_sum(struct, (1, b)) == b for b in raw.weights)
        assert validate_symbol(raw, cold, catalog) == []
        assert canonicalize(raw, cold, catalog) == form


@pytest.mark.parametrize("name", ["S3", "D4", "D4xC2"])
def test_transport_matches_fraction_reference(name):
    G = build_group(PERM_GROUPS[name])
    for H in abelian_subgroups_up_to_conjugacy(G):
        struct = abelian_structure(H)
        for g in G.elements():
            for b in all_coordinates(struct):
                assert transport_character(g, struct, b) == reference_transport_character(g, struct, b)


@pytest.mark.parametrize("name", LADDER_GROUPS)
def test_kernel_and_restriction_match_evaluate_reference(name):
    # the integer congruence against the Q/Z values of reference_evaluate, on
    # every character of every abelian subgroup and every subgroup of its host
    G = build_group(LADDER_GROUPS[name])
    subgroups = all_subgroups(G)
    for H in subgroups:
        if not H.is_abelian():
            continue
        host = set(H.elements)
        inside = [K for K in subgroups if host.issuperset(K.elements)]
        struct = abelian_structure(H)
        for b in all_coordinates(struct):
            assert struct.kernel(b) == reference_kernel(struct, b)
            for K in inside:
                assert struct.restrict(b, K) == reference_restrict(struct, b, K)


@pytest.mark.parametrize("name", ["C4xC4", "C2xC6"])
def test_abelian_shortcut_matches_reference(name):
    G = build_group(ABELIAN_GROUPS[name])
    catalog = generated_catalog(G)
    for sym in _raw_symbols(G, catalog):
        assert canonicalize(sym, G, catalog) == reference_canonicalize(sym, G, catalog)


@pytest.mark.parametrize("name", LADDER_GROUPS)
def test_context_canonical_forms_match_canonicalize(name):
    G = build_group(LADDER_GROUPS[name])
    catalog = generated_catalog(G)
    context = BurnsideContext(G, catalog)
    for sym in _raw_symbols(G, catalog):
        form = context.canonicalize(sym)
        assert form == canonicalize(sym, G, catalog)
        assert context.canonicalize(sym) is form


def _conjugates_match_reference(G, catalog):
    for sym in _raw_symbols(G, catalog):
        expected = reference_canonicalize(sym, G, catalog)
        for g in G.elements():
            assert canonicalize(reference_transport_symbol(sym, g, G), G, catalog) == expected


NONABELIAN = {
    "S3xC2": PERM_GROUPS["S3xC2"],
    "D4xC2": PERM_GROUPS["D4xC2"],
    "D3xC4": PERM_GROUPS["D3xC4"],
    "S3xS3": LADDER_GROUPS["S3xS3"],
    "D6xC2": LADDER_GROUPS["D6xC2"],
}


@pytest.mark.parametrize("name", NONABELIAN)
def test_nonabelian_canonical_form_matches_reference(name):
    # the forms come from the group's class table and frame memo, which the
    # conjugates fill in every order; two seeded relabellings as well
    base = build_group(NONABELIAN[name])
    for G in (base, *(build_group({"kind": "table", "mul": relabel(base.mul, seed)}) for seed in (1, 2))):
        catalog = generated_catalog(G)
        _conjugates_match_reference(G, catalog)
        assert_tables_bounded(G, catalog)


def test_residual_group_ties_are_broken_before_weights():
    # in (C3 x C2 x C2) : C2 the involution inverting C3 also swaps two C2s that
    # centralize it, so over H = C3 it moves Y and the weights together: the
    # least weights must be taken only over conjugations that give the least Y
    G = build_group({"kind": "perm", "degree": 7, "gens": [
        [1, 2, 0, 3, 4, 5, 6], [0, 1, 2, 4, 3, 5, 6], [0, 1, 2, 3, 4, 6, 5], [0, 2, 1, 5, 6, 3, 4]]})
    catalog = generated_catalog(G)
    _conjugates_match_reference(G, catalog)
    assert_tables_bounded(G, catalog)


# (group, stabilizer as given, the same stabilizer sorted); C2 is abelian, and in
# S3 the subgroup {0, 2} is conjugate to the smaller {0, 1}
UNSORTED = [
    ({"kind": "cyclic", "n": 2}, (1, 0), (0, 1)),
    (PERM_GROUPS["S3"], (2, 0), (0, 2)),
]


@pytest.mark.parametrize("spec, given, normal", UNSORTED)
def test_model_data_canonicalize_like_their_normalized_form(spec, given, normal, hyper_cat):
    G = build_group(spec)
    raw = ModelDescription(group=G, catalog=hyper_cat, strata=(
        StratumDatum(kind="fixed_curve", stabilizer=given, residual="triv-C", weights=((3,), (1,))),
        StratumDatum(kind="ruled_divisor", stabilizer=given, residual="triv-CxP1", weights=((5,),)),
    ), jacobian_factors=(JacobianFactorDatum(stabilizer=given, residual="triv-J"),))
    normalized = ModelDescription(group=G, catalog=hyper_cat, strata=(
        StratumDatum(kind="fixed_curve", stabilizer=normal, residual="triv-C", weights=((1,), (1,))),
        StratumDatum(kind="ruled_divisor", stabilizer=normal, residual="triv-CxP1", weights=((1,),)),
    ), jacobian_factors=(JacobianFactorDatum(stabilizer=normal, residual="triv-J"),))
    cls = class_of_action(raw)
    assert cls == class_of_action(normalized)
    for sym in cls.support():
        assert sym == reference_canonicalize(sym, G, hyper_cat)
        assert list(sym.h) == sorted(sym.h)


@pytest.mark.parametrize("spec, given, normal", UNSORTED)
def test_cli_symbols_canonicalize_like_their_normalized_form(spec, given, normal, hyper_cat):
    G = build_group(spec)

    def term(h, weights):
        return ('{"terms": [{"coeff": 1, "symbol": {"kind": "curve", "h": %s, "action": "triv-C", '
                '"weights": %s}}]}' % (list(h), weights))

    cls = load_class(term(given, "[[3], [1]]"), G, hyper_cat)
    assert cls == load_class(term(normal, "[[1], [1]]"), G, hyper_cat)
    (sym,) = cls.support()
    assert sym == reference_canonicalize(Symbol("curve", normal, (0,), "triv-C", ((1,), (1,))), G, hyper_cat)


def _move_weights(src_group, src_h, dst_group, dst_h, weights, back):
    """Weights on src_h carried to dst_h along a relabelling; `back` maps dst elements to src."""
    if not weights:
        return ()
    src = abelian_structure(Subgroup(src_group, src_h))
    dst = abelian_structure(Subgroup(dst_group, dst_h))
    return tuple(
        character_from_values(dst, lambda x, w=w: reference_evaluate(src, w, back[x]))
        for w in weights
    )


def test_structure_and_class_survive_relabelling():
    G = build_group(PERM_GROUPS["D4xC2"])
    catalog = generated_catalog(G)
    pools = [list(it(G, catalog)) for it in (iter_curve_data, iter_surface_data, iter_jac_data)]
    # two fixed curves, a ruled divisor and a Jacobian factor
    data = [_datum(G, pools[0][-1]), _datum(G, pools[0][len(pools[0]) // 2]),
            _datum(G, pools[1][-1]), _datum(G, pools[2][-1])]
    model = ModelDescription(group=G, catalog=catalog, strata=tuple(data[:3]), jacobian_factors=(data[3],))
    base_structure = structure(G, catalog)
    base_class = class_of_action(model)
    for seed in range(3):
        rest = list(range(1, G.order))
        random.Random(seed).shuffle(rest)
        pi = [0] + rest
        back = {x: i for i, x in enumerate(pi)}
        table = [[0] * G.order for _ in G.elements()]
        for a in G.elements():
            for b in G.elements():
                table[pi[a]][pi[b]] = pi[G.mul[a][b]]
        R = build_group({"kind": "table", "mul": table})
        assert structure(R, catalog) == base_structure

        def moved(d):
            h = tuple(sorted(pi[x] for x in d.stabilizer))
            upstairs = tuple(sorted(pi[x] for x in d.residual_group))
            if isinstance(d, JacobianFactorDatum):
                return JacobianFactorDatum(stabilizer=h, residual=d.residual, residual_group=upstairs)
            weights = _move_weights(G, d.stabilizer, R, h, d.weights, back)
            return StratumDatum(kind=d.kind, stabilizer=h, residual=d.residual, weights=weights,
                                residual_group=upstairs)

        relabelled = ModelDescription(group=R, catalog=catalog, strata=tuple(moved(d) for d in model.strata),
                                      jacobian_factors=tuple(moved(d) for d in model.jacobian_factors))
        pulled_back = BurnsideClass.zero()
        for sym, coeff in class_of_action(relabelled).terms():
            h = tuple(sorted(back[x] for x in sym.h))
            upstairs = carrier_quotient(R, sym.h, sym.kind).preimage(sym.y)
            y = carrier_quotient(G, h, sym.kind).image(back[x] for x in upstairs)
            weights = _move_weights(R, sym.h, G, h, sym.weights, pi)
            pulled_back = pulled_back + BurnsideClass.of(
                canonicalize(Symbol(sym.kind, h, y, sym.action, weights), G, catalog), coeff
            )
        assert pulled_back == base_class
