"""The subgroup facts a group owns: the check table behind `Subgroup(G, ...)`,
the conjugacy class table and the canonical frame memo that `canonicalize`
reads, and the associativity test of the checked group constructor."""

import random

import pytest

from burnloc.errors import ValidationError
from burnloc.groups import FiniteGroup, Subgroup, all_subgroups, build_group
from burnloc.symbols import (
    KIND_CURVE,
    KIND_JAC,
    BurnsideContext,
    Symbol,
    canonicalize,
    carrier_quotient,
    enumerate_symbols,
    iter_curve_data,
    iter_jac_data,
    iter_surface_data,
    validate_symbol,
)
from oracles import reference_canonicalize, reference_group_problem
from scenarios import (
    assert_tables_bounded,
    clear_engine_caches,
    cyclic_table,
    dihedral_table,
    direct_product,
    generated_catalog,
    relabel,
    symmetric_table,
)

TABLES = {
    "S3xC2": lambda: direct_product(symmetric_table(3), cyclic_table(2)),
    "D4xC2": lambda: direct_product(dihedral_table(4), cyclic_table(2)),
    "S3xS3": lambda: direct_product(symmetric_table(3), symmetric_table(3)),
    "D6xC2": lambda: direct_product(dihedral_table(6), cyclic_table(2)),
}
# (C3 x C2 x C2) : C2, where conjugations that tie on h move Y and the weights
# together (see test_canonical)
TIES_ON_Y = {"kind": "perm", "degree": 7, "gens": [
    [1, 2, 0, 3, 4, 5, 6], [0, 1, 2, 4, 3, 5, 6], [0, 1, 2, 3, 4, 6, 5], [0, 2, 1, 5, 6, 3, 4]]}


def _raw_symbols(G, catalog):
    return [*iter_curve_data(G, catalog), *iter_surface_data(G, catalog), *iter_jac_data(G, catalog)]


@pytest.mark.parametrize("spec", [
    {"kind": "table", "mul": relabel(TABLES["D4xC2"](), 3)},
    TIES_ON_Y,
], ids=["D4xC2", "ties-on-Y"])
def test_cold_forms_equal_forms_after_a_full_enumeration(spec):
    warm = build_group(spec)
    catalog = generated_catalog(warm)
    enumerate_symbols(warm, catalog)
    raws = _raw_symbols(warm, catalog)
    cold_forms = []
    for sym in raws:
        clear_engine_caches()
        cold = build_group(spec)  # no table of this group is filled yet
        cold_forms.append(canonicalize(sym, cold, catalog))
    assert cold_forms == [canonicalize(sym, warm, catalog) for sym in raws]


# over D4 x C2, element orders 1,2,4,4,2,2,4,4,2,...: 2 has order 4, the
# product of the involutions 1 and 4 is not in {0, 1, 4}, and in the order-8
# quotient Z(H)/H over H = {0, 1} the coset 1 has order 4
INVALID = [
    (Symbol("curve", (0, 2), (0,), "triv-C", ((1,), (1,))),
     "stabilizer: subgroup not closed under inverse at 2"),
    (Symbol("curve", (4, 1, 0), (0,), "triv-C", ((1,), (1,))),
     "stabilizer: subgroup not closed under product at (1,4)"),
    (Symbol("curve", (0, 99), (0,), "triv-C", ((1,), (1,))),
     "stabilizer: element 99 outside the ambient group"),
    (Symbol("curve", (0, 1), (0, 1), "triv-C", ((1,), (1,))),
     "residual group: subgroup not closed under inverse at 1"),
    (Symbol("jac", (0, 1), (0, 5, 6), "triv-J"),
     "residual group: subgroup not closed under product at (5,6)"),
]


@pytest.mark.parametrize("sym, problem", INVALID)
def test_invalid_h_or_y_fails_with_the_same_message_on_every_call(sym, problem):
    G = build_group({"kind": "table", "mul": TABLES["D4xC2"]()})
    catalog = generated_catalog(G)
    context = BurnsideContext(G, catalog)
    for _ in range(3):
        assert validate_symbol(sym, G, catalog) == [problem]
        for canon in (lambda s: canonicalize(s, G, catalog), context.canonicalize):
            with pytest.raises(ValidationError) as exc:
                canon(sym)
            assert str(exc.value) == f"cannot canonicalize invalid symbol: {problem}"
    # a valid symbol afterwards still canonicalizes, and nothing invalid was kept
    good = next(iter_curve_data(G, catalog))
    assert canonicalize(good, G, catalog) == reference_canonicalize(good, G, catalog)
    assert_tables_bounded(G)


def test_subgroup_check_runs_once_per_element_set():
    G = build_group({"kind": "table", "mul": TABLES["S3xC2"]()})
    first = Subgroup(G, (3, 0, 3))
    assert first.elements in G._checked
    assert Subgroup(G, [0, 3]) == first
    for _ in range(2):
        with pytest.raises(ValidationError, match="subgroup not closed under inverse at 6"):
            Subgroup(G, (0, 6))  # 6 has order 3
    assert (0, 6) not in G._checked


def test_class_table_gives_least_conjugate_and_transporter():
    G = build_group({"kind": "table", "mul": relabel(TABLES["S3xS3"](), 4)})
    conj = G.conj_table()
    for H in all_subgroups(G):
        images = {g: tuple(sorted(conj[g][a] for a in H.elements)) for g in G.elements()}
        rep = min(images.values())
        assert G.subgroup_class(H.elements) == (rep, tuple(g for g, k in images.items() if k == rep))
    assert_tables_bounded(G)


def _mutants(table, positions, values):
    for a, b in positions:
        for v in values(a, b):
            if v != table[a][b]:
                mutated = [list(row) for row in table]
                mutated[a][b] = v
                yield mutated


def _constructor_problem(table):
    try:
        FiniteGroup(table)
    except ValidationError as exc:
        return str(exc)
    return None


def _all_positions(n):
    return [(a, b) for a in range(n) for b in range(n)]


@pytest.mark.parametrize("table", [
    direct_product(cyclic_table(4), cyclic_table(4)),
    TABLES["D4xC2"](),
], ids=["C4xC4", "D4xC2"])
def test_light_test_decides_every_single_entry_mutation_like_the_full_scan(table):
    n = len(table)
    count = 0
    for mutated in _mutants(table, _all_positions(n), lambda a, b: range(n)):
        assert _constructor_problem(mutated) == reference_group_problem(mutated)
        count += 1
    assert count == n * n * (n - 1)


def test_light_test_decides_sampled_mutations_of_larger_tables_like_the_full_scan():
    # S3 x S3: every entry, two seeded replacement values each; D32: 300
    # seeded single-entry mutations
    rng = random.Random(7)
    s3s3 = TABLES["S3xS3"]()
    for mutated in _mutants(s3s3, _all_positions(36), lambda a, b: rng.sample(range(36), 2)):
        assert _constructor_problem(mutated) == reference_group_problem(mutated)
    d32 = relabel(dihedral_table(32), 5)
    positions = [(rng.randrange(64), rng.randrange(64)) for _ in range(300)]
    for mutated in _mutants(d32, positions, lambda a, b: [rng.randrange(64)]):
        assert _constructor_problem(mutated) == reference_group_problem(mutated)
    for table in (s3s3, d32):
        assert reference_group_problem(table) is None
        assert _constructor_problem(table) is None


@pytest.mark.parametrize("name", ["D4xC2", "S3xS3", "D6xC2"])
def test_quotient_tables_pass_the_checked_constructor(name):
    G = build_group({"kind": "table", "mul": relabel(TABLES[name](), 1)})
    for H in all_subgroups(G):
        kinds = (KIND_CURVE, KIND_JAC) if H.is_abelian() else (KIND_JAC,)
        for kind in kinds:
            Q = carrier_quotient(G, H.elements, kind).group
            checked = FiniteGroup(Q.mul)
            assert checked == Q
            assert [checked.inv(a) for a in checked.elements()] == [Q.inv(a) for a in Q.elements()]
            assert checked.is_abelian() == Q.is_abelian()
