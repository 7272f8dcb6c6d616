"""The subgroup facts a group owns: the check table behind `Subgroup(G, ...)`,
the conjugacy class table and the canonical frame memo that `canonicalize`
reads, the quotient intern map that lets equal quotient tables share one
lattice, and the associativity test of the checked group constructor; the
facts derived objects own: each abelian structure's kernel memo, which
answers dual generation, and its transported characters, each stabilizer
record's resolved residual groups, each quotient's coset members, which
answer `preimage`, and each catalog's rule index; and that all of them are
freed with the group."""

import gc
import random
import sys
from functools import partial
from itertools import permutations, product

import pytest

import burnloc.cli  # with burnloc.models below, loads every package module for the cache scan
import burnloc.groups
from burnloc.abelian import abelian_structure, shape_name, transport_character
from burnloc.catalog import ActionLabel, GroupShape
from burnloc.errors import CatalogIncompleteError, ValidationError
from burnloc.fixtures import catalog_names, fixture_catalog
from burnloc.groups import (
    FiniteGroup,
    Subgroup,
    abelian_subgroups_up_to_conjugacy,
    all_subgroups,
    build_group,
    full_subgroup,
    subgroups_up_to_conjugacy,
)
from burnloc.relations import relation_lattice, structure
from burnloc.symbols import (
    KIND_CURVE,
    KIND_JAC,
    KIND_SURFACE,
    BurnsideContext,
    Symbol,
    canonicalize,
    carrier_quotient,
    enumerate_symbols,
    iter_curve_data,
    iter_jac_data,
    iter_surface_data,
    stabilizer,
    validate_symbol,
)
from oracles import (
    all_coordinates,
    character_span,
    reference_canonicalize,
    reference_group_problem,
    reference_resolve_residual,
    reference_transport_character,
)
from scenarios import (
    LADDER_GROUPS,
    _datum,
    assert_tables_bounded,
    catalog_with_shapes,
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
# quotient Z(H)/H over H = {0, 1} the coset 1 has order 4.  (symbol, its
# diagnostic, canonicalize's message): a stabilizer is refused by its record's
# lookup, as is, and a residual group by the check
CHECKED = "cannot canonicalize invalid symbol: "
INVALID = [
    (Symbol("curve", (0, 2), (0,), "triv-C", ((1,), (1,))),
     "subgroup not closed under inverse at 2", "subgroup not closed under inverse at 2"),
    (Symbol("curve", (4, 1, 0), (0,), "triv-C", ((1,), (1,))),
     "subgroup not closed under product at (1,4)", "subgroup not closed under product at (1,4)"),
    (Symbol("curve", (0, 99), (0,), "triv-C", ((1,), (1,))),
     "element 99 outside the ambient group", "element 99 outside the ambient group"),
    (Symbol("curve", (0, 1), (0, 1), "triv-C", ((1,), (1,))),
     "residual group: subgroup not closed under inverse at 1",
     CHECKED + "residual group: subgroup not closed under inverse at 1"),
    (Symbol("jac", (0, 1), (0, 5, 6), "triv-J"),
     "residual group: subgroup not closed under product at (5,6)",
     CHECKED + "residual group: subgroup not closed under product at (5,6)"),
]


@pytest.mark.parametrize("sym, problem, message", INVALID)
def test_invalid_h_or_y_fails_with_the_same_message_on_every_call(sym, problem, message):
    G = build_group({"kind": "table", "mul": TABLES["D4xC2"]()})
    catalog = generated_catalog(G)
    context = BurnsideContext(G, catalog)
    for _ in range(3):
        assert validate_symbol(sym, G, catalog) == [problem]
        for canon in (lambda s: canonicalize(s, G, catalog), context.canonicalize):
            with pytest.raises(ValidationError) as exc:
                canon(sym)
            assert str(exc.value) == message
    # a valid symbol afterwards still canonicalizes, and nothing invalid was kept
    good = next(iter_curve_data(G, catalog))
    assert canonicalize(good, G, catalog) == reference_canonicalize(good, G, catalog)
    assert_tables_bounded(G, catalog)


def test_subgroup_check_runs_once_per_element_set():
    G = build_group({"kind": "table", "mul": TABLES["S3xC2"]()})
    first = Subgroup(G, (3, 0, 3))
    assert first.elements in G._checked
    assert Subgroup(G, [0, 3]) == first
    for _ in range(2):
        with pytest.raises(ValidationError, match="subgroup not closed under inverse at 6"):
            Subgroup(G, (0, 6))  # 6 has order 3
    assert (0, 6) not in G._checked


def test_carrier_quotients_are_kept_once_per_subgroup_whatever_its_element_order():
    # one stabilizer record per (subgroup, carrier): curve and surface symbols
    # share the centralizer's, which alone carries the structure
    G = build_group({"kind": "abelian", "factors": [4, 4]})
    orderings = list(permutations((0, 1, 2, 3)))
    records = {id(stabilizer(G, h, kind)) for h in orderings for kind in (KIND_CURVE, KIND_SURFACE)}
    quotients = {id(carrier_quotient(G, h, KIND_CURVE)) for h in orderings}
    assert len(orderings) == 24 and len(records) == len(quotients) == 1
    assert len(G.carriers) == 1 and len(G._checked) == 1
    H, struct, Q, _ = stabilizer(G, (3, 2, 1, 0), KIND_SURFACE)
    assert H.elements == (0, 1, 2, 3) and struct is abelian_structure(H) and Q is carrier_quotient(G, H.elements, KIND_CURVE)
    assert stabilizer(G, H.elements, KIND_JAC).structure is None and len(G.carriers) == 2
    assert stabilizer(G, (0,), KIND_CURVE).structure is None
    # both carriers of the trivial group are G, so every kind reads its one record
    assert {id(stabilizer(G, (0,), kind)) for kind in (KIND_CURVE, KIND_SURFACE, KIND_JAC)} == {
        id(stabilizer(G, (0,), KIND_CURVE))} and len(G.carriers) == 3
    assert_tables_bounded(G)


def test_the_trivial_stabilizer_record_is_found_on_the_first_lookup():
    # the trivial group's one record is kept under the curve carrier; a Jacobian
    # lookup of h = (0,) reads it there at once, with no Subgroup check
    class Lookups(dict):
        def get(self, key, default=None):
            keys.append(key)
            return super().get(key, default)

    G = build_group({"kind": "abelian", "factors": [2, 2]})
    record = stabilizer(G, (0,), KIND_CURVE)
    G.carriers, keys = Lookups(G.carriers), []
    assert all(stabilizer(G, (0,), kind) is record for kind in (KIND_JAC, KIND_SURFACE, KIND_CURVE))
    assert keys == [((0,), False)] * 3


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


def _dual_answers(G, answer):
    """`answer` on every character and every ordered pair of characters of
    every abelian subgroup representative, keyed by (H, coordinates)."""
    answers = {}
    for H in abelian_subgroups_up_to_conjugacy(G):
        struct = abelian_structure(H)
        chars = all_coordinates(struct)
        for group in (*((b,) for b in chars), *product(chars, repeat=2)):
            answers[H.elements, group] = answer(struct, group)
    return answers


def _memo_answer(struct, group):
    return struct.generates_dual(*group)


def _span_answer(struct, group):
    return len(character_span(struct, *group)) == struct.subgroup.order


@pytest.mark.parametrize("name", LADDER_GROUPS)
def test_dual_memo_matches_span_oracle_cold_warm_and_relabelled(name):
    base = build_group(LADDER_GROUPS[name])
    for spec in (LADDER_GROUPS[name], {"kind": "table", "mul": relabel(base.mul, 6)}):
        clear_engine_caches()
        G = build_group(spec)
        assert all(not abelian_structure(H)._kernels for H in abelian_subgroups_up_to_conjugacy(G))
        expected = _dual_answers(G, _span_answer)
        assert _dual_answers(G, _memo_answer) == expected  # cold: kernels computed and recorded
        assert _dual_answers(G, _memo_answer) == expected  # warm: read from the kernel memo
        assert_tables_bounded(G)


def _resolve(G, h, kind, label, gens):
    return stabilizer(G, h, kind).residual(h, label, gens)


def _resolved_ys(G, catalog):
    """((raw symbol, generators), Y) for every raw symbol, with Y resolved from
    its datum's explicit generators and, where the label's shape matches
    exactly one subgroup, from the shape alone (generators None)."""
    out = []
    for sym in _raw_symbols(G, catalog):
        datum = _datum(G, sym)
        label = catalog.label(sym.action)
        for gens in (datum.residual_group, None):
            try:
                y = _resolve(G, sym.h, sym.kind, label, gens)
            except ValidationError as exc:
                assert gens is None and "ambiguous" in str(exc)
                continue
            out.append(((sym, gens), y))
    return out


def test_resolved_residual_groups_agree_cold_and_warm():
    spec = {"kind": "table", "mul": relabel(TABLES["D4xC2"](), 3)}
    warm = build_group(spec)
    catalog = generated_catalog(warm)
    warm_ys = _resolved_ys(warm, catalog)
    assert warm_ys and warm_ys == _resolved_ys(warm, catalog)
    for (sym, gens), y in warm_ys:
        clear_engine_caches()
        cold = build_group(spec)
        assert not stabilizer(cold, sym.h, sym.kind).resolved
        assert _resolve(cold, sym.h, sym.kind, catalog.label(sym.action), gens) == y
        assert y == sym.y or gens is None
    assert_tables_bounded(warm, catalog)


def _shape_resolutions(G, catalog, resolve):
    """(h, kind, label id, Y or the error message) for every subgroup h of G,
    every symbol kind and every label, Y resolved from the label's shape alone."""
    out = []
    for H in all_subgroups(G):
        for kind in (KIND_CURVE, KIND_SURFACE, KIND_JAC):
            for label in catalog.labels:
                try:
                    y = resolve(G, H.elements, kind, label)
                except ValidationError as exc:
                    y = str(exc)
                out.append((H.elements, kind, label.id, y))
    return out


def _assert_shape_resolution_matches_the_lattice_scan(G, catalog):
    expected = _shape_resolutions(G, catalog, reference_resolve_residual)
    for _ in range(2):  # cold, then from the records' memos
        assert _shape_resolutions(G, catalog, lambda *a: _resolve(*a, None)) == expected
    messages = [y for *_, y in expected if isinstance(y, str)]
    assert any(m.startswith("no residual subgroup of shape") for m in messages)
    assert any(m.endswith("is ambiguous; declare residual_group explicitly") for m in messages)
    assert_tables_bounded(G, catalog)


@pytest.mark.parametrize("name", ["C4xC4", "D4xC2", "S3xS3"])
def test_shape_resolution_matches_the_lattice_scan(name):
    base = build_group(LADDER_GROUPS[name])
    for spec in (LADDER_GROUPS[name], {"kind": "table", "mul": relabel(base.mul, 11)}):
        clear_engine_caches()
        G = build_group(spec)
        _assert_shape_resolution_matches_the_lattice_scan(G, generated_catalog(G))


def test_shape_resolution_matches_the_lattice_scan_on_noncyclic_and_nonabelian_shapes():
    # S3 x S3 has subgroups C2 x C2 and S3, so both shapes resolve somewhere
    # and are ambiguous or absent elsewhere
    G = build_group(LADDER_GROUPS["S3xS3"])
    shapes = ([2, 2], {"order": 6, "abelian": False})
    catalog = catalog_with_shapes(G, shapes, spaces=("curve", "ruled_surface", "jacobian"))
    _assert_shape_resolution_matches_the_lattice_scan(G, catalog)


def test_resolve_failures_repeat_their_message_and_are_never_recorded():
    # over D4 x C2: the reflection 8 does not commute with the rotation 2, and
    # the trivial stabilizer's quotient is G itself, with several subgroups of
    # order 2 and none of order 3
    G = build_group({"kind": "table", "mul": TABLES["D4xC2"]()})
    c2 = ActionLabel("c2-C", "curve", GroupShape.abelian([2]), True, False)
    c3 = ActionLabel("c3-C", "curve", GroupShape.abelian([3]), True, False)
    cases = [
        ((0, 8), c2, (1, 2),
         "residual_group elements [2] do not centralize/normalize the stabilizer (0, 8)"),
        ((0,), c3, None, "no residual subgroup of shape C3 exists for stabilizer (0,)"),
        ((0,), c2, None,
         "residual group for label 'c2-C' over stabilizer (0,) is ambiguous; declare residual_group explicitly"),
    ]
    for h, label, gens, message in cases:
        record = stabilizer(G, h, KIND_CURVE)
        before = dict(record.resolved)
        for _ in range(3):
            with pytest.raises(ValidationError) as exc:
                record.residual(h, label, gens)
            assert str(exc.value) == message
        assert record.resolved == before


def _lattice_runs(monkeypatch, name, make_catalog):
    """(G, the tables of the groups whose subgroup lattice a structure pass
    over G and the catalog built, in build order)."""
    catalog = make_catalog(build_group(LADDER_GROUPS[name]))
    clear_engine_caches()
    G = build_group(LADDER_GROUPS[name])
    runs = []
    real = burnloc.groups.subgroups_within

    def counting(group):
        runs.append(group.mul)
        return real(group)

    monkeypatch.setattr(burnloc.groups, "subgroups_within", counting)
    structure(G, catalog)
    return G, runs


@pytest.mark.parametrize("name", ["C2xC2xC4", "D6xC2"])
def test_a_pass_on_a_generated_catalog_builds_only_the_lattice_of_g(name, monkeypatch):
    # every label shape of a generated catalog is trivial or cyclic, so the Y
    # options are read off the carrier quotients' cyclic subgroups and no
    # quotient lattice is built
    G, runs = _lattice_runs(monkeypatch, name, generated_catalog)
    assert len(G.carriers) > 1 and runs == [G.mul]


@pytest.mark.parametrize("name", ["C2xC2xC4", "D6xC2"])
def test_one_lattice_per_distinct_quotient_table(name, monkeypatch):
    # a [2, 2] label takes the lattice path; carrier quotients with equal
    # tables share one interned group, G itself for the quotients by the
    # trivial subgroup, so the pass builds one lattice per distinct table
    G, runs = _lattice_runs(monkeypatch, name, lambda G: catalog_with_shapes(G, [[2, 2]]))
    tables = {G.mul} | {record.quotient.group.mul for record in G.carriers.values()}
    assert len(G.carriers) > len(tables) and len(runs) == len(tables)
    assert set(runs) == tables


def test_a_group_and_its_tables_are_freed_with_it():
    G = build_group(LADDER_GROUPS["D6xC2"])
    catalog = generated_catalog(G)
    structure(G, catalog)
    relation_lattice(G, catalog)
    mul = G.mul
    del G
    subgroups_up_to_conjugacy.cache_clear()
    gc.collect()
    assert not [obj for obj in gc.get_objects() if isinstance(obj, FiniteGroup) and obj.mul == mul]
    cached = {
        value for module_name, module in list(sys.modules.items())
        if module is not None and module_name.split(".")[0] == "burnloc"
        for value in vars(module).values() if callable(value) and hasattr(value, "cache_info")
    }
    assert cached == {subgroups_up_to_conjugacy}


def test_a_pass_over_an_equal_group_keeps_its_facts_off_the_first_group():
    # subgroups_up_to_conjugacy's cache keys by table equality, so over G2 it
    # hands back G1's subgroups; B3 shapes and displays them in G2
    catalog = generated_catalog(build_group(LADDER_GROUPS["D6xC2"]))
    clear_engine_caches()
    G1 = build_group(LADDER_GROUPS["D6xC2"])
    subgroups_up_to_conjugacy(G1)
    tables = ("_checked", "_classes", "_interned", "structures", "shapes", "carriers", "frames")
    before = {name: set(getattr(G1, name)) for name in tables}
    G2 = build_group(LADDER_GROUPS["D6xC2"])
    structure(G2, catalog)
    assert G2 == G1 and G2.structures and G2.shapes
    assert {name: set(getattr(G1, name)) for name in tables} == before


# relabelled, so that no table below is read in the order the elements were built
KEPT_TABLE_GROUPS = {
    "D4xC2": lambda: relabel(TABLES["D4xC2"](), "D4xC2"),
    "S3xS3": lambda: relabel(TABLES["S3xS3"](), "S3xS3"),
    "D32": lambda: relabel(dihedral_table(32), "D32"),
}


@pytest.mark.parametrize("name", KEPT_TABLE_GROUPS)
def test_transported_characters_match_the_reference_first_and_kept(name):
    G = build_group({"kind": "table", "mul": KEPT_TABLE_GROUPS[name]()})
    for H in all_subgroups(G):
        if not H.is_abelian():
            continue
        struct = abelian_structure(H)
        chars = all_coordinates(struct)
        for g in G.elements():
            target = abelian_structure(H.conjugate(g))
            for b in chars:
                moved = transport_character(g, struct, b)
                assert moved == reference_transport_character(g, struct, b)
                assert transport_character(g, struct, b) is moved  # read from the structure's table
                assert transport_character(g, struct, list(b)) is moved
                assert transport_character(G.inv(g), target, moved) == b
        assert set(struct._characters) == set(product(G.elements(), chars))
    assert_tables_bounded(G)


def test_a_refused_transport_is_raised_on_every_call_and_never_kept():
    G = build_group({"kind": "cyclic", "n": 4})
    struct = abelian_structure(full_subgroup(G))
    # a transport matrix that gives the basis element of C2 the value 1/4
    struct._transport[1] = (abelian_structure(Subgroup(G, (0, 2))), ((1,),))
    for _ in range(2):
        with pytest.raises(ValidationError, match="values do not define a character"):
            transport_character(1, struct, (1,))
    assert struct._characters == {}


def _scanned_preimage(Q, cosets):
    wanted = set(cosets)
    return tuple(sorted(x for x, c in Q.coset_of.items() if c in wanted))


@pytest.mark.parametrize("name", KEPT_TABLE_GROUPS)
def test_preimage_reads_the_kept_cosets_like_the_element_scan(name):
    # every subgroup Y of every carrier quotient, as given, unsorted and repeated,
    # and mixed with indices that name no coset, which `FilterSpec.admits` may pass
    G = build_group({"kind": "table", "mul": KEPT_TABLE_GROUPS[name]()})
    rng = random.Random(name)
    for H in all_subgroups(G):
        for kind in (KIND_CURVE, KIND_JAC):
            try:
                Q = carrier_quotient(G, H.elements, kind)
            except ValidationError:
                continue  # no centralizer quotient over a nonabelian h
            k = Q.group.order
            for Y in all_subgroups(Q.group):
                shuffled = list(Y.elements) * 2 + [-1, k, k + 3]
                rng.shuffle(shuffled)
                for cosets in (Y.elements, shuffled, [k], ()):
                    expected = _scanned_preimage(Q, cosets)
                    assert Q.preimage(cosets) == expected and Q.preimage(iter(cosets)) == expected
    assert_tables_bounded(G)


def _scanned_jacobian_rule(catalog, curve_label):
    return next((rule for rule in catalog.jacobian_rules if rule.source == curve_label), None)


def _scanned_induce_rule(catalog, h_factors, curve_label, pattern):
    return next((rule for rule in catalog.induce_rules
                 if (rule.h_factors, rule.curve_label, rule.weights) == (h_factors, curve_label, pattern)), None)


def _generated_catalog(spec):
    return generated_catalog(build_group(spec))


RULE_CATALOGS = {
    **{name: partial(fixture_catalog, name) for name in catalog_names()},
    "generated-C12": partial(_generated_catalog, {"kind": "cyclic", "n": 12}),
    "generated-D4xC2": partial(_generated_catalog, {"kind": "table", "mul": TABLES["D4xC2"]()}),
    "generated-C2^6": partial(_generated_catalog, {"kind": "abelian", "factors": [2] * 6}),
}


@pytest.mark.parametrize("name", RULE_CATALOGS)
def test_rule_lookups_match_a_scan_of_the_rule_lists(name):
    # every key a rule declares, and keys next to them that none declares
    catalog = RULE_CATALOGS[name]()
    labels = sorted({lab.id for lab in catalog.labels} | {"no-such-label"})
    for curve_label in labels:
        rule = _scanned_jacobian_rule(catalog, curve_label)
        if rule is not None:
            assert catalog.jacobian_of_curve_action(curve_label) is rule
            continue
        with pytest.raises(CatalogIncompleteError) as refused:
            catalog.jacobian_of_curve_action(curve_label)
        assert str(refused.value) == f"catalog incomplete: missing JacobianOfCurveRule(curve_label={curve_label})"
    shapes = {rule.h_factors for rule in catalog.induce_rules} | {(5,), (2, 2)}
    diff_orders = {1, 7} | {rule.weights for rule in catalog.induce_rules if rule.weights != "equal"}
    for h_factors, curve_label, diff_order in product(sorted(shapes), labels, sorted(diff_orders)):
        pattern = "equal" if diff_order == 1 else diff_order
        rule = _scanned_induce_rule(catalog, h_factors, curve_label, pattern)
        if rule is not None:
            assert catalog.induced_surface_action(h_factors, curve_label, diff_order) is rule
            assert catalog.induced_surface_action(list(h_factors), curve_label, diff_order) is rule
            continue
        with pytest.raises(CatalogIncompleteError) as refused:
            catalog.induced_surface_action(h_factors, curve_label, diff_order)
        weights = "equal" if diff_order == 1 else f"diff_order={diff_order}"
        assert str(refused.value) == (f"catalog incomplete: missing InduceRule(curve_label={curve_label}, "
                                      f"h={shape_name(h_factors)}, weights={weights})")
