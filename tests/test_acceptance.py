"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they pass.
All comparisons are exact; the only tolerances are the stated runtime budgets.
"""

import random
import time

from burnloc.fixtures import fixture_catalog, fixture_center, fixture_model
from burnloc.groups import build_group
from burnloc.models import verdict, verify_blowup_invariance
from burnloc.normalforms import IntegerLattice, cokernel_structure
from burnloc.relations import (
    FilterSpec,
    filtered_structure,
    generate_relations,
    phi_G,
    relation_lattice,
    structure,
    structure_from,
)
from burnloc.symbols import BurnsideClass, enumerate_symbols, text_form

from oracles import (
    SquareLatticeOracle,
    dense_coefficients,
    det_int,
    enumerate_cosets,
    exhaustive_member,
    filtered_relation_vectors,
    kernel_basis,
    quotient_invariant_factors,
    rational_rank_oracle,
)
from scenarios import ScenarioPool, clear_engine_caches, run_scenarios

INVOLUTION_FORMS = [
    "curve[H=C2{0,1};Y=1{0};act=triv-C;w=(1),(1)]",      # s1
    "surface[H=C2{0,1};Y=1{0};act=triv-CxP1;w=(1)]",     # s2
    "jac[H=1{0};Y=1{0};act=triv-J]",                     # s5
    "jac[H=1{0};Y=C2{0,1};act=inv-J]",                   # s4
    "jac[H=C2{0,1};Y=1{0};act=triv-J]",                  # s3
]


def involution_symbols():
    G = build_group({"kind": "cyclic", "n": 2})
    catalog = fixture_catalog("hyperelliptic-Z2")
    forms = {text_form(s, G): s for s in enumerate_symbols(G, catalog)}
    s1 = forms[INVOLUTION_FORMS[0]]
    s2 = forms[INVOLUTION_FORMS[1]]
    s5 = forms[INVOLUTION_FORMS[2]]
    s4 = forms[INVOLUTION_FORMS[3]]
    s3 = forms[INVOLUTION_FORMS[4]]
    return G, catalog, (s1, s2, s3, s4, s5)


def test_criterion_1_involution_group_structure():
    clear_engine_caches()
    t0 = time.monotonic()
    G = build_group({"kind": "cyclic", "n": 2})
    catalog = fixture_catalog("hyperelliptic-Z2")
    symbols = enumerate_symbols(G, catalog)
    relations = generate_relations(G, catalog)
    result = structure(G, catalog)
    elapsed = time.monotonic() - t0

    assert sorted(text_form(s, G) for s in symbols) == sorted(INVOLUTION_FORMS)
    _, _, (s1, s2, s3, s4, s5) = involution_symbols()
    expected_vectors = {
        BurnsideClass.of(s1) + BurnsideClass.of(s3),
        BurnsideClass.of(s1) - BurnsideClass.of(s2) - BurnsideClass.of(s3),
        BurnsideClass.of(s4),
        BurnsideClass.of(s5),
    }
    assert {r.vector for r in relations} == expected_vectors
    index = {s: i for i, s in enumerate(symbols)}
    generated = IntegerLattice.from_rows([r.vector.columns(index) for r in relations], 5)
    expected = IntegerLattice.from_rows([v.columns(index) for v in expected_vectors], 5)
    assert generated.basis == expected.basis
    assert result.free_rank == 1 and result.torsion == ()
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - 5 symbols, relation lattice exact, structure Z ({elapsed:.3f}s < 1s)")


def test_criterion_2_phi_correctness():
    G, catalog, (s1, s2, s3, s4, s5) = involution_symbols()
    assert phi_G(BurnsideClass.of(s1), G, catalog) == -1
    assert phi_G(BurnsideClass.of(s2), G, catalog) == -2
    assert phi_G(BurnsideClass.of(s3), G, catalog) == 1
    f = FilterSpec.max_stabilizer(G)
    filtered = filtered_relation_vectors(G, catalog, f)
    assert filtered and all(phi_G(v, G, catalog) == 0 for v in filtered)
    # isomorphism onto Z: the filtered quotient is Z and ker(phi) equals the
    # filtered relation lattice exactly
    assert filtered_structure(G, catalog, f).to_json() == {"free_rank": 1, "torsion": []}
    admitted = [s1, s2, s3]
    index = {s: i for i, s in enumerate(admitted)}
    rel_lattice = IntegerLattice.from_rows([v.columns(index) for v in filtered], 3)
    ker_lattice = IntegerLattice.from_rows(kernel_basis([(-1,), (-2,), (1,)], 1), 3)
    assert rel_lattice.basis == ker_lattice.basis
    assert phi_G(-BurnsideClass.of(s1), G, catalog) == 1  # surjective
    print("ACCEPTANCE 2: PASS - phi values (-1,-2,+1), kills relations, isomorphism onto Z")


def test_criterion_3_nonhyperelliptic_freeness():
    G = build_group({"kind": "cyclic", "n": 2})
    catalog = fixture_catalog("nonhyperelliptic-Z2-exotic")
    result = structure(G, catalog)
    assert result.free_rank == 2 and result.torsion == ()
    symbols = enumerate_symbols(G, catalog)
    forms = {text_form(s, G): s for s in symbols}
    s1 = forms["curve[H=C2{0,1};Y=1{0};act=triv-C;w=(1),(1)]"]
    exotic = forms["jac[H=1{0};Y=C2{0,1};act=exotic-inv-J]"]
    # the two survivors generate: adding them to the relations kills the group
    vectors = [r.vector for r in generate_relations(G, catalog)]
    vectors += [BurnsideClass.of(s1), BurnsideClass.of(exotic)]
    assert structure_from(symbols, vectors).is_trivial()
    print("ACCEPTANCE 3: PASS - free of rank 2 on s1 and the exotic jacobian symbol")


def test_criterion_4_elliptic_vanishing():
    G = build_group({"kind": "cyclic", "n": 2})
    catalog = fixture_catalog("elliptic-Z2")
    assert structure(G, catalog).is_trivial()
    lattice = relation_lattice(G, catalog)
    for sym in lattice.index:
        assert lattice.reduce(BurnsideClass.of(sym)).is_zero()
    m1 = fixture_model("elliptic-fixed-curve")
    m0 = fixture_model("elliptic-empty")
    scenarios = [("elliptic-bullet1", m1)] + [(f"elliptic-bullet{i}", m0) for i in range(2, 6)]
    for cname, m in scenarios:
        assert verify_blowup_invariance(m, fixture_center(cname), lattice)
    print("ACCEPTANCE 4: PASS - trivial group, all five blow-up scenarios verify, symbols vanish")


def test_criterion_5_verdict_reproduction():
    expected = {
        "sxp1-involution": -2,
        "three-nodal-cubic": 1,
        "dp6-fibration": -1,
        "quadric-bundle": -1,
    }
    for name, value in expected.items():
        report = verdict(fixture_model(name))
        assert report.invariant == value, name
        assert report.obstructed and report.verdict.startswith("OBSTRUCTED"), name
        assert report.consistent and report.phi == value, name
    quadric = verdict(fixture_model("quadric-bundle"))
    assert quadric.counts[0] >= 1 and quadric.counts[1] == quadric.counts[2] == 0
    print("ACCEPTANCE 5: PASS - verdicts I=-2,+1,-1 and quadric I!=0, all OBSTRUCTED with I=phi")


def test_criterion_6_blowup_invariance_property_suite():
    t0 = time.monotonic()
    fixtures = [
        ("hyperelliptic-Z2", 2),
        ("nonhyperelliptic-Z2-exotic", 2),
        ("elliptic-Z2", 2),
        ("Z3-basic", 3),
    ]
    total = 0
    mutation_runs: dict[str, int] = {}
    mutation_failures: dict[str, int] = {}
    for name, n in fixtures:
        G = build_group({"kind": "cyclic", "n": n})
        catalog = fixture_catalog(name)
        pool = ScenarioPool(G, catalog)
        lattice = relation_lattice(G, catalog)
        rng = random.Random(20250810 + n)
        results, runs, failures = run_scenarios(rng, pool, lattice, 500)
        assert all(results), f"invariance failed on {name}"
        total += len(results)
        for k, v in runs.items():
            mutation_runs[k] = mutation_runs.get(k, 0) + v
        for k, v in failures.items():
            mutation_failures[k] = mutation_failures.get(k, 0) + v
    assert total >= 2000
    # dropping any single appended term is detected somewhere: every category
    # of appended term that can break an identity has at least one failure
    for tag in ("drop-case2-curve", "drop-case2-jac", "drop-case3-theta1",
                "drop-case3-theta2", "drop-case3-jac"):
        assert mutation_runs.get(tag, 0) > 0, tag
        assert mutation_failures.get(tag, 0) > 0, tag
    assert sum(mutation_failures.values()) > 0
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 6: PASS - {total} scenarios hold, mutations detected "
          f"({sum(mutation_failures.values())} failures) ({elapsed:.1f}s < 60s)")


def test_criterion_7_exact_linear_algebra_oracle():
    t0 = time.monotonic()
    rng = random.Random(271828)
    matrices = 0
    structure_comparisons = 0
    membership_checks = 0
    while matrices < 1000:
        matrices += 1
        if rng.random() < 0.5:
            n = rng.randint(1, 4)
            nrows = ncols = n
        else:
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
        rows = [tuple(rng.randint(-9, 9) for _ in range(ncols)) for _ in range(nrows)]
        free_rank, torsion = cokernel_structure(rows, ncols)
        assert free_rank == ncols - rational_rank_oracle(rows, ncols)
        if nrows == ncols:
            det = det_int([list(r) for r in rows])
            if det != 0 and abs(det) <= 200:
                oracle = SquareLatticeOracle(rows)
                reps = enumerate_cosets(oracle)
                assert len(reps) == abs(det)
                assert free_rank == 0
                expected = tuple(d for d in quotient_invariant_factors(oracle, reps) if d > 1)
                assert torsion == expected
                structure_comparisons += 1
        lat = IntegerLattice.from_rows(rows, ncols)
        queries = [tuple(rng.randint(-3, 3) for _ in range(ncols)) for _ in range(2)]
        queries.append(tuple(
            sum(rng.randint(-2, 2) * r[j] for r in rows) for j in range(ncols)
        ))
        for vec in queries:
            membership_checks += 1
            if exhaustive_member(rows, vec, bound=3):
                assert lat.contains(vec)
            if lat.contains(vec):
                coeffs = dense_coefficients(rows, ncols, vec)
                assert len(coeffs) == len(rows)
                rebuilt = tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols))
                assert rebuilt == tuple(vec)
    assert structure_comparisons >= 150
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 7: PASS - {matrices} matrices, {structure_comparisons} coset-enumeration "
          f"structure checks, {membership_checks} membership cross-checks ({elapsed:.1f}s < 60s)")
