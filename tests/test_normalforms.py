import random

import pytest
from hypothesis import given, settings, strategies as st

from burnloc.errors import ValidationError
from burnloc.normalforms import (
    IntegerLattice,
    cokernel_structure,
    divisor_chain,
    hermite_normal_form,
    smith_normal_form,
)
from burnloc.groups import build_group
from burnloc.relations import RelationLattice, classes_equal, generate_relations, relation_lattice
from burnloc.symbols import BurnsideClass, Symbol, enumerate_symbols
from oracles import (
    SquareLatticeOracle,
    dense_coefficients,
    dense_contains,
    dense_hermite_normal_form,
    dense_reduce,
    dense_smith_diagonal,
    det_int,
    enumerate_cosets,
    exhaustive_member,
    kernel_basis,
    quotient_invariant_factors,
    rational_rank,
    rational_rank_oracle,
)
from scenarios import LADDER_GROUPS, generated_catalog, relabel


def test_snf_identity():
    assert smith_normal_form([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3) == (1, 1, 1)


def test_snf_diag_2_3():
    assert smith_normal_form([(2, 0), (0, 3)], 2) == (1, 6)
    assert smith_normal_form([{0: 3, 1: 6}], 2) == (3,)


def test_snf_zero_and_empty():
    assert smith_normal_form([(0, 0), (0, 0)], 2) == ()
    assert smith_normal_form([], 2) == ()
    assert smith_normal_form([], 0) == ()
    assert smith_normal_form([(), ()], 0) == ()
    assert smith_normal_form([(2, 0), (2, 0), (0, 0)], 2) == (2,)
    assert smith_normal_form([(1, 1), (1, 1)], 2) == (1,)


def _sparse_relation_matrix(rng, units=True):
    """A matrix shaped like a relation matrix: 10-80 rows, 15-120 columns,
    1-4 nonzeros per row, entries mostly +-1 (none with `units=False`) and
    some +-2/+-3, with the odd zero row and repeated row."""
    nrows, ncols = rng.randint(10, 80), rng.randint(15, 120)
    values = [1, -1] * 4 + [2, -2, 3, -3] if units else [2, -2, 3, -3]
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if roll < 0.05:
            rows.append((0,) * ncols)
        elif roll < 0.1 and rows:
            rows.append(rng.choice(rows))
        else:
            row = [0] * ncols
            for j in rng.sample(range(ncols), rng.randint(1, 4)):
                row[j] = rng.choice(values)
            rows.append(tuple(row))
    return rows, ncols


def _as_dicts(rows):
    """The dense rows as {column: entry} dicts that keep their zero entries
    at odd columns, which a row read as a dict must drop."""
    return [{j: x for j, x in enumerate(row) if x or j % 2} for row in rows]


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_snf_matches_dense_oracle_on_sparse_matrices(seed):
    rows, ncols = _sparse_relation_matrix(random.Random(seed))
    expected = dense_smith_diagonal(rows, ncols)
    assert smith_normal_form(rows, ncols) == smith_normal_form(_as_dicts(rows), ncols) == expected


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_snf_without_unit_entries_is_the_dense_form(seed):
    rows, ncols = _sparse_relation_matrix(random.Random(seed), units=False)
    expected = dense_smith_diagonal(rows, ncols)
    assert smith_normal_form(rows, ncols) == smith_normal_form(_as_dicts(rows), ncols) == expected


def test_snf_full_unit_elimination_leaves_no_residual():
    # upper unitriangular with a repeated and a zero row: the first Hermite
    # form has only unit pivots, and the dependent rows reduce to nothing
    rows = [(1, 2, -1, 0), (0, -1, 3, 1), (0, 0, 1, -2), (0, -1, 3, 1), (0, 0, 0, 0)]
    assert smith_normal_form(rows, 4) == (1, 1, 1) == dense_smith_diagonal(rows, 4)


def test_snf_hermite_input_needs_a_column_round():
    # already in Hermite form with no unit pivot: the factor 1 only shows once
    # the columns are put in Hermite form too
    assert smith_normal_form([(2, 1), (0, 2)], 2) == (1, 4)
    assert smith_normal_form([(2, 1, 0), (0, 2, 1), (0, 0, 2)], 3) == (1, 1, 8)


def test_snf_diagonal_needs_gcd_lcm():
    # a diagonal is its own Hermite form either way; only gcd/lcm makes d1 | d2
    assert smith_normal_form([(4, 0), (0, 6)], 2) == (2, 12)
    assert smith_normal_form([(9, 0, 0), (0, 6, 0), (0, 0, 4)], 3) == (1, 6, 36)


def test_divisor_chain_keeps_the_length_and_the_group():
    # (12, 1, 8, 6) is Z/4 x Z/3 x Z/8 x Z/2 x Z/3, that is Z/2 x Z/12 x Z/24
    assert divisor_chain((12, 1, 8, 6)) == (1, 2, 12, 24)
    assert divisor_chain((2, 3, 1)) == (1, 1, 6)
    assert divisor_chain(iter((6, 4))) == (2, 12)
    assert divisor_chain(()) == ()


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_snf_matches_dense_oracle_on_dense_matrices(seed):
    # dense, up to 7x7, entries up to +-60: several column rounds and large
    # gcd steps, where relation-shaped rows mostly split off units at once
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
    rows = [tuple(rng.randint(-60, 60) for _ in range(ncols)) for _ in range(nrows)]
    expected = dense_smith_diagonal(rows, ncols)
    assert smith_normal_form(rows, ncols) == smith_normal_form(_as_dicts(rows), ncols) == expected


def test_snf_rejects_wrong_row_length():
    # a dense row of another length, or a dict row with a column outside 0..ncols-1,
    # is refused by every route that reads rows
    cases = [([(1, 0), (1,)], 2, "vector has the wrong length"), ([(1,)], 0, "vector has the wrong length")]
    cases += [(rows, ncols, "vector has a column outside the lattice")
              for rows, ncols in (([{2: 1}], 2), ([{-1: 1}], 2), ([{1: 5}], 1))]
    for rows, ncols, message in cases:
        for normal_form in (smith_normal_form, cokernel_structure, hermite_normal_form, IntegerLattice.from_rows):
            with pytest.raises(ValueError, match=message):
                normal_form(rows, ncols)


def test_hnf_known_value():
    assert hermite_normal_form([(1, 2), (3, 4)], 2) == [(1, 0), (0, 2)]


def test_hnf_drops_dependent_rows():
    assert hermite_normal_form([(2, 4), (1, 2), (3, 6)], 2) == [(1, 2)]


def test_hnf_pivot_reduction_shape():
    H = hermite_normal_form([(4, 1, 0), (0, 3, 1), (0, 0, 5)], 3)
    pivots = [next(j for j, x in enumerate(row) if x) for row in H]
    assert pivots == sorted(pivots)
    for i, row in enumerate(H):
        p = pivots[i]
        assert row[p] > 0
        for k in range(i):
            assert 0 <= H[k][p] < row[p]


def _matrix_with_dependencies(rng):
    """Up to 6 random rows of 1-6 columns, entries in [-6, 6], plus zero rows,
    repeated rows and integer combinations of two rows, shuffled."""
    ncols = rng.randint(1, 6)
    rows = [tuple(rng.randint(-6, 6) for _ in range(ncols)) for _ in range(rng.randint(0, 6))]
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        if roll < 0.3 or not rows:
            rows.append((0,) * ncols)
        elif roll < 0.6:
            rows.append(rng.choice(rows))
        else:
            a, b = rng.choice(rows), rng.choice(rows)
            p, q = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append(tuple(p * x + q * y for x, y in zip(a, b)))
    rng.shuffle(rows)
    return rows, ncols


def _times(coeffs, rows, ncols):
    return tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols))


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_insertion_hnf_matches_the_dense_elimination(seed):
    rng = random.Random(seed)
    rows, ncols = _matrix_with_dependencies(rng) if seed % 2 else _sparse_relation_matrix(rng)
    expected = dense_hermite_normal_form(rows, ncols)
    lat = IntegerLattice.from_rows(rows, ncols)
    assert list(lat.basis) == hermite_normal_form(rows, ncols) == expected
    assert lat == IntegerLattice.from_rows(_as_dicts(rows), ncols)
    assert hermite_normal_form(_as_dicts(rows), ncols) == expected
    assert lat.rank == len(expected)
    # a transform is not unique when rows are dependent; the oracle's must rebuild the basis
    H, U = dense_hermite_normal_form(rows, ncols, with_transform=True)
    assert H == expected
    assert [_times(u, rows, ncols) for u in U] == expected


@pytest.mark.parametrize("name", LADDER_GROUPS)
def test_relation_lattice_hnf_matches_the_dense_elimination_on_every_ladder_rung(name):
    G = build_group({"kind": "table", "mul": relabel(build_group(LADDER_GROUPS[name]).mul, 7)})
    catalog = generated_catalog(G)
    symbols = enumerate_symbols(G, catalog)
    vectors = [r.vector for r in generate_relations(G, catalog)]
    rows = [tuple(v.coefficient(s) for s in symbols) for v in vectors]
    lattice = RelationLattice(symbols, vectors)
    assert list(lattice.basis) == dense_hermite_normal_form(rows, len(symbols))
    assert lattice.basis == relation_lattice(G, catalog).basis


def test_lattice_builds_no_dense_rows_until_read():
    # a lattice is its sparse pivot rows; the dense basis is read off them on request
    lat = IntegerLattice.from_rows([(2, 1, 0), (0, 4, 1), (2, 5, 1)], 3)
    assert lat == (3, (0, 1), (((0, 2), (1, 1)), ((1, 4), (2, 1)), None))
    assert lat.contains((2, 5, 1)) and lat.reduce((3, 0, 0)) == (1, 3, 1)
    assert lat.basis == ((2, 1, 0), (0, 4, 1))
    assert IntegerLattice.from_rows([{0: 1, 1: 2}], 2).basis == ((1, 2),)


def test_cokernel_structure_examples():
    assert cokernel_structure([(2, 0), (0, 3)], 2) == (0, (6,))
    assert cokernel_structure([(2, 0)], 2) == (1, (2,))
    assert cokernel_structure([], 3) == (3, ())


def test_lattice_membership_and_reduce():
    lat = IntegerLattice.from_rows([(2, 0), (0, 3)], 2)
    assert lat.contains((2, 3))
    assert not lat.contains((1, 0))
    assert lat.reduce((5, 7)) == (1, 1)
    assert lat.reduce(lat.reduce((5, 7))) == (1, 1)


def test_lattice_coefficients_certificate():
    rows = [(2, 1, 0), (0, 4, 1)]
    lat = IntegerLattice.from_rows(rows, 3)
    vec = (6, -17, -5)  # 3*rows[0] - 5*rows[1]
    assert lat.contains(vec)
    coeffs = dense_coefficients(rows, 3, vec)
    assert coeffs is not None
    rebuilt = tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(3))
    assert rebuilt == vec
    assert not lat.contains((1, 0, 0))
    assert dense_coefficients(rows, 3, (1, 0, 0)) is None


def test_lattice_coefficients_on_rank_zero_lattice():
    # one coefficient per spanning row even when no HNF row is left
    for rows in ([(0, 0), (0, 0)], [], [(0, 0)]):
        lat = IntegerLattice.from_rows(rows, 2)
        assert lat.rank == 0 and lat.contains((0, 0)) and not lat.contains((1, 0))
        assert dense_coefficients(rows, 2, (0, 0)) == (0,) * len(rows)
        assert dense_coefficients(rows, 2, (1, 0)) is None


def _lattice_queries(rng, rows, lat):
    """Random query vectors, half of them lattice members built as random
    combinations of the spanning rows; the others are sparse vectors, half of
    them put off a member by a unit on a pivot column."""
    ncols = lat.ncols
    queries = []
    for k in range(12):
        member = [0] * ncols
        for row in rng.sample(rows, min(len(rows), rng.randint(1, 4))):
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            member = [x + c * y for x, y in zip(member, row)]
        if k % 2 == 0:
            queries.append((tuple(member), True))
            continue
        vec = [0] * ncols if k % 4 == 1 else member
        columns = lat.pivots if lat.pivots and rng.random() < 0.5 else range(ncols)
        for j in rng.sample(columns, min(len(columns), rng.randint(1, 3))):
            vec[j] += rng.choice([-2, -1, 1, 2])
        queries.append((tuple(vec), None))
    return queries


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_sparse_reduction_matches_the_dense_reference(seed):
    rng = random.Random(seed)
    rows, ncols = _sparse_relation_matrix(rng)
    lat = IntegerLattice.from_rows(rows, ncols)
    for vec, member in _lattice_queries(rng, rows, lat):
        found = lat.contains(vec)
        assert found == dense_contains(lat, vec)
        assert member is None or found == member
        assert lat.reduce(vec) == dense_reduce(lat, vec)
        # a vector contains accepts is a combination of the rows, and only such a vector
        coeffs = dense_coefficients(rows, ncols, vec)
        assert (coeffs is not None) == found
        assert coeffs is None or _times(coeffs, rows, ncols) == vec
        # the same queries on {column: entry} vectors
        sparse = {j: x for j, x in enumerate(vec) if x}
        assert lat.contains(sparse) == found
        assert lat.reduce(sparse) == dense_reduce(lat, vec)


def test_sparse_rows_are_the_basis_rows_by_pivot():
    rows, ncols = _sparse_relation_matrix(random.Random(3))
    lat = IntegerLattice.from_rows(rows, ncols)
    for j, sparse in enumerate(lat.pivot_rows):
        if j in lat.pivots:
            dense = lat.basis[lat.pivots.index(j)]
            assert sparse == tuple((c, x) for c, x in enumerate(dense) if x)
            assert sparse[0] == (j, dense[j])
        else:
            assert sparse is None


def test_lattice_queries_reject_the_wrong_length():
    lat = IntegerLattice.from_rows([(2, 0), (0, 3)], 2)
    for query in (lat.contains, lat.reduce):
        for vec in ((1,), (1, 0, 0)):
            with pytest.raises(ValueError, match="vector has the wrong length"):
                query(vec)
        for vec in ({2: 1}, {-1: 1}):
            with pytest.raises(ValueError, match="vector has a column outside the lattice"):
                query(vec)


def test_relation_lattice_rejects_a_symbol_outside_its_index(z2, hyper_cat):
    lattice = relation_lattice(z2, hyper_cat)
    stray = Symbol("jac", (0,), (0,), "no-such-label")
    for query in (lattice.contains, lattice.reduce, lambda a: classes_equal(a, BurnsideClass.zero(), lattice),
                  lambda a: classes_equal(BurnsideClass.zero(), a, lattice)):
        with pytest.raises(ValidationError) as exc:
            query(BurnsideClass.of(stray))
        assert str(exc.value) == f"symbol outside index: {stray}"
    # equality refuses only a stray symbol that does not cancel in a - b
    inside = BurnsideClass.of(lattice.index[0])
    assert classes_equal(inside + BurnsideClass.of(stray), BurnsideClass.of(stray), lattice) == lattice.contains(inside)


def test_kernel_basis_simple():
    assert kernel_basis([(2,), (3,)], 1) == [(3, -2)]
    assert kernel_basis([(1, 0), (0, 1)], 2) == []


def _random_unimodular_ops(rng, rows, ncols):
    rows = [list(r) for r in rows]
    for _ in range(12):
        move = rng.randrange(3)
        if len(rows) < 2:
            break
        i, j = rng.sample(range(len(rows)), 2)
        if move == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif move == 1:
            rows[i] = [-x for x in rows[i]]
        else:
            q = rng.randint(-3, 3)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    for _ in range(12):
        move = rng.randrange(3)
        i, j = rng.sample(range(ncols), 2) if ncols >= 2 else (0, 0)
        if move == 0:
            for r in rows:
                r[i], r[j] = r[j], r[i]
        elif move == 1:
            for r in rows:
                r[i] = -r[i]
        else:
            q = rng.randint(-3, 3)
            for r in rows:
                r[i] += q * r[j]
    return [tuple(r) for r in rows]


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_snf_invariant_under_unimodular_ops(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 4), rng.randint(2, 5)
    rows = [tuple(rng.randint(-6, 6) for _ in range(ncols)) for _ in range(nrows)]
    scrambled = _random_unimodular_ops(rng, rows, ncols)
    assert smith_normal_form(rows, ncols) == smith_normal_form(scrambled, ncols)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_reduce_is_coset_invariant(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 4), rng.randint(2, 5)
    rows = [tuple(rng.randint(-5, 5) for _ in range(ncols)) for _ in range(nrows)]
    lat = IntegerLattice.from_rows(rows, ncols)
    vec = [rng.randint(-8, 8) for _ in range(ncols)]
    reduced = lat.reduce(vec)
    assert lat.reduce(reduced) == reduced
    for row in lat.basis:
        shifted = [v + r for v, r in zip(vec, row)]
        assert lat.reduce(shifted) == reduced
    assert lat.contains([v - r for v, r in zip(vec, reduced)])


def test_random_5x5_structures_match_coset_enumeration():
    # oracle: adjugate-based coset enumeration plus p-torsion counting
    rng = random.Random(20250810)
    done = 0
    attempts = 0
    while done < 25 and attempts < 4000:
        attempts += 1
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)]
        det = det_int([list(r) for r in rows])
        if det == 0 or abs(det) > 200:
            continue
        oracle = SquareLatticeOracle(rows)
        reps = enumerate_cosets(oracle)
        assert len(reps) == abs(det)
        free_rank, torsion = cokernel_structure(rows, n)
        assert free_rank == 0
        expected = tuple(d for d in quotient_invariant_factors(oracle, reps) if d > 1)
        assert torsion == expected
        done += 1
    assert done == 25


def test_membership_matches_exhaustive_search():
    rng = random.Random(99)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        rows = [tuple(rng.randint(-5, 5) for _ in range(ncols)) for _ in range(nrows)]
        lat = IntegerLattice.from_rows(rows, ncols)
        queries = [tuple(rng.randint(-4, 4) for _ in range(ncols)) for _ in range(4)]
        queries += [
            tuple(sum(rng.randint(-2, 2) * r[j] for r in rows) for j in range(ncols))
            for _ in range(2)
        ]
        for vec in queries:
            if exhaustive_member(rows, vec, bound=3):
                assert lat.contains(vec)
            if lat.contains(vec):
                coeffs = dense_coefficients(rows, ncols, vec)
                assert len(coeffs) == len(rows)
                rebuilt = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)]
                assert tuple(rebuilt) == tuple(vec)


def test_rational_rank_matches_oracle():
    rng = random.Random(7)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = [tuple(rng.randint(-5, 5) for _ in range(ncols)) for _ in range(nrows)]
        assert rational_rank(rows, ncols) == rational_rank_oracle(rows, ncols)
