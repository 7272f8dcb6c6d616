from itertools import combinations

import pytest

import burnloc.groups
from burnloc.abelian import abelian_structure
from burnloc.errors import ValidationError
from burnloc.groups import (
    Subgroup,
    abelian_subgroups_up_to_conjugacy,
    all_subgroups,
    build_group,
    centralizer,
    full_subgroup,
    normalizer,
    quotient,
    subgroups_up_to_conjugacy,
    subgroups_within,
)
from oracles import (
    all_coordinates,
    bfs_subgroups,
    reference_abelian_basis,
    reference_coordinates,
    reference_subgroups_within,
    trivial_subgroup,
)
from scenarios import cyclic_table, dihedral_table, direct_product, relabel, symmetric_table


def test_cyclic_two_is_addition_mod_two(z2):
    assert z2.order == 2
    assert z2.mul == ((0, 1), (1, 0))
    assert z2.is_abelian()


def test_cyclic_three(z3):
    assert z3.order == 3
    assert all(z3.mul[a][b] == (a + b) % 3 for a in range(3) for b in range(3))


def brute_force_perm_closure(degree, gens):
    # oracle: scan all permutations, keep the sub-monoid generated by the gens
    gens = [tuple(g) for g in gens]
    elems = {tuple(range(degree))}
    grew = True
    while grew:
        grew = False
        for p in list(elems):
            for g in gens:
                q = tuple(p[g[i]] for i in range(degree))
                if q not in elems:
                    elems.add(q)
                    grew = True
    return elems


def test_permutation_generators_give_order_six(s3):
    oracle = brute_force_perm_closure(3, [[1, 0, 2], [1, 2, 0]])
    assert len(oracle) == 6
    assert s3.order == 6
    assert not s3.is_abelian()


def test_non_associative_table_rejected():
    # constant-row table: 0*(1*1)=0 but fails inverse/identity checks first;
    # use a latin square that is not associative instead
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValidationError, match="associative"):
        build_group({"kind": "table", "mul": table})


def test_identity_must_be_element_zero():
    # C2 written with the identity in slot 1
    with pytest.raises(ValidationError, match="identity"):
        build_group({"kind": "table", "mul": [[1, 0], [0, 1]]})


def test_order_bound_enforced(monkeypatch):
    with pytest.raises(ValidationError, match="exceeds bound"):
        build_group({"kind": "cyclic", "n": 65})
    monkeypatch.setenv("BURNLOC_ORDER_BOUND", "128")
    assert build_group({"kind": "cyclic", "n": 65}).order == 65


def test_order_bound_env_override(monkeypatch):
    monkeypatch.setenv("BURNLOC_ORDER_BOUND", "4")
    with pytest.raises(ValidationError, match="exceeds bound 4"):
        build_group({"kind": "cyclic", "n": 8})
    monkeypatch.setenv("BURNLOC_ORDER_BOUND", "not-a-number")
    with pytest.raises(ValidationError, match="must be an integer"):
        build_group({"kind": "cyclic", "n": 2})


@pytest.mark.parametrize("raw", ["\uff16\uff14", " 64 ", "6_4", "1_000", "+64", "-3", ""])
def test_order_bound_env_takes_ascii_digits_only(monkeypatch, raw):
    # fullwidth digits, padding and underscores are all read by int()
    monkeypatch.setenv("BURNLOC_ORDER_BOUND", raw)
    with pytest.raises(ValidationError, match="BURNLOC_ORDER_BOUND must be an integer, got"):
        build_group({"kind": "cyclic", "n": 2})


def test_order_bound_env_must_be_positive(monkeypatch):
    monkeypatch.setenv("BURNLOC_ORDER_BOUND", "0")
    with pytest.raises(ValidationError, match="BURNLOC_ORDER_BOUND must be positive"):
        build_group({"kind": "cyclic", "n": 1})
    monkeypatch.setenv("BURNLOC_ORDER_BOUND", "0064")
    with pytest.raises(ValidationError, match="exceeds bound 64"):
        build_group({"kind": "cyclic", "n": 65})


def test_abelian_kind():
    G = build_group({"kind": "abelian", "factors": [2, 4]})
    assert G.order == 8
    assert G.is_abelian()


def subgroup_oracle(G):
    # oracle: closures of all generating sets of size <= 3 (enough for order <= 24)
    seen = set()
    elems = list(G.elements())
    for k in (1, 2, 3):
        for gens in combinations(elems, k):
            seen.add(Subgroup.generated(G, gens).elements)
    seen.add((0,))
    return {s for s in seen if Subgroup(G, s).is_abelian()}


@pytest.mark.parametrize("spec", [
    {"kind": "cyclic", "n": 2},
    {"kind": "cyclic", "n": 3},
    {"kind": "cyclic", "n": 12},
    {"kind": "abelian", "factors": [2, 4]},
    {"kind": "perm", "degree": 3, "gens": [[1, 0, 2], [1, 2, 0]]},
    {"kind": "perm", "degree": 4, "gens": [[1, 2, 3, 0], [1, 0, 3, 2]]},          # D4
    {"kind": "perm", "degree": 4, "gens": [[1, 2, 0, 3], [0, 2, 3, 1]]},          # A4
])
def test_every_abelian_subgroup_has_exactly_one_representative(spec):
    G = build_group(spec)
    reps = abelian_subgroups_up_to_conjugacy(G)
    rep_sets = [frozenset(r.elements) for r in reps]
    for elems in subgroup_oracle(G):
        orbit = {frozenset(G.conj(g, a) for a in elems) for g in G.elements()}
        hits = [r for r in rep_sets if r in orbit]
        assert len(hits) == 1
    # representatives are pairwise non-conjugate and minimal in their orbit
    for r in reps:
        orbit = {tuple(sorted(G.conj(g, a) for a in r.elements)) for g in G.elements()}
        assert r.elements == min(orbit)


@pytest.mark.parametrize("spec,counts", [
    ({"kind": "perm", "degree": 4, "gens": [[1, 2, 3, 0], [1, 0, 3, 2]]}, (10, 8, 7)),          # D4
    ({"kind": "perm", "degree": 8, "gens": [[2, 3, 1, 0, 6, 7, 5, 4], [4, 5, 7, 6, 1, 0, 2, 3]]},
     (6, 6, 5)),                                                                            # Q8
    ({"kind": "perm", "degree": 4, "gens": [[1, 2, 0, 3], [0, 2, 3, 1]]}, (10, 5, 4)),          # A4
    ({"kind": "perm", "degree": 4, "gens": [[1, 0, 2, 3], [1, 2, 3, 0]]}, (30, 11, 7)),         # S4
    ({"kind": "abelian", "factors": [2, 2, 2]}, (16, 16, 16)),
    ({"kind": "abelian", "factors": [4, 4]}, (15, 15, 15)),
    ({"kind": "abelian", "factors": [2, 6]}, (10, 10, 10)),
    # 2825 is the sum of the Gaussian binomials [6 choose k]_2; D32 has tau(32) + sigma(32) = 69
    ({"kind": "abelian", "factors": [2] * 6}, (2825, 2825, 2825)),
    ({"kind": "table", "mul": dihedral_table(32)}, (69, 17, 10)),
])
def test_subgroup_counts_match_published_values(spec, counts):
    # (all subgroups, conjugacy classes, conjugacy classes of abelian subgroups)
    G = build_group(spec)
    got = (len(all_subgroups(G)), len(subgroups_up_to_conjugacy(G)), len(abelian_subgroups_up_to_conjugacy(G)))
    assert got == counts


# the benchmark ladders' rungs, plus D16 and S4xC2
LATTICE_FAMILY = {
    "C10": cyclic_table(10),
    "C12": cyclic_table(12),
    "C2xC6": direct_product(cyclic_table(2), cyclic_table(6)),
    "C4xC4": direct_product(cyclic_table(4), cyclic_table(4)),
    "C2xC2xC4": direct_product(direct_product(cyclic_table(2), cyclic_table(2)), cyclic_table(4)),
    "D10": dihedral_table(10),
    "D4xC2": direct_product(dihedral_table(4), cyclic_table(2)),
    "S3xS3": direct_product(symmetric_table(3), symmetric_table(3)),
    "D3xC4": direct_product(dihedral_table(3), cyclic_table(4)),
    "D6xC2": direct_product(dihedral_table(6), cyclic_table(2)),
    "D16": dihedral_table(16),
    "S4xC2": direct_product(symmetric_table(4), cyclic_table(2)),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", LATTICE_FAMILY)
def test_lattice_and_abelian_bases_match_reference(name, seed):
    # the coset-step lattice search against closing every <H, g> by all products,
    # and the greedy complement against the least one in the whole lattice
    G = build_group({"kind": "table", "mul": relabel(LATTICE_FAMILY[name], f"{name}:{seed}")})
    assert tuple(H.elements for H in all_subgroups(G)) == reference_subgroups_within(G, tuple(G.elements()))
    for H in all_subgroups(G):
        if H.is_abelian():
            s = abelian_structure(H)
            assert (s.invariant_factors, s.basis) == reference_abelian_basis(H)


def _abelian(*factors):
    table = [[0]]
    for d in factors:
        table = direct_product(table, cyclic_table(d))
    return table


# every ladder rung, D16 and S4xC2, and the larger groups the breadth-first oracle reaches;
# C3^4 (order 81) is built under a raised order bound
LARGE_LATTICES = {
    **LATTICE_FAMILY,
    "C2^6": _abelian(2, 2, 2, 2, 2, 2),
    "C4^3": _abelian(4, 4, 4),
    "C2xC4xC8": _abelian(2, 4, 8),
    "C3^4": _abelian(3, 3, 3, 3),
    "D32": dihedral_table(32),
    "D4xD4": direct_product(dihedral_table(4), dihedral_table(4)),
}


def _group(monkeypatch, table):
    monkeypatch.setenv("BURNLOC_ORDER_BOUND", "128")
    return build_group({"kind": "table", "mul": table})


@pytest.mark.parametrize("relabelled", [False, True])
@pytest.mark.parametrize("name", LARGE_LATTICES)
def test_lattice_matches_the_breadth_first_walk(monkeypatch, name, relabelled):
    # canonical augmentation against the walk that closes <H, g> once per right
    # coset of every subgroup found and drops the subgroups it has seen
    table = LARGE_LATTICES[name]
    G = _group(monkeypatch, relabel(table, name) if relabelled else table)
    assert subgroups_within(G) == bfs_subgroups(G)


@pytest.mark.parametrize("relabelled", [False, True])
@pytest.mark.parametrize("name", LARGE_LATTICES)
def test_lattice_closes_each_subgroup_about_once(monkeypatch, name, relabelled):
    # each subgroup is accepted from its one greedy parent; the breadth-first
    # walk closed 23,562 candidates on C2^6 and 1,422 on D32.  A candidate whose
    # powers fall into a coset already passed is not closed: without that skip
    # the relabelled D16 and D32 took 149 closures for 36 subgroups and 482 for 69
    table = LARGE_LATTICES[name]
    G = _group(monkeypatch, relabel(table, name) if relabelled else table)
    calls = []
    extend = burnloc.groups._extend
    monkeypatch.setattr(burnloc.groups, "_extend", lambda *args: calls.append(1) or extend(*args))
    lattice = subgroups_within(G)
    assert len(calls) <= 4 * len(lattice)
    assert name != "C2^6" or len(calls) == len(lattice) - 1 == 2824


@pytest.mark.parametrize("relabelled", [False, True])
@pytest.mark.parametrize("name", LARGE_LATTICES)
def test_coordinates_step_along_the_basis_without_powers(monkeypatch, name, relabelled):
    # every coordinate tuple's element is reached by one product per step along a
    # basis element's cyclic closure, and is the product of the powers the reference takes
    table = LARGE_LATTICES[name]
    G = _group(monkeypatch, relabel(table, name) if relabelled else table)
    for struct in (abelian_structure(H) for H in all_subgroups(G) if H.is_abelian()):
        assert list(struct.coords.items()) == list(reference_coordinates(struct).items())


def _gaussian_binomial(k, j, p):
    # the number of j-dimensional subspaces of F_p^k
    count = 1
    for i in range(j):
        count = count * (p ** (k - i) - 1) // (p ** (i + 1) - 1)
    return count


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2)])
def test_elementary_abelian_subgroup_counts_are_sums_of_gaussian_binomials(monkeypatch, p, k):
    expected = sum(_gaussian_binomial(k, j, p) for j in range(k + 1))
    assert {(2, 6): 2825, (3, 4): 212}.get((p, k), expected) == expected
    assert len(subgroups_within(_group(monkeypatch, _abelian(*[p] * k)))) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 32])
def test_dihedral_subgroup_counts_are_tau_plus_sigma(n):
    # D_n of order 2n: per divisor d of n, the cyclic <r^d> and the d subgroups
    # <r^d, r^i s> with 0 <= i < d, so tau(n) + sigma(n) in all
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    expected = len(divisors) + sum(divisors)
    assert {16: 36, 32: 69}.get(n, expected) == expected
    assert len(subgroups_within(build_group({"kind": "table", "mul": dihedral_table(n)}))) == expected


def test_trivial_and_full_for_cyclic_groups(z2, z3):
    for G in (z2, z3):
        reps = abelian_subgroups_up_to_conjugacy(G)
        assert [r.elements for r in reps] == [(0,), tuple(G.elements())]


def test_s3_abelian_subgroup_classes(s3):
    reps = abelian_subgroups_up_to_conjugacy(s3)
    assert [r.order for r in reps] == [1, 2, 3]


def test_returned_subgroups_are_closed(s3, d4):
    # derived subgroups skip the checked constructor, so each must pass it unchanged
    for G in (s3, d4):
        for H in (*all_subgroups(G), *subgroups_up_to_conjugacy(G), *abelian_subgroups_up_to_conjugacy(G)):
            derived = [H, centralizer(G, H), normalizer(G, H), Subgroup.generated(G, H.elements[-1:])]
            derived += [H.conjugate(g) for g in G.elements()]
            if H.is_abelian():
                struct = abelian_structure(H)
                derived += [Subgroup.trusted(G, struct.kernel(b)) for b in all_coordinates(struct)]
            for S in derived:
                assert Subgroup(G, S.elements) == S


def test_centralizer_of_full_abelian_group(z2):
    assert centralizer(z2, full_subgroup(z2)).elements == (0, 1)


def test_normalizer_of_c3_in_s3_is_everything(s3):
    c3 = next(H for H in abelian_subgroups_up_to_conjugacy(s3) if H.order == 3)
    assert normalizer(s3, c3).order == s3.order
    # while the centralizer of a transposition is just itself
    c2 = next(H for H in abelian_subgroups_up_to_conjugacy(s3) if H.order == 2)
    assert centralizer(s3, c2).order == 2


def test_quotient_c4_by_c2(z4):
    h = Subgroup(z4, (0, 2))
    Q = quotient(full_subgroup(z4), h)
    assert Q.group.order == 2
    assert Q.group.mul == ((0, 1), (1, 0))
    assert Q.coset_of[0] == 0 and Q.coset_of[2] == 0
    assert Q.coset_of[1] == 1 and Q.coset_of[3] == 1
    assert Q.reps == (0, 1)
    assert quotient(full_subgroup(z4), trivial_subgroup(z4)).group.order == 4


def test_quotient_requires_normality(s3):
    c2 = next(H for H in abelian_subgroups_up_to_conjugacy(s3) if H.order == 2)
    with pytest.raises(ValidationError, match="normal"):
        quotient(full_subgroup(s3), c2)


def test_conjugation_by_identity_and_central(z4, s3):
    h = Subgroup(z4, (0, 2))
    assert h.conjugate(0).elements == h.elements
    for g in z4.elements():
        assert h.conjugate(g).elements == h.elements  # central in abelian G
    c2 = next(H for H in abelian_subgroups_up_to_conjugacy(s3) if H.order == 2)
    threecycle = next(g for g in s3.elements() if s3.element_order(g) == 3)
    moved = c2.conjugate(threecycle)
    assert moved.order == 2 and moved.elements != c2.elements


def test_subgroup_validation_rejects_junk(z4):
    with pytest.raises(ValidationError, match="identity"):
        Subgroup(z4, (1, 3))
    with pytest.raises(ValidationError, match="closed"):
        Subgroup(z4, (0, 1))


def test_valid_table_group():
    G = build_group({"kind": "table", "mul": [[0, 1], [1, 0]], "name": "C2"})
    assert G.order == 2 and G.is_abelian()


def test_perm_degree_capped_at_twelve():
    with pytest.raises(ValidationError, match="between 1 and 12"):
        build_group({"kind": "perm", "degree": 13, "gens": [list(range(1, 13)) + [0]]})


@pytest.mark.parametrize("table", [
    direct_product(symmetric_table(3), symmetric_table(3)),
    direct_product(dihedral_table(4), cyclic_table(2)),
    direct_product(dihedral_table(6), cyclic_table(2)),
    relabel(direct_product(dihedral_table(4), cyclic_table(2)), 7),
], ids=["S3xS3", "D4xC2", "D6xC2", "D4xC2-relabelled"])
def test_subgroup_is_abelian_matches_brute_force(table):
    # a kept abelian structure answers is_abelian; before any is built, and
    # after one is built for every abelian subgroup, the answer is brute force's
    G = build_group({"kind": "table", "mul": table})
    subgroups = all_subgroups(G)
    brute = {H.elements: all(G.mul[a][b] == G.mul[b][a] for a in H.elements for b in H.elements)
             for H in subgroups}
    assert not G.is_abelian() and not all(brute.values()) and not G.structures
    assert {H.elements: H.is_abelian() for H in subgroups} == brute
    for H in subgroups:
        if brute[H.elements]:
            abelian_structure(H)
        else:
            with pytest.raises(ValidationError, match="abelian structure requires"):
                abelian_structure(H)
    assert set(G.structures) == {h for h, abelian in brute.items() if abelian}
    assert {H.elements: H.is_abelian() for H in subgroups} == brute


def test_checked_element_tuple_is_taken_as_is(monkeypatch):
    # a checked set costs one lookup: its sorted tuple runs no check and is not
    # sorted again, any other form of it gives the same subgroup, and a set
    # that fails is never recorded, so it runs the check and fails every time
    G = build_group({"kind": "table", "mul": relabel(direct_product(dihedral_table(4), cyclic_table(2)), 3)})
    raw = Subgroup.__dict__["__post_init__"]
    checks = []

    def counted(self):
        checks.append(self.elements)
        raw(self)

    monkeypatch.setattr(Subgroup, "__post_init__", counted)
    h = next(H.elements for H in all_subgroups(G) if H.order == 4)
    first = Subgroup(G, tuple(reversed(h)) + h[:2])  # unsorted, with duplicates
    assert first.elements == h and checks == [h]
    for given in (h, tuple(reversed(h)), h + h, list(h), list(reversed(h)), set(h)):
        assert Subgroup(G, given) == first
    assert checks == [h]
    taken = tuple(list(h))  # equal to h but another object: identity shows it is kept as given
    assert Subgroup(G, taken).elements is taken
    bad = next(a for a in G.elements() if G.element_order(a) > 2)
    for given in ((0, bad), (bad, 0, 0), [0, bad]):
        with pytest.raises(ValidationError) as exc:
            Subgroup(G, given)
        assert str(exc.value) == f"subgroup not closed under inverse at {bad}"
    assert checks == [h, (0, bad), (0, bad), (0, bad)] and (0, bad) not in G._checked
