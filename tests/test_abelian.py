import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from burnloc.abelian import abelian_structure, normalize_factors, shape_name, transport_character
from burnloc.errors import ValidationError
from burnloc.groups import Subgroup, abelian_subgroups_up_to_conjugacy, build_group, full_subgroup
from oracles import all_coordinates, character_span, reference_evaluate, reference_normalize_factors


def struct_of(spec):
    G = build_group(spec)
    return abelian_structure(full_subgroup(G))


@pytest.mark.parametrize("factors,expected", [
    ([4], (4,)),
    ([2, 4], (2, 4)),
    ([2, 2, 2], (2, 2, 2)),
    ([2, 3], (6,)),
    ([12], (12,)),
    ([6, 4], (2, 12)),
    ([1], ()),
])
def test_invariant_factors(factors, expected):
    assert normalize_factors(factors) == expected
    assert struct_of({"kind": "abelian", "factors": factors}).invariant_factors == expected


def test_divisor_chain_matches_the_prime_power_route_on_every_short_list():
    # every list of at most three factors in 1..40
    for n in range(4):
        for factors in product(range(1, 41), repeat=n):
            assert normalize_factors(factors) == reference_normalize_factors(factors), factors


def test_divisor_chain_matches_the_prime_power_route_on_seeded_lists():
    # factors below 10**6, so the reference's trial division below 1000 leaves
    # 1 or a prime; half of them are products of small prime powers, so that
    # the factors share primes
    rng = random.Random(25)
    for _ in range(2000):
        factors = [
            rng.randint(1, 10**6) if rng.random() < 0.5
            else prod(p ** rng.randint(0, 3) for p in (2, 3, 5, 7, 11))
            for _ in range(rng.randint(1, 6))
        ]
        assert normalize_factors(factors) == reference_normalize_factors(factors), factors


def test_long_factor_lists_match_the_prime_power_route():
    # each factor passes the entries of the chain it divides by bisection, so
    # 20,000 factors take a fraction of a second, where a gcd/lcm step per
    # pair of factors would take tens of seconds
    n = 20_000
    for factors in ([2] * n, [2, 3] * (n // 2), [4] * (n // 2) + [6] * (n // 2), list(range(1, n + 1))):
        assert normalize_factors(factors) == reference_normalize_factors(factors)


def test_a_19_digit_prime_factor_is_not_factored():
    # trial division up to the root of 10**18 + 3, a prime, runs for minutes
    assert normalize_factors([10**18 + 3, 2]) == reference_normalize_factors([10**18 + 3, 2]) == (2 * (10**18 + 3),)
    for bad in ([0], [3, -2]):
        with pytest.raises(ValidationError, match="cyclic factor must be positive, got"):
            normalize_factors(bad)


def test_coordinate_map_is_isomorphism():
    for factors in ([4], [2, 4], [2, 2, 2], [2, 3], [12]):
        G = build_group({"kind": "abelian", "factors": factors})
        s = abelian_structure(full_subgroup(G))
        assert len(s.coords) == G.order
        ds = s.invariant_factors
        for x, y in product(G.elements(), repeat=2):
            ax, ay = s.coords[x], s.coords[y]
            summed = tuple((a + b) % d for a, b, d in zip(ax, ay, ds))
            assert s.coords[G.mul[x][y]] == summed


def test_character_evaluation_is_homomorphism():
    s = struct_of({"kind": "abelian", "factors": [2, 4]})
    G = s.subgroup.ambient
    for b in all_coordinates(s):
        for x, y in product(G.elements(), repeat=2):
            lhs = reference_evaluate(s, b, G.mul[x][y])
            rhs = reference_evaluate(s, b, x) + reference_evaluate(s, b, y)
            assert (lhs - rhs).denominator == 1


def test_kernel_of_nontrivial_character_on_c2():
    s = struct_of({"kind": "cyclic", "n": 2})
    assert s.kernel((1,)) == (0,)


def test_zero_difference_has_full_kernel():
    s = struct_of({"kind": "cyclic", "n": 2})
    b = (1,)
    assert s.kernel(s.reduce(x - y for x, y in zip(b, b))) == (0, 1)


def test_c4_character_two_by_direct_evaluation():
    s = struct_of({"kind": "cyclic", "n": 4})
    b = (2,)
    # oracle: evaluate on every element
    values = {x: reference_evaluate(s, b, x) for x in range(4)}
    assert values == {0: Fraction(0), 1: Fraction(1, 2), 2: Fraction(0), 3: Fraction(1, 2)}
    assert s.kernel(b) == (0, 2)
    assert len(character_span(s, b)) == 2
    assert not s.generates_dual(b)


def abelian_types_up_to(n):
    out = set()
    def rec(prefix, remaining):
        out.add(normalize_factors(prefix))
        for d in range(2, remaining + 1):
            if prefix and len(prefix) > 3:
                continue
            if d * prod(prefix) <= n:
                rec(prefix + [d], remaining)
    def prod(xs):
        p = 1
        for x in xs:
            p *= x
        return p
    rec([], n)
    return sorted(out)


def test_kernel_trivial_iff_generator_and_cyclic():
    # exhaustive over all abelian groups of order <= 16
    for factors in abelian_types_up_to(16):
        s = struct_of({"kind": "abelian", "factors": list(factors) or [1]})
        cyclic = len(s.invariant_factors) <= 1
        for b in all_coordinates(s):
            trivial_kernel = len(s.kernel(b)) == 1
            assert trivial_kernel == (s.generates_dual(b) and cyclic)


def test_outside_coordinates_are_checked_against_the_structure_and_reduced():
    s = struct_of({"kind": "abelian", "factors": [2, 4]})
    assert s.character([3, -1]) == (1, 3)
    for wrong in ((), (1,), (1, 2, 3)):
        with pytest.raises(ValidationError, match="character coordinates do not match the structure"):
            s.character(wrong)


@pytest.mark.parametrize("spec", [
    *({"kind": "cyclic", "n": n} for n in range(2, 13)),
    *({"kind": "abelian", "factors": f} for f in ([2, 2], [2, 4], [4, 4], [3, 3], [2, 2, 2], [2, 2, 4], [2, 8])),
    {"kind": "perm", "degree": 4, "gens": [[1, 2, 3, 0], [1, 0, 3, 2]]},  # D4
])
def test_dual_generated_check_matches_span_oracle(spec):
    # every single character and every pair on every abelian subgroup representative
    for H in abelian_subgroups_up_to_conjugacy(build_group(spec)):
        struct = abelian_structure(H)
        chars = all_coordinates(struct)
        for b in chars:
            generates = len(character_span(struct, b)) == H.order
            assert struct.generates_dual(b) == generates
            assert (len(struct.kernel(b)) == 1) == generates  # order |H| / |kernel|
        for b1, b2 in product(chars, repeat=2):
            assert struct.generates_dual(b1, b2) == (len(character_span(struct, b1, b2)) == H.order)


def test_transport_roundtrip_on_nonabelian_groups(s3, d4):
    for G in (s3, d4):
        for H in abelian_subgroups_up_to_conjugacy(G):
            struct = abelian_structure(H)
            for b in all_coordinates(struct):
                for g in G.elements():
                    moved = transport_character(g, struct, b)
                    target = abelian_structure(H.conjugate(g))
                    assert moved == target.reduce(moved)
                    assert transport_character(G.inv(g), target, moved) == b


def test_transport_preserves_evaluation(s3):
    c2 = next(H for H in abelian_subgroups_up_to_conjugacy(s3) if H.order == 2)
    struct = abelian_structure(c2)
    b = (1,)
    for g in s3.elements():
        moved = transport_character(g, struct, b)
        target = abelian_structure(c2.conjugate(g))
        for x in c2.elements:
            assert reference_evaluate(target, moved, s3.conj(g, x)) == reference_evaluate(struct, b, x)


def test_restriction_matches_evaluation():
    G = build_group({"kind": "cyclic", "n": 4})
    s = abelian_structure(full_subgroup(G))
    b = (1,)
    K = Subgroup(G, (0, 2))
    r = s.restrict(b, K)
    for x in K.elements:
        assert reference_evaluate(abelian_structure(K), r, x) == reference_evaluate(s, b, x)
    assert r == (1,)


def test_character_order_and_arithmetic():
    s = struct_of({"kind": "abelian", "factors": [2, 4]})
    b = (1, 2)
    assert s.subgroup.order // len(s.kernel(b)) == 2
    assert not any(s.reduce(x + y for x, y in zip(b, b)))
    assert s.reduce(-c for c in (0, 1)) == (0, 3)


def test_shape_name():
    assert shape_name(()) == "1"
    assert shape_name((2, 4)) == "C2xC4"
