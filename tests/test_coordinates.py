"""The cold pass's shortcuts against their slow paths in `oracles`: canonical
forms read from per-stabilizer frames against the frame of each (kind, h, y)
found by walking the transporter; the character arithmetic on coordinate
tuples (reduce, kernel, order, restrict), which the relation pass, symbol
validation and the blow-ups share, against the `Fraction` evaluation, cold,
warm and on a relabelled table; and the curve enumerator's rank test from
element orders against the invariant factors."""

from math import lcm
from operator import add, neg, sub

import pytest

from burnloc.abelian import abelian_structure
from burnloc.groups import all_subgroups, build_group
from burnloc.symbols import (
    _rank_at_most_two,
    canonical_form,
    iter_curve_data,
    iter_jac_data,
    iter_surface_data,
)
from oracles import (
    all_coordinates,
    reference_evaluate,
    reference_frame_form,
    reference_kernel,
    reference_order,
    reference_restrict,
)
from scenarios import LADDER_GROUPS, catalog_with_shapes, dihedral_table, direct_product, generated_catalog, relabel

ORDER_64 = {
    "D32": {"kind": "table", "mul": dihedral_table(32)},
    "D4xD4": {"kind": "table", "mul": direct_product(dihedral_table(4), dihedral_table(4))},
}
NONABELIAN_RUNGS = ("D10", "D4xC2", "S3xS3", "D3xC4", "D6xC2")
GROUPS = {**LADDER_GROUPS, **ORDER_64, "C4^3": {"kind": "abelian", "factors": [4, 4, 4]}}
ALL_SHAPES = [[2, 2], {"order": 6, "abelian": False}, {"order": 8, "abelian": False}]


def _all_shapes_catalog(G):
    return catalog_with_shapes(G, ALL_SHAPES, spaces=("curve", "ruled_surface", "jacobian"))


FRAME_CASES = {name: ({**LADDER_GROUPS, **ORDER_64}[name], generated_catalog)
               for name in (*NONABELIAN_RUNGS, *ORDER_64)}
FRAME_CASES.update({f"{name}/all-shapes": (LADDER_GROUPS[name], _all_shapes_catalog) for name in NONABELIAN_RUNGS})


def _enumerated(G, catalog):
    return [*iter_curve_data(G, catalog), *iter_surface_data(G, catalog), *iter_jac_data(G, catalog)]


@pytest.mark.parametrize("name", FRAME_CASES)
def test_stabilizer_frames_give_the_transporter_walk_forms(name):
    spec, make_catalog = FRAME_CASES[name]
    relabelled = {"kind": "table", "mul": relabel(build_group(spec).mul, 11)}
    for labelled in (spec, relabelled):
        G = build_group(labelled)
        catalog = make_catalog(G)
        data = _enumerated(G, catalog)
        assert data
        expected = [reference_frame_form(raw, G) for raw in data]
        G = build_group(labelled)  # cold: no frame built yet
        assert [canonical_form(raw, G) for raw in _enumerated(G, catalog)] == expected
        assert G.frames
        assert [canonical_form(raw, G) for raw in data] == expected  # warm


def _coordinate_answers(G, subgroups):
    """Per abelian subgroup: every kernel, order, negative, sum and difference
    of its characters in coordinates, and every restriction to a kernel."""
    out = []
    for H in subgroups:
        struct = abelian_structure(H)
        characters = all_coordinates(struct)
        kernels = {b: struct.kernel(b) for b in characters}
        out.append((H.elements, kernels, {b: len(H.elements) // len(kernels[b]) for b in characters},
                    [struct.reduce(map(neg, b)) for b in characters],
                    [(struct.reduce(map(add, b, c)), struct.reduce(map(sub, b, c))) for b in characters for c in characters],
                    [struct.restrict(b, K) for K in _kernel_subgroups(G, kernels) for b in characters]))
    return out


def _reference_answers(G, subgroups):
    """`_coordinate_answers` from the `Fraction` values alone: a sum or
    difference is the character whose values at the basis, scaled by the
    exponent e of H to integers mod e, are the sums or differences of its
    terms' values."""
    out = []
    for H in subgroups:
        struct = abelian_structure(H)
        characters = all_coordinates(struct)
        e = lcm(*struct.invariant_factors)
        at_basis = {b: tuple(int(reference_evaluate(struct, b, h) * e) for h in struct.basis) for b in characters}
        by_values = {values: b for b, values in at_basis.items()}

        def combined(b, c, sign):
            return by_values[tuple((v + sign * w) % e for v, w in zip(at_basis[b], at_basis[c]))]

        zero = characters[0]
        kernels = {b: reference_kernel(struct, b) for b in characters}
        out.append((H.elements, kernels, {b: reference_order(struct, b) for b in characters},
                    [combined(zero, b, -1) for b in characters],
                    [(combined(b, c, 1), combined(b, c, -1)) for b in characters for c in characters],
                    [reference_restrict(struct, b, K) for K in _kernel_subgroups(G, kernels) for b in characters]))
    return out


def _kernel_subgroups(G, kernels):
    distinct = set(kernels.values())
    return [K for K in all_subgroups(G) if K.elements in distinct]


@pytest.mark.parametrize("name", GROUPS)
def test_coordinate_arithmetic_equals_characters(name):
    base = build_group(GROUPS[name])
    for spec in (GROUPS[name], {"kind": "table", "mul": relabel(base.mul, 5)}):
        R = build_group(spec)
        expected = _reference_answers(R, [H for H in all_subgroups(R) if H.is_abelian()])
        G = build_group(spec)
        abelian = [H for H in all_subgroups(G) if H.is_abelian()]
        assert _coordinate_answers(G, abelian) == expected  # cold: kernels computed and recorded
        assert _coordinate_answers(G, abelian) == expected  # warm: read from the memos


@pytest.mark.parametrize("name", GROUPS)
def test_rank_test_equals_invariant_factor_count(name):
    G = build_group(GROUPS[name])
    for H in all_subgroups(G):
        if H.is_abelian():
            assert _rank_at_most_two(H) == (len(abelian_structure(H).invariant_factors) <= 2)


def test_curve_enumeration_builds_structures_of_rank_at_most_two_only():
    spec = {"kind": "abelian", "factors": [2] * 6}
    catalog = generated_catalog(build_group(spec))
    G = build_group(spec)
    assert sum(1 for _ in iter_curve_data(G, catalog)) == 2016
    small = {H.elements for H in all_subgroups(G) if not H.is_trivial() and _rank_at_most_two(H)}
    assert len(small) == 714 and set(G.structures) == small
