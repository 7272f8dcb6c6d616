"""The cold pass's shortcuts against their slow paths in `oracles`: canonical
forms read from per-stabilizer frames against the frame of each (kind, h, y)
found by walking the transporter; the character arithmetic of the relation
pass, on bare coordinate tuples, against `Character` objects and the
`Fraction` evaluation; and the curve enumerator's rank test from element
orders against the invariant factors."""

from operator import add, neg, sub

import pytest

from burnloc.abelian import abelian_structure, all_characters
from burnloc.groups import all_subgroups, build_group
from burnloc.symbols import _curve_data, _jac_data, _rank_at_most_two, _surface_data, canonical_form, iter_curve_data
from oracles import character_from_values, reference_evaluate, reference_frame_form
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
    return [*_curve_data(G, catalog), *_surface_data(G, catalog), *_jac_data(G, catalog)]


@pytest.mark.parametrize("name", FRAME_CASES)
def test_stabilizer_frames_give_the_transporter_walk_forms(name):
    spec, make_catalog = FRAME_CASES[name]
    relabelled = {"kind": "table", "mul": relabel(build_group(spec).mul, 11)}
    for labelled in (spec, relabelled):
        G = build_group(labelled)
        catalog = make_catalog(G)
        data = _enumerated(G, catalog)
        assert data
        expected = [reference_frame_form(raw, G, chars) for raw, chars in data]
        G = build_group(labelled)  # cold: no frame built yet
        assert [canonical_form(raw, G, chars) for raw, chars in _enumerated(G, catalog)] == expected
        assert G.frames
        assert [canonical_form(raw, G, chars) for raw, chars in data] == expected  # warm


@pytest.mark.parametrize("name", GROUPS)
def test_coordinate_arithmetic_equals_characters(name):
    G = build_group(GROUPS[name])
    for H in all_subgroups(G):
        if not H.is_abelian():
            continue
        struct = abelian_structure(H)
        characters = list(all_characters(struct))
        kernels = set()
        for b in characters:
            kernel = struct.kernel(b.coords)
            assert kernel == tuple(x for x in H.elements if reference_evaluate(b, x) == 0)
            assert len(H.elements) // len(kernel) == b.order()
            assert struct.reduce(map(neg, b.coords)) == (-b).coords
            for c in characters:
                assert struct.reduce(map(add, b.coords, c.coords)) == (b + c).coords
                assert struct.reduce(map(sub, b.coords, c.coords)) == (b - c).coords
            kernels.add(kernel)
        for kernel in kernels:
            K = next(K for K in all_subgroups(G) if K.elements == kernel)
            for b in characters:
                expected = character_from_values(abelian_structure(K), lambda x: reference_evaluate(b, x))
                assert struct.restrict(b.coords, K) == expected.coords


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
