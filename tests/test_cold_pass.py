"""The cold relation pass against its slow paths in `oracles`: the enumerators,
which read Y options off the labels' shapes and dual generation off the
kernel memo, yield the raw symbols of the lattice path in the same order, and
`generate_relations`, which builds each relation as one dict from one record
per curve symbol, returns the instances of per-term `BurnsideClass`
arithmetic, in the same order and with the same first error; each cold, warm
and on a relabelled table."""

import pytest

from burnloc.abelian import abelian_structure
from burnloc.catalog import catalog_from_json, catalog_to_json
from burnloc.errors import CatalogIncompleteError, ValidationError
from burnloc.fixtures import fixture_catalog
from burnloc.groups import all_subgroups, build_group
from burnloc.relations import generate_relations
from burnloc.symbols import _dual_generators, _dual_pairs, iter_curve_data, iter_jac_data, iter_surface_data
from conftest import Z4_COMPOSITE
from oracles import reference_generate_relations, reference_kernels, reference_raw_symbols
from scenarios import (
    LADDER_GROUPS,
    catalog_with_shapes,
    clear_engine_caches,
    dihedral_table,
    direct_product,
    generated_catalog,
    relabel,
)

C2 = {"kind": "cyclic", "n": 2}
C4 = {"kind": "cyclic", "n": 4}
ORDER_64 = {
    "D32": {"kind": "table", "mul": dihedral_table(32)},
    "D4xD4": {"kind": "table", "mul": direct_product(dihedral_table(4), dihedral_table(4))},
}
V4 = [2, 2]
NONABELIAN = [{"order": 6, "abelian": False}, {"order": 8, "abelian": False}]


def _fixture(name):
    return lambda G: fixture_catalog(name)


def _without_jacobian_rules(name):
    def make(G):
        data = catalog_to_json(fixture_catalog(name))
        data["rules"]["jacobian_of_curve"] = []
        return catalog_from_json(data, name="no-jac-rule")
    return make


# (group spec, catalog for the group)
CASES = {name: (spec, generated_catalog) for name, spec in {**LADDER_GROUPS, **ORDER_64}.items()}
CASES.update({
    "C2/hyperelliptic": (C2, _fixture("hyperelliptic-Z2")),
    "C2/nonhyperelliptic": (C2, _fixture("nonhyperelliptic-Z2-exotic")),
    "C2/elliptic": (C2, _fixture("elliptic-Z2")),
    "C3/Z3-basic": ({"kind": "cyclic", "n": 3}, _fixture("Z3-basic")),
    "C4/composite": (C4, lambda G: catalog_from_json(Z4_COMPOSITE, name="Z4-composite")),
    # incomplete catalogs: the same rule must be reported missing first
    "C4/hyperelliptic": (C4, _fixture("hyperelliptic-Z2")),
    "C4/no-jac-rule": (C4, _without_jacobian_rules("hyperelliptic-Z2")),
    "S3/hyperelliptic": ({"kind": "perm", "degree": 3, "gens": [[1, 0, 2], [1, 2, 0]]}, _fixture("hyperelliptic-Z2")),
})
# labels of a noncyclic abelian or a nonabelian shape take the lattice path
for name in ("C2xC2xC4", "C4xC4", "D4xC2", "D6xC2"):
    CASES[f"{name}/[2,2]"] = (LADDER_GROUPS[name], lambda G: catalog_with_shapes(G, [V4]))
for name in ("D4xC2", "S3xS3", "D3xC4", "D6xC2"):
    CASES[f"{name}/nonabelian"] = (LADDER_GROUPS[name], lambda G: catalog_with_shapes(G, NONABELIAN))
# enumeration only: curve labels of these shapes enter no rule
ENUMERATION_CASES = dict(CASES)
for name in ("C2xC2xC4", "D4xC2", "D6xC2"):
    ENUMERATION_CASES[f"{name}/all-spaces"] = (
        LADDER_GROUPS[name],
        lambda G: catalog_with_shapes(G, [V4, *NONABELIAN], spaces=("curve", "ruled_surface", "jacobian")),
    )


def _labellings(spec):
    """The spec and the same group with its elements relabelled at one seed."""
    return spec, {"kind": "table", "mul": relabel(build_group(spec).mul, 11)}


def _outcome(run, G, catalog):
    try:
        return run(G, catalog)
    except (ValidationError, CatalogIncompleteError) as exc:
        return type(exc).__name__, str(exc)


def _raw_symbols(G, catalog):
    return [*iter_curve_data(G, catalog), *iter_surface_data(G, catalog), *iter_jac_data(G, catalog)]


def _cold_warm_and_reference(spec, make_catalog, run, reference):
    clear_engine_caches()
    G = build_group(spec)
    catalog = make_catalog(G)
    cold = _outcome(run, G, catalog)
    warm = _outcome(run, G, catalog)
    clear_engine_caches()
    return cold, warm, _outcome(reference, build_group(spec), catalog)


@pytest.mark.parametrize("name", CASES)
def test_generate_relations_equals_the_per_term_construction(name):
    spec, make_catalog = CASES[name]
    for labelled in _labellings(spec):
        cold, warm, expected = _cold_warm_and_reference(
            labelled, make_catalog, generate_relations, reference_generate_relations)
        assert expected  # instances, or the name and message of the first error
        assert cold == expected
        assert warm == expected


@pytest.mark.parametrize("name", ENUMERATION_CASES)
def test_enumerators_yield_the_lattice_path_symbols_in_order(name):
    spec, make_catalog = ENUMERATION_CASES[name]
    for labelled in _labellings(spec):
        cold, warm, expected = _cold_warm_and_reference(labelled, make_catalog, _raw_symbols, reference_raw_symbols)
        assert expected
        assert cold == expected
        assert warm == expected


def _filters(G):
    """`_dual_pairs` and `_dual_generators` on every abelian subgroup of G."""
    return [(H.elements, _dual_pairs(abelian_structure(H)), _dual_generators(abelian_structure(H)))
            for H in all_subgroups(G) if H.is_abelian()]


def _reference_filters(G):
    """The same lists from the `Fraction` kernels: a pair generates the dual
    when its kernels meet only in the identity, one character when its kernel
    is trivial."""
    out = []
    for H in all_subgroups(G):
        if H.is_abelian():
            kernels = reference_kernels(abelian_structure(H))
            nontrivial = [b for b in kernels if any(b)]
            out.append((H.elements,
                        [(b1, b2) for i, b1 in enumerate(nontrivial) for b2 in nontrivial[i:]
                         if kernels[b1] & kernels[b2] == {0}],
                        [b for b in kernels if kernels[b] == {0}]))
    return out


@pytest.mark.parametrize("name", [*LADDER_GROUPS, *ORDER_64, "C4^3"])
def test_kernel_filters_equal_dual_generated_check(name):
    # the enumerators' filters ask the structure's kernel memo
    spec = {"kind": "abelian", "factors": [4, 4, 4]} if name == "C4^3" else {**LADDER_GROUPS, **ORDER_64}[name]
    for labelled in _labellings(spec):
        clear_engine_caches()
        expected = _reference_filters(build_group(labelled))
        G = build_group(labelled)
        assert _filters(G) == expected  # cold: kernels computed and recorded
        assert _filters(G) == expected  # warm: read from the kernel memo
