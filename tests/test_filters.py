"""Filter admission against the brute-force sweep of `oracles.reference_admits`.

The engine reads each pair's conjugates once off G's conjugation table; the
reference conjugates a symbol's (H, preimage of Y) by every g of G, element by
element.  The filters are the maximal-stabilizer one and filters of subgroup
pairs given by their largest conjugate, not the least one the canonical
symbols carry, with residual groups both trivial and not.
"""

import pytest

from burnloc.errors import ValidationError
from burnloc.groups import FiniteGroup, Subgroup, build_group
from burnloc.relations import FilterSpec, filtered_structure, generate_relations
from burnloc.symbols import KIND_JAC, carrier_quotient, enumerate_symbols
from oracles import filter_from_subgroups, filtered_relation_vectors, reference_admits
from scenarios import (
    clear_engine_caches,
    cyclic_table,
    dihedral_table,
    direct_product,
    generated_catalog,
    relabel,
    symmetric_table,
)

D4xC2 = direct_product(dihedral_table(4), cyclic_table(2))
TABLES = {
    "C4xC4": direct_product(cyclic_table(4), cyclic_table(4)),
    "D4xC2": D4xC2,
    "S3xS3": direct_product(symmetric_table(3), symmetric_table(3)),
    "D4xC2 relabelled": relabel(D4xC2, "filters"),
}


@pytest.fixture(scope="module", params=sorted(TABLES))
def pass_data(request):
    """(G, catalog, symbols, relations, {filter name: (filter, the sweep's
    verdict on every symbol the pass meets)})."""
    G = build_group({"kind": "table", "name": request.param, "mul": TABLES[request.param]})
    catalog = generated_catalog(G)
    syms = enumerate_symbols(G, catalog)
    relations = generate_relations(G, catalog)
    met = set(syms).union(*(rel.vector.support() for rel in relations))
    cases = {name: (f, {s: reference_admits(f, s, G) for s in met}) for name, f in filters(G, syms).items()}
    return G, catalog, syms, relations, cases


def largest_conjugate_pair(G, sym):
    """The symbol's (H, Y) moved by the g that gives the largest conjugate of
    (H, preimage of Y), Y in the new H's normalizer quotient."""
    upstairs = carrier_quotient(G, sym.h, sym.kind).preimage(sym.y)
    conj = G.conj_table()
    g = max(G.elements(), key=lambda g: (sorted(conj[g][x] for x in sym.h), sorted(conj[g][x] for x in upstairs)))
    H = Subgroup(G, (conj[g][x] for x in sym.h))
    Q = carrier_quotient(G, H.elements, KIND_JAC)
    return H, Subgroup(Q.group, Q.image(conj[g][x] for x in upstairs))


def filters(G, syms):
    """The maximal-stabilizer filter and the filters of the moved pairs of
    every fifth symbol and of three symbols with a nontrivial Y; over
    nonabelian G also that of every symbol's moved pair, which admits every
    symbol (the sweep over all of C4xC4's pairs would be slow)."""
    every = [largest_conjugate_pair(G, s) for s in syms]
    nontrivial = [(largest_conjugate_pair(G, s), s.h) for s in syms if s.y != (0,)]
    # pairs whose H moves come first; over abelian G none does
    moved = [pair for pair, _ in sorted(nontrivial, key=lambda t: t[0][0].elements == t[1])[:3]]
    out = {
        "max-stabilizer": FilterSpec.max_stabilizer(G),
        "every fifth symbol": filter_from_subgroups(every[::5]),
        "nontrivial Y": filter_from_subgroups(moved),
    }
    if not G.is_abelian():
        out["every symbol"] = filter_from_subgroups(every)
    return out


def reference_vectors(admits, relations):
    """The kept relation vectors, or the message refusing the filter at the
    first relation that mixes admitted and dropped symbols."""
    kept = []
    for rel in relations:
        flags = [admits[s] for s in rel.vector.support()]
        if any(flags) and not all(flags):
            return (f"filter closure violation: relation {rel.rule}{dict(rel.params)} mixes admitted "
                    "and non-admitted symbols")
        if all(flags):
            kept.append(rel.vector)
    return tuple(kept)


def test_admits_matches_the_sweep(pass_data):
    G, _, syms, _, cases = pass_data
    for name, (f, admits) in cases.items():
        expected = [admits[s] for s in syms]
        assert [f.admits(s, G) for s in syms] == expected, name
        assert any(expected) and all(expected) == (name == "every symbol"), name


def test_nontrivial_y_pairs_are_not_the_least_conjugates(pass_data):
    # on nonabelian G the filters name their pairs by a conjugate the
    # canonical symbols do not carry, so matching them needs conjugation
    G, _, syms, _, cases = pass_data
    f, _ = cases["nontrivial Y"]
    own = {(frozenset(s.h), frozenset(carrier_quotient(G, s.h, s.kind).preimage(s.y))) for s in syms}
    moved = {(frozenset(h), frozenset(p)) for h, p in f.pairs}
    assert moved.isdisjoint(own) != G.is_abelian()


def test_filtered_relation_vectors_match_the_sweep(pass_data):
    G, catalog, _, relations, cases = pass_data
    for name, (f, admits) in cases.items():
        expected = reference_vectors(admits, relations)
        if isinstance(expected, str):
            with pytest.raises(ValidationError) as refused:
                filtered_relation_vectors(G, catalog, f)
            assert str(refused.value) == expected, name
        else:
            assert filtered_relation_vectors(G, catalog, f) == expected, name


def test_filtered_structure_reads_one_conjugation_table(monkeypatch):
    catalog = generated_catalog(build_group({"kind": "table", "name": "D4xC2", "mul": D4xC2}))
    clear_engine_caches()
    G = build_group({"kind": "table", "name": "D4xC2", "mul": D4xC2})
    calls = 0
    conj = FiniteGroup.conj

    def counted(self, g, a):
        nonlocal calls
        calls += 1
        return conj(self, g, a)

    monkeypatch.setattr(FiniteGroup, "conj", counted)
    assert filtered_structure(G, catalog, FilterSpec.max_stabilizer(G)).to_json() == {"free_rank": 1, "torsion": []}
    assert 0 < calls <= G.order ** 2
