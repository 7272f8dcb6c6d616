"""Random (model, blow-up center) scenario generation over a fixture catalog,
plus the mutation harness that drops single appended terms, generated
catalogs for larger groups (and with extra labels of noncyclic or nonabelian
shapes, or with a target of the wrong shape), a genus-1 recipe over the
generated one, a genus-1 catalog whose extension rule declares the wrong
shape, multiplication tables of a few group families with seeded
relabellings, each fixture catalog's group, the specs of the benchmark
ladder's groups, a reset of the engine caches, and a check that the tables a
group and its derived objects own stay bounded."""

import random
from dataclasses import replace
from itertools import permutations, product

from burnloc.abelian import abelian_structure, normalize_factors, shape_name
from burnloc.catalog import CURVE, catalog_from_json, catalog_to_json, ensure_valid_catalog
from burnloc.errors import ValidationError
from burnloc.fixtures import fixture_catalog
from burnloc.groups import abelian_subgroups_up_to_conjugacy, all_subgroups, subgroups_up_to_conjugacy
from burnloc.models import (
    BlowupCenter,
    JacobianFactorDatum,
    ModelDescription,
    StratumDatum,
    blowup,
)
from burnloc.symbols import (
    KIND_CURVE,
    KIND_JAC,
    KIND_SURFACE,
    Symbol,
    carrier_quotient,
    iter_curve_data,
    iter_jac_data,
    iter_surface_data,
)


def _datum(G, sym: Symbol):
    Q = carrier_quotient(G, sym.h, sym.kind)
    upstairs = Q.preimage(sym.y)
    if sym.kind == "jac":
        return JacobianFactorDatum(stabilizer=sym.h, residual=sym.action, residual_group=upstairs)
    kind = "fixed_curve" if sym.kind == "curve" else "ruled_divisor"
    return StratumDatum(
        kind=kind, stabilizer=sym.h, residual=sym.action,
        weights=sym.weights, residual_group=upstairs,
    )


class ScenarioPool:
    """Everything that can appear in a random model or center for (G, catalog)."""

    def __init__(self, G, catalog):
        self.G = G
        self.catalog = catalog
        self.curve = list(iter_curve_data(G, catalog))
        self.surface = list(iter_surface_data(G, catalog))
        self.jac = list(iter_jac_data(G, catalog))
        self.case1 = []
        for label in catalog.labels_in(CURVE):
            for Y in all_subgroups(G):
                if label.group_shape.matches(Y):
                    self.case1.append((label.id, Y.elements))
        # case-2 contexts: a cyclic stabilizer with a generating weight, plus a
        # curve action with the same stabilizer
        self.case2 = []
        for surf in self.surface:
            for curve in self.curve:
                if curve.h == surf.h:
                    Q = carrier_quotient(G, curve.h, KIND_CURVE)
                    self.case2.append((surf.h, surf.weights[0], curve.action, Q.preimage(curve.y)))

    def random_model(self, rng) -> ModelDescription:
        strata = []
        factors = []
        for _ in range(rng.randint(0, 2)):
            if self.curve:
                strata.append(_datum(self.G, rng.choice(self.curve)))
        for _ in range(rng.randint(0, 1)):
            if self.surface:
                strata.append(_datum(self.G, rng.choice(self.surface)))
        for _ in range(rng.randint(0, 2)):
            if self.jac:
                factors.append(_datum(self.G, rng.choice(self.jac)))
        return ModelDescription(
            group=self.G, catalog=self.catalog,
            strata=tuple(strata), jacobian_factors=tuple(factors),
        )

    def random_center(self, rng, m: ModelDescription) -> BlowupCenter:
        options = []
        if self.case1:
            options.append(1)
        if self.case2:
            options.append(2)
        fixed = [i for i, d in enumerate(m.strata) if d.kind == "fixed_curve"]
        if fixed:
            options.append(3)
        case = rng.choice(options)
        if case == 1:
            label, y = rng.choice(self.case1)
            return BlowupCenter(case=1, curve_label=label, y_reps=y)
        if case == 2:
            h, weight, label, y = rng.choice(self.case2)
            return BlowupCenter(
                case=2, curve_label=label, y_reps=y,
                context_stabilizer=h, context_weight=weight,
            )
        return BlowupCenter(case=3, stratum=rng.choice(fixed))


def single_term_mutations(m: ModelDescription, out: ModelDescription, case: int):
    """Models with exactly one appended blow-up term removed, with a category tag."""
    kept_strata = len(m.strata) - (1 if case == 3 else 0)
    mutations = []
    for i in range(kept_strata, len(out.strata)):
        datum = out.strata[i]
        if case == 2:
            tag = "drop-case2-curve"
        elif datum.kind == "fixed_curve":
            tag = "drop-case3-theta1"
        else:
            tag = "drop-case3-theta2"
        strata = out.strata[:i] + out.strata[i + 1:]
        mutations.append((tag, replace(out, strata=strata)))
    if len(out.jacobian_factors) > len(m.jacobian_factors):
        tag = f"drop-case{case}-jac"
        mutations.append((tag, replace(out, jacobian_factors=out.jacobian_factors[:-1])))
    return mutations


def run_scenarios(rng, pool: ScenarioPool, lattice, count: int):
    """Returns (#scenarios run, list of invariance booleans, mutation failure tally)."""
    from burnloc.models import class_of_action
    from burnloc.relations import classes_equal

    results = []
    mutation_failures: dict[str, int] = {}
    mutation_runs: dict[str, int] = {}
    for _ in range(count):
        m = pool.random_model(rng)
        center = pool.random_center(rng, m)
        out = blowup(m, center)
        base = class_of_action(m)
        results.append(classes_equal(base, class_of_action(out), lattice))
        for tag, mutated in single_term_mutations(m, out, center.case):
            mutation_runs[tag] = mutation_runs.get(tag, 0) + 1
            if not classes_equal(base, class_of_action(mutated), lattice):
                mutation_failures[tag] = mutation_failures.get(tag, 0) + 1
    return results, mutation_runs, mutation_failures


def generated_catalog(G):
    """A complete genus-2 catalog for G built from declared data only.

    Labels `triv-C`, `triv-CxP1`, `triv-J` and `c<m>-CxP1`, the Jacobian rule
    `triv-C -> triv-J`, and one induce rule per nontrivial abelian stabilizer
    shape with at most two invariant factors and per weight pattern (`equal`
    and every divisor m >= 2 of |H|).
    """
    shapes = {abelian_structure(H).invariant_factors for H in abelian_subgroups_up_to_conjugacy(G)}
    rules, ms = [], set()
    for shape in sorted((s for s in shapes if 1 <= len(s) <= 2), key=lambda s: (len(s), s)):
        order = 1
        for d in shape:
            order *= d
        rules.append({"h": list(shape), "curve_label": "triv-C", "weights": "equal", "target": "triv-CxP1"})
        for m in range(2, order + 1):
            if order % m == 0:
                ms.add(m)
                rules.append({"h": list(shape), "curve_label": "triv-C", "weights": {"diff_order": m},
                              "target": f"c{m}-CxP1"})
    labels = [
        {"id": "triv-C", "space": "curve", "group_shape": [], "faithful": True, "trivial": True},
        {"id": "triv-CxP1", "space": "ruled_surface", "group_shape": [], "faithful": True, "trivial": True},
        {"id": "triv-J", "space": "jacobian", "group_shape": [], "faithful": True, "trivial": True,
         "from_curve": True, "underlying_curve_action": "triv-C"},
    ] + [
        {"id": f"c{m}-CxP1", "space": "ruled_surface", "group_shape": [m], "faithful": True, "trivial": False}
        for m in sorted(ms)
    ]
    data = {
        "curve": {"id": "C-gen2", "genus": 2, "hyperelliptic": False},
        "labels": labels,
        "rules": {
            "induce": rules,
            "jacobian_of_curve": [{"source": "triv-C", "target": "triv-J"}],
            "genus_one_extension": [],
        },
    }
    return ensure_valid_catalog(catalog_from_json(data, name="generated"))


def genus_one_catalog(G):
    """G's generated catalog moved to `elliptic-Z2`'s curve E of genus 1, with
    that catalog's labels `inv-C`, `transl-C`, `neg-J` and `trivG-J`, its
    Jacobian rules and its genus-one extension rule.  Each generated induce key
    gets a twin for `inv-C` and for `transl-C`, whose Y is C2; its target is
    the surface label `c<..>-CxP1` named by the shape C2 x C_m, m the key's diff
    order (1 for "equal"), added where missing.  Y bar has that shape over an
    elementary abelian 2-group, where the catalog is complete; elsewhere a key
    can meet two shapes (C4 and C2xC2 over C2xC4), and B2 refuses its target."""
    data = catalog_to_json(generated_catalog(G))
    elliptic = catalog_to_json(fixture_catalog("elliptic-Z2"))
    data["curve"] = elliptic["curve"]
    ids = {label["id"] for label in data["labels"]}
    data["labels"] += [label for label in elliptic["labels"] if label["id"] not in ids]
    rules = data["rules"]
    rules["jacobian_of_curve"] = elliptic["rules"]["jacobian_of_curve"]
    rules["genus_one_extension"] = elliptic["rules"]["genus_one_extension"]
    twins = []
    for rule in rules["induce"]:
        shape = normalize_factors((2, 1 if rule["weights"] == "equal" else rule["weights"]["diff_order"]))
        target = f"{shape_name(shape).lower()}-CxP1"
        if target not in ids:
            ids.add(target)
            data["labels"].append({"id": target, "space": "ruled_surface", "group_shape": list(shape),
                                   "faithful": True, "trivial": False})
        twins += [{**rule, "curve_label": label, "target": target} for label in ("inv-C", "transl-C")]
    rules["induce"] += twins
    return ensure_valid_catalog(catalog_from_json(data, name="genus-one"))


def catalog_with_shapes(G, shapes, spaces=("ruled_surface", "jacobian")):
    """The generated catalog plus one faithful, nontrivial label per given shape
    (JSON, e.g. `[2, 2]` or `{"order": 8, "abelian": False}`) in each given
    space.  The labels enter no rule, so a curve label makes the catalog
    incomplete for relations, but not for enumeration."""
    data = catalog_to_json(generated_catalog(G))
    for i, shape in enumerate(shapes):
        for space in spaces:
            data["labels"].append({"id": f"extra{i}-{space}", "space": space, "group_shape": shape,
                                   "faithful": True, "trivial": False})
    return ensure_valid_catalog(catalog_from_json(data, name="extra-shapes"))


def wrong_shape_catalog(G):
    """G's generated catalog as JSON with a C2xC2 surface label `v4-CxP1` that
    every diff_order 4 induce rule targets.  The catalog check compares orders
    only, so it passes; over C2xC4 a Theta2 term of B2 has a cyclic Y bar of
    order 4, and the relation pass refuses it (`WRONG_SHAPE_REFUSAL`)."""
    data = catalog_to_json(generated_catalog(G))
    data["labels"].append(
        {"id": "v4-CxP1", "space": "ruled_surface", "group_shape": [2, 2], "faithful": True, "trivial": False})
    for rule in data["rules"]["induce"]:
        if rule["weights"] == {"diff_order": 4}:
            rule["target"] = "v4-CxP1"
    return data


WRONG_SHAPE_REFUSAL = (
    "B2(symbol=curve[H=C2xC4{0,1,2,3,4,5,6,7};Y=1{0};act=triv-C;w=(0,1),(1,0)]): "
    "InduceRule(C2xC4,triv-C,diff_order=4): "
    "cannot canonicalize invalid symbol: residual group of order 4 does not match declared shape C2xC2"
)


def wrong_extension_catalog():
    """`elliptic-Z2` as JSON, completed for C4, with a genus-one extension rule
    from `trivG-J` over H = C2 that declares the extension C2xC2.  Its order,
    |H| * |Y1| = 4, passes the catalog check; over C4 the extension of Y1 = C2
    by H is C4, and the relation pass refuses B4 (`WRONG_EXTENSION_REFUSAL`)."""
    data = catalog_to_json(fixture_catalog("elliptic-Z2"))
    data["labels"].append(
        {"id": "c2-CxP1", "space": "ruled_surface", "group_shape": [2], "faithful": True, "trivial": False})
    data["rules"]["induce"] += [
        *({"h": [2], "curve_label": label, "weights": "equal", "target": "c2-CxP1"} for label in ("inv-C", "transl-C")),
        {"h": [4], "curve_label": "triv-C", "weights": "equal", "target": "triv-CxP1"},
        {"h": [4], "curve_label": "triv-C", "weights": {"diff_order": 2}, "target": "c2-CxP1"},
    ]
    data["rules"]["genus_one_extension"] = [
        {"h": [2], "label": "trivG-J", "trivial_part": "all", "target_h": [2, 2], "target_label": "triv-J"}]
    return data


WRONG_EXTENSION_REFUSAL = (
    "B4(symbol=jac[H=C2{0,2};Y=C2{0,1};act=trivG-J]): GenusOneExtensionRule(C2,trivG-J): "
    "computed extension C4 does not match declared shape C2xC2"
)


def clear_engine_caches():
    """Empty the package's one process-wide cache.  Every other derived fact
    is kept by the group it depends on, so a group freshly built from a table
    computes cold with no table warm anywhere."""
    subgroups_up_to_conjugacy.cache_clear()


def assert_tables_bounded(G, catalog=None):
    """Every subgroup table of G and of its carrier quotients is keyed by checked
    subgroups only: the check, class, abelian structure, shape, quotient and
    stabilizer record tables by members of G's lattice (each record holding
    its own subgroup, the kept structure when it has one, and its carrier
    quotient), the frame memo by (kind, h)
    with h in the lattice and a carrier quotient for that kind, or kind None
    for a trivial Y, each frame holding one g per distinct pair (coset map of
    the carrier quotient, or of its trivial coset for kind None; action on h)
    and its Y memo keyed by members of the carrier quotient's lattice.
    The memos of derived objects stay bounded too: each abelian structure's
    kernel memo keyed by its characters and holding members of G's lattice
    inside its host, its dual-generation answers keyed by one or two of its
    characters, its transported characters keyed by (element of G, its
    character), each stabilizer record's carrier quotient holding the members
    of its cosets, which partition the carrier, and its resolved residual
    groups by members of its quotient's lattice, each keyed by declared
    generators or by a shape the catalog declares (when a catalog is given)."""
    lattice = {H.elements for H in all_subgroups(G)}
    shapes = None if catalog is None else {label.group_shape for label in catalog.labels}
    assert set(G._checked) <= lattice
    assert set(G._classes) <= lattice
    assert set(G.structures) <= lattice and set(G.shapes) <= lattice and {h for h, _ in G.carriers} <= lattice
    for (h, jac), (H, struct, Q, resolved) in G.carriers.items():
        assert H.elements == h and struct is (None if jac or len(h) == 1 else G.structures[h])
        assert Q.image(h) == (0,) and len(Q.reps) == Q.group.order
        assert sorted(Q._members) == list(Q.group.elements())
        assert sorted(x for xs in Q._members.values() for x in xs) == sorted(Q.coset_of)
        assert all(Q.coset_of[x] == i for i, xs in Q._members.items() for x in xs)
        y_lattice = {Y.elements for Y in all_subgroups(Q.group)}
        assert set(resolved.values()) <= y_lattice
        assert shapes is None or all(key in shapes or all(type(x) is int for x in key) for key in resolved)
    for H in all_subgroups(G):
        if H.is_abelian():
            struct = abelian_structure(H)
            chars = set(product(*map(range, struct.invariant_factors)))
            assert set(struct._kernels) <= chars
            assert all(1 <= len(key) <= 2 and set(key) <= chars for key in struct._duals)
            assert all(g in G.elements() and b in chars for g, b in struct._characters)
            assert all(k in lattice and set(k) <= set(H.elements) for k in struct._kernels.values())
    frame_bound = len(lattice)  # the frames of kind None
    for (kind, h), (_, moves, per_y) in G.frames.items():
        assert len({(cosets, action) for _, cosets, action in moves}) == len(moves)
        assert kind is not None or (all(cosets == (0,) for _, cosets, _ in moves) and set(per_y) <= {(0,)})
    for h in lattice:
        for kind in (KIND_CURVE, KIND_SURFACE, KIND_JAC):
            try:
                Q = carrier_quotient(G, h, kind)
            except ValidationError:
                continue  # no centralizer quotient over a nonabelian h
            y_lattice = {Y.elements for Y in all_subgroups(Q.group)}
            frame_bound += 1
            assert set(Q.group._checked) <= y_lattice and set(Q.group.shapes) <= y_lattice
            if (kind, h) in G.frames:
                _, moves, per_y = G.frames[kind, h]
                assert all(sorted(cosets) == list(Q.group.elements()) for _, cosets, _ in moves)
                assert set(per_y) <= y_lattice
    assert all(h in lattice for _, h in G.frames)
    assert len(G.frames) <= frame_bound


def cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def dihedral_table(n):
    """Symmetries of the n-gon, order 2n: element r^i s^j has index i + n*j."""
    def mul(a, b):
        i, j, k, l = a % n, a // n, b % n, b // n
        return (i + (k if j == 0 else -k)) % n + n * ((j + l) % 2)
    return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]


def symmetric_table(k):
    perms = sorted(permutations(range(k)))  # identity first
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(k))] for q in perms] for p in perms]


def direct_product(a, b):
    m = len(b)
    n = len(a) * m
    return [[a[x // m][y // m] * m + b[x % m][y % m] for y in range(n)] for x in range(n)]


def relabel(table, seed):
    """The same group with elements 1..n-1 renamed by a seeded shuffle (0 stays the identity)."""
    n = len(table)
    rest = list(range(1, n))
    random.Random(seed).shuffle(rest)
    pi = [0] + rest
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[pi[a]][pi[b]] = pi[table[a][b]]
    return out


PERM_GROUPS = {
    "S3": {"kind": "perm", "degree": 3, "gens": [[1, 0, 2], [1, 2, 0]]},
    "D4": {"kind": "perm", "degree": 4, "gens": [[1, 2, 3, 0], [1, 0, 3, 2]]},
    "S3xC2": {"kind": "perm", "degree": 5, "gens": [[1, 0, 2, 3, 4], [1, 2, 0, 3, 4], [0, 1, 2, 4, 3]]},
    "D4xC2": {"kind": "perm", "degree": 6,
              "gens": [[1, 2, 3, 0, 4, 5], [1, 0, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4]]},
    # the C4 factor is central, so centralizers are large and many conjugations tie
    "D3xC4": {"kind": "perm", "degree": 7,
              "gens": [[1, 0, 2, 3, 4, 5, 6], [1, 2, 0, 3, 4, 5, 6], [0, 1, 2, 4, 5, 6, 3]]},
}
ABELIAN_GROUPS = {
    "C4xC4": {"kind": "abelian", "factors": [4, 4]},
    "C2xC6": {"kind": "abelian", "factors": [2, 6]},
}

# each fixture catalog and the order of the cyclic group it is declared over
FIXTURE_PAIRS = {
    "hyperelliptic-Z2": 2, "nonhyperelliptic-Z2-exotic": 2, "elliptic-Z2": 2, "Z3-basic": 3,
}

# the rungs of the two benchmark ladders
LADDER_GROUPS = {
    "C10": {"kind": "cyclic", "n": 10},
    "C12": {"kind": "cyclic", "n": 12},
    "C2xC6": ABELIAN_GROUPS["C2xC6"],
    "C4xC4": ABELIAN_GROUPS["C4xC4"],
    "C2xC2xC4": {"kind": "abelian", "factors": [2, 2, 4]},
    "D10": {"kind": "table", "mul": dihedral_table(10)},
    "D4xC2": PERM_GROUPS["D4xC2"],
    "S3xS3": {"kind": "table", "mul": direct_product(symmetric_table(3), symmetric_table(3))},
    "D3xC4": PERM_GROUPS["D3xC4"],
    "D6xC2": {"kind": "table", "mul": direct_product(dihedral_table(6), cyclic_table(2))},
}
