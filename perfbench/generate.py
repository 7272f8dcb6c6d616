"""Seeded inputs for the benchmark: group tables, relabellings and generated
catalogs built from declared data only.

Groups are produced as plain multiplication tables (element 0 is the identity)
so that every workload can relabel them at random before handing them to the
program.  Catalogs follow one recipe: labels `triv-C`, `triv-CxP1`, `triv-J`
and `c<m>-CxP1`, a `triv-C -> triv-J` Jacobian rule, and one `InduceRule` per
nontrivial abelian stabilizer shape with at most two invariant factors and per
weight pattern (`equal` and every divisor m >= 2 of |H|).
"""

from __future__ import annotations

import random
from itertools import permutations, product


def cyclic_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def abelian_table(factors) -> list[list[int]]:
    tuples = list(product(*(range(d) for d in factors)))
    index = {t: i for i, t in enumerate(tuples)}
    return [
        [index[tuple((x + y) % d for x, y, d in zip(s, t, factors))] for t in tuples]
        for s in tuples
    ]


def dihedral_table(n: int) -> list[list[int]]:
    """Symmetries of the n-gon, order 2n: element r^i s^j has index i + n*j."""
    def mul(a, b):
        i, j = a % n, a // n
        k, l = b % n, b // n
        return (i + (k if j == 0 else -k)) % n + n * ((j + l) % 2)
    return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]


def symmetric_table(k: int) -> list[list[int]]:
    perms = sorted(permutations(range(k)))  # identity first
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(k))] for q in perms] for p in perms]


def direct_product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    m = len(b)
    n = len(a) * m
    return [[a[x // m][y // m] * m + b[x % m][y % m] for y in range(n)] for x in range(n)]


# name -> table builder; names are the ladder rung names used in reports
GROUPS = {
    "C4": lambda: cyclic_table(4),
    "C10": lambda: cyclic_table(10),
    "C12": lambda: cyclic_table(12),
    "C2xC6": lambda: abelian_table([2, 6]),
    "C4xC4": lambda: abelian_table([4, 4]),
    "C2xC2xC4": lambda: abelian_table([2, 2, 4]),
    "C2xC2xC8": lambda: abelian_table([2, 2, 8]),
    "D10": lambda: dihedral_table(10),
    "D4xC2": lambda: direct_product(dihedral_table(4), cyclic_table(2)),
    "D3xC4": lambda: direct_product(dihedral_table(3), cyclic_table(4)),
    "S3xS3": lambda: direct_product(symmetric_table(3), symmetric_table(3)),
    "D4xC4": lambda: direct_product(dihedral_table(4), cyclic_table(4)),
    "D6xC2": lambda: direct_product(dihedral_table(6), cyclic_table(2)),
    "S4xC2": lambda: direct_product(symmetric_table(4), cyclic_table(2)),
    "D16": lambda: dihedral_table(16),
    "D32": lambda: dihedral_table(32),
}


def relabel(table: list[list[int]], rng: random.Random) -> list[list[int]]:
    """The same group with elements 1..n-1 renamed at random (0 stays the identity)."""
    n = len(table)
    rest = list(range(1, n))
    rng.shuffle(rest)
    pi = [0] + rest
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        row = table[a]
        for b in range(n):
            out[pi[a]][pi[b]] = pi[row[b]]
    return out


def seeded_table(name: str, seed: int) -> list[list[int]]:
    """The named group's table under the relabelling chosen by (seed, name)."""
    return relabel(GROUPS[name](), random.Random(f"{seed}:{name}"))


def group_spec(name: str, seed: int) -> dict:
    return {"kind": "table", "name": name, "mul": seeded_table(name, seed)}


def _closure(table, gens) -> frozenset:
    elems = {0}
    frontier = [0]
    for g in gens:
        if g not in elems:
            elems.add(g)
            frontier.append(g)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(elems):
                for c in (table[a][b], table[b][a]):
                    if c not in elems:
                        elems.add(c)
                        nxt.append(c)
        frontier = nxt
    return frozenset(elems)


def _order(table, a: int) -> int:
    x, n = a, 1
    while x != 0:
        x = table[x][a]
        n += 1
    return n


def _invariant_factors(table, elems: frozenset) -> tuple[int, ...]:
    """Invariant factors of an abelian subgroup, read off its element orders.

    For each prime p, r[k] = log_p #{x : x^(p^k) = 1} determines how many
    cyclic p-factors have exponent >= k, namely r[k] - r[k-1].
    """
    n = len(elems)
    orders = [_order(table, a) for a in elems]
    primary: dict[int, list[int]] = {}
    for p in range(2, n + 1):
        if n % p or any(p % q == 0 for q in range(2, p)):
            continue
        r = [0]
        while True:
            count = sum(1 for o in orders if p ** len(r) % o == 0)
            e = 0
            while count > 1:
                count //= p
                e += 1
            if e == r[-1]:
                break
            r.append(e)
        at_least = [r[k] - r[k - 1] for k in range(1, len(r))] + [0]
        primary[p] = [
            k + 1 for k in reversed(range(len(at_least) - 1))
            for _ in range(at_least[k] - at_least[k + 1])
        ]
    out = []
    i = 0
    while any(i < len(e) for e in primary.values()):
        d = 1
        for p, exps in primary.items():
            if i < len(exps):
                d *= p ** exps[i]
        out.append(d)
        i += 1
    return tuple(reversed(out))


def abelian_subgroup_shapes(table) -> set[tuple[int, ...]]:
    """Invariant factors of every nontrivial abelian subgroup of the group."""
    n = len(table)
    commute = [[table[a][b] == table[b][a] for b in range(n)] for a in range(n)]
    seen = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        nxt = []
        for H in frontier:
            for g in range(n):
                if g in H or not all(commute[g][a] for a in H):
                    continue
                K = _closure(table, H | {g})
                if K not in seen:
                    seen.add(K)
                    nxt.append(K)
        frontier = nxt
    return {_invariant_factors(table, H) for H in seen if len(H) > 1}


def _divisors(n: int) -> list[int]:
    return [d for d in range(2, n + 1) if n % d == 0]


def catalog_json(table, name: str = "", drop_rule: int | None = None) -> dict:
    """The generated catalog for the group with this table.

    `drop_rule` removes the InduceRule at that position, which makes the catalog
    incomplete for the group on purpose.
    """
    rules = []
    ms: set[int] = set()
    for shape in sorted(abelian_subgroup_shapes(table), key=lambda s: (len(s), s)):
        if len(shape) > 2:
            continue
        order = 1
        for d in shape:
            order *= d
        rules.append({"h": list(shape), "curve_label": "triv-C", "weights": "equal",
                      "target": "triv-CxP1"})
        for m in _divisors(order):
            ms.add(m)
            rules.append({"h": list(shape), "curve_label": "triv-C",
                          "weights": {"diff_order": m}, "target": f"c{m}-CxP1"})
    if drop_rule is not None:
        del rules[drop_rule]
    labels = [
        {"id": "triv-C", "space": "curve", "group_shape": [], "faithful": True, "trivial": True},
        {"id": "triv-CxP1", "space": "ruled_surface", "group_shape": [], "faithful": True,
         "trivial": True},
        {"id": "triv-J", "space": "jacobian", "group_shape": [], "faithful": True, "trivial": True,
         "from_curve": True, "underlying_curve_action": "triv-C"},
    ]
    labels += [
        {"id": f"c{m}-CxP1", "space": "ruled_surface", "group_shape": [m], "faithful": True,
         "trivial": False}
        for m in sorted(ms)
    ]
    return {
        "name": name or "generated",
        "curve": {"id": "C-gen2", "genus": 2, "hyperelliptic": False},
        "labels": labels,
        "rules": {
            "induce": rules,
            "jacobian_of_curve": [{"source": "triv-C", "target": "triv-J"}],
            "genus_one_extension": [],
        },
    }
