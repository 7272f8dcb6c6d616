"""Finite groups as explicit multiplication tables, with the subgroup machinery
needed by the symbol algebra: subgroups, conjugation, centralizers, normalizers,
quotients with section data, and enumeration of (abelian) subgroups up to
conjugacy.

Elements are indices 0..order-1 and element 0 is always the identity.  Groups
are capped at a configurable order bound (default 64, env BURNLOC_ORDER_BOUND):
every algorithm here is a straight exhaustive enumeration, which is the simplest
correct strategy at this scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

from .errors import ValidationError

DEFAULT_ORDER_BOUND = 64
ORDER_BOUND_ENV = "BURNLOC_ORDER_BOUND"


def order_bound() -> int:
    raw = os.environ.get(ORDER_BOUND_ENV)
    if raw is None:
        return DEFAULT_ORDER_BOUND
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"{ORDER_BOUND_ENV} must be an integer, got {raw!r}")
    if value < 1:
        raise ValidationError(f"{ORDER_BOUND_ENV} must be positive, got {value}")
    return value


class FiniteGroup:
    """A finite group given by its full multiplication table.

    `mul[a][b]` is the index of a*b; index 0 is the identity.  The table is
    validated on construction (identity, inverses, associativity).
    """

    __slots__ = ("order", "mul", "identity", "name", "_inv", "_abelian", "_hash", "_conj")

    def __init__(self, mul: Sequence[Sequence[int]], name: str = "", bound: int | None = None):
        table = tuple(tuple(int(x) for x in row) for row in mul)
        n = len(table)
        limit = order_bound() if bound is None else bound
        if n == 0:
            raise ValidationError("a group needs at least the identity element")
        if n > limit:
            raise ValidationError(f"group order {n} exceeds bound {limit}")
        if any(len(row) != n for row in table):
            raise ValidationError("multiplication table must be square")
        rng = range(n)
        if any(x not in rng for row in table for x in row):
            raise ValidationError("table entries must be element indices")
        if any(table[0][a] != a or table[a][0] != a for a in rng):
            raise ValidationError("element 0 must be a two-sided identity")
        inv = [-1] * n
        for a in rng:
            for b in rng:
                if table[a][b] == 0 and table[b][a] == 0:
                    inv[a] = b
                    break
            if inv[a] < 0:
                raise ValidationError(f"element {a} has no two-sided inverse")
        for a, b, c in product(rng, repeat=3):
            if table[table[a][b]][c] != table[a][table[b][c]]:
                raise ValidationError(f"table is not associative at ({a},{b},{c})")
        self.order = n
        self.mul = table
        self.identity = 0
        self.name = name
        self._inv = tuple(inv)
        self._abelian = all(table[a][b] == table[b][a] for a in rng for b in rng)
        self._hash = hash(table)
        self._conj = None

    def op(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, g: int, a: int) -> int:
        """g * a * g^-1."""
        return self.mul[self.mul[g][a]][self._inv[g]]

    def conj_table(self) -> tuple[tuple[int, ...], ...]:
        """`conj_table()[g][a]` is g * a * g^-1; built on first use."""
        if self._conj is None:
            self._conj = tuple(tuple(self.conj(g, a) for a in self.elements()) for g in self.elements())
        return self._conj

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self._inv[a], -k)
        x = 0
        for _ in range(k):
            x = self.mul[x][a]
        return x

    def element_order(self, a: int) -> int:
        x, n = a, 1
        while x != 0:
            x = self.mul[x][a]
            n += 1
        return n

    def is_abelian(self) -> bool:
        return self._abelian

    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.mul == other.mul

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        label = self.name or f"order {self.order}"
        return f"FiniteGroup({label})"


def _cyclic_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _abelian_table(factors: Sequence[int]) -> list[list[int]]:
    # elements are mixed-radix tuples, indexed lexicographically
    tuples = list(product(*(range(d) for d in factors)))
    index = {t: i for i, t in enumerate(tuples)}
    table = []
    for s in tuples:
        table.append([index[tuple((x + y) % d for x, y, d in zip(s, t, factors))] for t in tuples])
    return table


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p*q)(i) = p(q(i))
    return tuple(p[q[i]] for i in range(len(p)))


def _perm_table(degree: int, gens: Sequence[Sequence[int]], limit: int) -> list[list[int]]:
    if degree < 1 or degree > 12:
        raise ValidationError("permutation degree must be between 1 and 12")
    base = tuple(range(degree))
    gen_tuples = []
    for g in gens:
        t = tuple(int(x) for x in g)
        if sorted(t) != list(base):
            raise ValidationError(f"not a permutation of 0..{degree - 1}: {g}")
        gen_tuples.append(t)
    # closure by orbit enumeration
    elems = {base}
    frontier = [base]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gen_tuples:
                q = _compose(p, g)
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
                    if len(elems) > limit:
                        raise ValidationError(f"group order {len(elems)}+ exceeds bound {limit}")
        frontier = nxt
    ordered = sorted(elems)  # identity is lexicographically first
    index = {p: i for i, p in enumerate(ordered)}
    return [[index[_compose(p, q)] for q in ordered] for p in ordered]


def build_group(spec: dict, bound: int | None = None) -> FiniteGroup:
    """Build a validated group from a description.

    Supported kinds: {"kind":"cyclic","n":..}, {"kind":"abelian","factors":[..]},
    {"kind":"table","mul":[[..]]}, {"kind":"perm","degree":k,"gens":[[..]]}.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError(f"group description must be an object with a 'kind': {spec!r}")
    kind = spec["kind"]
    limit = order_bound() if bound is None else bound
    if kind == "cyclic":
        n = int(spec["n"])
        if n < 1:
            raise ValidationError("cyclic group order must be positive")
        if n > limit:
            raise ValidationError(f"group order {n} exceeds bound {limit}")
        return FiniteGroup(_cyclic_table(n), name=f"C{n}", bound=limit)
    if kind == "abelian":
        factors = [int(d) for d in spec["factors"]]
        if any(d < 1 for d in factors):
            raise ValidationError("abelian factors must be positive")
        n = 1
        for d in factors:
            n *= d
        if n > limit:
            raise ValidationError(f"group order {n} exceeds bound {limit}")
        name = "x".join(f"C{d}" for d in factors) or "C1"
        return FiniteGroup(_abelian_table(factors or [1]), name=name, bound=limit)
    if kind == "table":
        return FiniteGroup(spec["mul"], name=spec.get("name", ""), bound=limit)
    if kind == "perm":
        table = _perm_table(int(spec["degree"]), spec["gens"], limit)
        return FiniteGroup(table, name=spec.get("name", ""), bound=limit)
    raise ValidationError(f"unknown group kind {kind!r}")


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of an ambient group, stored as a sorted element tuple."""

    ambient: FiniteGroup
    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements)))
        object.__setattr__(self, "elements", elems)
        G = self.ambient
        if not elems or elems[0] != 0:
            raise ValidationError("subgroup must contain the identity")
        members = set(elems)
        for a in elems:
            if a not in G.elements():
                raise ValidationError(f"element {a} outside the ambient group")
            if G.inv(a) not in members:
                raise ValidationError(f"subgroup not closed under inverse at {a}")
            for b in elems:
                if G.mul[a][b] not in members:
                    raise ValidationError(f"subgroup not closed under product at ({a},{b})")

    @classmethod
    def trusted(cls, G: FiniteGroup, elements: tuple[int, ...]) -> "Subgroup":
        """A subgroup the package derived from valid ones, as a sorted tuple; unlike
        `Subgroup(G, elements)`, which checks input from outside, it checks nothing."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "ambient", G)
        object.__setattr__(sub, "elements", elements)
        return sub

    @classmethod
    def generated(cls, G: FiniteGroup, gens: Iterable[int]) -> "Subgroup":
        elems = {0}
        frontier = [0]
        for g in gens:
            g = int(g)
            if not 0 <= g < G.order:
                raise ValidationError(f"generator {g} outside the ambient group")
            if g not in elems:
                elems.add(g)
                frontier.append(g)
        while frontier:
            nxt = []
            for a in list(frontier):
                for b in list(elems):
                    for c in (G.mul[a][b], G.mul[b][a]):
                        if c not in elems:
                            elems.add(c)
                            nxt.append(c)
            frontier = nxt
        return cls.trusted(G, tuple(sorted(elems)))

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_full(self) -> bool:
        return self.order == self.ambient.order

    def contains(self, a: int) -> bool:
        return a in self._member_set()

    def _member_set(self) -> frozenset:
        return frozenset(self.elements)

    def is_abelian(self) -> bool:
        G = self.ambient
        return all(G.mul[a][b] == G.mul[b][a] for a in self.elements for b in self.elements)

    def is_cyclic(self) -> bool:
        return any(self.ambient.element_order(a) == self.order for a in self.elements)

    def is_normal_in(self, other: "Subgroup") -> bool:
        G = self.ambient
        members = self._member_set()
        return all(G.conj(g, a) in members for g in other.elements for a in self.elements)

    def conjugate(self, g: int) -> "Subgroup":
        row = self.ambient.conj_table()[g]
        return Subgroup.trusted(self.ambient, tuple(sorted(row[a] for a in self.elements)))


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup.trusted(G, (0,))


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup.trusted(G, tuple(G.elements()))


def conjugate_subgroup(g: int, H: Subgroup) -> Subgroup:
    return H.conjugate(g)


def centralizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    elems = [g for g in G.elements() if all(G.mul[g][a] == G.mul[a][g] for a in H.elements)]
    return Subgroup.trusted(G, tuple(elems))


def normalizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    members = frozenset(H.elements)
    elems = [
        g for g in G.elements()
        if all(G.conj(g, a) in members for a in H.elements)
    ]
    return Subgroup.trusted(G, tuple(elems))


def _closure(G: FiniteGroup, seed: frozenset) -> frozenset:
    elems = set(seed) | {0}
    changed = True
    while changed:
        changed = False
        for a, b in product(tuple(elems), repeat=2):
            c = G.mul[a][b]
            if c not in elems:
                elems.add(c)
                changed = True
    return frozenset(elems)


def subgroups_within(G: FiniteGroup, universe: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All subgroups of G whose elements lie inside the given closed subset,
    ordered by (order, elements)."""
    # breadth-first closure generation: every subgroup arises by repeatedly
    # adjoining one generator, so this is exhaustive
    allowed = frozenset(universe)
    trivial = frozenset({0})
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            for g in allowed - H:
                K = _closure(G, H | {g})
                if K <= allowed and K not in seen:
                    seen.add(K)
                    nxt.append(K)
        frontier = nxt
    return tuple(sorted((tuple(sorted(s)) for s in seen), key=lambda t: (len(t), t)))


@lru_cache(maxsize=None)
def all_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """Every subgroup of G, ordered by (order, elements)."""
    return tuple(Subgroup.trusted(G, s) for s in subgroups_within(G, tuple(G.elements())))


def _up_to_conjugacy(subgroups: Iterable[Subgroup]) -> tuple[Subgroup, ...]:
    """One representative per conjugacy class of subgroups given in (order,
    elements) order and closed under conjugation: the first of each class,
    which is its lexicographically least member."""
    reps = []
    seen: set[tuple[int, ...]] = set()
    for H in subgroups:
        if H.elements in seen:
            continue
        seen.update(H.conjugate(g).elements for g in H.ambient.elements())
        reps.append(H)
    return tuple(reps)


@lru_cache(maxsize=None)
def abelian_subgroups_up_to_conjugacy(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """One representative per conjugacy class of abelian subgroups (trivial included)."""
    return _up_to_conjugacy(H for H in all_subgroups(G) if H.is_abelian())


@lru_cache(maxsize=None)
def subgroups_up_to_conjugacy(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """One representative per conjugacy class of all subgroups."""
    return _up_to_conjugacy(all_subgroups(G))


class QuotientGroup:
    """Quotient N/H with section data back into the ambient group.

    `group` is the quotient as a FiniteGroup; coset 0 is H itself.  `coset_of`
    maps an N-element to its coset index and `reps` picks the minimal
    representative of each coset.
    """

    __slots__ = ("group", "sub", "kernel", "coset_of", "reps")

    def __init__(self, N: Subgroup, H: Subgroup):
        G = N.ambient
        if H.ambient != G:
            raise ValidationError("quotient requires subgroups of the same ambient group")
        n_members = frozenset(N.elements)
        if not frozenset(H.elements) <= n_members:
            raise ValidationError("kernel must be contained in the subgroup being quotiented")
        if not H.is_normal_in(N):
            raise ValidationError("kernel is not normal in the given subgroup")
        coset_of: dict[int, int] = {}
        reps: list[int] = []
        for x in N.elements:  # ascending, so coset reps are minimal and H comes first
            if x in coset_of:
                continue
            idx = len(reps)
            reps.append(x)
            for h in H.elements:
                coset_of[G.mul[x][h]] = idx
        k = len(reps)
        table = [[coset_of[G.mul[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
        self.group = FiniteGroup(table, name=f"quotient[{len(N.elements)}/{len(H.elements)}]", bound=k)
        self.sub = N
        self.kernel = H
        self.coset_of = coset_of
        self.reps = tuple(reps)

    def image(self, elements: Iterable[int]) -> tuple[int, ...]:
        """Coset indices of the given N-elements (sorted, deduplicated)."""
        return tuple(sorted({self.coset_of[x] for x in elements}))

    def preimage(self, cosets: Iterable[int]) -> tuple[int, ...]:
        """All N-elements lying in the given cosets."""
        wanted = set(cosets)
        return tuple(sorted(x for x, c in self.coset_of.items() if c in wanted))


@lru_cache(maxsize=None)
def quotient(N: Subgroup, H: Subgroup) -> QuotientGroup:
    return QuotientGroup(N, H)
