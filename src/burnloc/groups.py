"""Finite groups as explicit multiplication tables, with the subgroup machinery
needed by the symbol algebra: subgroups, conjugation, centralizers, normalizers,
quotients with section data, and enumeration of (abelian) subgroups up to
conjugacy.

Elements are indices 0..order-1 and element 0 is always the identity.  Groups
are capped at an order bound: 64, unless the environment variable
BURNLOC_ORDER_BOUND sets another.
Every closure runs one routine, `_extend`, Dimino's coset step (Butler,
*Fundamental Algorithms for Permutation Groups*, LNCS 559, 1991): <H, g> is
found by a breadth-first search of the Cayley graph over the right cosets of H,
stepping by H's generators and g.  The lattice is walked depth first by
canonical augmentation (McKay, *Isomorph-free exhaustive generation*, J.
Algorithms 26, 1998): each subgroup is closed from the one parent its greedy
generators name and kept once, with no table of the subgroups found.

A table from outside is checked once, when its `FiniteGroup` is built; its
associativity by Light's test over a greedy generating set.  An element set
from outside is checked once per group, when its first `Subgroup` is built; a
later `Subgroup` of its checked (sorted) tuple takes the tuple as is.
Quotient tables N/H, built from a checked group and a subgroup found normal,
are trusted.
Each group owns the facts computed from it, built on first use and dropped
with it (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*, 2005,
ch. 4): its checked element sets, its conjugacy classes of subgroups with
transporters (one sweep over G per class), its subgroup lattice and abelian
class representatives, and an intern map from quotient table to one group,
seeded with G itself, so equal quotient tables share one group and one
lattice; `quotient` builds a new N/H on each call.  The abelian, catalog and
symbol layers keep their abelian structures, subgroup shapes, stabilizer
records (each holding its carrier quotient) and canonical frames on G.  All
are keyed by checked subgroups, so they are bounded by the subgroup lattice.
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import product
from math import prod
from operator import itemgetter

from .errors import JSONValue, ValidationError, read_json

DEFAULT_ORDER_BOUND = 64
ORDER_BOUND_ENV = "BURNLOC_ORDER_BOUND"


def order_bound() -> int:
    raw = os.environ.get(ORDER_BOUND_ENV)
    if raw is None:
        return DEFAULT_ORDER_BOUND
    # ASCII digits only: int() alone also reads ' 64 ', '6_4' and the digits
    # of other scripts
    if not (raw.isascii() and raw.isdigit()):
        raise ValidationError(f"{ORDER_BOUND_ENV} must be an integer, got {raw!r}")
    value = int(raw)
    if value < 1:
        raise ValidationError(f"{ORDER_BOUND_ENV} must be positive, got {value}")
    return value


class FiniteGroup:
    """A finite group given by its full multiplication table.

    `mul[a][b]` is the index of a*b; index 0 is the identity.  The table is
    validated on construction (identity, inverses, associativity).

    It owns the tables of facts computed from it (see the module docstring).
    """

    __slots__ = ("order", "mul", "name", "_inv", "_abelian", "_hash", "_conj", "_checked", "_classes", "_lattice",
                 "_abelian_reps", "_interned", "structures", "shapes", "carriers", "frames")

    def __init__(self, mul: Sequence[Sequence[int]], name: str = ""):
        table = tuple(map(tuple, mul))
        n = len(table)
        limit = order_bound()
        if n == 0:
            raise ValidationError("a group needs at least the identity element")
        if n > limit:
            raise ValidationError(f"group order {n} exceeds bound {limit}")
        if any(len(row) != n for row in table):
            raise ValidationError("multiplication table must be square")
        rng = range(n)
        if any(min(row) < 0 or max(row) >= n for row in table):
            raise ValidationError("table entries must be element indices")
        if any(table[0][a] != a or table[a][0] != a for a in rng):
            raise ValidationError("element 0 must be a two-sided identity")
        inv = []
        for a, row in enumerate(table):
            try:  # the least b with a*b = b*a = 0
                b = row.index(0)
                while table[b][a] != 0:
                    b = row.index(0, b + 1)
            except ValueError:
                raise ValidationError(f"element {a} has no two-sided inverse") from None
            inv.append(b)
        if not _light_associative(table):
            # name the first failing (a, b, c): row a*b against row a read at the columns b*c
            through = [itemgetter(*row) for row in table]
            for a, b in product(rng, repeat=2):
                left, right = table[table[a][b]], through[b](table[a])
                if left != right:
                    c = next(c for c in rng if left[c] != right[c])
                    raise ValidationError(f"table is not associative at ({a},{b},{c})")
        self._adopt(table, name, tuple(inv))

    @classmethod
    def trusted(cls, table: Sequence[Sequence[int]], name: str = "") -> "FiniteGroup":
        """A group whose table the package built from a valid group, such as
        N/H for a subgroup H already found normal in N; unlike `FiniteGroup(table)`,
        which checks input from outside, it checks nothing."""
        G = object.__new__(cls)
        table = tuple(tuple(row) for row in table)
        G._adopt(table, name, tuple(row.index(0) for row in table))
        return G

    def _adopt(self, table: tuple[tuple[int, ...], ...], name: str, inv: tuple[int, ...]) -> None:
        rng = range(len(table))
        self.order = len(table)
        self.mul = table
        self.name = name
        self._inv = inv
        self._abelian = all(table[a][b] == table[b][a] for a in rng for b in rng)
        self._hash = hash(table)
        self._conj = None
        self._checked = set()  # element tuples that passed the Subgroup check
        self._classes = {}  # element tuple -> (least conjugate, transporter to it)
        self._lattice = self._abelian_reps = None
        self._interned = {table: self}  # quotient table -> the one group with it
        self.structures, self.shapes, self.carriers, self.frames = {}, {}, {}, {}

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

    def subgroup_class(self, h: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(rep, transporter) for the sorted element tuple h of a checked
        subgroup: rep is the least conjugate of h and transporter the ascending
        x with x*h*x^-1 = rep.  One sweep over G fills the entry of every
        conjugate of h: if g*h*g^-1 = k, the transporter of k is that of h times g^-1."""
        entry = self._classes.get(h)
        if entry is None:
            conj = self.conj_table()
            images: dict[tuple[int, ...], list[int]] = {}
            for g in self.elements():
                images.setdefault(tuple(sorted(conj[g][a] for a in h)), []).append(g)
            rep = min(images)
            to_rep = images[rep]
            mul = self.mul
            for k, gs in images.items():
                back = self._inv[gs[0]]
                self._classes[k] = (rep, tuple(sorted(mul[t][back] for t in to_rep)))
            entry = self._classes[h]
        return entry

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


def _light_associative(table: tuple[tuple[int, ...], ...]) -> bool:
    """Is the table, which has a two-sided identity 0, associative?  Light's test
    (Clifford & Preston, *The Algebraic Theory of Semigroups* I, 1961, 1.2): the
    s with (x*s)*y = x*(s*y) for all x, y are closed under products, so it is
    enough to test every s of a set S that generates the table.  S is found
    greedily: an x not yet reached from S by `_extend` (products taken from the
    left) joins S.  That is n*n*|S| comparisons instead of n**3."""
    gens, reached = (), {0}
    for x in range(len(table)):
        if x not in reached:
            gens += (x,)
            reached = _extend(table, (0,), gens)
    for s in gens:
        # row x of the table, read at the columns s*y, is x*(s*y) for every y
        through_s = itemgetter(*table[s])
        for row in table:
            if table[row[s]] != through_s(row):
                return False
    return True


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
    for g in gens:
        if sorted(g) != list(base):
            raise ValidationError(f"not a permutation of 0..{degree - 1}: {list(g)}")
    # closure by orbit enumeration
    elems = {base}
    frontier = [base]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
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


_KIND, _NAME = ("kind", JSONValue.string), ("name", JSONValue.string, "")
# each kind's members; a description without a kind is read against all, so a misspelt `kind` is named
_GROUP_KINDS = {
    "cyclic": (_KIND, ("n", JSONValue.integer)),
    "abelian": (_KIND, ("factors", JSONValue.integers)),
    "table": (_KIND, _NAME, ("mul", JSONValue.rows)),
    "perm": (_KIND, _NAME, ("degree", JSONValue.integer), ("gens", JSONValue.rows)),
}
_ANY_KIND = tuple({entry[0]: entry for table in _GROUP_KINDS.values() for entry in table}.values())


def build_group(spec) -> FiniteGroup:
    """Build a validated group from a description.

    Supported kinds: {"kind":"cyclic","n":..}, {"kind":"abelian","factors":[..]},
    {"kind":"table","mul":[[..]]}, {"kind":"perm","degree":k,"gens":[[..]]};
    a table or perm group may also carry a "name".
    """
    doc = read_json(spec, "malformed group description")
    kind = doc.field("kind", JSONValue.string, None)
    if kind is not None and kind not in _GROUP_KINDS:
        raise ValidationError(f"unknown group kind {kind!r}")
    limit = order_bound()
    _, *values = doc.members(_GROUP_KINDS.get(kind, _ANY_KIND))
    if kind in ("table", "perm"):
        name, *table = values
        return FiniteGroup(_perm_table(*table, limit) if kind == "perm" else table[0], name=name)
    cyclic = kind == "cyclic"
    factors = tuple(values) if cyclic else values[0]
    if any(d < 1 for d in factors):
        raise ValidationError(f"{'cyclic group order' if cyclic else 'abelian factors'} must be positive")
    n = prod(factors)
    if n > limit:
        raise ValidationError(f"group order {n} exceeds bound {limit}")
    name = f"C{n}" if cyclic else "x".join(f"C{d}" for d in factors) or "C1"
    return FiniteGroup(_abelian_table(factors or (1,)), name=name)


class Subgroup(namedtuple("Subgroup", "ambient elements")):
    """A subgroup of an ambient group, stored as a sorted element tuple.

    `Subgroup(G, elements)` checks its input once per (group, element set): the
    set is recorded in G's check table after it has passed, and a later call
    with the same set skips the check.  A tuple already in the table is sorted
    and checked, so it is taken as is, without sorting it again.  A set that
    fails is not recorded, so it fails with the same message on every call."""

    __slots__ = ()

    def __new__(cls, ambient: FiniteGroup, elements: Iterable[int]):
        if type(elements) is tuple and elements in ambient._checked:
            return tuple.__new__(cls, (ambient, elements))
        sub = super().__new__(cls, ambient, tuple(sorted(set(elements))))
        if sub.elements not in ambient._checked:
            sub.__post_init__()
            ambient._checked.add(sub.elements)
        return sub

    def __post_init__(self):
        elems = self.elements
        G = self.ambient
        if not elems or elems[0] != 0:
            raise ValidationError("subgroup must contain the identity")
        members = set(elems)
        for a in elems:  # before any product is looked up
            if a not in G.elements():
                raise ValidationError(f"element {a} outside the ambient group")
        for a in elems:
            if G.inv(a) not in members:
                raise ValidationError(f"subgroup not closed under inverse at {a}")
            for b in elems:
                if G.mul[a][b] not in members:
                    raise ValidationError(f"subgroup not closed under product at ({a},{b})")

    @classmethod
    def trusted(cls, G: FiniteGroup, elements: tuple[int, ...]) -> "Subgroup":
        """A subgroup the package built from valid ones, as a sorted tuple; unlike
        `Subgroup(G, elements)`, which checks input from outside, it checks nothing."""
        return tuple.__new__(cls, (G, elements))

    @classmethod
    def generated(cls, G: FiniteGroup, gens: Iterable[int]) -> "Subgroup":
        gens = tuple(gens)
        for g in gens:
            if not 0 <= g < G.order:
                raise ValidationError(f"generator {g} outside the ambient group")
        return cls.trusted(G, tuple(sorted(_extend(G.mul, (0,), gens))))

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_trivial(self) -> bool:
        return self.order == 1

    def contains(self, a: int) -> bool:
        return a in self.elements

    def is_abelian(self) -> bool:
        G = self.ambient
        # an AbelianStructure refuses a nonabelian subgroup, so a kept one proves it
        if G.is_abelian() or self.elements in G.structures:
            return True
        return all(G.mul[a][b] == G.mul[b][a] for a in self.elements for b in self.elements)

    def is_cyclic(self) -> bool:
        return any(self.ambient.element_order(a) == self.order for a in self.elements)

    def is_normal_in(self, other: "Subgroup") -> bool:
        G = self.ambient
        if G.is_abelian():
            return True
        conj = G.conj_table()
        members = frozenset(self.elements)
        return all(conj[g][a] in members for g in other.elements for a in self.elements)

    def conjugate(self, g: int) -> "Subgroup":
        row = self.ambient.conj_table()[g]
        return Subgroup.trusted(self.ambient, tuple(sorted(row[a] for a in self.elements)))


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup.trusted(G, tuple(G.elements()))


def centralizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    elems = [g for g in G.elements() if all(G.mul[g][a] == G.mul[a][g] for a in H.elements)]
    return Subgroup.trusted(G, tuple(elems))


def normalizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    if G.is_abelian():
        return full_subgroup(G)
    conj = G.conj_table()
    members = frozenset(H.elements)
    elems = [g for g in G.elements() if all(conj[g][a] in members for a in H.elements)]
    return Subgroup.trusted(G, tuple(elems))


def _extend(mul: Sequence[Sequence[int]], base, gens: tuple[int, ...]) -> set[int]:
    """<base, gens> over the table `mul`, for a subgroup `base` that products of
    `gens` normalize (some of `gens` generate it, or the group is abelian): the
    union of the right cosets base*r, each new r*s (r a representative, s in
    gens) in no coset so far adding its coset; (base*r)*s = base*(r*s) closes it
    under gens.  Over any table with identity 0 it holds only their products."""
    elems = set(base)
    reps = [0]
    for r in reps:  # grows while it is read
        row = mul[r]
        for s in gens:
            y = row[s]
            if y not in elems:
                elems.update(mul[h][y] for h in base)
                reps.append(y)
    return elems


def subgroups_within(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """All subgroups of G as element tuples, ordered by (order, elements)."""
    # canonical augmentation: K's greedy generators g1 = min(K - {0}) and
    # g(i+1) = min(K - <g1..gi>) make <g1..g(m-1)> its one parent, so from H with
    # greedy generators gens, <H, g> is closed for the least g of each right
    # coset Hg with g > gens[-1], and kept exactly when g = min(<H, g> - H)
    mul = G.mul
    found, stack = [], [((0,), ())]
    while stack:
        base, gens = stack.pop()
        found.append(base)
        covered, last = set(base), gens[-1] if gens else 0
        for g in G.elements():
            if g not in covered:
                covered.update(mul[h][g] for h in base)
                if g > last:
                    K = _extend(mul, base, gens + (g,))
                    if min(K.difference(base)) == g:
                        stack.append((tuple(sorted(K)), gens + (g,)))
    return tuple(sorted(found, key=lambda t: (len(t), t)))


def all_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """Every subgroup of G, ordered by (order, elements); built once per group."""
    if G._lattice is None:
        G._lattice = tuple(Subgroup.trusted(G, s) for s in subgroups_within(G))
    return G._lattice


def _up_to_conjugacy(subgroups: Iterable[Subgroup]) -> tuple[Subgroup, ...]:
    """One representative per conjugacy class of subgroups given in (order,
    elements) order and closed under conjugation: the first of each class,
    which is its lexicographically least member, read from the ambient group's
    class table.  In an abelian group every subgroup is its own class."""
    return tuple(H for H in subgroups
                 if H.ambient.is_abelian() or H.ambient.subgroup_class(H.elements)[0] == H.elements)


def abelian_subgroups_up_to_conjugacy(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """One representative per conjugacy class of abelian subgroups (trivial included)."""
    if G._abelian_reps is None:
        G._abelian_reps = _up_to_conjugacy(H for H in all_subgroups(G) if H.is_abelian())
    return G._abelian_reps


# the one process-wide cache left: a benchmark harness test reads its cache_info()
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

    __slots__ = ("group", "coset_of", "reps")

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
        table = tuple(tuple(coset_of[G.mul[reps[i]][reps[j]]] for j in range(k)) for i in range(k))
        # equal quotient tables share one group object, and with it one lattice
        self.group = G._interned.get(table) or G._interned.setdefault(table, FiniteGroup.trusted(table))
        self.coset_of = coset_of
        self.reps = tuple(reps)

    def image(self, elements: Iterable[int]) -> tuple[int, ...]:
        """Coset indices of the given N-elements (sorted, deduplicated)."""
        return tuple(sorted({self.coset_of[x] for x in elements}))

    def preimage(self, cosets: Iterable[int]) -> tuple[int, ...]:
        """All N-elements lying in the given cosets."""
        wanted = set(cosets)
        return tuple(sorted(x for x, c in self.coset_of.items() if c in wanted))


def quotient(N: Subgroup, H: Subgroup) -> QuotientGroup:
    """N/H, built on every call: the symbol layer keeps each carrier quotient in
    the stabilizer record that asked for it."""
    return QuotientGroup(N, H)
