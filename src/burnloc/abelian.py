"""Invariant-factor coordinates on abelian subgroups and their character groups.

An AbelianStructure fixes, once per subgroup, a decomposition H = C_{d1} x ... x C_{dk}
with d1 | d2 | ... | dk and an explicit coordinate bijection.  Characters live in
those coordinates, so all character arithmetic is componentwise modular and no
value in Q/Z is ever formed.

Each structure is built once per subgroup and kept in its ambient group's
`structures` table by element tuple; it owns three memos over its host,
`transport_matrix` per conjugating g, `kernel` per character coordinates, and
`dual_generated_check` per tuple of them, which only symbol validation fills:
the enumerators read dual generation off character kernels and orders.
`reduce`, `kernel` and `restrict` take bare coordinate tuples, so the relation
pass does its character arithmetic without `Character` objects.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product
from math import gcd, lcm
from operator import add, mod, mul, neg

from .errors import ValidationError
from .groups import Subgroup


def normalize_factors(factors) -> tuple[int, ...]:
    """Canonical invariant-factor form (ascending divisibility, no 1s) of a cyclic-factor list."""
    primary: dict[int, list[int]] = {}
    for d in factors:
        d = int(d)
        if d < 1:
            raise ValidationError(f"cyclic factor must be positive, got {d}")
        p = 2
        while p * p <= d:
            if d % p == 0:
                e = 0
                while d % p == 0:
                    d //= p
                    e += 1
                primary.setdefault(p, []).append(e)
            p += 1
        if d > 1:
            primary.setdefault(d, []).append(1)
    for exps in primary.values():
        exps.sort(reverse=True)
    out: list[int] = []
    i = 0
    while any(i < len(e) for e in primary.values()):
        d = 1
        for p, exps in primary.items():
            if i < len(exps):
                d *= p ** exps[i]
        out.append(d)
        i += 1
    return tuple(reversed(out))


class AbelianStructure:
    """Invariant factors plus an explicit coordinate map for an abelian subgroup.

    The basis is found by peeling off cyclic direct factors: take h, the least
    element of largest order m (the exponent of what remains), and a complement
    C of <h>, then continue in C.  C is built greedily: scan the remaining
    elements in ascending order and adjoin x whenever <C, x>, the union of the
    cosets C*x^k, still meets <h> only in the identity, until |C| = |remaining|/m.
    Such a maximal C is a complement because <h> = Z/m is an injective
    Z/m-module, and adjoining in ascending order gives the lexicographically
    least complement, so the basis does not depend on how the search runs."""

    __slots__ = ("subgroup", "invariant_factors", "basis", "coords", "element_of", "_transport", "_kernels", "_dual")

    def __init__(self, H: Subgroup):
        if not H.is_abelian():
            raise ValidationError("abelian structure requires an abelian subgroup")
        G = H.ambient
        mul = G.mul
        factors: list[int] = []
        basis: list[int] = []
        remaining = tuple(H.elements)
        while len(remaining) > 1:
            m, h = max((G.element_order(a), -a) for a in remaining)
            h = -h  # minimal element among those of maximal order
            cyc = frozenset(G.power(h, k) for k in range(m))
            target = len(remaining) // m
            complement = {0}
            for x in remaining:
                if len(complement) == target:
                    break
                if x in complement:
                    continue
                grown = set(complement)
                p = x
                while p not in complement:
                    grown.update(mul[c][p] for c in complement)
                    p = mul[p][x]
                if len(grown & cyc) == 1:
                    complement = grown
            if len(complement) != target:
                raise ValidationError("failed to split abelian subgroup (not a group?)")
            factors.append(m)
            basis.append(h)
            remaining = tuple(sorted(complement))
        factors.reverse()
        basis.reverse()
        coords: dict[int, tuple[int, ...]] = {}
        for tup in product(*(range(d) for d in factors)) if factors else [()]:
            x = 0
            for a, h in zip(tup, basis):
                x = G.mul[x][G.power(h, a)]
            if x in coords:
                raise ValidationError("coordinate map is not a bijection")
            coords[x] = tup
        if len(coords) != H.order:
            raise ValidationError("coordinate map does not cover the subgroup")
        self.subgroup = H
        self.invariant_factors = tuple(factors)
        self.basis = tuple(basis)
        self.coords = coords
        self.element_of = {t: x for x, t in coords.items()}
        self._transport: dict = {}  # g -> transport_matrix(g)
        self._kernels: dict = {}  # character coordinates -> kernel(coords)
        self._dual: dict = {}  # tuple of character coordinates -> dual_generated_check's answer

    @property
    def order(self) -> int:
        return self.subgroup.order

    def transport_matrix(self, g: int) -> tuple["AbelianStructure", tuple[tuple[int, ...], ...]]:
        """The structure of gHg^-1, and per basis element x of it the coordinates
        of g^-1 x g scaled by e/d_j, with e the exponent of H; built once per g."""
        entry = self._transport.get(g)
        if entry is None:
            G = self.subgroup.ambient
            target = abelian_structure(self.subgroup.conjugate(g))
            back = G.conj_table()[G.inv(g)]
            e = self.invariant_factors[-1] if self.invariant_factors else 1
            scale = tuple(e // d for d in self.invariant_factors)
            rows = tuple(tuple(a * s for a, s in zip(self.coords[back[x]], scale)) for x in target.basis)
            entry = self._transport[g] = (target, rows)
        return entry

    def reduce(self, values) -> tuple[int, ...]:
        """Character coordinates reduced mod the invariant factors."""
        return tuple(map(mod, values, self.invariant_factors))

    def kernel(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """The ascending elements of the host on which the character with these
        reduced coordinates vanishes; its order is |H| / |kernel|."""
        kernel = self._kernels.get(coords)
        if kernel is None:
            row, e = _scaled(self, coords)
            kernel = self._kernels[coords] = tuple(
                x for x in self.subgroup.elements if sum(map(mul, row, self.coords[x])) % e == 0)
        return kernel

    def restrict(self, coords: tuple[int, ...], K: Subgroup) -> tuple[int, ...]:
        """The coordinates, on K's structure, of the character with these
        coordinates restricted to a subgroup K of the host."""
        target = abelian_structure(K)
        row, e = _scaled(self, coords)
        out = []
        for h, d in zip(target.basis, target.invariant_factors):
            # b(h) = v/e in Q/Z and h has order d in K, so d * v/e must be whole
            v = sum(map(mul, row, self.coords[h])) * d
            if v % e:
                raise ValidationError("values do not define a character in these coordinates")
            out.append(v // e % d)
        return tuple(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, AbelianStructure) and self.subgroup == other.subgroup

    def __hash__(self) -> int:
        return hash(self.subgroup)

    def __repr__(self) -> str:
        return f"AbelianStructure{self.invariant_factors}"


def abelian_structure(H: Subgroup) -> AbelianStructure:
    struct = H.ambient.structures.get(H.elements)
    if struct is None:
        struct = H.ambient.structures[H.elements] = AbelianStructure(H)
    return struct


def shape_name(factors: tuple[int, ...]) -> str:
    return "x".join(f"C{d}" for d in factors) if factors else "1"


class Character(namedtuple("Character", "structure coords")):
    """A character of an abelian subgroup, as coordinates against its structure."""

    __slots__ = ()

    def __new__(cls, structure: AbelianStructure, coords: tuple[int, ...]):
        ds = structure.invariant_factors
        if len(coords) != len(ds):
            raise ValidationError("character coordinates do not match the structure")
        return super().__new__(cls, structure, tuple(map(mod, coords, ds)))

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self) -> int:
        return lcm(*(d // gcd(c, d) for c, d in zip(self.coords, self.structure.invariant_factors))) if self.coords else 1

    def __add__(self, other: "Character") -> "Character":
        _same_host(self, other)
        return Character(self.structure, tuple(map(add, self.coords, other.coords)))

    def __neg__(self) -> "Character":
        return Character(self.structure, tuple(map(neg, self.coords)))

    def __sub__(self, other: "Character") -> "Character":
        return self + (-other)


def _same_host(a: Character, b: Character) -> None:
    if a.structure != b.structure:
        raise ValidationError("characters live on different host subgroups")


def all_characters(struct: AbelianStructure):
    """All characters of the host, in lexicographic coordinate order."""
    for tup in product(*(range(d) for d in struct.invariant_factors)) if struct.invariant_factors else [()]:
        yield Character(struct, tup)


def _scaled(struct: AbelianStructure, coords: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(row, e) with e the exponent of the host: the character b with these
    coordinates has b(x) = sum_j row_j a_j / e in Q/Z for x with coordinates a,
    so x is in ker b iff sum_j row_j a_j = 0 mod e."""
    ds = struct.invariant_factors
    e = ds[-1] if ds else 1
    return tuple(c * (e // d) for c, d in zip(coords, ds)), e


def character_kernel(b: Character) -> Subgroup:
    """Kernel of b, as a subgroup of the ambient group contained in the host."""
    return Subgroup.trusted(b.structure.subgroup.ambient, b.structure.kernel(b.coords))


def dual_generated_check(*chars: Character) -> bool:
    """Do the given characters generate the full dual group?  They do exactly
    when no nonidentity element of the host lies in every kernel.  The answer
    depends only on the host and the coordinates, so it is kept in the host
    structure's `_dual` memo, keyed by the tuple of coordinates; an empty call
    or mixed hosts raise before the memo is read."""
    if not chars:
        raise ValidationError("dual_generated_check needs at least one character")
    for b in chars[1:]:
        _same_host(chars[0], b)
    struct = chars[0].structure
    key = tuple(b.coords for b in chars)
    answer = struct._dual.get(key)
    if answer is None:
        scaled = [_scaled(struct, b.coords) for b in chars]
        e = scaled[0][1]
        rows = [row for row, _ in scaled]
        answer = struct._dual[key] = not any(
            all(sum(map(mul, row, x)) % e == 0 for row in rows)
            for x in struct.element_of if any(x)
        )
    return answer


def restrict_character(b: Character, K: Subgroup) -> Character:
    """Restriction of b to a subgroup K of its host."""
    if not set(K.elements) <= set(b.structure.subgroup.elements):
        raise ValidationError("restriction target is not contained in the host subgroup")
    return Character(abelian_structure(K), b.structure.restrict(b.coords, K))


def transport_character(g: int, b: Character) -> Character:
    """The character on gHg^-1 obtained by precomposing b with conjugation by g^-1."""
    target, rows = b.structure.transport_matrix(g)
    e = b.structure.invariant_factors[-1] if b.structure.invariant_factors else 1
    coords = []
    for row, d in zip(rows, target.invariant_factors):
        # the value at a basis element x of gHg^-1 is v/e in Q/Z; d * v/e must be whole
        v = sum(map(mul, b.coords, row)) * d
        if v % e:
            raise ValidationError("values do not define a character in these coordinates")
        coords.append(v // e)
    return Character(target, tuple(coords))
