"""Invariant-factor coordinates on abelian subgroups and their character groups.

An AbelianStructure fixes, once per subgroup, a decomposition H = C_{d1} x ... x C_{dk}
with d1 | d2 | ... | dk and an explicit coordinate bijection.  A character of H
is a tuple of coordinates against that structure, reduced mod the invariant
factors, so all character arithmetic is componentwise modular and no value in
Q/Z is ever formed.  `character` checks the length of coordinates from outside
and reduces them; coordinates of a checked length go through `reduce`.

Each structure is built once per subgroup and kept in its ambient group's
`structures` table by element tuple; it owns four memos over its host,
`transport_matrix` per conjugating g, `transport_character` per (g, character
coordinates), `kernel` per character coordinates and `kept_generates_dual`, for
the symbol check, per one or two of them (at most |H|**2 + |H| answers).
Characters generate the dual exactly when their kernels meet only in the
identity (`generates_dual`), and a character's order is |H| / |kernel|.
"""

from __future__ import annotations

from operator import mod, mul

from .errors import ValidationError
from .groups import Subgroup, _extend
from .normalforms import divisor_chain


def normalize_factors(factors) -> tuple[int, ...]:
    """Canonical invariant-factor form (ascending divisibility, no 1s) of a
    cyclic-factor list, read off its divisor chain, so no factor is factored."""
    for d in factors:
        if d < 1:
            raise ValidationError(f"cyclic factor must be positive, got {d}")
    return tuple(d for d in divisor_chain(factors) if d > 1)


class AbelianStructure:
    """Invariant factors plus an explicit coordinate map for an abelian subgroup.

    The basis is found by peeling off cyclic direct factors: take h, the least
    element of largest order m (the exponent of what remains), and a complement
    C of <h>, then continue in C.  C is built greedily: scan the remaining
    elements in ascending order and adjoin x whenever <C, x>, closed by
    `groups._extend`, still meets <h> only in the identity, until |C| = |remaining|/m.
    Such a maximal C is a complement because <h> = Z/m is an injective
    Z/m-module, and adjoining in ascending order gives the lexicographically
    least complement, so the basis does not depend on how the search runs."""

    __slots__ = ("subgroup", "invariant_factors", "basis", "coords", "_transport", "_characters", "_kernels",
                 "_duals")

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
            cyc = _extend(mul, (0,), (h,))
            target = len(remaining) // m
            complement = {0}
            for x in remaining:
                if len(complement) == target:
                    break
                grown = _extend(mul, complement, (x,))
                if len(grown & cyc) == 1:
                    complement = grown
            if len(complement) != target:
                raise ValidationError("failed to split abelian subgroup (not a group?)")
            factors.append(m)
            basis.append(h)
            remaining = tuple(sorted(complement))
        factors.reverse()
        basis.reverse()
        # x = h1^a1 ... hk^ak for every coordinate tuple, in lexicographic order: each
        # prefix's element steps along the cyclic closure of the next basis element
        coords: dict[int, tuple[int, ...]] = {0: ()}
        for h, d in zip(basis, factors):
            walked: dict[int, tuple[int, ...]] = {}
            for x, tup in coords.items():
                for a in range(d):
                    walked[x] = tup + (a,)
                    x = mul[x][h]
            coords = walked
        if len(coords) != H.order:  # fewer when two coordinate tuples reach one element
            raise ValidationError("coordinate map is not a bijection onto the subgroup")
        self.subgroup = H
        self.invariant_factors = tuple(factors)
        self.basis = tuple(basis)
        self.coords = coords
        self._transport: dict = {}  # g -> transport_matrix(g)
        self._characters: dict = {}  # (g, character coordinates) -> transport_character(g, self, coords)
        self._kernels: dict = {}  # character coordinates -> kernel(coords)
        self._duals: dict = {}  # one or two characters' coordinates -> kept_generates_dual(*chars)

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

    def character(self, values) -> tuple[int, ...]:
        """Character coordinates from outside, checked against the number of
        invariant factors and reduced."""
        if len(values) != len(self.invariant_factors):
            raise ValidationError("character coordinates do not match the structure")
        return self.reduce(values)

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

    def generates_dual(self, *chars: tuple[int, ...]) -> bool:
        """Do the characters with these reduced coordinates generate the dual?
        They do exactly when no element but the identity, the first of every
        kernel, lies in all their kernels."""
        first, *rest = map(self.kernel, chars)
        return not set(first[1:]).intersection(*rest)

    def kept_generates_dual(self, *chars: tuple[int, ...]) -> bool:
        """`generates_dual`, kept per tuple of characters for the checks that meet them again."""
        if chars not in self._duals:
            self._duals[chars] = self.generates_dual(*chars)
        return self._duals[chars]

    def restrict(self, coords: tuple[int, ...], K: Subgroup) -> tuple[int, ...]:
        """The coordinates, on K's structure, of the character with these
        coordinates restricted to a subgroup K of the host."""
        target = abelian_structure(K)
        row, e = _scaled(self, coords)
        return _on_basis(target, row, [self.coords[h] for h in target.basis], e)


def abelian_structure(H: Subgroup) -> AbelianStructure:
    struct = H.ambient.structures.get(H.elements)
    if struct is None:
        struct = H.ambient.structures[H.elements] = AbelianStructure(H)
    return struct


def shape_name(factors: tuple[int, ...]) -> str:
    return "x".join(f"C{d}" for d in factors) if factors else "1"


def _scaled(struct: AbelianStructure, coords: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(row, e) with e the exponent of the host: the character b with these
    coordinates has b(x) = sum_j row_j a_j / e in Q/Z for x with coordinates a,
    so x is in ker b iff sum_j row_j a_j = 0 mod e."""
    ds = struct.invariant_factors
    e = ds[-1] if ds else 1
    return tuple(c * (e // d) for c, d in zip(coords, ds)), e


def transport_character(g: int, struct: AbelianStructure, coords: tuple[int, ...]) -> tuple[int, ...]:
    """The coordinates, on the structure of gHg^-1, of the character with these
    coordinates on H precomposed with conjugation by g^-1; kept on H's
    structure once built, while a refusal is raised on every call."""
    key = (g, tuple(coords))  # coordinates from a library caller may come as a list
    moved = struct._characters.get(key)
    if moved is None:
        target, rows = struct.transport_matrix(g)
        moved = struct._characters[key] = _on_basis(
            target, coords, rows, struct.invariant_factors[-1] if struct.invariant_factors else 1)
    return moved


def _on_basis(target: AbelianStructure, row, columns, e: int) -> tuple[int, ...]:
    """The coordinates on `target` of the character whose value at its j-th
    basis element is (row . columns[j]) / e in Q/Z; that basis element has
    order d_j, so d_j times the value must be whole."""
    out = []
    for column, d in zip(columns, target.invariant_factors):
        v = sum(map(mul, row, column)) * d
        if v % e:
            raise ValidationError("values do not define a character in these coordinates")
        out.append(v // e % d)
    return tuple(out)
