"""Exact integer linear algebra: Hermite and Smith normal forms, row-lattice
membership and reduction, and cokernel structure.

Everything runs on native Python integers, so intermediate entries may grow
without overflow.  Row convention throughout: the lattice is the set of integer
combinations of the rows.

One elimination kernel, `_hermite`, serves both normal forms.  A row lattice
is held in the Hermite form of its rows; the Smith form alternates Hermite
forms of the rows and of the columns (Kannan & Bachem, "Polynomial algorithms
for computing the Smith and Hermite normal forms of an integer matrix", SIAM
J. Comput. 8, 1979), splitting off a factor 1 at every unit pivot.

Hermite forms are built by sparse row insertion: each row is reduced against
a table of echelon rows keyed by pivot column, subtracting a multiple where
the pivot divides its entry and taking a unimodular gcd step where it does
not, until it lands on a free pivot or vanishes; the entries above each pivot
are then reduced, last pivot first, by the coset reduction the lattice
queries use (Cohen, *A Course in Computational Algebraic Number Theory*, 1993,
2.4).  A lattice is these sparse pivot rows and nothing else: membership and
reduction read them, and the dense Hermite rows are read off them on request.

A row or a query vector is a dense sequence of length ncols or a dict
{column: entry} over columns 0..ncols-1; `_sparse` checks and reads both.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heappop, heappush
from itertools import compress
from math import gcd


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a,b) = x*a + y*b, g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _sparse(vec, ncols: int) -> dict[int, int]:
    """A row or query vector as a fresh {column: nonzero entry}: a sequence
    must have length ncols, a dict every column in 0..ncols-1."""
    if isinstance(vec, dict):
        if vec and (min(vec) < 0 or max(vec) >= ncols):
            raise ValueError("vector has a column outside the lattice")
        return {j: x for j, x in vec.items() if x}
    vec = tuple(vec)
    if len(vec) != ncols:
        raise ValueError("vector has the wrong length")
    return {j: vec[j] for j in compress(range(ncols), vec)}


def _combine(s: int, p: dict[int, int], t: int, r: dict[int, int]) -> dict[int, int]:
    """The sparse row s*p + t*r."""
    out = {c: s * v for c, v in p.items()} if s else {}
    if t:
        for c, v in r.items():
            x = out.get(c, 0) + t * v
            if x:
                out[c] = x
            else:
                del out[c]
    return out


def _insert(table: dict[int, dict[int, int]], row: dict[int, int]) -> None:
    """Add a sparse row to the echelon table {pivot column: row}, least column
    first: where the pivot divides the row's entry, that multiple of the pivot
    row is subtracted; otherwise a unimodular 2x2 step puts the gcd in the
    pivot row and clears the row's entry.  The row becomes the pivot row of
    the first column that holds no pivot, made positive there, or is dropped
    once no entry is left."""
    heap = sorted(row)  # ascending, so already a heap
    while heap:
        j = heappop(heap)
        b = row.get(j)
        if not b:
            continue
        pivot = table.get(j)
        if pivot is None:
            table[j] = row if b > 0 else {c: -v for c, v in row.items()}
            return
        a = pivot[j]
        q, r = divmod(b, a)
        if r:
            g, x, y = _xgcd(a, b)
            table[j] = _combine(x, pivot, y, row)
            row = _combine(-b // g, pivot, a // g, row)
            heap = sorted(row)
            continue
        for c, v in pivot.items():
            x = row.get(c, 0) - q * v
            if x:
                if c not in row:
                    heappush(heap, c)
                row[c] = x
            else:
                del row[c]


def _hermite(rows, ncols: int) -> list:
    """Row-style HNF of rows (each read by `_sparse`) by insertion: the list
    over columns 0..ncols-1 of the HNF row with that pivot as (column, value)
    pairs, ascending, or None where no row has its pivot.

    Rows are inserted one at a time into an echelon table (`_insert`); then,
    from the last pivot to the first, each echelon row is reduced by the rows
    already final (pivots after its own) as a coset reduction (`_reduce`),
    which leaves every entry above a pivot in [0, pivot).  The form is unique,
    so insertion order does not change it."""
    table: dict[int, dict[int, int]] = {}
    for row in rows:
        _insert(table, _sparse(row, ncols))
    basis = [None] * ncols
    for p in sorted(table, reverse=True):
        row = table[p]
        d = row.pop(p)
        basis[p] = ((p, d), *_reduce(basis, row, exact=False).items())
    return basis


def _reduce(pivot_rows, w: dict[int, int], exact: bool):
    """Reduce the sparse vector w (consumed) by the HNF rows `pivot_rows[j]`,
    least nonzero column first (Cohen, *A Course in Computational Algebraic
    Number Theory*, 1993, 2.4.3): each pivot column's entry is divided by the
    pivot and that multiple of its row subtracted, which only changes later
    columns.  Returns the entries left, ascending; with `exact`, None as soon
    as a nonzero entry is left, i.e. w is not in the lattice."""
    heap = sorted(w)
    left: dict[int, int] = {}
    while heap:
        j = heappop(heap)
        x = w.pop(j)
        row = pivot_rows[j]
        q, r = divmod(x, row[0][1]) if row else (0, x)
        if r:
            if exact:
                return None
            left[j] = r
        if q:
            for c, v in row[1:]:
                if c not in w:
                    heappush(heap, c)
                w[c] = w.get(c, 0) - q * v
    return left


def _dense(pairs, length: int) -> tuple[int, ...]:
    vec = [0] * length
    for c, x in pairs:
        vec[c] = x
    return tuple(vec)


def hermite_normal_form(rows, ncols: int):
    """Row-style HNF of the lattice spanned by `rows`.

    Returns the nonzero HNF rows (echelon, positive pivots, entries above each
    pivot reduced into [0, pivot)).  Computed on sparse rows by `_hermite`.
    """
    return [_dense(row, ncols) for row in _hermite(rows, ncols) if row]


def smith_normal_form(rows, ncols: int) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith normal form (d1 | d2 | ..., all positive).

    Hermite forms of the rows and of the columns alternate (Kannan & Bachem,
    SIAM J. Comput. 8, 1979), all by `_hermite`.  A unit pivot is the only
    entry of its column, since the entries above a pivot lie in [0, pivot),
    so column operations clear its row without touching another: it splits
    off one factor 1.  The other rows are transposed and put in Hermite form
    again, until every row holds only its pivot; that diagonal is brought to
    d1 | d2 | ... by `divisor_chain`.
    """
    units = 0
    while True:
        basis = [row for row in _hermite(rows, ncols) if row]
        left = [row for row in basis if row[0][1] != 1]
        units += len(basis) - len(left)
        if all(len(row) == 1 for row in left):
            break
        columns: dict[int, dict[int, int]] = {}
        for i, row in enumerate(left):
            for j, x in row:
                columns.setdefault(j, {})[i] = x
        rows, ncols = list(columns.values()), len(left)
    return (1,) * units + divisor_chain(row[0][1] for row in left)


def divisor_chain(ds) -> tuple[int, ...]:
    """The positive integers ds as the divisor chain d1 | d2 | ... of the same
    length and the same product of cyclic groups, by gcd and lcm alone (no
    integer is factored): Z/c x Z/d is Z/gcd(c, d) x Z/lcm(c, d).  Each d
    passes the entries of the chain so far that it divides, found by
    bisection; the entry c below them becomes lcm(c, d), and gcd(c, d), a
    proper divisor, goes on until it is 1 or a multiple of the entry below."""
    ds = tuple(ds)
    chain: list[int] = []
    for d in ds:
        while d > 1:
            lo, hi = 0, len(chain)
            while lo < hi:  # the first entry that d divides
                mid = (lo + hi) // 2
                lo, hi = (mid + 1, hi) if chain[mid] % d else (lo, mid)
            if not lo or d % chain[lo - 1] == 0:
                chain.insert(lo, d)
                break
            g = gcd(chain[lo - 1], d)
            chain[lo - 1], d = chain[lo - 1] // g * d, g
    return (1,) * (len(ds) - len(chain)) + tuple(chain)


def cokernel_structure(rows, ncols: int) -> tuple[int, tuple[int, ...]]:
    """(free_rank, torsion) of Z^ncols / row-lattice; torsion ascending, 1s dropped."""
    diag = smith_normal_form(rows, ncols)
    torsion = tuple(d for d in diag if d > 1)
    return ncols - len(diag), torsion


class IntegerLattice(namedtuple("IntegerLattice", "ncols pivots pivot_rows")):
    """A row lattice in Z^ncols held as its sparse Hermite normal form rows.

    Supports exact membership and canonical coset reduction.  `pivot_rows[j]`
    is the HNF row with pivot j as (column, value) pairs, pivot first, or None
    when column j holds no pivot, and `pivots` lists the pivot columns; both
    queries reduce on these sparse rows, and `basis` reads them as dense rows.
    A row or a query vector is a dense sequence of length ncols or a dict
    {column: entry}.
    """

    __slots__ = ()

    @classmethod
    def from_rows(cls, rows, ncols: int) -> "IntegerLattice":
        pivot_rows = tuple(_hermite(rows, ncols))
        return cls(ncols, tuple(p for p, row in enumerate(pivot_rows) if row), pivot_rows)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_dense(self.pivot_rows[p], self.ncols) for p in self.pivots)

    def _reduce(self, vec, exact: bool):
        return _reduce(self.pivot_rows, _sparse(vec, self.ncols), exact)

    def contains(self, vec) -> bool:
        return self._reduce(vec, exact=True) is not None

    def reduce(self, vec) -> tuple[int, ...]:
        """Canonical coset representative: pivot coordinates land in [0, pivot)."""
        return _dense(self._reduce(vec, exact=False).items(), self.ncols)
