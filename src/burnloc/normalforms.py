"""Exact integer linear algebra: Hermite and Smith normal forms, row-lattice
membership and reduction, integer kernels, and cokernel structure.

Everything runs on native Python integers, so intermediate entries may grow
without overflow.  Row convention throughout: the lattice is the set of integer
combinations of the rows.

The Smith normal form of a relation matrix, a very sparse system of +-1
entries, is computed in two stages (after Dumas, Saunders & Villard, "On
efficient sparse integer matrix Smith normal form computations", J. Symb.
Comput. 32, 2001): +-1 pivots are eliminated on sparse rows, least Markowitz
cost first, and a dense block-minimum Euclid loop reduces only the residual
block that has no +-1 entry left.  Hermite forms and lattices stay dense.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heapify, heappop, heappush
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


def hermite_normal_form(rows, ncols: int, with_transform: bool = False):
    """Row-style HNF of the lattice spanned by `rows`.

    Returns the nonzero HNF rows (echelon, positive pivots, entries above each
    pivot reduced into [0, pivot)).  With `with_transform`, also returns for
    each HNF row its coefficient vector over the input rows.
    """
    m = len(rows)
    M = [list(r) for r in rows]
    if any(len(r) != ncols for r in M):
        raise ValueError("all rows must have the stated number of columns")
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for col in range(ncols):
        pivot = None
        for i in range(r, m):
            if M[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        U[r], U[pivot] = U[pivot], U[r]
        for i in range(r + 1, m):
            while M[i][col] != 0:
                a, b = M[r][col], M[i][col]
                if b % a == 0:
                    q = b // a
                    M[i] = [x - q * y for x, y in zip(M[i], M[r])]
                    U[i] = [x - q * y for x, y in zip(U[i], U[r])]
                else:
                    g, x, y = _xgcd(a, b)
                    # unimodular 2x2 block: det = (x*a/g ... ) = +/-1
                    new_r = [x * p + y * q_ for p, q_ in zip(M[r], M[i])]
                    new_i = [(-b // g) * p + (a // g) * q_ for p, q_ in zip(M[r], M[i])]
                    M[r], M[i] = new_r, new_i
                    new_ur = [x * p + y * q_ for p, q_ in zip(U[r], U[i])]
                    new_ui = [(-b // g) * p + (a // g) * q_ for p, q_ in zip(U[r], U[i])]
                    U[r], U[i] = new_ur, new_ui
        if M[r][col] < 0:
            M[r] = [-x for x in M[r]]
            U[r] = [-x for x in U[r]]
        d = M[r][col]
        for i in range(r):
            q = M[i][col] // d
            if q:
                M[i] = [x - q * y for x, y in zip(M[i], M[r])]
                U[i] = [x - q * y for x, y in zip(U[i], U[r])]
        r += 1
        if r == m:
            break
    H = [tuple(row) for row in M[:r]]
    if with_transform:
        return H, [tuple(u) for u in U[:r]]
    return H


def _block_min(M, t: int, nrows: int, ncols: int):
    best = None
    for i in range(t, nrows):
        row = M[i]
        for j in range(t, ncols):
            v = row[j]
            if v != 0 and (best is None or abs(v) < abs(M[best[0]][best[1]])):
                best = (i, j)
    return best


def _dense_smith_diagonal(rows, ncols: int) -> tuple[int, ...]:
    """SNF diagonal by a dense block-minimum Euclid loop over the whole matrix.

    `smith_normal_form` runs it on the block that unit-pivot elimination leaves;
    on a full matrix it is the reference the sparse route is tested against.
    """
    M = [list(r) for r in rows]
    nrows = len(M)
    diag: list[int] = []
    t = 0
    while t < nrows and t < ncols:
        best = _block_min(M, t, nrows, ncols)
        if best is None:
            break
        while True:
            # move a minimal nonzero entry of the block into pivot position,
            # then run one full reduction pass of the pivot's column and row;
            # remainders are strictly smaller than the pivot, so re-picking the
            # minimum makes this a multi-entry Euclid loop
            i0, j0 = best
            if i0 != t:
                M[t], M[i0] = M[i0], M[t]
            if j0 != t:
                for row in M:
                    row[t], row[j0] = row[j0], row[t]
            pivot = M[t][t]
            for i in range(t + 1, nrows):
                if M[i][t] != 0:
                    q = M[i][t] // pivot
                    if q:
                        M[i] = [x - q * y for x, y in zip(M[i], M[t])]
            if all(M[i][t] == 0 for i in range(t + 1, nrows)):
                for j in range(t + 1, ncols):
                    if M[t][j] != 0:
                        q = M[t][j] // pivot
                        if q:
                            for row in M:
                                row[j] -= q * row[t]
            best = None
            for i in range(t + 1, nrows):
                if M[i][t] != 0 and (best is None or abs(M[i][t]) < abs(M[best[0]][best[1]])):
                    best = (i, t)
            for j in range(t + 1, ncols):
                if M[t][j] != 0 and (best is None or abs(M[t][j]) < abs(M[best[0]][best[1]])):
                    best = (t, j)
            if best is None:
                break
        # enforce divisibility of the remaining block by the pivot
        d = abs(M[t][t])
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if M[i][j] % d != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            M[t] = [x + y for x, y in zip(M[t], M[offender])]
            continue  # redo elimination at the same t with a smaller gcd ahead
        diag.append(d)
        t += 1
    return tuple(diag)


def _eliminate_unit_pivots(rows: list[dict[int, int]]) -> tuple[int, list[dict[int, int]]]:
    """Eliminate +-1 pivots from sparse rows (column -> nonzero entry, changed
    in place); returns how many were eliminated and the nonzero rows left.

    Each pivot is a +-1 entry of least Markowitz cost (row length - 1) x
    (column count - 1).  Its column is cleared from the other rows by row
    operations, then the pivot row is emptied: with a unit pivot,
    column operations clear the rest of that row without touching any other,
    so the pivot splits off one invariant factor 1 and the remaining rows,
    less its column, carry the rest of the Smith form.  Stops when no +-1
    entry is left.
    """
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            col_rows.setdefault(j, set()).add(i)

    def cost(i, j):
        return (len(rows[i]) - 1) * (len(col_rows[j]) - 1)

    # lazy heap: a popped entry that is no longer +-1 is dropped, one whose
    # cost has grown since it was pushed goes back with its current cost
    heap = [(cost(i, j), i, j) for i, row in enumerate(rows) for j, v in row.items() if v in (1, -1)]
    heapify(heap)
    eliminated = 0
    while heap:
        key, r, c = heappop(heap)
        pivot_row = rows[r]
        if pivot_row.get(c) not in (1, -1):
            continue
        now = cost(r, c)
        if now > key:
            heappush(heap, (now, r, c))
            continue
        p = pivot_row[c]
        for i in col_rows[c] - {r}:
            row = rows[i]
            f = row[c] * p  # p is its own inverse
            for j, v in pivot_row.items():
                x = row.get(j, 0) - f * v
                if x:
                    if j not in row:
                        col_rows[j].add(i)
                    row[j] = x
                else:
                    del row[j]
                    col_rows[j].discard(i)
            for j, v in row.items():
                if v in (1, -1):
                    heappush(heap, (cost(i, j), i, j))
        for j in pivot_row:
            col_rows[j].discard(r)
        rows[r] = {}
        eliminated += 1
    return eliminated, [row for row in rows if row]


def smith_normal_form(rows, ncols: int) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith normal form (d1 | d2 | ..., all positive).

    Unit pivots go first: +-1 entries are eliminated sparsely, cheapest by
    Markowitz cost first, each giving one invariant factor 1.  The dense
    Euclid loop then runs only on the residual block, the rows and columns
    that still hold an entry once no +-1 entry is left.
    """
    sparse = []
    for r in rows:
        r = tuple(r)
        if len(r) != ncols:
            raise ValueError("all rows must have the stated number of columns")
        sparse.append({j: v for j, v in enumerate(r) if v})
    eliminated, left = _eliminate_unit_pivots(sparse)
    cols = sorted({j for row in left for j in row})
    residual = [[row.get(j, 0) for j in cols] for row in left]
    return (1,) * eliminated + _dense_smith_diagonal(residual, len(cols))


def cokernel_structure(rows, ncols: int) -> tuple[int, tuple[int, ...]]:
    """(free_rank, torsion) of Z^ncols / row-lattice; torsion ascending, 1s dropped."""
    diag = smith_normal_form(rows, ncols)
    torsion = tuple(d for d in diag if d > 1)
    return ncols - len(diag), torsion


def kernel_basis(rows, ncols: int) -> list[tuple[int, ...]]:
    """Basis of the left kernel {c : c * M = 0} of the matrix with the given rows."""
    m = len(rows)
    augmented = [tuple(rows[i]) + tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
    H = hermite_normal_form(augmented, ncols + m)
    return [row[ncols:] for row in H if all(x == 0 for x in row[:ncols])]


class IntegerLattice(namedtuple("IntegerLattice", "ncols basis transform pivots nspanning")):
    """A row lattice in Z^ncols held in Hermite normal form.

    Supports exact membership, canonical coset reduction, and membership
    certificates in terms of the original spanning rows.  `basis` holds the HNF
    rows and `pivots` their pivot columns; `transform` expresses each basis row
    over the `nspanning` original spanning rows.
    """

    __slots__ = ()

    @classmethod
    def from_rows(cls, rows, ncols: int) -> "IntegerLattice":
        H, U = hermite_normal_form(rows, ncols, with_transform=True)
        pivots = tuple(next(j for j, x in enumerate(row) if x != 0) for row in H)
        return cls(ncols=ncols, basis=tuple(H), transform=tuple(U), pivots=pivots, nspanning=len(rows))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, vec) -> bool:
        w = list(vec)
        if len(w) != self.ncols:
            raise ValueError("vector has the wrong length")
        for row, p in zip(self.basis, self.pivots):
            if w[p] % row[p] != 0:
                return False
            q = w[p] // row[p]
            if q:
                w = [x - q * y for x, y in zip(w, row)]
        return all(x == 0 for x in w)

    def reduce(self, vec) -> tuple[int, ...]:
        """Canonical coset representative: pivot coordinates land in [0, pivot)."""
        w = list(vec)
        if len(w) != self.ncols:
            raise ValueError("vector has the wrong length")
        for row, p in zip(self.basis, self.pivots):
            q = w[p] // row[p]
            if q:
                w = [x - q * y for x, y in zip(w, row)]
        return tuple(w)

    def coefficients(self, vec) -> tuple[int, ...] | None:
        """Coefficients over the ORIGINAL spanning rows expressing vec, or None."""
        w = list(vec)
        coeffs = [0] * len(self.basis)
        for i, (row, p) in enumerate(zip(self.basis, self.pivots)):
            if w[p] % row[p] != 0:
                return None
            q = w[p] // row[p]
            coeffs[i] = q
            if q:
                w = [x - q * y for x, y in zip(w, row)]
        if any(x != 0 for x in w):
            return None
        out = [0] * self.nspanning
        for c, urow in zip(coeffs, self.transform):
            for j, u in enumerate(urow):
                out[j] += c * u
        return tuple(out)


def rational_rank(rows, ncols: int) -> int:
    """Rank over Q by fraction-free Gaussian elimination."""
    M = [list(r) for r in rows]
    rank = 0
    col = 0
    while rank < len(M) and col < ncols:
        piv = next((i for i in range(rank, len(M)) if M[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for i in range(rank + 1, len(M)):
            if M[i][col] != 0:
                a, b = M[rank][col], M[i][col]
                g = gcd(a, b)
                M[i] = [(a // g) * x - (b // g) * y for x, y in zip(M[i], M[rank])]
        rank += 1
        col += 1
    return rank
