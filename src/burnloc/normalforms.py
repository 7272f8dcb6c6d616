"""Exact integer linear algebra: Hermite and Smith normal forms, row-lattice
membership and reduction, and cokernel structure.

Everything runs on native Python integers, so intermediate entries may grow
without overflow.  Row convention throughout: the lattice is the set of integer
combinations of the rows.

The Smith normal form of a relation matrix, a very sparse system of +-1
entries, is computed in two stages (after Dumas, Saunders & Villard, "On
efficient sparse integer matrix Smith normal form computations", J. Symb.
Comput. 32, 2001): +-1 pivots are eliminated on sparse rows, least Markowitz
cost first, and a dense block-minimum Euclid loop reduces only the residual
block that has no +-1 entry left.  Hermite forms are computed dense; a
lattice keeps each Hermite row as sparse (column, value) pairs keyed by its
pivot and reduces membership, coset and certificate queries on those rows.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heapify, heappop, heappush


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
    each HNF row its coefficient vector over the input rows: each input row
    carries its unit vector in m extra columns, which every row operation
    updates along with it.
    """
    m = len(rows)
    M = [list(r) for r in rows]
    if any(len(r) != ncols for r in M):
        raise ValueError("all rows must have the stated number of columns")
    if with_transform:
        for i, row in enumerate(M):
            row.extend(1 if i == j else 0 for j in range(m))
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
        for i in range(r + 1, m):
            while M[i][col] != 0:
                a, b = M[r][col], M[i][col]
                if b % a == 0:
                    q = b // a
                    M[i] = [x - q * y for x, y in zip(M[i], M[r])]
                else:
                    g, x, y = _xgcd(a, b)
                    # unimodular 2x2 block: det = (x*a/g ... ) = +/-1
                    new_r = [x * p + y * q_ for p, q_ in zip(M[r], M[i])]
                    new_i = [(-b // g) * p + (a // g) * q_ for p, q_ in zip(M[r], M[i])]
                    M[r], M[i] = new_r, new_i
        if M[r][col] < 0:
            M[r] = [-x for x in M[r]]
        d = M[r][col]
        for i in range(r):
            q = M[i][col] // d
            if q:
                M[i] = [x - q * y for x, y in zip(M[i], M[r])]
        r += 1
        if r == m:
            break
    H = [tuple(row[:ncols]) for row in M[:r]]
    if with_transform:
        return H, [tuple(row[ncols:]) for row in M[:r]]
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


class IntegerLattice(namedtuple("IntegerLattice", "ncols basis transform pivots nspanning pivot_rows")):
    """A row lattice in Z^ncols held in Hermite normal form.

    Supports exact membership, canonical coset reduction, and membership
    certificates in terms of the original spanning rows.  `basis` holds the HNF
    rows and `pivots` their pivot columns; `transform` expresses each basis row
    over the `nspanning` original spanning rows.  `pivot_rows[j]` is the basis row
    with pivot j as (column, value) pairs, pivot first, or None when column j
    holds no pivot; all three queries reduce on these sparse rows.
    """

    __slots__ = ()

    @classmethod
    def from_rows(cls, rows, ncols: int) -> "IntegerLattice":
        H, U = hermite_normal_form(rows, ncols, with_transform=True)
        pivots = tuple(next(j for j, x in enumerate(row) if x != 0) for row in H)
        sparse = [None] * ncols
        for row, p in zip(H, pivots):
            sparse[p] = tuple((j, x) for j, x in enumerate(row) if x)
        return cls(ncols=ncols, basis=tuple(H), transform=tuple(U), pivots=pivots,
                   nspanning=len(rows), pivot_rows=tuple(sparse))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def _reduce(self, vec, exact: bool):
        """Reduce vec by the basis, least nonzero column first (Cohen, *A Course
        in Computational Algebraic Number Theory*, 1993, 2.4.3): each pivot
        column's entry is divided by the pivot and that multiple of its row
        subtracted, which only changes later columns.  Returns the entries left
        and the multiple taken per pivot column; with `exact`, None as soon as a
        nonzero entry is left, i.e. vec is not in the lattice."""
        vec = tuple(vec)
        if len(vec) != self.ncols:
            raise ValueError("vector has the wrong length")
        w = {j: x for j, x in enumerate(vec) if x}
        heap = list(w)  # ascending, so already a heap
        left: dict[int, int] = {}
        multiples: dict[int, int] = {}
        while heap:
            j = heappop(heap)
            x = w.pop(j)
            row = self.pivot_rows[j]
            q, r = divmod(x, row[0][1]) if row else (0, x)
            if r:
                if exact:
                    return None
                left[j] = r
            if q:
                multiples[j] = q
                for c, v in row[1:]:
                    if c not in w:
                        heappush(heap, c)
                    w[c] = w.get(c, 0) - q * v
        return left, multiples

    def contains(self, vec) -> bool:
        return self._reduce(vec, exact=True) is not None

    def reduce(self, vec) -> tuple[int, ...]:
        """Canonical coset representative: pivot coordinates land in [0, pivot)."""
        left, _ = self._reduce(vec, exact=False)
        return tuple(left.get(j, 0) for j in range(self.ncols))

    def coefficients(self, vec) -> tuple[int, ...] | None:
        """Coefficients over the ORIGINAL spanning rows expressing vec, or None."""
        reduced = self._reduce(vec, exact=True)
        if reduced is None:
            return None
        out = [0] * self.nspanning
        for p, urow in zip(self.pivots, self.transform):
            c = reduced[1].get(p)
            if c:
                for j, u in enumerate(urow):
                    out[j] += c * u
        return tuple(out)
