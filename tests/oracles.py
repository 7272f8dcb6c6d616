"""Independent brute-force oracles for the exact linear algebra layer and for
symbol canonicalization, plus dense reference routines and helpers that only
the tests use.

The brute-force oracles never call into burnloc.normalforms: membership is
decided by exhaustive bounded-coefficient search or by the integer adjugate,
quotients are enumerated coset by coset, and invariant factors are recovered
from p-torsion counts of the enumerated cosets.

The dense references are the Hermite form by column-by-column elimination on
full rows, with the transform carried in m extra columns (the reference for
the sparse insertion form of burnloc.normalforms), the Smith diagonal by a
block-minimum Euclid loop on full rows (the reference for the alternating
Hermite forms of `smith_normal_form`), and the lattice queries on
full-length Hermite rows (membership and coset reduction, pivot by pivot in
basis order), against which the sparse reduction of `IntegerLattice` is
tested.  A membership certificate, the coefficients over the input rows that
rebuild a vector, is read off the dense Hermite form and its transform; the
engine builds none.  The helpers
are the left-kernel basis read off the Hermite form of [M | I], fraction-free
rank (cross-checked against the `Fraction` rank), the trivial subgroup and the
filter of given subgroup pairs.  The reference filter admission sweeps every g
of G per symbol and pair, conjugating element by element.

A character is a coordinate tuple on an `AbelianStructure`, as in the
engine, but the references call none of the engine's character arithmetic
(`character`, `reduce`, `kernel`, `generates_dual`, `restrict`,
`transport_character`): they use only the structure's basis and coordinate
map, evaluate a character in Q/Z as a `Fraction` (`reference_evaluate`, the
definition the integer kernels, orders, restrictions and transports of
burnloc.abelian are tested against), and read characters back from their
values (`character_from_values`), so sums, differences, kernels, orders,
restrictions and transports all go through those values.  The reference
canonical form is the minimum over every g in G of the transported symbol,
with no shortcut for abelian G.  The span of a set of characters is
enumerated as value tuples, element by element.

The slow paths of the cold relation pass are kept as references: the raw
symbols of the lattice path, which tries every subgroup of each carrier
quotient against every label's shape and keeps each weight tuple whose
`Fraction` kernels meet only in the identity; the relations built term by
term with `BurnsideClass` arithmetic and the `Fraction` character
arithmetic, each curve symbol's weights, Jacobian partner, Theta2 data and
text form found again for B1 and for B2; and the canonical frame of one
(kind, h, y), found by walking the whole transporter of h for Y's image and
then the ties for their actions on h.

The reference group check runs the table checks in the order the checked
constructor reports them and tests associativity on all n**3 triples, in
lexicographic order, so it names the first failing triple.

The reference subgroup lattice closes every candidate <H, g> by multiplying all
pairs of its elements until nothing new appears, for every g outside H; it
cannot reach order 64.  The breadth-first lattice (`bfs_subgroups`) is the
reference there: it closes <H, g> by the engine's coset step once per right
coset Hg of every subgroup H found and drops each subgroup already found, so it
shares the coset step with the engine's canonical augmentation and nothing else.  The
reference abelian basis takes as complement of each peeled cyclic factor the
first subgroup of the right order, in (order, elements) order, that meets it
trivially.

The invariant factors of a cyclic-factor list are kept on the prime-power
route (`reference_normalize_factors`): each factor is split into prime
powers, by trial division below 1000 and a Miller-Rabin test of the cofactor
left, and the i-th largest power of every prime goes into the i-th largest
factor; the engine reads them off the gcd/lcm divisor chain instead.  The
residual group of a label's shape is found by a scan of the carrier
quotient's whole subgroup lattice (`reference_resolve_residual`); the engine
reads the enumerators' Y options.

The one symbol check is kept as it was before a checked element tuple was
taken as is (`reference_check_record`): every stabilizer and residual tuple
is sorted again, and a surface stabilizer's cyclicity comes from its element
orders, not from its abelian structure.  Its Y lives in a carrier quotient of
its own (`reference_carrier_group`: the centralizer or normalizer found
element by element, then the cosets of H) and its shape test is its own
(`reference_shape_matches`: the order, commutativity by brute force and the
invariant factors of `reference_abelian_basis`), so it reads nothing but G
off the engine's stabilizer record and none of its kept shapes.  The form of
a checked symbol is the least one transported over all of G
(`reference_record_form`).  A difference of classes is the sum with the
negation.

The reference blow-up result is the model the move builds, made afresh and
checked from scratch, datum by datum, with none of its source's checked
symbols carried over.
"""

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

from burnloc.abelian import abelian_structure, shape_name
from burnloc.catalog import CURVE, JACOBIAN, RULED_SURFACE, GroupShape
from burnloc.errors import ValidationError
from burnloc.groups import (
    FiniteGroup, Subgroup, _extend, abelian_subgroups_up_to_conjugacy, all_subgroups, subgroups_up_to_conjugacy,
)
from burnloc.models import ensure_valid_model
from burnloc.relations import BurnsideContext, FilterSpec, RelationInstance, _filter_pass, generate_relations
from burnloc.symbols import (
    KIND_CURVE,
    KIND_JAC,
    KIND_SURFACE,
    BurnsideClass,
    Symbol,
    carrier_quotient,
    text_form,
    validate_symbol,
)


def exhaustive_member(rows, vec, bound=3):
    """Is vec a combination of rows with all coefficients in [-bound, bound]?

    Meet-in-the-middle over the two halves of the coefficient box.
    """
    rows = [tuple(r) for r in rows]
    n = len(vec)
    if not rows:
        return all(x == 0 for x in vec)
    half = len(rows) // 2
    first, second = rows[:half], rows[half:]
    coeffs = range(-bound, bound + 1)
    partial = {}
    for cs in product(coeffs, repeat=len(first)):
        s = tuple(sum(c * r[j] for c, r in zip(cs, first)) for j in range(n))
        partial[s] = cs
    target = tuple(vec)
    for cs in product(coeffs, repeat=len(second)):
        s = tuple(sum(c * r[j] for c, r in zip(cs, second)) for j in range(n))
        rest = tuple(t - x for t, x in zip(target, s))
        if rest in partial:
            return True
    return False


def det_int(M):
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    total = 0
    for j, entry in enumerate(M[0]):
        if entry == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * entry * det_int(minor)
    return total


def adjugate_int(M):
    """adj(M) with M @ adj(M) = det(M) * I, by cofactors."""
    n = len(M)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:i] + row[i + 1:] for k, row in enumerate(M) if k != j]
            adj[i][j] = (-1) ** (i + j) * det_int(minor)
    return adj


class SquareLatticeOracle:
    """Membership in the row lattice of a nonsingular square matrix.

    x * A = v has the unique rational solution x = v * adj(A) / det(A), so
    v is in the lattice iff v * adj(A) == 0 componentwise mod det(A); the
    residue vector (v * adj mod det) is a perfect coset invariant.
    """

    def __init__(self, rows):
        self.n = len(rows)
        self.rows = [list(r) for r in rows]
        self.det = det_int(self.rows)
        if self.det == 0:
            raise ValueError("matrix is singular")
        self.adj = adjugate_int(self.rows)

    def signature(self, vec):
        d = abs(self.det)
        return tuple(
            sum(vec[i] * self.adj[i][j] for i in range(self.n)) % d
            for j in range(self.n)
        )

    def member(self, vec):
        return all(s == 0 for s in self.signature(vec))


def enumerate_cosets(oracle, limit=256):
    """BFS coset enumeration of Z^n modulo the lattice; returns representatives."""
    n = oracle.n
    zero = tuple([0] * n)
    reps = {oracle.signature(zero): zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(n):
                for step in (1, -1):
                    cand = list(r)
                    cand[i] += step
                    cand = tuple(cand)
                    sig = oracle.signature(cand)
                    if sig not in reps:
                        reps[sig] = cand
                        nxt.append(cand)
                        if len(reps) > limit:
                            raise ValueError(f"more than {limit} cosets")
        frontier = nxt
    return list(reps.values())


def _prime_factors(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n):
    """Miller-Rabin with the first twelve primes as bases, which decides
    primality exactly for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_SMALL_PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, p))]


def _prime_powers(d):
    """{p: e} with d the product of the p**e: trial division by the primes
    below 1000 until p*p exceeds what is left, then the cofactor left, which
    must be 1 or a prime (Miller-Rabin), so that a 19-digit prime is read at
    once where trial division up to its root would run for minutes."""
    out = {}
    for p in _SMALL_PRIMES:
        if p * p > d:
            break
        while d % p == 0:
            out[p] = out.get(p, 0) + 1
            d //= p
    else:
        if d > 1 and not _is_probable_prime(d):
            raise ValueError(f"cofactor {d} has no prime factor below 1000 and is not prime")
    if d > 1:
        out[d] = out.get(d, 0) + 1
    return out


def reference_normalize_factors(factors):
    """Invariant factors (ascending divisibility, no 1s) of a cyclic-factor
    list by the prime-power route: split each factor into prime powers,
    sort each prime's exponents, and multiply the i-th largest power of every
    prime into the i-th largest invariant factor."""
    primary = {}
    for d in factors:
        if d < 1:
            raise ValidationError(f"cyclic factor must be positive, got {d}")
        for p, e in _prime_powers(d).items():
            primary.setdefault(p, []).append(e)
    for exps in primary.values():
        exps.sort(reverse=True)
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


def quotient_invariant_factors(oracle, reps):
    """Invariant factors of the enumerated quotient, from p-torsion counts.

    |{x : p^i * x = 0}| = p^(sum_j min(i, e_j)) pins down the exponent multiset
    e_1 >= e_2 >= ... of the p-primary part.
    """
    order = len(reps)
    primary = {}
    for p in _prime_factors(order):
        exponents = []
        prev = 1
        i = 1
        while True:
            count = sum(
                1 for r in reps if oracle.member([x * p ** i for x in r])
            )
            layers = count // prev
            k = 0
            while p ** (k + 1) <= layers:
                k += 1
            # k = number of exponents e_j >= i
            if k == 0:
                break
            exponents.append(k)
            prev = count
            i += 1
        # exponents[i-1] = #{j : e_j >= i}; convert to the multiset of e_j
        es = []
        for j in range(exponents[0] if exponents else 0):
            es.append(sum(1 for c in exponents if c > j))
        primary[p] = sorted(es, reverse=True)
    factors = []
    i = 0
    while any(i < len(es) for es in primary.values()):
        d = 1
        for p, es in primary.items():
            if i < len(es):
                d *= p ** es[i]
        factors.append(d)
        i += 1
    return tuple(sorted(factors))


def rational_rank_oracle(rows, ncols):
    M = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    col = 0
    while rank < len(M) and col < ncols:
        piv = next((i for i in range(rank, len(M)) if M[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        M[rank], M[piv] = M[piv], M[rank]
        pivval = M[rank][col]
        for i in range(rank + 1, len(M)):
            if M[i][col] != 0:
                f = M[i][col] / pivval
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        rank += 1
        col += 1
    return rank


def rational_rank(rows, ncols):
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


def _bezout(a, b):
    """(g, x, y) with g = gcd(a, b) = x*a + y*b and g > 0, for b != 0."""
    if b == 0:
        return (a, 1, 0) if a > 0 else (-a, -1, 0)
    g, x, y = _bezout(b, a % b)
    return g, y, x - (a // b) * y


def dense_hermite_normal_form(rows, ncols, with_transform=False):
    """Row-style HNF by dense elimination, one column at a time: the nonzero
    rows (echelon, positive pivots, entries above each pivot in [0, pivot)),
    and with `with_transform` each row's coefficients over the input rows,
    carried as a unit vector in m extra columns that every row operation
    updates along with it."""
    m = len(rows)
    M = [list(r) for r in rows]
    if any(len(r) != ncols for r in M):
        raise ValueError("all rows must have the stated number of columns")
    if with_transform:
        for i, row in enumerate(M):
            row.extend(1 if i == j else 0 for j in range(m))
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, m) if M[i][col] != 0), None)
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
                    g, x, y = _bezout(a, b)
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


def dense_smith_diagonal(rows, ncols: int) -> tuple[int, ...]:
    """SNF diagonal by a dense block-minimum Euclid loop over the whole matrix:
    the reference the alternating Hermite route of `smith_normal_form` is
    tested against."""
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


def kernel_basis(rows, ncols):
    """Basis of the left kernel {c : c * M = 0} of the matrix with the given rows."""
    m = len(rows)
    augmented = [tuple(rows[i]) + tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
    H = dense_hermite_normal_form(augmented, ncols + m)
    return [row[ncols:] for row in H if all(x == 0 for x in row[:ncols])]


def _dense_vector(lattice, vec):
    w = list(vec)
    if len(w) != lattice.ncols:
        raise ValueError("vector has the wrong length")
    return w


def dense_contains(lattice, vec):
    """`IntegerLattice.contains` on the dense Hermite rows."""
    w = _dense_vector(lattice, vec)
    for row, p in zip(lattice.basis, lattice.pivots):
        if w[p] % row[p] != 0:
            return False
        q = w[p] // row[p]
        if q:
            w = [x - q * y for x, y in zip(w, row)]
    return all(x == 0 for x in w)


def dense_reduce(lattice, vec):
    """`IntegerLattice.reduce` on the dense Hermite rows."""
    w = _dense_vector(lattice, vec)
    for row, p in zip(lattice.basis, lattice.pivots):
        q = w[p] // row[p]
        if q:
            w = [x - q * y for x, y in zip(w, row)]
    return tuple(w)


@lru_cache(maxsize=1)
def _dense_transform(rows, ncols):
    return dense_hermite_normal_form(rows, ncols, with_transform=True)


def dense_coefficients(rows, ncols, vec):
    """Coefficients over `rows` whose combination is vec, or None when vec is
    not in their lattice: vec reduced over the dense Hermite rows, pivot by
    pivot, and the multiples taken carried over to the rows by the transform."""
    H, U = _dense_transform(tuple(map(tuple, rows)), ncols)
    w = list(vec)
    if len(w) != ncols:
        raise ValueError("vector has the wrong length")
    out = [0] * len(rows)
    for row, urow in zip(H, U):
        p = next(j for j, x in enumerate(row) if x)
        q, r = divmod(w[p], row[p])
        if r:
            return None
        if q:
            w = [x - q * y for x, y in zip(w, row)]
            out = [x + q * u for x, u in zip(out, urow)]
    return tuple(out) if not any(w) else None


def filtered_relation_vectors(G, catalog, f):
    """The vectors of the generated relations that the filter f keeps."""
    return _filter_pass(f, G, generate_relations(G, catalog))[1]


def trivial_subgroup(G):
    return Subgroup.trusted(G, (0,))


def filter_from_subgroups(pairs):
    """The filter admitting the given (H, Y) subgroup pairs, Y in H's carrier quotient."""
    out = []
    for H, Y in pairs:
        Q = carrier_quotient(H.ambient, H.elements, KIND_JAC)
        out.append((H.elements, Q.preimage(Y.elements)))
    return FilterSpec(pairs=tuple(out))


def reference_admits(f, sym, G):
    """Does the filter admit the symbol?  The brute-force sweep: some g in G
    carries the symbol's (H, preimage of Y), element by element, onto a pair."""
    Q = carrier_quotient(G, sym.h, sym.kind)
    upstairs = frozenset(Q.preimage(sym.y))
    h_set = frozenset(sym.h)
    for h_pair, p_pair in f.pairs:
        h_target, p_target = frozenset(h_pair), frozenset(p_pair)
        for g in G.elements():
            if {G.conj(g, x) for x in h_set} == h_target and {G.conj(g, x) for x in upstairs} == p_target:
                return True
    return False


def all_coordinates(struct):
    """Every coordinate tuple of the structure's characters, in lexicographic order."""
    return list(product(*(range(d) for d in struct.invariant_factors)))


def reference_evaluate(struct, b, x):
    """The value of the character with coordinates b on `struct` at the element
    x of its host, in Q/Z, represented in [0, 1)."""
    a = struct.coords.get(x)
    if a is None:
        raise ValidationError(f"element {x} is not in the character's host subgroup")
    e = lcm(*struct.invariant_factors)  # b(x) = sum_j b_j a_j / d_j
    return Fraction(sum(c * v * (e // d) for c, v, d in zip(b, a, struct.invariant_factors)) % e, e)


def character_from_values(struct, value_at):
    """The coordinates of the character of `struct` taking the value
    `value_at(h)` in Q/Z at each basis element h."""
    coords = []
    for h, d in zip(struct.basis, struct.invariant_factors):
        v = value_at(h) * d
        if v.denominator != 1:
            raise ValidationError("values do not define a character in these coordinates")
        coords.append(int(v) % d)
    return tuple(coords)


def reference_sum(struct, *terms):
    """The coordinates of sum_i c_i b_i for terms (c_i, b_i), read off the values."""
    return character_from_values(struct, lambda x: sum(c * reference_evaluate(struct, b, x) for c, b in terms))


def reference_kernel(struct, b):
    """The ascending elements of the host at which b vanishes."""
    return tuple(x for x in struct.subgroup.elements if reference_evaluate(struct, b, x) == 0)


def reference_order(struct, b):
    """The order of b: the least common multiple of the denominators of its values."""
    return lcm(*(reference_evaluate(struct, b, x).denominator for x in struct.subgroup.elements))


def reference_restrict(struct, b, K):
    """The coordinates of b restricted to the subgroup K of its host, on K's structure."""
    return character_from_values(abelian_structure(K), lambda x: reference_evaluate(struct, b, x))


def character_span(struct, *chars):
    """The subgroup of the dual generated by the given characters, each member
    as its tuple of values on the host's elements (scaled by the exponent e of
    the host to integers mod e), closed up from the trivial character by
    breadth-first search."""
    elements = struct.subgroup.elements
    e = lcm(*struct.invariant_factors)
    gens = [tuple(int(reference_evaluate(struct, b, x) * e) for x in elements) for b in chars]
    trivial = (0,) * len(elements)
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for values in frontier:
            for g in gens:
                c = tuple((v + w) % e for v, w in zip(values, g))
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return frozenset(seen)


def reference_transport_character(g, struct, b):
    """The coordinates, on the structure of gHg^-1, of the character b of H
    precomposed with conjugation by g^-1."""
    H = struct.subgroup
    G = H.ambient
    H2 = Subgroup(G, tuple(G.conj(g, a) for a in H.elements))
    ginv = G.inv(g)
    return character_from_values(abelian_structure(H2), lambda x: reference_evaluate(struct, b, G.conj(ginv, x)))


def reference_transport_symbol(sym, g, G):
    """All symbol data conjugated by g; the action label denotes an abstract class and stays put."""
    H = Subgroup(G, sym.h)
    H2 = Subgroup(G, tuple(G.conj(g, a) for a in H.elements))
    Q1 = carrier_quotient(G, H.elements, sym.kind)
    Q2 = carrier_quotient(G, H2.elements, sym.kind)
    y2 = tuple(sorted({Q2.coset_of[G.conj(g, Q1.reps[i])] for i in sym.y}))
    struct = abelian_structure(H) if sym.weights else None
    weights2 = tuple(sorted(reference_transport_character(g, struct, w) for w in sym.weights))
    return Symbol(sym.kind, H2.elements, y2, sym.action, weights2)


def reference_canonicalize(sym, G, catalog):
    """The least transported symbol over all of G, by `Symbol.key`."""
    problems = validate_symbol(sym, G, catalog)
    if problems:
        raise ValidationError("; ".join(problems))
    return min((reference_transport_symbol(sym, g, G) for g in G.elements()), key=Symbol.key)


_SPACE = {KIND_CURVE: CURVE, KIND_SURFACE: RULED_SURFACE, KIND_JAC: JACOBIAN}


def reference_check_record(sym, label, record):
    """`symbols._check_record`, the one check of a symbol past its lookups
    (the kind, the label and the stabilizer record, which refuses a
    nonabelian curve or surface h), found as the engine found it before a
    checked element tuple was taken as is: (diagnostics, (h, y, h's structure
    or None, reduced weights) or None).  It reads only G off the record: H
    and Y are passed as lists, so they are sorted again, and a surface
    stabilizer is cyclic when one of its elements has order |H|.  Y lives in
    `reference_carrier_group` and its shape is tested by
    `reference_shape_matches`, so the check calls neither the engine's
    carrier quotients nor its shapes."""
    G = record.subgroup.ambient
    problems = []
    H = Subgroup(G, list(sym.h))
    if label.space != _SPACE[sym.kind]:
        problems.append(f"label {label.id!r} lives on {label.space}, not {_SPACE[sym.kind]}")
    try:
        Y = Subgroup(reference_carrier_group(G, H.elements, sym.kind), list(sym.y))
    except ValidationError as exc:
        return problems + [f"residual group: {exc}"], None
    if not reference_shape_matches(label.group_shape, Y):
        problems.append(f"residual group of order {Y.order} does not match declared shape {label.group_shape}")
    if sym.kind == KIND_JAC:
        if sym.weights:
            problems.append("jacobian symbols carry no weights")
        return problems, (H.elements, Y.elements, None, sym.weights)
    if H.is_trivial():
        return problems + ["stabilizer must be nontrivial"], None
    struct = abelian_structure(H)
    expected = 2 if sym.kind == KIND_CURVE else 1
    if len(sym.weights) != expected:
        return problems + [f"{sym.kind} symbols carry exactly {expected} weight(s)"], None
    try:
        weights = tuple(map(struct.character, sym.weights))
    except ValidationError as exc:
        return problems + [f"weights: {exc}"], None
    if not all(map(any, weights)):
        return problems + ["weights must be nontrivial characters"], None
    if not struct.generates_dual(*weights):
        problems.append("weights must generate the full character group of the stabilizer")
    if sym.kind == KIND_SURFACE and not H.is_cyclic():
        problems.append("surface symbols need a cyclic stabilizer")
    return problems, (H.elements, Y.elements, struct, weights)


def reference_carrier_group(G, h, kind):
    """The quotient housing Y, as a checked group: the centralizer of H (curve
    and surface symbols) or its normalizer (jacobian ones), each g of G tested
    element by element, then the cosets of H in it, numbered in the order of
    their least elements, with coset i times coset j the coset of the product
    of their least elements."""
    members = set(h)
    if kind == KIND_JAC:
        carrier = [g for g in G.elements() if {G.conj(g, a) for a in h} == members]
    else:
        carrier = [g for g in G.elements() if all(G.mul[g][a] == G.mul[a][g] for a in h)]
    reps, coset_of = [], {}
    for x in carrier:
        if x not in coset_of:
            coset_of.update((G.mul[x][a], len(reps)) for a in h)
            reps.append(x)
    return FiniteGroup([[coset_of[G.mul[a][b]] for b in reps] for a in reps])


def reference_shape_matches(shape, Y):
    """Does Y have the declared shape?  Its order, then commutativity by
    multiplying every pair of its elements, then, for an abelian shape, the
    invariant factors of `reference_abelian_basis`."""
    mul = Y.ambient.mul
    abelian = all(mul[a][b] == mul[b][a] for a in Y.elements for b in Y.elements)
    if Y.order != shape.order or abelian != (shape.factors is not None):
        return False
    return not abelian or reference_abelian_basis(Y)[0] == shape.factors


def reference_record_form(sym, G, label, record, invalid):
    """`symbols._record_form`, the check and canonical form of a symbol past
    its lookups, by `reference_check_record`, with the least transported
    symbol over all of G as the form."""
    problems, _ = reference_check_record(sym, label, record)
    if problems:
        raise ValidationError(f"{invalid}: {'; '.join(problems)}")
    return min((reference_transport_symbol(sym, g, G) for g in G.elements()), key=Symbol.key)


def reference_difference(a, b):
    """a - b as the sum of a and the negation of b."""
    return a + (-b)


def reference_classes_equal(a, b, lattice):
    """`relations.classes_equal` as the lattice's membership of the class a - b."""
    return lattice.contains(a - b)


def _pair_closure(G, seed):
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


def reference_subgroups_within(G, universe):
    """All subgroups of G inside the closed subset `universe`, ordered by
    (order, elements): breadth-first from the trivial group, adjoining every
    element outside each subgroup found."""
    allowed = frozenset(universe)
    trivial = frozenset({0})
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            for g in allowed - H:
                K = _pair_closure(G, H | {g})
                if K <= allowed and K not in seen:
                    seen.add(K)
                    nxt.append(K)
        frontier = nxt
    return tuple(sorted((tuple(sorted(s)) for s in seen), key=lambda t: (len(t), t)))


def bfs_subgroups(G):
    """All subgroups of G as element tuples, ordered by (order, elements):
    breadth-first from the trivial group, each new <H, g> closed by the coset
    step for one g per right coset Hg outside H and kept if not yet found."""
    mul = G.mul
    trivial = frozenset({0})
    found = {trivial: ()}  # subgroup -> a generator tuple
    frontier = [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            base, gens, covered = tuple(H), found[H], set(H)
            for g in G.elements():
                if g in covered:
                    continue
                covered.update(mul[h][g] for h in base)
                K = frozenset(_extend(mul, base, gens + (g,)))
                if K not in found:
                    found[K] = gens + (g,)
                    nxt.append(K)
        frontier = nxt
    return tuple(sorted((tuple(sorted(s)) for s in found), key=lambda t: (len(t), t)))


def power(G, a, k):
    """a**k in G, for k >= 0, by k products."""
    x = 0
    for _ in range(k):
        x = G.mul[x][a]
    return x


def reference_abelian_basis(H):
    """(invariant_factors, basis) of the abelian subgroup H: repeatedly peel off
    the least element h of largest order m, continuing in the least complement
    of <h> found by a search of the whole subgroup lattice."""
    G = H.ambient
    factors, basis = [], []
    remaining = tuple(H.elements)
    while len(remaining) > 1:
        m, h = max((G.element_order(a), -a) for a in remaining)
        h = -h
        cyc = frozenset(power(G, h, k) for k in range(m))
        target = len(remaining) // m
        remaining = next(
            cand for cand in reference_subgroups_within(G, remaining)
            if len(cand) == target and len(frozenset(cand) & cyc) == 1
        )
        factors.append(m)
        basis.append(h)
    return tuple(reversed(factors)), tuple(reversed(basis))


def reference_coordinates(struct):
    """The element h1^a1 ... hk^ak of every coordinate tuple (a1, ..., ak) of the
    structure's basis, each power taken by `power`, in lexicographic
    order of the tuples: {element: coordinates}."""
    G = struct.subgroup.ambient
    coords = {}
    for tup in product(*map(range, struct.invariant_factors)):
        x = 0
        for a, h in zip(tup, struct.basis):
            x = G.mul[x][power(G, h, a)]
        coords[x] = tup
    return coords


def reference_group_problem(table):
    """The message `FiniteGroup(table)` must raise for a square table of element
    indices, or None if the table is a group: identity, then two-sided inverses,
    then associativity over every triple (a, b, c) in lexicographic order."""
    n = len(table)
    rng = range(n)
    if any(table[0][a] != a or table[a][0] != a for a in rng):
        return "element 0 must be a two-sided identity"
    for a in rng:
        if not any(table[a][b] == 0 and table[b][a] == 0 for b in rng):
            return f"element {a} has no two-sided inverse"
    for a, b, c in product(rng, repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return f"table is not associative at ({a},{b},{c})"
    return None


def reference_frame(G, kind, h, y):
    """(best_h, best_y, actions) for a valid (kind, h, y) over nonabelian G:
    best_h is h's least conjugate, best_y the least image of Y over the g
    that carry h to best_h, and actions the least g per distinct action on h
    among the g that also carry Y to best_y."""
    conj = G.conj_table()
    best_h, transporter = G.subgroup_class(h)
    Q1 = carrier_quotient(G, h, kind)
    Q2 = carrier_quotient(G, best_h, kind)
    images = {g: tuple(sorted({Q2.coset_of[conj[g][Q1.reps[i]]] for i in y})) for g in transporter}
    best_y = min(images.values())
    per_action = {}
    for g in transporter:
        if images[g] == best_y:
            per_action.setdefault(tuple(conj[g][a] for a in h), g)
    return best_h, best_y, tuple(per_action.values())


def reference_frame_form(sym, G):
    """The canonical form of a valid raw symbol over nonabelian G, from
    `reference_frame` and the `Fraction` transport."""
    h, y = tuple(sorted(set(sym.h))), tuple(sorted(set(sym.y)))
    best_h, best_y, actions = reference_frame(G, sym.kind, h, y)
    weights = ()
    if sym.weights:
        struct = abelian_structure(Subgroup(G, h))
        weights = min(tuple(sorted(reference_transport_character(g, struct, b) for b in sym.weights))
                      for g in actions)
    return Symbol(sym.kind, best_h, best_y, sym.action, weights)


def reference_raw_symbols(G, catalog):
    """The raw curve, surface and Jacobian symbols, in the enumerators' yield
    order, by the lattice path: every Y of the carrier quotient's subgroup
    lattice is tried against every label's shape, and every weight tuple is
    kept whose `Fraction` kernels meet only in the identity."""
    out = []
    for H in abelian_subgroups_up_to_conjugacy(G):
        struct = abelian_structure(H)
        if H.is_trivial() or len(struct.invariant_factors) > 2:
            continue
        kernels = reference_kernels(struct)
        nontrivial = [b for b in kernels if any(b)]
        pairs = [(b1, b2) for i, b1 in enumerate(nontrivial) for b2 in nontrivial[i:]
                 if kernels[b1] & kernels[b2] == {0}]
        for Y, label in _lattice_options(G, H, KIND_CURVE, catalog.labels_in(CURVE)):
            out += [Symbol(KIND_CURVE, H.elements, Y.elements, label.id, pair) for pair in pairs]
    for H in abelian_subgroups_up_to_conjugacy(G):
        if H.is_trivial() or not H.is_cyclic():
            continue
        kernels = reference_kernels(abelian_structure(H))
        generators = [b for b in kernels if any(b) and kernels[b] == {0}]
        for Y, label in _lattice_options(G, H, KIND_SURFACE, catalog.labels_in(RULED_SURFACE)):
            out += [Symbol(KIND_SURFACE, H.elements, Y.elements, label.id, (b,)) for b in generators]
    genus = catalog.curve.genus
    for H in subgroups_up_to_conjugacy(G):
        for Y, label in _lattice_options(G, H, KIND_JAC, catalog.labels_in(JACOBIAN)):
            if (genus >= 2 and not label.faithful) or (genus == 1 and not label.from_curve):
                continue
            out.append(Symbol(KIND_JAC, H.elements, Y.elements, label.id))
    return out


def reference_kernels(struct):
    """{coordinates: `Fraction` kernel as a set} for every character of the
    structure, in lexicographic order of the coordinates."""
    return {b: set(reference_kernel(struct, b)) for b in all_coordinates(struct)}


def _lattice_options(G, H, kind, labels):
    """(Y, label) for every subgroup Y of H's carrier quotient, in (order,
    elements) order, and every label whose shape Y matches, in catalog order."""
    for Y in all_subgroups(carrier_quotient(G, H.elements, kind).group):
        for label in labels:
            if label.group_shape.matches(Y):
                yield Y, label


def reference_resolve_residual(G, h, kind, label):
    """The one Y of the label's shape in h's carrier quotient, by a scan of the
    quotient's whole subgroup lattice, with the engine's messages for none and
    for more than one."""
    matches = [Y for Y in all_subgroups(carrier_quotient(G, h, kind).group) if label.group_shape.matches(Y)]
    if not matches:
        raise ValidationError(f"no residual subgroup of shape {label.group_shape} exists for stabilizer {h}")
    if len(matches) > 1:
        raise ValidationError(
            f"residual group for label {label.id!r} over stabilizer {h} is ambiguous; "
            "declare residual_group explicitly"
        )
    return matches[0].elements


def symbol_structure(G, sym):
    """The abelian structure that a valid curve or surface symbol's weights live on."""
    return abelian_structure(Subgroup(G, sym.h))


def _reference_jac_partner(context, sym):
    G = context.group
    Qc = carrier_quotient(G, sym.h, sym.kind)
    y = carrier_quotient(G, sym.h, KIND_JAC).image(Qc.reps[i] for i in sym.y)
    jac_label = context.catalog.jacobian_of_curve_action(sym.action).target
    return context.canonicalize(Symbol(KIND_JAC, sym.h, y, jac_label))


def _reference_b2_terms(context, sym):
    """(Theta1, Theta2) for a canonical curve symbol, one `BurnsideClass` per term."""
    G, catalog = context.group, context.catalog
    struct = symbol_structure(G, sym)
    b1, b2 = sym.weights
    theta1 = BurnsideClass.zero()
    diff = reference_sum(struct, (1, b1), (-1, b2))
    if any(diff):
        for first, second in ((b1, reference_sum(struct, (1, b2), (-1, b1))), (b2, diff)):
            term = Symbol(KIND_CURVE, sym.h, sym.y, sym.action, tuple(sorted((first, second))))
            theta1 = theta1 + BurnsideClass.of(context.canonicalize(term))
    order = reference_order(struct, diff)
    if order == struct.subgroup.order:
        return theta1, BurnsideClass.zero()
    h_bar = Subgroup(G, reference_kernel(struct, diff))
    label = catalog.induced_surface_action(struct.invariant_factors, sym.action, order).target
    upstairs = carrier_quotient(G, sym.h, sym.kind).preimage(sym.y)
    y_bar = carrier_quotient(G, h_bar.elements, KIND_SURFACE).image(upstairs)
    term = Symbol(KIND_SURFACE, h_bar.elements, y_bar, label, (reference_restrict(struct, b1, h_bar),))
    return theta1, BurnsideClass.of(context.canonicalize(term))


def reference_generate_relations(G, catalog):
    """The B1-B4 instances over the enumerated symbols, each built term by term
    by `BurnsideClass` arithmetic, with a curve symbol's weights, Jacobian
    partner and text form found afresh for B1 and again for B2."""
    context = BurnsideContext(G, catalog)
    symbols = context.symbols
    instances, seen = [], set()

    def emit(vector, rule, **params):
        if vector.is_zero() or vector in seen or -vector in seen:
            return
        seen.add(vector)
        instances.append(RelationInstance(vector, rule, tuple(sorted((k, str(v)) for k, v in params.items()))))

    curve_syms = [s for s in symbols if s.kind == KIND_CURVE]
    for sym in curve_syms:
        if not any(reference_sum(symbol_structure(G, sym), (1, sym.weights[0]), (1, sym.weights[1]))):
            emit(BurnsideClass.of(sym) + BurnsideClass.of(_reference_jac_partner(context, sym)), "B1",
                 symbol=text_form(sym, G))
    for sym in curve_syms:
        theta1, theta2 = _reference_b2_terms(context, sym)
        vec = BurnsideClass.of(sym) - theta1 - theta2 - BurnsideClass.of(_reference_jac_partner(context, sym))
        emit(vec, "B2", symbol=text_form(sym, G))
    for rule in catalog.jacobian_rules:
        curve_label = catalog.label(rule.source)
        for Y in subgroups_up_to_conjugacy(G):
            if curve_label.group_shape.matches(Y):
                sym = Symbol(KIND_JAC, (0,), carrier_quotient(G, (0,), KIND_JAC).image(Y.elements), rule.target)
                y = shape_name(abelian_structure(Y).invariant_factors) if Y.is_abelian() else f"ord{Y.order}"
                emit(BurnsideClass.of(context.canonicalize(sym)), "B3", curve_action=rule.source, y=y)
    for rule in catalog.extension_rules:
        if rule.trivial_part == "none":
            continue
        for sym in symbols:
            if sym.kind != KIND_JAC or sym.action != rule.source_label:
                continue
            if not GroupShape.abelian(rule.h_factors).matches(Subgroup(G, sym.h)):
                continue
            h1 = Subgroup(G, carrier_quotient(G, sym.h, KIND_JAC).preimage(sym.y))
            target_shape = GroupShape.abelian(rule.target_h_factors)
            if not target_shape.matches(h1):
                found = shape_name(abelian_structure(h1).invariant_factors) if h1.is_abelian() else f"ord{h1.order}"
                raise ValidationError(
                    f"B4(symbol={text_form(sym, G)}): "
                    f"GenusOneExtensionRule({shape_name(rule.h_factors)},{rule.source_label}): "
                    f"computed extension {found} does not match declared shape {target_shape}"
                )
            new_sym = context.canonicalize(Symbol(KIND_JAC, h1.elements, (0,), rule.target_label))
            emit(BurnsideClass.of(sym) - BurnsideClass.of(new_sym), "B4", symbol=text_form(sym, G))
    return tuple(instances)


def blown_up_from_scratch(m, drop, added_strata, added_factors):
    """Stands in for `models._blown_up`: m without stratum `drop`, the added data
    appended, as a fresh model checked from scratch."""
    strata = tuple(d for i, d in enumerate(m.strata) if i != drop) + added_strata
    return ensure_valid_model(replace(m, strata=strata, jacobian_factors=m.jacobian_factors + added_factors,
                                      counts=None))
