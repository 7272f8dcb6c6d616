"""The three symbol kinds, their validity conditions, canonical forms under
weight permutation and conjugation, and exhaustive enumeration.

A symbol is pure data: the stabilizer H as a sorted element tuple of the ambient
group, the residual group Y as a sorted tuple of coset indices in the carrier
quotient (centralizer mod H for curve/surface symbols, normalizer mod H for
jacobian symbols), an action label id, and character coordinate tuples.

G's `carriers` table keeps a stabilizer record per (h's checked sorted tuple,
carrier), h written in any order: the checked `Subgroup` H, the
`AbelianStructure` of a nontrivial H in the centralizer's record, which curve
and surface symbols share (jacobian ones read the normalizer's), and the
carrier quotient.  Validation reads the record, handed over by model data
(`datum_form`), and Y's kept shape, and checks each element set once per group.
The canonical form reads H's least conjugate and its transporter from G's class
table.  G's `frames` table keeps, per stabilizer (kind, h), one g of the
transporter per distinct pair (map of carrier cosets, action on H); a Y costs
one image lookup per kept g, and only the weights are transported per symbol.
Every g keeps a trivial Y, whose frame (kind None) maps no carrier quotient.

The enumerators read a stabilizer's Y options off the labels' shapes: a
trivial shape gives Y = {0}, a cyclic shape (m) the <q> for the q of order m
in the carrier quotient, and only another shape (noncyclic abelian, or
nonabelian by order) filters the quotient's lattice.  Declared data whose Y is
left to its shape read the same options (`resolve_residual_group`), and what
they resolve is kept in the carrier quotient's `resolved` memo.  Weights are
coordinate tuples on H's `AbelianStructure`; validation and the enumerators
both ask its `generates_dual`, which reads the kernel memo: a pair generates
the dual when their kernels meet only in the identity, one character when its
kernel is trivial.  A curve stabilizer with a p-rank above 2, read off its
element orders, is skipped before any abelian structure is built for it.

A `BurnsideContext` carries one pass over a pair (G, catalog): the catalog
checked once, the enumerated symbols, and a memo of the canonical form of
every raw symbol the pass has met; over abelian G an enumerated raw symbol is
already canonical and enters the memo as itself.  The call that runs the pass
builds it and drops it on return, so the memo holds only the finitely many raw
symbols of that one pair.  Library calls of `canonicalize` outside a pass are
not memoized.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import product

from .abelian import AbelianStructure, abelian_structure, shape_name, transport_character
from .catalog import CURVE, JACOBIAN, RULED_SURFACE, ActionCatalog, GroupShape, ensure_valid_catalog
from .errors import ValidationError
from .groups import (
    FiniteGroup,
    QuotientGroup,
    Subgroup,
    abelian_subgroups_up_to_conjugacy,
    all_subgroups,
    centralizer,
    normalizer,
    quotient,
    subgroups_up_to_conjugacy,
)

KIND_CURVE = "curve"
KIND_SURFACE = "surface"
KIND_JAC = "jac"
_KIND_RANK = {KIND_CURVE: 0, KIND_SURFACE: 1, KIND_JAC: 2}
_KIND_SPACE = {KIND_CURVE: CURVE, KIND_SURFACE: RULED_SURFACE, KIND_JAC: JACOBIAN}
Stabilizer = namedtuple("Stabilizer", "subgroup structure quotient")  # h's record (see above)


class Symbol(namedtuple("Symbol", "kind h y action weights", defaults=((),))):
    """Symbols order by `key`, not by their fields as plain tuples would."""

    __slots__ = ()

    def key(self):
        return (_KIND_RANK[self.kind], len(self.h), self.h, self.y, self.action, self.weights)

    def __lt__(self, other: "Symbol") -> bool:
        return self.key() < other.key()

    def __le__(self, other: "Symbol") -> bool:
        return self.key() <= other.key()

    def __gt__(self, other: "Symbol") -> bool:
        return self.key() > other.key()

    def __ge__(self, other: "Symbol") -> bool:
        return self.key() >= other.key()


def stabilizer(G: FiniteGroup, h: tuple[int, ...], kind: str) -> Stabilizer:
    """h's record; Y's carrier is Z_G(H) for curve and surface symbols, which holds H only
    when H is abelian (a nonabelian H is refused as such), and N_G(H) for jacobian ones."""
    jac = kind == KIND_JAC
    record = G.carriers.get((h, jac))
    if record is None:
        H = Subgroup(G, h)
        record = G.carriers.get((H.elements, jac))
        if record is None:
            if not jac and not H.is_abelian():
                raise ValidationError("stabilizer must be abelian")
            struct = None if jac or H.is_trivial() else abelian_structure(H)
            ambient = normalizer(G, H) if jac else centralizer(G, H)
            record = G.carriers[H.elements, jac] = Stabilizer(H, struct, quotient(ambient, H))
    return record


def carrier_quotient(G: FiniteGroup, h: tuple[int, ...], kind: str) -> QuotientGroup:
    """The quotient housing Y, read off h's `stabilizer` record."""
    return stabilizer(G, h, kind).quotient


def y_subgroup(G: FiniteGroup, sym: Symbol) -> Subgroup:
    return Subgroup(carrier_quotient(G, sym.h, sym.kind).group, sym.y)


def validate_symbol(sym: Symbol, G: FiniteGroup, catalog: ActionCatalog) -> list[str]:
    """Diagnostics for the kind-specific invariants; an empty list means valid."""
    return _check_symbol(sym, G, catalog)[0]


def _check_symbol(sym: Symbol, G: FiniteGroup, catalog: ActionCatalog):
    """(diagnostics, (h sorted, y sorted, h's structure or None, reduced weights) or None)."""
    if sym.kind not in _KIND_RANK:
        return [f"unknown symbol kind {sym.kind!r}"], None
    try:
        H = Subgroup(G, sym.h)
    except ValidationError as exc:
        return [f"stabilizer: {exc}"], None
    try:
        label = catalog.label(sym.action)
    except ValidationError:
        return [f"unknown action label {sym.action!r}"], None
    record = stabilizer(G, H.elements, sym.kind) if sym.kind == KIND_JAC or H.is_abelian() else None
    return _check_record(sym, catalog, label, record)


def _check_record(sym: Symbol, catalog: ActionCatalog, label, record: Stabilizer | None):
    """`_check_symbol` past the lookups; record None: a nonabelian curve or surface h."""
    problems: list[str] = []
    if label.space != _KIND_SPACE[sym.kind]:
        problems.append(f"label {label.id!r} lives on {label.space}, not {_KIND_SPACE[sym.kind]}")
    if record is None:  # before Y: Z_G(H) holds H only for abelian H
        return problems + ["stabilizer must be abelian"], None
    H, struct, Q = record
    try:
        Y = Subgroup(Q.group, sym.y)
    except ValidationError as exc:
        return problems + [f"residual group: {exc}"], None
    if not label.group_shape.matches(Y):
        problems.append(f"residual group of order {Y.order} does not match declared shape {label.group_shape}")

    if sym.kind == KIND_JAC:
        if sym.weights:
            problems.append("jacobian symbols carry no weights")
        if catalog.curve.genus >= 2 and not label.faithful:
            problems.append("genus >= 2 jacobian actions must be faithful")
        if catalog.curve.genus == 1 and not label.from_curve:
            problems.append("genus-1 jacobian actions must come from a curve action")
        return problems, (H.elements, Y.elements, None, sym.weights)

    if struct is None:
        return problems + ["stabilizer must be nontrivial"], None
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
    if sym.kind == KIND_SURFACE and len(struct.invariant_factors) > 1:
        problems.append("surface symbols need a cyclic stabilizer")
    return problems, (H.elements, Y.elements, struct, weights)


def canonicalize(sym: Symbol, G: FiniteGroup, catalog: ActionCatalog) -> Symbol:
    """Weight-sorted form, minimized over all conjugations.

    Idempotent, and constant on orbits of the weight-permutation and
    conjugation moves."""
    form, problems = validated_form(sym, G, catalog)
    if problems:
        raise ValidationError(f"cannot canonicalize invalid symbol: {'; '.join(problems)}")
    return form


def validated_form(sym: Symbol, G: FiniteGroup, catalog: ActionCatalog) -> tuple[Symbol | None, list[str]]:
    """(canonical form, []) for a valid symbol and (None, diagnostics) for an
    invalid one; the form reads h, y, h's structure and the weights off the check."""
    problems, checked = _check_symbol(sym, G, catalog)
    return (None, problems) if problems else (_least_conjugate(sym, G, *checked), problems)


def datum_form(sym: Symbol, G: FiniteGroup, catalog: ActionCatalog, label, record: Stabilizer):
    """`validated_form` of a symbol whose label and `stabilizer` record are looked up."""
    problems, checked = _check_record(sym, catalog, label, record)
    return (None, problems) if problems else (_least_conjugate(sym, G, *checked), problems)


def canonical_form(sym: Symbol, G: FiniteGroup) -> Symbol:
    """The least conjugate of a valid symbol, comparing stabilizers, then Y,
    then sorted weights, each over the g that tie so far.  The g that matter
    are read from h's frame in G's frame memo, so per symbol only Y's image
    under each of them is looked up and the weights are transported.  For
    abelian G conjugation is trivial, so this is the symbol with h and y
    sorted and its weights reduced and sorted."""
    h = tuple(sorted(set(sym.h)))
    y = tuple(sorted(set(sym.y)))
    struct = abelian_structure(Subgroup.trusted(G, h)) if sym.weights else None
    return _least_conjugate(sym, G, h, y, struct, tuple(map(struct.reduce, sym.weights)) if struct else sym.weights)


def _least_conjugate(sym: Symbol, G: FiniteGroup, h, y, struct: AbelianStructure | None, weights) -> Symbol:
    """`canonical_form` given h and y sorted, h's structure and the reduced weights."""
    if G.is_abelian():
        return Symbol(sym.kind, h, y, sym.action, tuple(sorted(weights)))
    best_h, moves, per_y = _frame(G, sym.kind if y != (0,) else None, h)
    if y not in per_y:
        images = [(tuple(sorted({cosets[i] for i in y})), action, g) for g, cosets, action in moves]
        best_y = min(images)[0]
        actions = {}  # the least g per distinct action on h among those carrying Y to best_y
        for image, action, g in images:
            if image == best_y:
                actions.setdefault(action, g)
        per_y[y] = (best_y, tuple(actions.values()))
    best_y, actions = per_y[y]
    if weights:
        weights = min(tuple(sorted(transport_character(g, struct, b) if g else b for b in weights))
                      for g in actions)
    return Symbol(sym.kind, best_h, best_y, sym.action, weights)


def _frame(G: FiniteGroup, kind: str | None, h: tuple[int, ...]):
    """(best_h, moves, per_y) for a checked h over nonabelian G, kept in
    `G.frames` by (kind, h): best_h is h's least conjugate; moves holds
    (g, coset map, action) for the least g carrying h to best_h per distinct
    pair (map of h's carrier cosets to best_h's, action on h), all that Y's
    image and a transported character read; per_y keeps (best_y, actions) per
    Y met.  Kind None serves Y = {0}, which every g keeps, with no quotient."""
    frame = G.frames.get((kind, h))
    if frame is None:
        conj = G.conj_table()
        best_h, transporter = G.subgroup_class(h)
        reps, coset_of = ((0,), {0: 0}) if kind is None else (
            carrier_quotient(G, h, kind).reps, carrier_quotient(G, best_h, kind).coset_of)
        moves: dict[tuple, int] = {}
        for g in transporter:  # ascending
            row = conj[g]
            moves.setdefault((tuple(coset_of[row[r]] for r in reps), tuple(row[a] for a in h)), g)
        frame = G.frames[kind, h] = (best_h, tuple((g, cosets, action) for (cosets, action), g in moves.items()), {})
    return frame


def _y_options(G: FiniteGroup, h: tuple[int, ...], kind: str, labels) -> list:
    """(Y, the labels of Y's shape) for each Y in h's carrier quotient that
    some label's shape matches, in (order, elements) order (see above)."""
    matched: dict[tuple[int, ...], set] = {}
    for shape in {label.group_shape for label in labels}:
        if shape.factors == ():  # no quotient needed
            ys = [(0,)]
        elif shape.factors is not None and len(shape.factors) == 1:
            Q = carrier_quotient(G, h, kind).group
            ys = {Subgroup.generated(Q, (q,)).elements for q in Q.elements() if Q.element_order(q) == shape.order}
        else:
            ys = [Y.elements for Y in all_subgroups(carrier_quotient(G, h, kind).group) if shape.matches(Y)]
        for y in ys:
            matched.setdefault(y, set()).add(shape)
    return [(y, [label for label in labels if label.group_shape in matched[y]])
            for y in sorted(matched, key=lambda y: (len(y), y))]


def residual_from_generators(G: FiniteGroup, h: tuple[int, ...], kind: str, gens, field: str) -> tuple[int, ...]:
    """Y generated by the images of the ambient elements `gens` in h's carrier
    quotient; an element outside G or outside the carrier is refused under the
    name of the input's `field`."""
    Q = carrier_quotient(G, h, kind)
    bad = [x for x in gens if x not in Q.coset_of]
    if bad:
        outside = [x for x in bad if not 0 <= x < G.order]
        if outside:
            raise ValidationError(f"{field} elements {outside} outside the ambient group")
        raise ValidationError(f"{field} elements {bad} do not centralize/normalize the stabilizer {h}")
    return Subgroup.generated(Q.group, Q.image(gens)).elements


def resolve_residual_group(G: FiniteGroup, h: tuple[int, ...], kind: str, label, gens) -> tuple[int, ...]:
    """Concrete Y of declared data as coset indices: generated by the declared
    residual_group `gens`, or, with gens None, the one Y of the label's shape
    among the enumerators' options.  It is kept in the quotient's `resolved`
    memo, keyed by (shape, generators or None); a failure is not kept."""
    return resolved_in(stabilizer(G, h, kind), h, kind, label, gens)


def resolved_in(record: Stabilizer, h: tuple[int, ...], kind: str, label, gens) -> tuple[int, ...]:
    """`resolve_residual_group` given h's `stabilizer` record."""
    Q = record.quotient
    key = (label.group_shape, None if gens is None else tuple(gens))
    y = Q.resolved.get(key)
    if y is None:
        G = record.subgroup.ambient
        if gens is not None:
            y = residual_from_generators(G, h, kind, gens, "residual_group")
        else:
            ys = [y for y, _ in _y_options(G, h, kind, (label,))]
            if not ys:
                raise ValidationError(f"no residual subgroup of shape {label.group_shape} exists for stabilizer {h}")
            if len(ys) > 1:
                raise ValidationError(
                    f"residual group for label {label.id!r} over stabilizer {h} is ambiguous; "
                    "declare residual_group explicitly"
                )
            (y,) = ys
        Q.resolved[key] = y
    return y


def _dual_pairs(struct: AbelianStructure) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The pairs b1 <= b2 of nontrivial characters, in lexicographic order,
    that generate the dual."""
    nontrivial = [b for b in product(*map(range, struct.invariant_factors)) if any(b)]
    return [(b1, b2) for i, b1 in enumerate(nontrivial) for b2 in nontrivial[i:] if struct.generates_dual(b1, b2)]


def _dual_generators(struct: AbelianStructure) -> list[tuple[int, ...]]:
    """The characters that generate the dual alone: those of order |H|."""
    return [b for b in product(*map(range, struct.invariant_factors)) if struct.generates_dual(b)]


def _rank_at_most_two(H: Subgroup) -> bool:
    """Has the abelian H at most two invariant factors?  Its p-rank r has
    p**r - 1 elements of order p, so r <= 2 for every p iff fewer than q*q
    elements have order q for every q > 1 (the q-torsion then has <= q*q)."""
    orders = Counter(map(H.ambient.element_order, H.elements))
    return all(count < q * q for q, count in orders.items() if q > 1)


def iter_curve_data(G: FiniteGroup, catalog: ActionCatalog):
    """Raw (unconjugated) curve symbols over stabilizer representatives."""
    labels = catalog.labels_in(CURVE)
    for H in abelian_subgroups_up_to_conjugacy(G):
        if H.is_trivial() or not _rank_at_most_two(H):
            continue  # the dual cannot be generated by two characters
        pairs = _dual_pairs(abelian_structure(H))
        for y, matching in _y_options(G, H.elements, KIND_CURVE, labels):
            for label in matching:
                for weights in pairs:
                    yield Symbol(KIND_CURVE, H.elements, y, label.id, weights)


def iter_surface_data(G: FiniteGroup, catalog: ActionCatalog):
    labels = catalog.labels_in(RULED_SURFACE)
    for H in abelian_subgroups_up_to_conjugacy(G):
        if H.is_trivial() or not H.is_cyclic():
            continue
        generators = _dual_generators(abelian_structure(H))
        for y, matching in _y_options(G, H.elements, KIND_SURFACE, labels):
            for label in matching:
                for b in generators:
                    yield Symbol(KIND_SURFACE, H.elements, y, label.id, (b,))


def iter_jac_data(G: FiniteGroup, catalog: ActionCatalog):
    genus = catalog.curve.genus
    labels = [label for label in catalog.labels_in(JACOBIAN)
              if (genus < 2 or label.faithful) and (genus != 1 or label.from_curve)]
    for H in subgroups_up_to_conjugacy(G):
        for y, matching in _y_options(G, H.elements, KIND_JAC, labels):
            for label in matching:
                yield Symbol(KIND_JAC, H.elements, y, label.id)


def enumerate_symbols(G: FiniteGroup, catalog: ActionCatalog,
                      context: BurnsideContext | None = None) -> tuple[Symbol, ...]:
    """Every valid symbol for (G, catalog), canonicalized, deduplicated, in total order.

    Each raw symbol is valid by construction (a nontrivial abelian stabilizer,
    cyclic for surfaces; a Y of the label's shape; nontrivial weights that
    generate the dual), so it goes straight to `canonical_form` without
    `validate_symbol`'s checks."""
    if context is None:
        context = BurnsideContext(G, catalog)
    seen: set[Symbol] = set()
    for raw in (*iter_curve_data(G, catalog), *iter_surface_data(G, catalog), *iter_jac_data(G, catalog)):
        seen.add(context.enumerated_form(raw))
    return tuple(sorted(seen, key=Symbol.key))


class BurnsideContext:
    """The state of one pass over (G, catalog), built by the call that
    runs the pass.  The constructor checks the catalog; `canonicalize` looks up
    a raw symbol it has met before and sends a new one through the module-level
    `canonicalize`, which validates it in full; `enumerated_form` fills the
    same memo for a raw symbol the enumerators built, straight from
    `canonical_form`; `symbols` runs `enumerate_symbols` once, on first use."""

    __slots__ = ("group", "catalog", "_forms", "_symbols")

    def __init__(self, G: FiniteGroup, catalog: ActionCatalog):
        ensure_valid_catalog(catalog)
        self.group = G
        self.catalog = catalog
        self._forms: dict[Symbol, Symbol] = {}
        self._symbols: tuple[Symbol, ...] | None = None

    def canonicalize(self, sym: Symbol) -> Symbol:
        form = self._forms.get(sym)
        if form is None:
            form = self._forms[sym] = canonicalize(sym, self.group, self.catalog)
        return form

    def enumerated_form(self, sym: Symbol) -> Symbol:
        form = self._forms.get(sym)
        if form is None:
            # on abelian G a raw symbol is canonical: h, y and its weights come sorted
            form = self._forms[sym] = sym if self.group.is_abelian() else canonical_form(sym, self.group)
        return form

    @property
    def symbols(self) -> tuple[Symbol, ...]:
        if self._symbols is None:
            self._symbols = enumerate_symbols(self.group, self.catalog, self)
        return self._symbols


def _group_display(sub: Subgroup) -> str:
    factors = GroupShape.of(sub).factors
    return f"ord{sub.order}" if factors is None else shape_name(factors)


def text_form(sym: Symbol, G: FiniteGroup) -> str:
    """Stable text rendering used in reports and golden files."""
    return _text_head(sym, G) + _text_tail(sym.weights)


def _text_head(sym: Symbol, G: FiniteGroup) -> str:
    """`text_form` up to the weights, 'kind[H=...;Y=...;act=...'; a trivial Y
    reads '1' without its carrier quotient."""
    h_part = f"H={_group_display(Subgroup(G, sym.h))}{{{','.join(map(str, sym.h))}}}"
    y_shape = "1" if sym.y == (0,) else _group_display(y_subgroup(G, sym))
    return f"{sym.kind}[{h_part};Y={y_shape}{{{','.join(map(str, sym.y))}}};act={sym.action}"


def _text_tail(weights) -> str:
    if not weights:
        return "]"
    return ";w=" + ",".join("(" + ",".join(map(str, w)) + ")" for w in weights) + "]"


class BurnsideClass:
    """A finitely supported integer combination of canonical symbols."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Symbol, int] | None = None):
        self._terms = {s: c for s, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "BurnsideClass":
        return cls()

    @classmethod
    def of(cls, sym: Symbol, coeff: int = 1) -> "BurnsideClass":
        return cls({sym: coeff})

    def terms(self) -> list[tuple[Symbol, int]]:
        return sorted(self._terms.items(), key=lambda t: t[0].key())

    def coefficient(self, sym: Symbol) -> int:
        return self._terms.get(sym, 0)

    def support(self) -> tuple[Symbol, ...]:
        return tuple(s for s, _ in self.terms())

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "BurnsideClass") -> "BurnsideClass":
        out = dict(self._terms)
        for s, c in other._terms.items():
            out[s] = out.get(s, 0) + c
        return BurnsideClass(out)

    def __neg__(self) -> "BurnsideClass":
        return BurnsideClass({s: -c for s, c in self._terms.items()})

    def __sub__(self, other: "BurnsideClass") -> "BurnsideClass":
        out = dict(self._terms)
        for s, c in other._terms.items():
            out[s] = out.get(s, 0) - c
        return BurnsideClass(out)

    def scale(self, k: int) -> "BurnsideClass":
        return BurnsideClass({s: k * c for s, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, BurnsideClass) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def columns(self, index: dict[Symbol, int]) -> dict[int, int]:
        """{position of the symbol in `index`: coefficient} over the support."""
        out = {}
        for s, c in self._terms.items():
            pos = index.get(s)
            if pos is None:
                raise ValidationError(f"symbol outside index: {s}")
            out[pos] = c
        return out

    def __repr__(self) -> str:
        if self.is_zero():
            return "BurnsideClass(0)"
        body = " + ".join(f"{c}*{s.kind}[{s.action}]" for s, c in self.terms())
        return f"BurnsideClass({body})"
