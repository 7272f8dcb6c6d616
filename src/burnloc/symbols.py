"""The three symbol kinds, their validity conditions, canonical forms under
weight permutation and conjugation, and exhaustive enumeration.

A symbol is pure data: the stabilizer H as a sorted element tuple of the ambient
group, the residual group Y as a sorted tuple of coset indices in the carrier
quotient (centralizer mod H for curve/surface symbols, normalizer mod H for
jacobian symbols), an action label id, and character coordinate tuples.

G's `carriers` table keeps a stabilizer record per (h's checked sorted tuple,
carrier), h written in any order, as a tuple or a list, and one for the
trivial h, whose carriers are both G: the checked `Subgroup` H, the
`AbelianStructure` of a nontrivial H in the centralizer's record, which curve
and surface symbols share (jacobian ones read the normalizer's), the carrier
quotient, which the record alone holds, and the Ys resolved in it from
declared data.  Every symbol the enumerators did not build, a relation term,
a library call's or declared data (a class term or a model datum, through
`declared_symbol`, which resolves Y on the record by `Stabilizer.residual`),
takes the route of `canonicalize`: the catalog is checked (by the caller that
loads declared data), then the kind, the label and the record are looked up,
and the one check, `_check_record`, reads the record, the shape its quotient
keeps for a Y checked before and the structure's kept answer on the weights.
The canonical form reads H's least conjugate and its transporter from G's class
table.  G's `frames` table keeps, per stabilizer (kind, h), one g of the
transporter per distinct pair (map of carrier cosets, action on H); a Y costs
one image lookup per kept g, and only the weights are transported per symbol.
Every g keeps a trivial Y, whose frame (kind None) maps no carrier quotient.

The enumerators read a stabilizer's Y options off the labels' shapes: a
trivial shape gives Y = {0}, a cyclic shape (m) the <q> for the q of order m
in the carrier quotient, and only another shape (noncyclic abelian, or
nonabelian by order) filters the quotient's lattice.  Declared data whose Y is
left to its shape read the same options.  Weights are coordinate tuples on
H's `AbelianStructure`; the enumerators ask its `generates_dual`, and the
check its kept answer: a pair generates the dual when their kernels meet
only in the identity, one character when its kernel is trivial.  A curve
stabilizer with a p-rank above 2, read off its element orders, is skipped
before any abelian structure is built for it.

`enumerate_symbols` fills a memo of the canonical form of each raw symbol it
builds, its own or the one a pass (`relations.BurnsideContext`) hands it, so
that a relation term equal to a raw symbol is not checked again; over abelian
G an enumerated raw symbol is already canonical and enters the memo as itself.
The memo lives as long as its pass, so it holds only the finitely many raw
symbols of one pair (G, catalog).  Library calls of `canonicalize` outside a
pass are not memoized.
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


class Stabilizer(namedtuple("Stabilizer", "subgroup structure quotient resolved")):
    """h's record (see above): the checked H, its structure or None, the carrier
    quotient and the Ys resolved from declared data in it, keyed by the declared
    generators or, for Y left to its shape, by the shape; only successes are kept."""

    __slots__ = ()

    def residual(self, h: tuple[int, ...], label, gens, field: str = "residual_group") -> tuple[int, ...]:
        """Y as coset indices: generated by the images of the ambient elements
        `gens`, or, with gens None, the one Y of the label's shape among the
        enumerators' options.  An element outside G or outside the carrier is
        refused under the name of the input's `field`; h is named as declared."""
        key = label.group_shape if gens is None else tuple(gens)
        y = self.resolved.get(key)
        if y is None:
            Q = self.quotient
            if gens is None:
                ys = [y for y, _ in _y_options(lambda: Q.group, (label,))]
                if not ys:
                    raise ValidationError(
                        f"no residual subgroup of shape {label.group_shape} exists for stabilizer {h}")
                if len(ys) > 1:
                    raise ValidationError(f"residual group for label {label.id!r} over stabilizer {h} is ambiguous; "
                                          f"declare {field} explicitly")
                (y,) = ys
            else:
                bad = [x for x in gens if x not in Q.coset_of]
                outside = [x for x in bad if not 0 <= x < self.subgroup.ambient.order]
                if bad:
                    raise ValidationError(f"{field} elements {outside} outside the ambient group" if outside else
                                          f"{field} elements {bad} do not centralize/normalize the stabilizer {h}")
                y = Subgroup.generated(Q.group, Q.image(gens)).elements
            self.resolved[key] = y
        return y


def stabilizer(G: FiniteGroup, h: tuple[int, ...], kind: str) -> Stabilizer:
    """h's record; Y's carrier is Z_G(H) for curve and surface symbols, which holds H only
    when H is abelian (a nonabelian H is refused as such), and N_G(H) for jacobian ones."""
    jac = kind == KIND_JAC and h != (0,)  # the trivial group's one record is kept under False
    record = G.carriers.get((h, jac)) if type(h) is tuple else None  # a list is no key
    if record is None:
        H = Subgroup(G, h)
        jac = jac and not H.is_trivial()  # both carriers of the trivial group are G
        record = G.carriers.get((H.elements, jac))
        if record is None:
            if not jac and not H.is_abelian():
                raise ValidationError("stabilizer must be abelian")
            struct = None if jac or H.is_trivial() else abelian_structure(H)
            ambient = normalizer(G, H) if jac else centralizer(G, H)
            record = G.carriers[H.elements, jac] = Stabilizer(H, struct, quotient(ambient, H), {})
    return record


def carrier_quotient(G: FiniteGroup, h: tuple[int, ...], kind: str) -> QuotientGroup:
    """The quotient housing Y, read off h's `stabilizer` record."""
    return stabilizer(G, h, kind).quotient


def y_subgroup(G: FiniteGroup, sym: Symbol) -> Subgroup:
    return Subgroup(carrier_quotient(G, sym.h, sym.kind).group, sym.y)


def validate_symbol(sym: Symbol, G: FiniteGroup, catalog: ActionCatalog) -> list[str]:
    """The diagnostics on `canonicalize`'s route, a lookup's refusal as the only one; an empty list means valid."""
    try:
        label, record = _lookups(G, ensure_valid_catalog(catalog), sym.kind, sym.h, sym.action)
    except ValidationError as exc:
        return [str(exc)]
    return _check_record(sym, label, record)[0]


def canonicalize(sym: Symbol, G: FiniteGroup, catalog: ActionCatalog) -> Symbol:
    """Weight-sorted form, minimized over all conjugations, of a symbol the enumerators did not
    build; a lookup's refusal is raised as is, the check's diagnostics after "cannot canonicalize
    invalid symbol".  Idempotent, and constant on orbits of the weight-permutation and conjugation moves."""
    label, record = _lookups(G, ensure_valid_catalog(catalog), sym.kind, sym.h, sym.action)
    return _record_form(sym, G, label, record, "cannot canonicalize invalid symbol")


def declared_symbol(G: FiniteGroup, catalog: ActionCatalog, kind: str, h: tuple[int, ...], action: str, gens,
                    weights, field: str, invalid: str) -> Symbol:
    """The canonical symbol of declared data, a class term or a model datum, over a catalog its caller
    checked: the lookups of `canonicalize`, then Y resolved on the record (`Stabilizer.residual`, gens
    None for Y left to its shape), each refusal raised as is; then the check, its diagnostics raised
    after `invalid`."""
    label, record = _lookups(G, catalog, kind, h, action)
    sym = Symbol(kind, h, record.residual(h, label, gens, field), action, tuple(map(tuple, weights)))
    return _record_form(sym, G, label, record, invalid)


def _lookups(G: FiniteGroup, catalog: ActionCatalog, kind: str, h: tuple[int, ...], action: str):
    """(label, h's `stabilizer` record), the kind checked first."""
    if kind not in _KIND_RANK:
        raise ValidationError(f"unknown symbol kind {kind!r}")
    return catalog.label(action), stabilizer(G, h, kind)


def _record_form(sym: Symbol, G: FiniteGroup, label, record: Stabilizer, invalid: str) -> Symbol:
    """The least conjugate of a symbol past its lookups after the one check, whose diagnostics follow `invalid`."""
    problems, checked = _check_record(sym, label, record)
    if problems:
        raise ValidationError(f"{invalid}: {'; '.join(problems)}")
    return _least_conjugate(sym, G, *checked)


def _check_record(sym: Symbol, label, record: Stabilizer):
    """The one check, past the lookups: (diagnostics, (h sorted, y sorted, h's structure or None,
    reduced weights) or None).  The catalog is checked before any route reaches it, so a Jacobian
    label is faithful (genus >= 2) or comes from a curve action (genus 1)."""
    problems: list[str] = []
    if label.space != _KIND_SPACE[sym.kind]:
        problems.append(f"label {label.id!r} lives on {label.space}, not {_KIND_SPACE[sym.kind]}")
    H, struct, Q, _ = record
    try:
        Y = Subgroup(Q.group, sym.y)  # a tuple in the group's check table is taken as is
    except ValidationError as exc:
        return problems + [f"residual group: {exc}"], None
    shape = Q.group.shapes.get(Y.elements)  # kept once any route asked for this Y's shape
    if shape is None and Y.order == label.group_shape.order:
        shape = GroupShape.of(Y)
    if shape != label.group_shape:
        problems.append(f"residual group of order {Y.order} does not match declared shape {label.group_shape}")

    if sym.kind == KIND_JAC:
        if sym.weights:
            problems.append("jacobian symbols carry no weights")
        return problems, (H.elements, Y.elements, None, sym.weights)

    if struct is None:
        return problems + ["stabilizer must be nontrivial"], None
    expected = 2 if sym.kind == KIND_CURVE else 1
    if len(sym.weights) != expected:
        return problems + [f"{sym.kind} symbols carry exactly {expected} weight(s)"], None
    first, last = sym.weights[0], sym.weights[-1]  # all of the one or two weights
    try:  # weights of the structure's length are reduced directly; `character` refuses another length
        weights = tuple(map(struct.reduce if len(first) == len(last) == len(struct.invariant_factors)
                            else struct.character, sym.weights))
    except ValidationError as exc:
        return problems + [f"weights: {exc}"], None
    if not all(map(any, weights)):
        return problems + ["weights must be nontrivial characters"], None
    if not struct.kept_generates_dual(*weights):
        problems.append("weights must generate the full character group of the stabilizer")
    if sym.kind == KIND_SURFACE and len(struct.invariant_factors) > 1:
        problems.append("surface symbols need a cyclic stabilizer")
    return problems, (H.elements, Y.elements, struct, weights)


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


def _y_options(carrier, labels) -> list:
    """(Y, the labels of Y's shape) for each Y in a carrier quotient that some
    label's shape matches, in (order, elements) order (see above); `carrier()`
    gives the quotient's group, asked only for a shape that is not trivial."""
    matched: dict[tuple[int, ...], set] = {}
    for shape in {label.group_shape for label in labels}:
        if shape.factors == ():  # no quotient needed
            ys = [(0,)]
        elif shape.factors is not None and len(shape.factors) == 1:
            Q = carrier()
            ys = {Subgroup.generated(Q, (q,)).elements for q in Q.elements() if Q.element_order(q) == shape.order}
        else:
            ys = [Y.elements for Y in all_subgroups(carrier()) if shape.matches(Y)]
        for y in ys:
            matched.setdefault(y, set()).add(shape)
    return [(y, [label for label in labels if label.group_shape in matched[y]])
            for y in sorted(matched, key=lambda y: (len(y), y))]


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
        for y, matching in _y_options(lambda: carrier_quotient(G, H.elements, KIND_CURVE).group, labels):
            for label in matching:
                for weights in pairs:
                    yield Symbol(KIND_CURVE, H.elements, y, label.id, weights)


def iter_surface_data(G: FiniteGroup, catalog: ActionCatalog):
    labels = catalog.labels_in(RULED_SURFACE)
    for H in abelian_subgroups_up_to_conjugacy(G):
        if H.is_trivial() or not H.is_cyclic():
            continue
        generators = _dual_generators(abelian_structure(H))
        for y, matching in _y_options(lambda: carrier_quotient(G, H.elements, KIND_SURFACE).group, labels):
            for label in matching:
                for b in generators:
                    yield Symbol(KIND_SURFACE, H.elements, y, label.id, (b,))


def iter_jac_data(G: FiniteGroup, catalog: ActionCatalog):
    labels = catalog.labels_in(JACOBIAN)
    for H in subgroups_up_to_conjugacy(G):
        for y, matching in _y_options(lambda: carrier_quotient(G, H.elements, KIND_JAC).group, labels):
            for label in matching:
                yield Symbol(KIND_JAC, H.elements, y, label.id)


def enumerate_symbols(G: FiniteGroup, catalog: ActionCatalog,
                      forms: dict[Symbol, Symbol] | None = None) -> tuple[Symbol, ...]:
    """Every valid symbol for (G, catalog), canonicalized, deduplicated, in total order.

    Each raw symbol is valid by construction (a nontrivial abelian stabilizer,
    cyclic for surfaces; a Y of the label's shape; nontrivial weights that
    generate the dual), so it goes straight to `canonical_form` without
    `validate_symbol`'s checks, and its form enters `forms`, a pass's memo of
    raw symbol to canonical form; with none given, the catalog is checked."""
    if forms is None:
        ensure_valid_catalog(catalog)
        forms = {}
    abelian = G.is_abelian()  # then a raw symbol is canonical: h, y and its weights come sorted
    seen: set[Symbol] = set()
    for raw in (*iter_curve_data(G, catalog), *iter_surface_data(G, catalog), *iter_jac_data(G, catalog)):
        form = forms.get(raw)
        if form is None:
            form = forms[raw] = raw if abelian else canonical_form(raw, G)
        seen.add(form)
    return tuple(sorted(seen, key=Symbol.key))


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
        try:
            return {index[s]: c for s, c in self._terms.items()}
        except KeyError as exc:
            raise ValidationError(f"symbol outside index: {exc.args[0]}") from None

    def __repr__(self) -> str:
        if self.is_zero():
            return "BurnsideClass(0)"
        body = " + ".join(f"{c}*{s.kind}[{s.action}]" for s, c in self.terms())
        return f"BurnsideClass({body})"
