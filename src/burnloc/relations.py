"""Blow-up relation instances, the relation lattice, quotient structure, class
equality, filter quotients, and the degree map to Z.

All linear algebra is exact; relation vectors are canonicalized and
deduplicated before the lattice is built (deduplication is cosmetic, the
lattice is unchanged).

`structure`, `filtered_structure` and `relation_lattice` are each one pass:
they build a `BurnsideContext`, enumerate the symbols once through it and
generate the relations over those symbols, canonicalizing every relation term
through its memo.  `generate_relations` called without a context builds its
own, so it gives the same instances either way.  B1 and B2 work on weight
coordinates; B2's Theta1 and Theta2 come from `_blowup_terms`, which the case-3
blow-up reads too, and the pass keeps each Theta2's Y bar per (h, y, kernel)
and each curve (h, y, action)'s text head and partner.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import groupby
from operator import add, neg, sub

from .abelian import AbelianStructure, abelian_structure
from .catalog import ActionCatalog, GroupShape
from .errors import ValidationError
from .groups import FiniteGroup, Subgroup, subgroups_up_to_conjugacy
from .normalforms import IntegerLattice, cokernel_structure
from .symbols import (
    KIND_CURVE,
    KIND_JAC,
    KIND_SURFACE,
    BurnsideClass,
    BurnsideContext,
    Symbol,
    _group_display,
    _text_head,
    _text_tail,
    carrier_quotient,
    text_form,
)


class RelationInstance(namedtuple("RelationInstance", "vector rule params")):
    """One asserted-zero combination of canonical symbols, with provenance."""

    __slots__ = ()

    def describe(self, G: FiniteGroup) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.params)
        terms = " ".join(
            f"{'+' if c > 0 else '-'}{abs(c) if abs(c) != 1 else ''}{text_form(s, G)}"
            for s, c in self.vector.terms()
        )
        return f"{self.rule}({params}): {terms} = 0"


class GroupStructure(namedtuple("GroupStructure", "free_rank torsion")):
    """Cokernel shape: free rank plus torsion d1 | d2 | ... (no 1s)."""

    __slots__ = ()

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


def _jac_partner(context: BurnsideContext, sym: Symbol) -> Symbol:
    """(H, J(C) <- Y) for the curve symbol's residual action, via the catalog;
    Y moves from Z_G(H)/H into N_G(H)/H (the same subgroup of G upstairs)."""
    jac_label = context.catalog.jacobian_of_curve_action(sym.action).target
    y = sym.y
    if y != (0,):
        reps = carrier_quotient(context.group, sym.h, sym.kind).reps
        y = carrier_quotient(context.group, sym.h, KIND_JAC).image(reps[i] for i in y)
    return context.canonicalize(Symbol(KIND_JAC, sym.h, y, jac_label))


def _blowup_terms(catalog: ActionCatalog, struct: AbelianStructure, action: str, b1, b2):
    """The exceptional terms of blowing up a curve that H fixes, with residual action `action`
    and reduced normal weights (b1, b2) on H's structure, which B2 and the case-3 blow-up
    read: Theta1's weight pairs, (b1, -(b1 - b2)) then (b2, b1 - b2), none when b1 = b2, and
    Theta2's (kernel of b1 - b2, the InduceRule whose target labels it, b1 restricted to the
    kernel), or None when b1 - b2 has order |H|."""
    diff = struct.reduce(map(sub, b1, b2))
    theta1 = ((b1, struct.reduce(map(neg, diff))), (b2, diff)) if any(diff) else ()
    kernel = struct.kernel(diff)
    if len(kernel) == 1:
        return theta1, None
    H = struct.subgroup
    rule = catalog.induced_surface_action(struct.invariant_factors, action, H.order // len(kernel))
    return theta1, (kernel, rule, struct.restrict(b1, Subgroup.trusted(H.ambient, kernel)))


def generate_relations(G: FiniteGroup, catalog: ActionCatalog,
                       context: BurnsideContext | None = None) -> tuple[RelationInstance, ...]:
    """All instances of the four blow-up relations over the declared catalog,
    each built as one {symbol: coefficient} dict; a curve symbol's text form is
    found once, for B1 and B2, and its stabilizer's structure once per stabilizer."""
    if context is None:
        context = BurnsideContext(G, catalog)
    symbols = context.symbols
    instances: list[RelationInstance] = []
    seen: set[frozenset] = set()  # the (symbol, coefficient) pairs of each instance
    heads, partners, y_bars = {}, {}, {}

    def emit(terms: dict[Symbol, int], rule: str, **params):
        pairs = frozenset((s, c) for s, c in terms.items() if c)
        if not pairs or pairs in seen or frozenset((s, -c) for s, c in pairs) in seen:
            return
        seen.add(pairs)
        params = tuple(sorted((k, str(v)) for k, v in params.items()))
        instances.append(RelationInstance(BurnsideClass(terms), rule, params))

    def kept(table: dict, key, make):
        if key not in table:
            table[key] = make()
        return table[key]

    curves = []
    for h, same_h in groupby((s for s in symbols if s.kind == KIND_CURVE), lambda s: s.h):  # sorted, so by h
        struct = abelian_structure(Subgroup.trusted(G, h))
        for sym in same_h:
            text = kept(heads, sym[:4], lambda: _text_head(sym, G)) + _text_tail(sym.weights)
            if not any(struct.reduce(map(add, *sym.weights))):
                emit({sym: 1, kept(partners, sym[1:4], lambda: _jac_partner(context, sym)): 1}, "B1", symbol=text)
            curves.append((sym, struct, text))

    for sym, struct, text in curves:  # sym - Theta1 - Theta2 - partner
        _, h, y, action, weights = sym
        terms = Counter({sym: 1})
        theta1, theta2 = _blowup_terms(catalog, struct, action, *weights)  # its input repeats only over Ys
        for pair in theta1:
            terms[context.canonicalize(Symbol(KIND_CURVE, h, y, action, tuple(sorted(pair))))] -= 1
        if theta2 is not None:
            kernel, rule, weight = theta2
            y_bar = kept(y_bars, (h, y, kernel), lambda: carrier_quotient(G, kernel, KIND_SURFACE).image(
                h if y == (0,) else carrier_quotient(G, h, KIND_CURVE).preimage(y)))  # Y's preimage in Z_G(H)
            try:  # the catalog check compares an induced target's order, not its shape
                terms[context.canonicalize(Symbol(KIND_SURFACE, kernel, y_bar, rule.target, (weight,)))] -= 1
            except ValidationError as exc:
                raise ValidationError(f"B2(symbol={text}): {rule}: {exc}") from None
        terms[kept(partners, sym[1:4], lambda: _jac_partner(context, sym))] -= 1
        emit(terms, "B2", symbol=text)

    for rule in catalog.jacobian_rules:
        curve_label = catalog.label(rule.source)
        for Y in (Subgroup.trusted(G, Y.elements) for Y in subgroups_up_to_conjugacy(G)):  # not an equal group's
            if not curve_label.group_shape.matches(Y):
                continue
            Q = carrier_quotient(G, (0,), KIND_JAC)
            sym = Symbol(KIND_JAC, (0,), Q.image(Y.elements), rule.target)
            emit(
                {context.canonicalize(sym): 1},
                "B3",
                curve_action=rule.source,
                y=_group_display(Y),
            )

    jac_syms = [s for s in symbols if s.kind == KIND_JAC]
    for rule in catalog.extension_rules:
        if rule.trivial_part == "none":
            continue  # Y1 = 1 makes the relation degenerate
        h_shape = GroupShape.abelian(rule.h_factors)
        target_shape = GroupShape.abelian(rule.target_h_factors)
        for sym in jac_syms:
            if sym.action != rule.source_label or not h_shape.matches(Subgroup.trusted(G, sym.h)):
                continue
            Q = carrier_quotient(G, sym.h, KIND_JAC)
            h1 = Subgroup.trusted(G, Q.preimage(sym.y))  # extension of Y1 = Y by H
            text = text_form(sym, G)
            if not target_shape.matches(h1):  # of the declared order, which the catalog check fixes
                raise ValidationError(f"B4(symbol={text}): {rule}: computed extension {_group_display(h1)} "
                                      f"does not match declared shape {target_shape}")
            terms = Counter({sym: 1})
            terms[context.canonicalize(Symbol(KIND_JAC, h1.elements, (0,), rule.target_label))] -= 1
            emit(terms, "B4", symbol=text)

    return tuple(instances)


class RelationLattice:
    """The integer lattice spanned by relation vectors over a fixed symbol index."""

    __slots__ = ("index", "position", "lattice")

    def __init__(self, index: tuple[Symbol, ...], vectors):
        self.index = tuple(index)
        self.position, rows = _rows(self.index, vectors)
        self.lattice = IntegerLattice.from_rows(rows, len(self.index))

    def class_from_row(self, row) -> BurnsideClass:
        return BurnsideClass({s: c for s, c in zip(self.index, row)})

    def contains(self, cls: BurnsideClass) -> bool:
        return self.lattice.contains(cls.columns(self.position))

    def reduce(self, cls: BurnsideClass) -> BurnsideClass:
        return self.class_from_row(self.lattice.reduce(cls.columns(self.position)))

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        return self.lattice.basis


def relation_lattice(G: FiniteGroup, catalog: ActionCatalog) -> RelationLattice:
    context = BurnsideContext(G, catalog)
    relations = generate_relations(G, catalog, context)
    return RelationLattice(context.symbols, [r.vector for r in relations])


def structure(G: FiniteGroup, catalog: ActionCatalog) -> GroupStructure:
    """Free rank and torsion of the symbol group modulo all generated relations."""
    context = BurnsideContext(G, catalog)
    relations = generate_relations(G, catalog, context)
    return structure_from(context.symbols, [r.vector for r in relations])


def structure_from(index, vectors) -> GroupStructure:
    index = tuple(index)
    return GroupStructure(*cokernel_structure(_rows(index, vectors)[1], len(index)))


def _rows(index: tuple[Symbol, ...], vectors):
    """({symbol: its position in the index}, the vectors as sparse rows over the index)."""
    position = {s: i for i, s in enumerate(index)}
    return position, [v.columns(position) for v in vectors]


def classes_equal(a: BurnsideClass, b: BurnsideClass, lattice: RelationLattice) -> bool:
    return lattice.contains(a - b)


def reduce(a: BurnsideClass, lattice: RelationLattice) -> BurnsideClass:
    """Canonical coset representative; idempotent and constant on cosets."""
    return lattice.reduce(a)


class FilterSpec(namedtuple("FilterSpec", "pairs")):
    """Admitted (H, Y) pairs up to conjugacy.

    Each pair is stored as (H elements, preimage-of-Y elements), both inside the
    ambient group, which makes matching independent of the symbol kind.  Each
    call reads the pairs' conjugates off the rows of G's conjugation table once;
    a symbol is admitted when its (H, preimage of Y) is one of them.
    """

    __slots__ = ()

    @classmethod
    def max_stabilizer(cls, G: FiniteGroup) -> "FilterSpec":
        full = tuple(G.elements())
        return cls(pairs=((full, full),))

    def admits(self, sym: Symbol, G: FiniteGroup) -> bool:
        carrier_quotient(G, sym.h, sym.kind)  # an h that is no subgroup is refused, not dropped
        return sym in _admitted(self, G, (sym,))


def _admitted(f: FilterSpec, G: FiniteGroup, symbols) -> set[Symbol]:
    """The symbols among `symbols` that f admits; no carrier quotient is read for an H no pair has."""
    conjugates = {(frozenset(row[x] for x in h), frozenset(row[x] for x in p))
                  for row in G.conj_table() for h, p in f.pairs}
    stabilizers = {h for h, _ in conjugates}
    return {s for s in symbols if (h := frozenset(s.h)) in stabilizers
            and (h, frozenset(carrier_quotient(G, s.h, s.kind).preimage(s.y))) in conjugates}


def _filter_pass(f: FilterSpec, G: FiniteGroup, relations, symbols=()):
    """(admitted among `symbols` and the relations' supports, vectors of the
    relations supported on them); a relation mixing the two refuses the filter."""
    admitted = _admitted(f, G, set(symbols).union(*(rel.vector.support() for rel in relations)))
    kept = []
    for rel in relations:
        support = rel.vector.support()
        if admitted.issuperset(support):
            kept.append(rel.vector)
        elif not admitted.isdisjoint(support):
            raise ValidationError(
                f"filter closure violation: relation {rel.rule}{dict(rel.params)} mixes admitted "
                "and non-admitted symbols"
            )
    return admitted, tuple(kept)


def filter_project(a: BurnsideClass, f: FilterSpec, G: FiniteGroup, catalog: ActionCatalog,
                   relations=None) -> BurnsideClass:
    """Drop all symbols outside the filter (after the closure check, over
    `relations` when the caller has generated them)."""
    if relations is None:
        relations = generate_relations(G, catalog)
    admitted, _ = _filter_pass(f, G, relations, a.support())
    return BurnsideClass({s: c for s, c in a.terms() if s in admitted})


def filtered_structure(G: FiniteGroup, catalog: ActionCatalog, f: FilterSpec) -> GroupStructure:
    context = BurnsideContext(G, catalog)
    admitted, vectors = _filter_pass(f, G, generate_relations(G, catalog, context), context.symbols)
    return structure_from((s for s in context.symbols if s in admitted), vectors)


_PHI_WEIGHTS = {KIND_CURVE: -1, KIND_SURFACE: -2, KIND_JAC: 1}


def phi_G(a: BurnsideClass, G: FiniteGroup, catalog: ActionCatalog) -> int:
    """Degree map to Z on classes supported on maximal-stabilizer symbols.

    Curve symbols count -1, ruled-surface symbols -2, jacobian symbols +1.
    Defined for abelian G and genus >= 2 only.
    """
    if not G.is_abelian():
        raise ValidationError("the degree map requires an abelian group")
    if catalog.curve.genus < 2:
        raise ValidationError("the degree map requires a curve of genus >= 2")
    full = tuple(G.elements())
    total = 0
    for sym, coeff in a.terms():
        if sym.h != full:
            raise ValidationError("class must be projected to maximal-stabilizer symbols first")
        total += coeff * _PHI_WEIGHTS[sym.kind]
    return total


# the verdict wording of a nonzero and of a zero counts invariant I
OBSTRUCTED = "OBSTRUCTED (not linearizable, not projectively linearizable)"
NO_OBSTRUCTION = "NO OBSTRUCTION FROM THIS INVARIANT"


def invariant_I(i1: int, i2: int, i3: int) -> int:
    """The counts invariant I = -I1 - 2*I2 + I3 of the fixed-locus counts."""
    if min(i1, i2, i3) < 0:
        raise ValidationError("fixed-locus counts are nonnegative")
    return -i1 - 2 * i2 + i3
