"""Threefold models as curve-related stratification data, their classes, the
three blow-up moves, and the linearizability verdict.

A model records one datum per orbit: fixed curves (two nontrivial normal
weights), ruled divisors over the curve (one weight), and Jacobian-type factors
of the intermediate Jacobian.  Geometry enters only through this declared data.

A datum reaches its canonical symbol by the route of every declared symbol,
`symbols.declared_symbol`, which also checks its weight count; a blow-up reads
its center's residual group off the stabilizer record the same way.  Case 3
adds B2's exceptional terms from `relations._blowup_terms`, the routine B2
reads.  A warm blow-up reads the tables their owners keep: transported
characters and dual-generation answers on each abelian structure, rules by
key on the catalog, coset members on each carrier quotient.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import neg

from .abelian import abelian_structure
from .catalog import CURVE, ActionCatalog, catalog_from_json, ensure_valid_catalog
from .errors import JSONValue, ValidationError, read_json, records
from .groups import FiniteGroup, Subgroup, build_group
from .relations import (
    NO_OBSTRUCTION, OBSTRUCTED, BurnsideContext, FilterSpec, _blowup_terms, classes_equal, invariant_I, phi_G,
    relation_lattice,
)
from .symbols import (
    KIND_CURVE,
    KIND_JAC,
    KIND_SURFACE,
    BurnsideClass,
    Symbol,
    declared_symbol,
    stabilizer,
    text_form,
)

FIXED_CURVE = "fixed_curve"
RULED_DIVISOR = "ruled_divisor"

_STRATUM_KINDS = {FIXED_CURVE: KIND_CURVE, RULED_DIVISOR: KIND_SURFACE}

StratumDatum = namedtuple("StratumDatum", "kind stabilizer residual weights residual_group", defaults=(None,))
JacobianFactorDatum = namedtuple("JacobianFactorDatum", "stabilizer residual residual_group", defaults=(None,))


@dataclass(frozen=True)
class ModelDescription:
    """A model's declared data.  It is immutable, so its data are validated and
    canonicalized once per object, on first use."""

    group: FiniteGroup
    catalog: ActionCatalog
    strata: tuple[StratumDatum, ...] = ()
    jacobian_factors: tuple[JacobianFactorDatum, ...] = ()
    counts: tuple[int, int, int] | None = None
    name: str = ""

    @cached_property
    def _checked(self) -> tuple[tuple[Symbol, ...], tuple[str, ...]]:
        return _model_symbols(self)


def _datum_symbol(m: ModelDescription, kind: str, datum, weights: tuple = ()) -> Symbol:
    """The canonical symbol of a stratum or Jacobian factor datum, by the route of every declared symbol."""
    what = "jacobian factor" if kind == KIND_JAC else "stratum"
    return declared_symbol(m.group, m.catalog, kind, datum.stabilizer, datum.residual, datum.residual_group,
                           weights, "residual_group", f"invalid {what} datum")


def _data_symbols(m: ModelDescription, strata: Sequence[StratumDatum], factors: Sequence[JacobianFactorDatum],
                  first_stratum: int = 0, first_factor: int = 0) -> tuple[list[Symbol], list[Symbol], list[str]]:
    """The canonical symbols of the given strata and of the given Jacobian factors
    of m, each validated once, and the problems found, each datum named by its
    index in m (counted from `first_stratum` and `first_factor`)."""
    stratum_symbols: list[Symbol] = []
    factor_symbols: list[Symbol] = []
    problems: list[str] = []
    for i, datum in enumerate(strata, first_stratum):
        try:
            kind = _STRATUM_KINDS.get(datum.kind)
            if kind is None:
                raise ValidationError(f"unknown stratum kind {datum.kind!r}")
            stratum_symbols.append(_datum_symbol(m, kind, datum, datum.weights))
        except ValidationError as exc:
            problems.append(f"stratum {i}: {exc}")
    for i, datum in enumerate(factors, first_factor):
        try:
            factor_symbols.append(_datum_symbol(m, KIND_JAC, datum))
        except ValidationError as exc:
            problems.append(f"jacobian factor {i}: {exc}")
    return stratum_symbols, factor_symbols, problems


def _model_symbols(m: ModelDescription) -> tuple[tuple[Symbol, ...], tuple[str, ...]]:
    """The canonical symbol of every datum, each validated once, and the problems found."""
    try:
        ensure_valid_catalog(m.catalog)
    except ValidationError as exc:
        return (), (str(exc),)
    stratum_symbols, factor_symbols, problems = _data_symbols(m, m.strata, m.jacobian_factors)
    symbols = tuple(stratum_symbols + factor_symbols)
    if m.counts is not None and not problems:
        computed = _fixed_counts(m.group, symbols)
        if tuple(m.counts) != computed:
            problems.append(
                f"declared fixed-locus counts {tuple(m.counts)} disagree with model data {computed}"
            )
    return symbols, tuple(problems)


def validate_model(m: ModelDescription) -> list[str]:
    return list(m._checked[1])


def _invalid_model(problems: Sequence[str]) -> ValidationError:
    return ValidationError("invalid model:\n  " + "\n  ".join(problems))


def ensure_valid_model(m: ModelDescription) -> ModelDescription:
    problems = validate_model(m)
    if problems:
        raise _invalid_model(problems)
    return m


def class_of_action(m: ModelDescription) -> BurnsideClass:
    """The sum of canonical symbols contributed by all model data."""
    symbols, problems = m._checked
    if problems:
        raise _invalid_model(problems)
    counts: dict[Symbol, int] = {}
    for s in symbols:
        counts[s] = counts.get(s, 0) + 1
    return BurnsideClass(counts)


class BlowupCenter(namedtuple(
    "BlowupCenter", "case stratum curve_label y_reps context_stabilizer context_weight",
    defaults=(None, None, (), None, None),
)):
    """Blow-up center data for the three cases.

    Case 1: orbit of a curve with trivial generic stabilizer; carries the curve
    action and Y (as ambient-group generators).  Case 2: a curve inside a
    stabilized divisor, with weight pattern (0, b); the divisor is named by a
    ruled stratum index or given explicitly as (stabilizer, weight) context.
    Case 3: a fixed-curve stratum, all data read from it.
    """

    __slots__ = ()


def _center_stratum(m: ModelDescription, c: BlowupCenter, kind: str) -> StratumDatum:
    """The stratum of m that a case-2 or case-3 center names by index, which must be of the given kind."""
    if c.stratum is None or not (0 <= c.stratum < len(m.strata)):
        raise ValidationError(f"no stratum with index {c.stratum}")
    datum = m.strata[c.stratum]
    if datum.kind != kind:
        raise ValidationError(f"case-{c.case} centers must reference a {kind} stratum")
    return datum


def _case2_divisor_data(m: ModelDescription, c: BlowupCenter) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if (c.stratum is None) == (c.context_stabilizer is None):
        raise ValidationError("case-2 centers name either a ruled stratum or an explicit divisor context")
    if c.stratum is not None:
        datum = _center_stratum(m, c, RULED_DIVISOR)
        return datum.stabilizer, datum.weights[0]
    if c.context_weight is None:
        raise ValidationError("explicit case-2 context needs both stabilizer and weight")
    return tuple(c.context_stabilizer), tuple(c.context_weight)


def _partner(catalog: ActionCatalog, h: tuple[int, ...], label: str, upstairs) -> JacobianFactorDatum:
    """The Jacobian factor every blow-up adds: the catalog's J(C) action for the curve's, over its h and Y."""
    return JacobianFactorDatum(h, catalog.jacobian_of_curve_action(label).target, upstairs)


def _blown_up(m: ModelDescription, drop: int | None, added_strata: tuple[StratumDatum, ...],
              added_factors: tuple[JacobianFactorDatum, ...]) -> ModelDescription:
    """The valid model m with stratum `drop` (if any) removed and the added data
    appended, checked as `_model_symbols` would check it.

    m's checked symbols stand one per datum in datum order, over the same group
    and catalog, so the result starts from them and runs one check per added
    datum, under the result's own indices.  The state lives on the result
    only: `dataclasses.replace(out)` is a fresh object, checked anew."""
    symbols = m._checked[0]
    n = len(m.strata)
    kept = [i for i in range(n) if i != drop]
    strata = tuple(m.strata[i] for i in kept)
    out = ModelDescription(m.group, m.catalog, strata + added_strata, m.jacobian_factors + added_factors, None,
                           m.name)
    stratum_symbols, factor_symbols, problems = _data_symbols(
        out, added_strata, added_factors, len(strata), len(m.jacobian_factors),
    )
    out.__dict__["_checked"] = (
        tuple(symbols[i] for i in kept) + tuple(stratum_symbols) + symbols[n:] + tuple(factor_symbols),
        tuple(problems),
    )
    return ensure_valid_model(out)


def _center_residual(G: FiniteGroup, catalog: ActionCatalog, c: BlowupCenter, h: tuple[int, ...],
                     gens) -> tuple[int, ...]:
    """Y's preimage in Z_G(H), for a case-1 or case-2 center whose curve has
    stabilizer h: Y is resolved on h's curve record from `gens`, the center's
    `y_reps`, or with gens None from the label's shape; a refusal names
    `y_reps`, and Y must match the label's shape."""
    label = catalog.label(c.curve_label)
    if label.space != CURVE:
        raise ValidationError(f"case-{c.case} centers need a curve-space action label")
    record = stabilizer(G, h, KIND_CURVE)
    y = record.residual(h, label, gens, "y_reps")
    Y = Subgroup.trusted(record.quotient.group, y)
    if not label.group_shape.matches(Y):
        raise ValidationError(f"case-{c.case} residual group of order {Y.order} does not match {label.group_shape}")
    return record.quotient.preimage(y)


def blowup(m: ModelDescription, c: BlowupCenter) -> ModelDescription:
    """The model after blowing up the given center (orbit of a copy of the curve)."""
    ensure_valid_model(m)
    G = m.group
    catalog = m.catalog

    if c.case == 1:
        if c.curve_label is None:
            raise ValidationError("case-1 centers carry the curve action label")
        upstairs = _center_residual(G, catalog, c, (0,), c.y_reps)  # no y_reps: Y trivial
        return _blown_up(m, None, (), (_partner(catalog, (0,), c.curve_label, upstairs),))

    if c.case == 2:
        h, weight = _case2_divisor_data(m, c)
        if c.curve_label is None:
            raise ValidationError("case-2 centers carry the residual curve action label")
        H = Subgroup(G, h)
        if H.is_trivial():
            raise ValidationError("case-2 stabilizers are nontrivial")
        struct = abelian_structure(H)
        b = struct.character(weight)
        if not struct.kept_generates_dual(b):
            raise ValidationError("case-2 weight must generate the stabilizer's character group")
        upstairs = _center_residual(G, catalog, c, H.elements, c.y_reps or None)  # no y_reps: Y by its shape
        new_factor = _partner(catalog, H.elements, c.curve_label, upstairs)
        new_stratum = StratumDatum(FIXED_CURVE, H.elements, c.curve_label, (b, struct.reduce(map(neg, b))), upstairs)
        return _blown_up(m, None, (new_stratum,), (new_factor,))

    if c.case == 3:
        datum = _center_stratum(m, c, FIXED_CURVE)
        H, struct, Q, _ = record = stabilizer(G, datum.stabilizer, KIND_CURVE)
        upstairs = Q.preimage(record.residual(H.elements, catalog.label(datum.residual), datum.residual_group))
        theta1, theta2 = _blowup_terms(catalog, struct, datum.residual, *map(struct.reduce, datum.weights))  # checked
        added = [StratumDatum(FIXED_CURVE, H.elements, datum.residual, pair, upstairs) for pair in theta1]
        if theta2 is not None:
            kernel, rule, weight = theta2
            added.append(StratumDatum(RULED_DIVISOR, kernel, rule.target, (weight,), upstairs))
        return _blown_up(m, c.stratum, tuple(added), (_partner(catalog, H.elements, datum.residual, upstairs),))

    raise ValidationError(f"blow-up case must be 1, 2 or 3, got {c.case}")


def verify_blowup_invariance(m: ModelDescription, c: BlowupCenter) -> bool:
    """Does the class survive the blow-up, modulo the relation lattice?"""
    lattice = relation_lattice(m.group, m.catalog)
    return classes_equal(class_of_action(m), class_of_action(blowup(m, c)), lattice)


def _fixed_counts(G: FiniteGroup, symbols: Sequence[Symbol]) -> tuple[int, int, int]:
    """(I1, I2, I3): how many of these checked symbols have stabilizer G, by kind (curve, surface, jac)."""
    kinds = Counter(s.kind for s in symbols if len(s.h) == G.order)
    return kinds[KIND_CURVE], kinds[KIND_SURFACE], kinds[KIND_JAC]


def invariant_counts(m: ModelDescription) -> tuple[int, int, int]:
    """(I1, I2, I3) counted from the checked data, which declared counts must equal."""
    if not m.group.is_abelian():
        raise ValidationError("fixed-locus counts require an abelian group")
    if m.catalog.curve.genus < 2:
        raise ValidationError("fixed-locus counts require a curve of genus >= 2")
    return _fixed_counts(m.group, ensure_valid_model(m)._checked[0])


class VerdictReport(namedtuple(
    "VerdictReport", "model counts invariant phi consistent obstructed verdict class_terms notes",
)):
    """What `verdict` found for one model, as JSON or as text."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "counts": {"I1": self.counts[0], "I2": self.counts[1], "I3": self.counts[2]},
            "invariant_I": self.invariant,
            "phi": self.phi,
            "consistent": self.consistent,
            "obstructed": self.obstructed,
            "verdict": self.verdict,
            "class": [{"symbol": s, "coeff": c} for s, c in self.class_terms],
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        i1, i2, i3 = self.counts
        lines = [
            f"model: {self.model}",
            f"class: {', '.join(f'{c}*{s}' for s, c in self.class_terms) or '0'}",
            f"counts: I1={i1} I2={i2} I3={i3}",
            f"I = -I1 - 2*I2 + I3 = {self.invariant}",
            f"phi(filtered class) = {self.phi}" + ("" if self.consistent else "  [INCONSISTENT]"),
            f"verdict: {self.verdict}",
        ]
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)


def verdict(m: ModelDescription) -> VerdictReport:
    """Linearizability verdict from the counts invariant, cross-checked against the degree map."""
    counts = invariant_counts(m)
    value = invariant_I(*counts)
    cls = class_of_action(m)
    context = BurnsideContext(m.group, m.catalog)  # one pass serves the filter and the lattice
    projected = context.project(cls, FilterSpec.max_stabilizer(m.group))
    phi = phi_G(projected, m.group, m.catalog)
    consistent = phi == value
    notes: list[str] = []
    exotic = [
        s for s, _ in cls.terms()
        if s.kind == KIND_JAC and not m.catalog.label(s.action).from_curve
    ]
    if exotic and m.catalog.curve.genus >= 2:
        reduced = context.lattice.reduce(cls)
        zero = "zero" if reduced.is_zero() else "nonzero"
        names = ", ".join(text_form(s, m.group) for s in exotic)
        notes.append(f"exotic Jacobian symbol present ({names}); class is {zero} after reduction")
    obstructed = value != 0
    return VerdictReport(
        model=m.name or "(unnamed)",
        counts=counts,
        invariant=value,
        phi=phi,
        consistent=consistent,
        obstructed=obstructed,
        verdict=OBSTRUCTED if obstructed else NO_OBSTRUCTION,
        class_terms=tuple((text_form(s, m.group), c) for s, c in cls.terms()),
        notes=tuple(notes),
    )


def model_from_json(data, catalog_loader, name: str = "") -> ModelDescription:
    """A model from its JSON form; its catalog is a name, which `catalog_loader`
    maps to an ActionCatalog, or an inline catalog object."""
    declared_name, group, catalog, declared_curve, strata, factors, counts = read_json(
        data, "malformed model JSON").members(_MODEL)
    if isinstance(catalog, str):
        catalog = catalog_loader(catalog)
    if declared_curve is not None and declared_curve != catalog.curve.id:
        raise ValidationError(
            f"model curve {declared_curve!r} does not match the catalog's curve {catalog.curve.id!r}"
        )
    if counts is not None and len(counts) != 3:
        raise ValidationError("counts must be a triple [I1, I2, I3]")
    return ModelDescription(group, catalog, strata, factors, counts, name or declared_name)


def center_from_json(data) -> BlowupCenter:
    *head, context = read_json(data, "malformed blow-up center JSON").members(_CENTER)
    return BlowupCenter(*head, *context)


# the members of each object of a model or center, in the order of the record each is read into;
# `build_group` and `catalog_from_json` are looked up when called, so a wrapper set on them is called
_STRATUM = (("kind", JSONValue.string), ("stabilizer", JSONValue.integers), ("residual", JSONValue.string),
            ("weights", JSONValue.rows), ("residual_group", JSONValue.integers, None))
_FACTOR = (("stabilizer", JSONValue.integers), ("residual", JSONValue.string),
           ("residual_group", JSONValue.integers, None))
_CURVE_ID = (("id", JSONValue.string),)
_MODEL = (
    ("name", JSONValue.string, ""), ("group", lambda group: build_group(group)),
    ("catalog", lambda ref: ref.value if isinstance(ref.value, str) else catalog_from_json(ref)),
    ("curve", lambda curve: curve.members(_CURVE_ID)[0], None), ("strata", records(StratumDatum, _STRATUM), ()),
    ("jacobian_factors", records(JacobianFactorDatum, _FACTOR), ()), ("counts", JSONValue.integers, None),
)
_CONTEXT = (("stabilizer", JSONValue.integers, None), ("weight", JSONValue.integers, None))
_CENTER = (
    ("case", JSONValue.integer), ("stratum", JSONValue.integer, None), ("curve_label", JSONValue.string, None),
    ("y_reps", JSONValue.integers, ()), ("context", lambda context: context.members(_CONTEXT), (None, None)),
)
