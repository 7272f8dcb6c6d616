"""User-supplied ledger of a reference curve and the action classes that may
appear in symbol slots.

Actions on function fields and Jacobians are opaque labels with flags; the
relation engine consumes only group shape, faithfulness, from-curve provenance
and the declared rule identifications.  Labels are equal exactly when their ids
are equal -- the engine never guesses geometric isomorphisms, and a missing
rule is a hard error rather than a silent invention.  A subgroup's `GroupShape`
is kept in its group's `shapes` table once asked for; a catalog keeps its
rules by key, an induce rule's (stabilizer factors, curve label, weight
pattern) and a Jacobian rule's source label.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import prod

from .abelian import abelian_structure, normalize_factors, shape_name
from .errors import CatalogIncompleteError, JSONValue, ValidationError, read_json, records
from .groups import Subgroup

CURVE = "curve"
RULED_SURFACE = "ruled_surface"
JACOBIAN = "jacobian"
SPACES = (CURVE, RULED_SURFACE, JACOBIAN)


class GroupShape(namedtuple("GroupShape", "factors order")):
    """Declared isomorphism type of an acting group.

    Abelian shapes carry invariant factors; nonabelian ones (factors None) are
    matched only by order (a deliberate coarse escape hatch, since no finer data
    is consumed).
    """

    __slots__ = ()

    @classmethod
    def abelian(cls, factors) -> "GroupShape":
        fs = normalize_factors(factors)
        return cls(factors=fs, order=prod(fs))

    @classmethod
    def from_json(cls, data) -> "GroupShape":
        shape = read_json(data, "bad group_shape")
        if isinstance(shape.value, (list, tuple)):
            return cls.abelian(shape.integers())
        if isinstance(shape.value, dict):
            abelian, order = shape.members(_SHAPE)
            if not abelian:
                return cls(factors=None, order=order)
        shape.fail('a list of cyclic factors or {"order": n, "abelian": false}')

    def to_json(self):
        if self.factors is None:
            return {"order": self.order, "abelian": False}
        return list(self.factors)

    @classmethod
    def of(cls, sub: Subgroup) -> "GroupShape":
        """The shape of a checked subgroup, kept in its group's `shapes` table."""
        shapes = sub.ambient.shapes
        return shapes.get(sub.elements) or shapes.setdefault(
            sub.elements, cls(abelian_structure(sub).invariant_factors if sub.is_abelian() else None, sub.order))

    def matches(self, sub: Subgroup) -> bool:
        # a subgroup of another order is refused before its shape is built
        return sub.order == self.order and GroupShape.of(sub) == self

    def is_trivial(self) -> bool:
        return self.order == 1

    def __str__(self) -> str:
        if self.factors is None:
            return f"nonabelian:{self.order}"
        return shape_name(self.factors)


CurveProfile = namedtuple("CurveProfile", "id genus hyperelliptic", defaults=(False,))


class ActionLabel(namedtuple(
    "ActionLabel", "id space group_shape faithful trivial from_curve underlying_curve_action",
    defaults=(True, False, False, None),
)):
    """One equivalence class of actions on k(C), k(C x P1) or J(C)."""

    __slots__ = ()


class InduceRule(namedtuple("InduceRule", "h_factors curve_label weights target")):
    """Declares the ruled-surface label produced by the action construction.

    Matches a stabilizer shape, a curve action, and a weight pattern `weights`:
    "equal" (the two weights coincide) or a diff order, an int >= 2 (the order
    of their difference in the dual).  Its `str` names it in messages.
    """

    __slots__ = ()

    def __str__(self) -> str:
        pattern = "equal" if self.weights == "equal" else f"diff_order={self.weights}"
        return f"InduceRule({shape_name(self.h_factors)},{self.curve_label},{pattern})"


class JacobianOfCurveRule(namedtuple("JacobianOfCurveRule", "source target")):
    __slots__ = ()

    def __str__(self) -> str:
        return f"JacobianOfCurveRule({self.source})"


class GenusOneExtensionRule(namedtuple(
    "GenusOneExtensionRule", "h_factors source_label trivial_part target_h_factors target_label",
)):
    """Rewrites (H, J <- Y) to (H1, J <- Y/Y1) when Y1 <= Y acts trivially (genus 1).

    trivial_part is "all" (the label is a trivial action, Y1 = Y) or "none"
    (faithful label, Y1 = 1); those are the only cases a label determines.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return f"GenusOneExtensionRule({shape_name(self.h_factors)},{self.source_label})"


class ActionCatalog(namedtuple(
    "ActionCatalog", "curve labels induce_rules jacobian_rules extension_rules name",
    defaults=((), (), (), ""),
)):
    """The ledger itself.  It is immutable, so its label index, its rule index
    and its violations are computed once per object, on first use (kept in the
    instance `__dict__`, which is why the class declares no `__slots__`)."""

    @cached_property
    def _label_index(self) -> dict[str, ActionLabel]:
        # the first label of each id, as a scan of `labels` would find it
        index: dict[str, ActionLabel] = {}
        for lab in self.labels:
            index.setdefault(lab.id, lab)
        return index

    @cached_property
    def _rule_index(self) -> dict[tuple, InduceRule | JacobianOfCurveRule]:
        # the first induce or jacobian rule of each key, all it holds but its target, as a scan
        # finds it; an induce key has three members and a jacobian key one, so none collide
        index: dict[tuple, InduceRule | JacobianOfCurveRule] = {}
        for rule in (*self.induce_rules, *self.jacobian_rules):
            index.setdefault(rule[:-1], rule)
        return index

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        return tuple(validate_catalog(self))

    def label(self, label_id: str) -> ActionLabel:
        lab = self._label_index.get(label_id)
        if lab is None:
            raise ValidationError(f"unknown action label {label_id!r}")
        return lab

    def has_label(self, label_id: str) -> bool:
        return label_id in self._label_index

    def labels_in(self, space: str) -> tuple[ActionLabel, ...]:
        return tuple(lab for lab in self.labels if lab.space == space)

    def jacobian_of_curve_action(self, curve_label: str) -> JacobianOfCurveRule:
        """The declared rule whose target labels the J(C)-action a curve action induces."""
        rule = self._rule_index.get((curve_label,))
        if rule is None:
            raise CatalogIncompleteError("JacobianOfCurveRule", curve_label=curve_label)
        return rule

    def induced_surface_action(self, h_factors: tuple[int, ...], curve_label: str,
                               diff_order: int) -> InduceRule:
        """The declared rule whose target labels the ruled-surface action of a
        (stabilizer, curve action, weight pattern)."""
        pattern = "equal" if diff_order == 1 else diff_order
        rule = self._rule_index.get((tuple(h_factors), curve_label, pattern))  # factors may come as a list
        if rule is None:
            raise CatalogIncompleteError("InduceRule", h=shape_name(h_factors), curve_label=curve_label,
                                         weights="equal" if diff_order == 1 else f"diff_order={diff_order}")
        return rule


def validate_catalog(catalog: ActionCatalog) -> list[str]:
    """All structural invariants, returned as a list of violations (empty = valid)."""
    problems: list[str] = []
    curve = catalog.curve
    if curve.genus < 1:
        problems.append(f"curve {curve.id!r}: genus must be >= 1, got {curve.genus}")
    if curve.hyperelliptic and curve.genus < 2:
        problems.append(f"curve {curve.id!r}: hyperelliptic flag is only meaningful for genus >= 2")
    seen_ids = set()
    for lab in catalog.labels:
        if lab.id in seen_ids:
            problems.append(f"duplicate label id {lab.id!r}")
        seen_ids.add(lab.id)
        if lab.space not in SPACES:
            problems.append(f"label {lab.id!r}: unknown space {lab.space!r}")
            continue
        if lab.group_shape.is_trivial():
            if not lab.trivial or not lab.faithful:
                problems.append(f"label {lab.id!r}: the trivial group acts trivially and (vacuously) faithfully")
        elif lab.trivial and lab.faithful:
            problems.append(f"label {lab.id!r}: a trivial action of a nontrivial group is not faithful")
        if lab.space in (CURVE, RULED_SURFACE):
            if not lab.faithful:
                problems.append(f"label {lab.id!r}: {lab.space} actions must be faithful")
            if lab.from_curve or lab.underlying_curve_action:
                problems.append(f"label {lab.id!r}: from_curve data only applies to jacobian labels")
        else:
            if curve.genus == 1:
                if not lab.from_curve or lab.underlying_curve_action is None:
                    problems.append(
                        f"label {lab.id!r}: genus-1 jacobian actions must come from a declared curve action"
                    )
                elif not catalog.has_label(lab.underlying_curve_action):
                    problems.append(f"label {lab.id!r}: dangling underlying_curve_action")
                elif catalog.label(lab.underlying_curve_action).space != CURVE:
                    problems.append(f"label {lab.id!r}: underlying_curve_action must be a curve label")
            else:
                if not lab.faithful:
                    problems.append(f"label {lab.id!r}: genus >= 2 jacobian actions must be faithful")
                if lab.from_curve and lab.underlying_curve_action is not None:
                    if not catalog.has_label(lab.underlying_curve_action):
                        problems.append(f"label {lab.id!r}: dangling underlying_curve_action")

    def check_label(rule, label_id: str, space: str):
        if not catalog.has_label(label_id):
            problems.append(f"{rule}: dangling label {label_id!r}")
            return None
        lab = catalog.label(label_id)
        if lab.space != space:
            problems.append(f"{rule}: label {label_id!r} must live on {space}, not {lab.space}")
            return None
        return lab

    looked_up = set()  # an induce or jacobian rule is looked up by all it holds but its target
    for rule in (*catalog.induce_rules, *catalog.jacobian_rules):
        if rule[:-1] in looked_up:
            problems.append(f"duplicate rule {rule}")
        looked_up.add(rule[:-1])
    for rule in catalog.induce_rules:
        src = check_label(rule, rule.curve_label, CURVE)
        tgt = check_label(rule, rule.target, RULED_SURFACE)
        if rule.weights != "equal" and (not isinstance(rule.weights, int) or rule.weights < 2):
            problems.append(f"{rule}: weight pattern must be 'equal' or an integer diff order >= 2")
            continue
        if src is not None and tgt is not None:
            index = 1 if rule.weights == "equal" else rule.weights
            h_order = prod(rule.h_factors)
            if h_order % index != 0:
                problems.append(f"{rule}: diff order {index} does not divide |H| = {h_order}")
            expected = src.group_shape.order * index
            if tgt.group_shape.order != expected:
                problems.append(f"{rule}: target group order {tgt.group_shape.order} != |Y|*[H:ker] = {expected}")
    for rule in catalog.jacobian_rules:
        src = check_label(rule, rule.source, CURVE)
        tgt = check_label(rule, rule.target, JACOBIAN)
        if src is None or tgt is None:
            continue
        if src.group_shape != tgt.group_shape:
            problems.append(f"{rule}: target shape {tgt.group_shape} != source shape {src.group_shape}")
        if not tgt.from_curve:
            problems.append(f"{rule}: target {tgt.id!r} must be flagged from_curve")
        if catalog.curve.genus == 1 and tgt.underlying_curve_action != rule.source:
            problems.append(f"{rule}: genus-1 target must record {rule.source!r} as its underlying curve action")
    for rule in catalog.extension_rules:
        if catalog.curve.genus != 1:
            problems.append(f"{rule}: genus-1 extension rules need a genus-1 curve")
            continue
        src = check_label(rule, rule.source_label, JACOBIAN)
        tgt = check_label(rule, rule.target_label, JACOBIAN)
        if rule.trivial_part not in ("all", "none"):
            problems.append(f"{rule}: trivial_part must be 'all' or 'none'")
            continue
        if src is None or tgt is None:
            continue
        if rule.trivial_part == "all" and not src.trivial:
            problems.append(f"{rule}: trivial_part='all' needs a label declared trivial")
        if rule.trivial_part == "none" and not src.faithful:
            problems.append(f"{rule}: trivial_part='none' needs a faithful label")
        y1_order = src.group_shape.order if rule.trivial_part == "all" else 1
        h_order = prod(rule.h_factors)
        h1_order = prod(rule.target_h_factors)
        if h1_order != h_order * y1_order:
            problems.append(f"{rule}: |H1| = {h1_order} != |H|*|Y1| = {h_order * y1_order}")
        if rule.trivial_part == "all" and not tgt.group_shape.is_trivial():
            problems.append(f"{rule}: Y/Y1 is trivial, so the target label must have trivial shape")
    return problems


def ensure_valid_catalog(catalog: ActionCatalog) -> ActionCatalog:
    """The catalog itself, or a ValidationError listing every violation; the
    check runs once per catalog object."""
    problems = catalog._problems
    if problems:
        raise ValidationError("invalid catalog:\n  " + "\n  ".join(problems))
    return catalog


def catalog_from_json(data, name: str = "") -> ActionCatalog:
    curve, labels, rules, declared_name = read_json(data, "malformed catalog JSON").members(_CATALOG)
    return ActionCatalog(curve, labels, *rules, name=name or declared_name)


def _positive(value: JSONValue) -> int:
    return value.value if value.integer() > 0 else value.fail("a positive integer")


def _factors(value: JSONValue) -> tuple[int, ...]:
    return normalize_factors(value.integers())


def _weight_pattern(weights: JSONValue):
    """An InduceRule's weight pattern: "equal" or {"diff_order": m}."""
    return "equal" if weights.value == "equal" else weights.members(_DIFF_ORDER)[0]


# the members of each object of a catalog, in the order of the record each is read into
_SHAPE = (("abelian", JSONValue.boolean, True), ("order", _positive))
_DIFF_ORDER = (("diff_order", JSONValue.integer),)
_CURVE = (("id", JSONValue.string), ("genus", JSONValue.integer), ("hyperelliptic", JSONValue.boolean, False))
_LABEL = (
    ("id", JSONValue.string), ("space", JSONValue.string), ("group_shape", GroupShape.from_json),
    ("faithful", JSONValue.boolean, True), ("trivial", JSONValue.boolean, False),
    ("from_curve", JSONValue.boolean, False), ("underlying_curve_action", JSONValue.string, None),
)
_INDUCE = (("h", _factors), ("curve_label", JSONValue.string), ("weights", _weight_pattern),
           ("target", JSONValue.string))
_JACOBIAN = (("source", JSONValue.string), ("target", JSONValue.string))
_EXTENSION = (("h", _factors), ("label", JSONValue.string), ("trivial_part", JSONValue.string),
              ("target_h", _factors), ("target_label", JSONValue.string))
_RULES = (
    ("induce", records(InduceRule, _INDUCE), ()), ("jacobian_of_curve", records(JacobianOfCurveRule, _JACOBIAN), ()),
    ("genus_one_extension", records(GenusOneExtensionRule, _EXTENSION), ()),
)
_CATALOG = (
    ("curve", lambda curve: CurveProfile(*curve.members(_CURVE))), ("labels", records(ActionLabel, _LABEL), ()),
    ("rules", lambda rules: rules.members(_RULES), ((), (), ())), ("name", JSONValue.string, ""),
)


def catalog_to_json(catalog: ActionCatalog) -> dict:
    return {
        "name": catalog.name,
        "curve": {
            "id": catalog.curve.id,
            "genus": catalog.curve.genus,
            "hyperelliptic": catalog.curve.hyperelliptic,
        },
        "labels": [
            {
                "id": lab.id,
                "space": lab.space,
                "group_shape": lab.group_shape.to_json(),
                "faithful": lab.faithful,
                "trivial": lab.trivial,
                **({"from_curve": lab.from_curve} if lab.space == JACOBIAN else {}),
                **(
                    {"underlying_curve_action": lab.underlying_curve_action}
                    if lab.underlying_curve_action is not None
                    else {}
                ),
            }
            for lab in catalog.labels
        ],
        "rules": {
            "induce": [
                {
                    "h": list(r.h_factors),
                    "curve_label": r.curve_label,
                    "weights": "equal" if r.weights == "equal" else {"diff_order": r.weights},
                    "target": r.target,
                }
                for r in catalog.induce_rules
            ],
            "jacobian_of_curve": [{"source": r.source, "target": r.target} for r in catalog.jacobian_rules],
            "genus_one_extension": [
                {
                    "h": list(r.h_factors),
                    "label": r.source_label,
                    "trivial_part": r.trivial_part,
                    "target_h": list(r.target_h_factors),
                    "target_label": r.target_label,
                }
                for r in catalog.extension_rules
            ],
        },
    }
