"""Exact symbolic calculator for curve-localized equivariant Burnside groups
of finite group actions on rationally connected threefolds.

The model layer (`burnloc.models`: model descriptions, blow-ups, verdicts) is
imported on first use, so that commands which never touch a model do not pay
for it at start-up.  Its public names are still attributes of this package
and listed in `__all__`; the first lookup of one of them (or of `models`)
imports the module through `__getattr__` (PEP 562).
"""

__version__ = "0.1.0"

from .catalog import (
    ActionCatalog,
    ActionLabel,
    CurveProfile,
    GroupShape,
    catalog_from_json,
    catalog_to_json,
    ensure_valid_catalog,
    validate_catalog,
)
from .errors import CatalogIncompleteError, ValidationError
from .groups import (
    FiniteGroup,
    QuotientGroup,
    Subgroup,
    abelian_subgroups_up_to_conjugacy,
    build_group,
    centralizer,
    normalizer,
    quotient,
    subgroups_up_to_conjugacy,
)
from .abelian import AbelianStructure, abelian_structure, transport_character
from .normalforms import (
    IntegerLattice,
    cokernel_structure,
    hermite_normal_form,
    smith_normal_form,
)
from .symbols import (
    BurnsideClass,
    BurnsideContext,
    Symbol,
    canonicalize,
    enumerate_symbols,
    text_form,
    validate_symbol,
)
from .relations import (
    FilterSpec,
    GroupStructure,
    RelationInstance,
    RelationLattice,
    classes_equal,
    filter_project,
    filtered_structure,
    generate_relations,
    phi_G,
    reduce,
    relation_lattice,
    structure,
)

_MODEL_NAMES = (
    "BlowupCenter",
    "JacobianFactorDatum",
    "ModelDescription",
    "StratumDatum",
    "VerdictReport",
    "blowup",
    "class_of_action",
    "invariant_I",
    "invariant_counts",
    "validate_model",
    "verdict",
    "verify_blowup_invariance",
)


def __getattr__(name: str):
    if name == "models" or name in _MODEL_NAMES:
        from importlib import import_module

        models = import_module(f"{__name__}.models")
        return models if name == "models" else getattr(models, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted({name for name in dir() if not name.startswith("_")} | {"models", *_MODEL_NAMES})
