"""Named built-in fixtures: catalogs, models and blow-up centers shipped as
JSON files in this package's directory (read as plain files: the
`importlib.resources` machinery would cost more start-up time than a fixture
command's own work).  The model layer is imported by the loaders that need it."""

from __future__ import annotations

import json
import os

from ..catalog import ActionCatalog, catalog_from_json, ensure_valid_catalog
from ..errors import ValidationError

_ROOT = os.path.dirname(os.path.abspath(__file__))


def _names(subdir: str) -> tuple[str, ...]:
    files = os.listdir(os.path.join(_ROOT, subdir))
    return tuple(sorted(f[: -len(".json")] for f in files if f.endswith(".json")))


def _load(subdir: str, name: str) -> dict:
    try:
        with open(os.path.join(_ROOT, subdir, f"{name}.json"), encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ValidationError(
            f"unknown {subdir[:-1]} fixture {name!r}; available: {', '.join(_names(subdir))}"
        ) from None
    return json.loads(text)


def catalog_names() -> tuple[str, ...]:
    return _names("catalogs")


def model_names() -> tuple[str, ...]:
    return _names("models")


def center_names() -> tuple[str, ...]:
    return _names("centers")


def fixture_catalog(name: str) -> ActionCatalog:
    return ensure_valid_catalog(catalog_from_json(_load("catalogs", name), name=name))


def fixture_model(name: str):
    from ..models import model_from_json

    return model_from_json(_load("models", name), fixture_catalog, name=name)


def fixture_center(name: str):
    from ..models import center_from_json

    return center_from_json(_load("centers", name))
