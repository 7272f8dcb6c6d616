"""Golden digests of `relations --dump --json`: the rule, the `params` text and
the term order of every relation instance, for the generated catalogs of three
ladder groups relabelled at seed 0.  No other check reads the parameters or
the order of the instances, so any change to how relations are built that
moves a byte of the report changes a digest here."""

import hashlib
import json

import pytest

from burnloc.catalog import catalog_to_json
from burnloc.cli import main
from burnloc.groups import build_group
from scenarios import LADDER_GROUPS, generated_catalog, relabel

DIGESTS = {
    "C4xC4": "beb18881deb8e1d0",
    "D6xC2": "e0fbe91e2059d3f8",
    "S3xS3": "2abb2db55a0c651a",
}


@pytest.mark.parametrize("name", DIGESTS)
def test_relations_dump_json_digest(name, tmp_path, capsys):
    table = relabel(build_group(LADDER_GROUPS[name]).mul, 0)
    group = json.dumps({"kind": "table", "mul": table})
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(catalog_to_json(generated_catalog(build_group({"kind": "table", "mul": table})))))
    assert main(["relations", "--group", group, "--catalog", str(catalog), "--dump", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == DIGESTS[name]
