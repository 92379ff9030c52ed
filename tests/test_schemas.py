"""The JSON schemas in schemas/ against the handlers that read the payloads.

jsonschema is a test extra only; the runtime never imports it.
"""

import json
import re
from pathlib import Path

import pytest

from reebmin import cli
from reebmin.errors import ReebminError, SchemaError

jsonschema = pytest.importorskip("jsonschema")
referencing = pytest.importorskip("referencing")

ROOT = Path(__file__).resolve().parent.parent
BAD_PAYLOADS = Path(__file__).parent / "data" / "bad_payloads.ndjson"


def load_schema(name):
    return json.loads((ROOT / "schemas" / name).read_text())


def payload_schema(command):
    # the cone payloads refer to the cone schema by its $id
    cone = load_schema("cone.schema.json")
    registry = referencing.Registry().with_resource(
        cone["$id"], referencing.Resource.from_contents(cone))
    schema = load_schema("jobspec.schema.json")["$defs"][command]
    return jsonschema.Draft202012Validator(schema, registry=registry)


def test_jobspec_schema_agrees_with_handlers():
    # the schema states shape, and a SchemaError is its verdict; a value it
    # leaves to the handler passes the schema and gets the handler's code
    for line in BAD_PAYLOADS.read_text().splitlines():
        spec = json.loads(line)
        try:
            cli.run(spec)
            accepted = True
        except SchemaError:
            accepted = False
        except (ReebminError, ValueError):
            accepted = True
        assert payload_schema(spec["command"]).is_valid(spec["payload"]) == accepted, line



def test_payload_key_table_matches_the_schema():
    # cli keeps its own tables so that the runtime never reads the schema
    jobspec = load_schema("jobspec.schema.json")
    defs = jobspec["$defs"]
    assert sorted(defs) == sorted(cli.COMMANDS)
    tables = [(jobspec, cli.JOBSPEC_FIELDS), (load_schema("cone.schema.json"), cli.CONE_FIELDS)]
    tables += [(defs[command], fields) for command, (_, fields) in cli.COMMANDS.items()]
    for entry, fields in tables:
        assert entry["additionalProperties"] is False
        assert sorted(entry["properties"]) == sorted(fields), entry
        required = [key for key, (_, default) in fields.items() if default is cli.REQUIRED]
        assert sorted(entry["required"]) == sorted(required), entry
        for key, (_, default) in fields.items():
            if default is not cli.REQUIRED:
                assert entry["properties"][key].get("default") == default, key
    assert defs["ypq"]["properties"]["samples"]["maximum"] == cli.MAX_SAMPLES
    caps = [("link-enumerate", "range", cli.MAX_RANGE_WIDTH),
            ("cone-minimize", "cone", cli.MAX_CONE_WORK),
            ("cone-topology", "cone", cli.MAX_CONE_WORK)]
    for command, key, cap in caps:
        description = defs[command]["properties"][key]["description"]
        assert str(cap) in re.findall(r"\d+", description), command
