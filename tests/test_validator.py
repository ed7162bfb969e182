"""The command's schema interpreter accepts exactly what jsonschema accepts.

Hypothesis mutates the shipped configs and fixtures and one real `estimate`
report: it drops keys, adds declared and unknown ones, swaps in values of
the wrong type (bools for numbers, 2.0 for integers), numbers at and just
past the bounds of the field's own schema, strings with bad characters, and
arrays of the wrong length.  Both validators must then accept the same
documents, and where both reject, the interpreter must name a path that
jsonschema also names.  Numbers are drawn finite: the interpreter also
rejects NaN and Infinity, which JSON Schema allows
(tests/test_cli.py::TestValidation checks that).
"""

import copy
import functools
import json
import math
import tempfile
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from ttprep import cli, pipeline

ROOT = Path(__file__).resolve().parents[1]
FIXTURE_DIR = Path(cli.__file__).resolve().parent / "fixtures"
SCHEMA_NAMES = ("config", "fixture", "report")
BOUND_KEYWORDS = ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")

# replacements for any scalar; 2 and 2.0 must be equally good integers
WRONG_TYPES = [True, False, 2.0, 2, "2", None, [], {}]
NAMES = ["", "a b", "a/b", "é", "ok.name-1", "x\n"]
VALUES = st.recursive(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False),
              st.integers(-20, 80), st.text(max_size=4), st.booleans(),
              st.none()),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["frobnicate", "b", "center"]), inner,
                      max_size=3),
    max_leaves=6)
DROP = object()


@functools.cache
def _documents(name: str) -> list:
    if name == "config":
        paths = sorted((ROOT / "configs").glob("*.json"))
    elif name == "fixture":
        paths = sorted(FIXTURE_DIR.glob("*.json"))
    else:
        with tempfile.TemporaryDirectory() as out:
            result = CliRunner().invoke(cli.main, [
                "estimate", "--config", str(ROOT / "configs" / "h_sto3g.json"),
                "--fixture", str(FIXTURE_DIR / "h_sto3g.json"), "--out", out])
            assert result.exit_code == 0, result.output
            report = Path(out) / "h_sto3g_report.json"
            return [json.loads(report.read_text(encoding="utf-8"))]
    return [json.loads(p.read_text(encoding="utf-8")) for p in paths]


def _schema_at(schema: dict, path) -> dict:
    """The subschema that applies at `path`; {} below a oneOf."""
    for key in path:
        schema = (schema.get("items") if isinstance(key, int) else
                  schema.get("properties", {}).get(
                      key, schema.get("additionalProperties")))
        if not isinstance(schema, dict):
            return {}
    return schema


def _near_bounds(schema: dict) -> list:
    """Each numeric bound of `schema`, as an int and as a float, and its
    neighbours on both sides."""
    return [v for k in BOUND_KEYWORDS if k in schema for b in [schema[k]]
            for v in (b, float(b), b - 1, b + 1,
                      math.nextafter(b, -math.inf),
                      math.nextafter(b, math.inf))]


def _locations(doc, path=()):
    """The key/index path of every value in a document, the root included."""
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _locations(value, path + (key,))


def _edits(doc, schema: dict):
    """Every single edit the tests try on `doc`, as (path, new value), where
    the value DROP deletes: dropped keys and items; declared and unknown
    keys added with a sibling's value; numbers at and just past each bound
    of the field's schema; array lengths at and just past each count bound;
    bad names; and values of the wrong type."""
    for path in _locations(doc):
        node = functools.reduce(lambda d, k: d[k], path, doc)
        sub = _schema_at(schema, path)
        if path:
            yield path, DROP
        if isinstance(node, dict):
            for key in sorted(sub.get("properties", {}).keys() - node.keys()):
                for value in node.values():
                    yield path + (key,), value
            yield path + ("frobnicate",), 1
            continue
        if isinstance(node, list):
            pool = (node or [1.0]) * 4
            for n in {0, *(sub[k] + d for k in ("minItems", "maxItems")
                          if k in sub for d in (-1, 0, 1))} - {-1}:
                yield path, pool[:n]
            continue
        for value in _near_bounds(sub) + WRONG_TYPES:
            yield path, value
        if isinstance(node, str):
            for value in NAMES:
                yield path, value


def _edited(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = functools.reduce(lambda d, k: d[k], path[:-1], doc)
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


def _assert_agree(doc, schema: dict) -> None:
    """The interpreter accepts `doc` exactly when jsonschema does, and
    otherwise names a path jsonschema names."""
    validator = jsonschema.validators.validator_for(schema)(schema)
    paths = {e.json_path for e in validator.iter_errors(doc)}
    try:
        pipeline._check(doc, schema)
    except pipeline._Invalid as e:
        assert e.path in paths, (e, paths)
    else:
        assert not paths, paths


@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_every_single_edit_agrees(name):
    schema = pipeline._schema(name)
    for doc in _documents(name):
        _assert_agree(doc, schema)
        for path, value in _edits(doc, schema):
            _assert_agree(_edited(doc, path, value), schema)


@pytest.mark.parametrize("name", SCHEMA_NAMES)
@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_combined_edits_agree(name, data):
    """Up to three edits in a row, some with arbitrary values."""
    schema = pipeline._schema(name)
    doc = data.draw(st.sampled_from(_documents(name)))
    for _ in range(data.draw(st.integers(1, 3))):
        path, value = data.draw(st.sampled_from(list(_edits(doc, schema))))
        if data.draw(st.integers(0, 3)) == 0 and value is not DROP:
            value = data.draw(VALUES)
        doc = _edited(doc, path, value)
    _assert_agree(doc, schema)
