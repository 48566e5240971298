import gc
import json
import re
import sys

import numpy as np
import pytest

from loccforge.errors import ParseError
from loccforge.hermitian import HermitianOperator
from loccforge.fixtures import write_all
from loccforge.io import (
    MEASUREMENT_FORMAT,
    PROTOCOL_FORMAT,
    _caption,
    export_dot,
    measurement_digest,
    parse_document,
    parse_measurement,
    parse_protocol,
    serialize_measurement,
    serialize_protocol,
)
from loccforge.synthesis import synthesize
from loccforge.measurement import SeparableMeasurement
from loccforge.tree import canonical_key, descend, leaf_tree, root_for

from conftest import FIXTURE_DIR, load_fixture

ALL_FIXTURES = ["cascade5", "domino9", "fourparty_aligned", "fourparty_mismatch",
                "productbasis4", "singularpair3", "krausdemo"]


def test_fixtures_are_regenerated_byte_for_byte(tmp_path):
    """fixtures/ holds exactly what loccforge.fixtures writes, byte for byte."""
    written = write_all(tmp_path)
    assert sorted(p.name for p in written) == \
        sorted(p.name for p in FIXTURE_DIR.glob("*.json"))
    for p in written:
        assert p.read_bytes() == (FIXTURE_DIR / p.name).read_bytes(), p.name


def make_doc(**kw):
    doc = {
        "format": MEASUREMENT_FORMAT,
        "parties": [{"name": "A", "dim": 2}, {"name": "B", "dim": 2}],
        "operators": [
            {"label": "M1", "parts": [[[1, 0], [0, 0]], [[1, 0], [0, 1]]]},
            {"label": "M2", "parts": [[[0, 0], [0, 1]], [[1, 0], [0, 1]]]},
        ],
    }
    doc.update(kw)
    return json.dumps(doc)


def test_serialize_parse_fixpoint_all_fixtures():
    for name in ALL_FIXTURES:
        text = (FIXTURE_DIR / f"{name}.json").read_text()
        m = parse_measurement(text)
        s1 = serialize_measurement(m)
        m2 = parse_measurement(s1)
        assert serialize_measurement(m2) == s1
        assert measurement_digest(m2) == measurement_digest(m)


def test_parsed_measurement_keeps_no_operator_objects():
    """A measurement is its party stacks: parsing domino9 leaves no
    HermitianOperator alive."""
    m = parse_measurement((FIXTURE_DIR / "domino9.json").read_text())
    gc.collect()
    alive = [o for o in gc.get_objects() if isinstance(o, HermitianOperator)]
    assert len(m) == 9 and alive == []


def test_digest_ignores_meta():
    m = load_fixture("cascade5")
    tagged = serialize_measurement(m, meta={"note": "anything", "n": 3})
    m2 = parse_measurement(tagged)
    assert measurement_digest(m2) == measurement_digest(m)
    assert measurement_digest(load_fixture("domino9")) != measurement_digest(m)


def test_meta_is_checked_but_not_read_back():
    m = load_fixture("cascade5")
    doc = parse_document(serialize_measurement(m, meta={"note": "x"}))
    assert doc.party_names == m.party_names
    with pytest.raises(ParseError, match=r"^meta must be an object, got \[1\]$"):
        parse_document(make_doc(meta=[1]))


def test_null_label_and_meta_read_as_absent():
    text = make_doc(meta=None, operators=[
        {"label": None, "parts": [[[1, 0], [0, 0]], [[1, 0], [0, 1]]]},
        {"label": "M1", "parts": [[[0, 0], [0, 1]], [[1, 0], [0, 1]]]}])
    with pytest.raises(ParseError, match="^operator labels must be distinct$"):
        parse_measurement(text)
    assert parse_measurement(text.replace('"M1"', '"M2"')).labels == ("M1", "M2")


DEEP = '{"a": ' * 100_000 + "1" + "}" * 100_000

# (JSON text put where an "@" string stands in the document, the message)
REJECTED_VALUES = [
    ({"operators": [{"parts": [[["@", 0], [0, 0]], [[1, 0], [0, 1]]]}]}, "true",
     "operators[0].parts[0][0][0] must be a number, got True"),
    ({"operators": [{"parts": [[[[1, "@"], 0], [0, 0]], [[1, 0], [0, 1]]]}]},
     "false", "operators[0].parts[0][0][0] must be a number, got False"),
    ({"parties": [{"name": "A", "dim": "@"}, {"name": "B", "dim": 2}]}, "true",
     "parties[0].dim must be a number, got True"),
    ({"parties": [{"name": "A", "dim": "@"}, {"name": "B", "dim": 2}]}, "2.0",
     "parties[0].dim must be an integer, got 2.0"),
    ({"parties": [{"name": "@", "dim": 2}, {"name": "B", "dim": 2}]}, "1",
     "parties[0].name must be a string, got 1"),
    ({"operators": [{"parts": [[["@", 0], [0, 0]], [[1, 0], [0, 1]]]}]}, "NaN",
     "operators[0].parts[0][0][0] must be a finite number, got nan"),
    ({"operators": [{"parts": [[["@", 0], [0, 0]], [[1, 0], [0, 1]]]}]},
     "Infinity", "operators[0].parts[0][0][0] must be a finite number, got inf"),
    ({"operators": [{"parts": [[["@", 0], [0, 0]], [[1, 0], [0, 1]]]}]},
     "1e400", "operators[0].parts[0][0][0] must be a finite number, got inf"),
    ({"operators": [{"parts": [[["@", 0], [0, 0]], [[1, 0], [0, 1]]]}]},
     "1" + "0" * 399,
     "operators[0].parts[0][0][0] must be a finite number, got "
     + "1" + "0" * 36 + "..."),
    ({"parties": [{"name": "A", "dim": "@"}, {"name": "B", "dim": 2}]},
     json.dumps(list(range(1000))),
     "parties[0].dim must be a number, got [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11..."),
    ({"parties": [{"name": "A", "dim": "@"}, {"name": "B", "dim": 2}]},
     "2" * 5000, "integer literal is too long"),
    ({"parties": [{"name": "A"}]}, "0", "parties[0].dim is missing"),
    ({"meta": "@"}, DEEP, "document is nested too deeply"),
]


@pytest.mark.parametrize("fields, literal, message", REJECTED_VALUES,
                         ids=["true-entry", "false-imaginary-part", "true-dim",
                              "float-dim", "number-name", "nan", "infinity",
                              "1e400", "400-digit-int", "long-list",
                              "5000-digit-int", "missing-dim", "deep-meta"])
def test_document_values_are_checked(fields, literal, message):
    text = make_doc(**fields).replace('"@"', literal)
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$") as e:
        parse_measurement(text)
    syntax = literal == DEEP or message.startswith("integer literal")
    assert e.value.kind == ("syntax" if syntax else "shape")


def test_tree_reader_reports_deep_nesting(monkeypatch):
    """Python 3.13's json.loads takes trees deeper than the stack lets
    the tree reader go; the reader then fails as the decoder does."""
    node = {"party": 0, "groups": [[{"op": 0, "var": 0}]]}
    for _ in range(sys.getrecursionlimit()):
        node = {"party": 0, "groups": [[{"op": 0, "var": 0}]], "children": [node]}
    doc = {"format": PROTOCOL_FORMAT,
           "tree": {"P": 1, "nvars": 1, "depth": 0, "roots": [node]}}
    monkeypatch.setattr(json, "loads", lambda text: doc)
    with pytest.raises(ParseError, match="^document is nested too deeply$") as e:
        parse_protocol("{}")
    assert e.value.kind == "syntax"


def test_parse_accepts_bare_real_entries():
    m = parse_measurement(make_doc())
    assert m.dims == (2, 2) and len(m) == 2
    assert np.allclose(m.part(0, 0), np.diag([1.0, 0.0]))


def test_syntax_errors():
    with pytest.raises(ParseError) as e:
        parse_measurement("{ not json")
    assert e.value.kind == "syntax" and "line 1" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_measurement('["a", "b"]')
    assert e.value.kind == "syntax"
    with pytest.raises(ParseError) as e:
        parse_measurement(make_doc(format="something/9"))
    assert e.value.kind == "syntax"


def test_shape_errors():
    bad = [
        make_doc(parties=[]),
        make_doc(parties=[{"name": "A"}]),
        make_doc(parties=[{"name": "A", "dim": 2}, {"name": "A", "dim": 2}]),
        make_doc(operators=[]),
        make_doc(operators=[{"label": "M1", "parts": [[[1, 0], [0, 0]]]}]),
        make_doc(operators=[
            {"label": "M1", "parts": [[[1, 0]], [[1, 0], [0, 1]]]}]),
        make_doc(operators=[
            {"label": "M1",
             "parts": [[[1, 0], [0, [1, 2, 3]]], [[1, 0], [0, 1]]]}]),
        make_doc(operators=[
            {"label": "M1", "parts": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]},
            {"label": "M1", "parts": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]}]),
        make_doc(meta=[1, 2]),
    ]
    for text in bad:
        with pytest.raises(ParseError) as e:
            parse_measurement(text)
        assert e.value.kind == "shape", text


def test_not_psd_error():
    text = make_doc(operators=[
        {"label": "M1", "parts": [[[1, 0], [0, -0.5]], [[1, 0], [0, 1]]]},
        {"label": "M2", "parts": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]}])
    with pytest.raises(ParseError) as e:
        parse_measurement(text)
    assert e.value.kind == "not-psd"
    # a numerically zero part maps to the same family
    text = make_doc(operators=[
        {"label": "M1", "parts": [[[0, 0], [0, 0]], [[1, 0], [0, 1]]]},
        {"label": "M2", "parts": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]}])
    with pytest.raises(ParseError) as e:
        parse_measurement(text)
    assert e.value.kind == "not-psd"


def test_duplicate_product_error():
    text = make_doc(operators=[
        {"label": "M1", "parts": [[[1, 0], [0, 0]], [[1, 0], [0, 1]]]},
        {"label": "M2", "parts": [[[2, 0], [0, 0]], [[0.5, 0], [0, 0.5]]]}])
    with pytest.raises(ParseError) as e:
        parse_measurement(text)
    assert e.value.kind == "duplicate-product"


def test_kraus_backfill_on_partial_data():
    m = load_fixture("krausdemo")
    raw = json.loads(serialize_measurement(m))
    assert "kraus" in raw["operators"][1]
    del raw["operators"][1]["kraus"]
    m2 = parse_measurement(json.dumps(raw))
    assert m2.kraus_groups is not None
    assert len(m2.kraus_groups[1]) == 1
    kp = m2.kraus_groups[1][0]
    for a, pos in enumerate(kp.positive_parts()):
        assert np.abs(pos - m2.part(1, a)).max() < 1e-9
    # dropping every kraus block drops the data entirely
    for op in raw["operators"]:
        op.pop("kraus", None)
    m3 = parse_measurement(json.dumps(raw))
    assert m3.kraus_groups is None


def test_protocol_roundtrip():
    m = load_fixture("productbasis4")
    v = synthesize(m)
    s = serialize_protocol(v, m)
    assert serialize_protocol(v, m) == s
    doc = parse_protocol(s)
    assert doc.verdict == "Protocol"
    assert doc.reason == v.reason
    assert doc.measurement_digest == measurement_digest(m)
    assert doc.stats.as_dict() == v.stats.as_dict()
    assert canonical_key(doc.tree) == canonical_key(v.tree)
    assert np.allclose(doc.assignment, v.assignment)
    assert doc.parties == m.party_names
    assert doc.dims == m.dims


def test_protocol_roundtrip_impossible():
    m = load_fixture("domino9")
    v = synthesize(m)
    s = serialize_protocol(v, m)
    doc = parse_protocol(s)
    assert doc.verdict == "ProvedImpossible"
    assert doc.tree is None and doc.assignment is None
    assert doc.stats.rounds == 2


def test_parse_protocol_rejects_other_documents():
    with pytest.raises(ParseError):
        parse_protocol("not json at all {")
    with pytest.raises(ParseError):
        parse_protocol(make_doc())


def test_export_dot_cascade5():
    m = load_fixture("cascade5")
    v = synthesize(m)
    dot = export_dot(v.tree, m, v.assignment)
    assert dot == export_dot(v.tree, m, v.assignment)
    assert dot.startswith("digraph protocol {")
    assert dot.endswith("}\n")
    assert "rankdir=LR;" in dot
    assert "{ rank=same; r0; r1; }" in dot
    assert "r0 -> r1 [style=dotted, arrowhead=none];" in dot
    assert dot.count("[shape=") == 10  # 2 root boxes + 8 branch nodes
    assert dot.count("[shape=box") == 2
    assert dot.count("[shape=plaintext") == 5  # one per leaf
    assert "M1" in dot and "B:" in dot


def test_export_dot_symbolic_labels():
    m = load_fixture("productbasis4")
    t = leaf_tree(m, 0)
    dot = export_dot(t, m)
    assert "x0*M1" in dot and "x1*M1" in dot
    bare = export_dot(t)
    assert "x0*op0" in bare


def test_export_dot_escapes_labels_and_party_names():
    m = load_fixture("productbasis4")
    rows = [[m.part(j, a) for a in range(m.P)] for j in range(len(m))]
    odd = SeparableMeasurement(rows, labels=[f'M"{j}\\' for j in range(len(m))],
                               party_names=["A\\", 'B"'])
    v = synthesize(odd)
    dot = export_dot(v.tree, odd, v.assignment)
    literals = re.findall(r'label="((?:[^"\\]|\\.)*)"\]', dot)
    assert len(literals) == dot.count("label=")
    nodes = [root_for(v.tree, a) for a in range(v.tree.P)]
    nodes += [n for n, path in descend(v.tree) if path]
    assert [re.sub(r"\\(.)", r"\1", s) for s in literals] == \
        [_caption(n, odd, v.assignment, odd.party_names) for n in nodes]
