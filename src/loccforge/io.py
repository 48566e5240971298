"""JSON documents for measurements and protocols, plus DOT export.

Complex entries are written as [re, im] pairs so documents round-trip exactly.
Serialization is canonical (sorted keys, repr floats), so equal inputs always
produce byte-identical output.

The parser checks a measurement document's syntax and each part's shape;
`SeparableMeasurement` checks each party's parts for hermiticity as one
stack, and the first part in document order that fails is the error.
Positivity and duplicates are `validate`'s.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np

from .errors import InvalidOperatorError, ParseError
from .hermitian import PSD_TOL, psd_sqrt
from .measurement import KrausProduct, SeparableMeasurement, validate
from .synthesis import SynthesisStats, SynthesisVerdict
from .tree import Node, ProtocolTree, Term, descend, root_for

MEASUREMENT_FORMAT = "loccforge.measurement/1"
PROTOCOL_FORMAT = "loccforge.protocol/1"

_KIND_MAP = {
    "zero-part": "not-psd",
    "not-psd": "not-psd",
    "duplicate-product": "duplicate-product",
}


def _encode_matrix(mat: np.ndarray):
    m = np.asarray(mat, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


_REQUIRED = object()


def _field(d, key, where, kind, default=_REQUIRED):
    """d[key] checked by `_typed`, or `default` when the key is missing or
    null. A ParseError names the field when d is not an object, a required
    key is missing, or the value is of another type."""
    name = f"{where}.{key}" if where else key
    if not isinstance(d, dict):
        raise ParseError(f"{where} must be an object", kind="shape")
    if d.get(key) is None and default is not _REQUIRED:
        return default
    if key not in d:
        raise ParseError(f"{name} is missing", kind="shape")
    return _typed(d[key], name, kind)


_EXPECTED = {list: "a list", dict: "an object", str: "a string"}
# a rejected value is quoted up to this many characters
_QUOTED = 40


def _shown(v):
    """repr(v), cut to _QUOTED characters ending in an ellipsis."""
    text = repr(v)
    return text if len(text) <= _QUOTED else text[:_QUOTED - 3] + "..."


def _typed(v, name, kind):
    """v if it is a `kind`: a list, dict or str, or else a number by
    `_number`, and an integer when `kind` is int."""
    if kind in _EXPECTED:
        if isinstance(v, kind):
            return v
        raise ParseError(f"{name} must be {_EXPECTED[kind]}, got {_shown(v)}",
                         kind="shape")
    v = _number(v, name)
    if kind is int and not isinstance(v, int):
        raise ParseError(f"{name} must be an integer, got {_shown(v)}",
                         kind="shape")
    return kind(v)


def _number(v, name):
    """v if it is an int or float, not a bool, and finite as a float."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ParseError(f"{name} must be a number, got {_shown(v)}",
                         kind="shape")
    try:
        if math.isfinite(v):
            return v
    except OverflowError:   # an int beyond the float range
        pass
    raise ParseError(f"{name} must be a finite number, got {_shown(v)}",
                     kind="shape")


def _nonempty(d, key, where, default=_REQUIRED):
    """A list field that, when given, has an entry."""
    v = _field(d, key, where, list, default)
    if v == []:
        name = f"{where}.{key}" if where else key
        raise ParseError(f"{name} must not be empty", kind="shape")
    return v


def _load(text, read, *args):
    """read(the JSON value of text, *args). Bad JSON, and nesting too deep
    for the stack in the JSON or in `read`, are a ParseError of kind syntax."""
    try:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}",
                             kind="syntax") from e
        except ValueError as e:     # an int literal past the digit limit
            raise ParseError("integer literal is too long", kind="syntax") from e
        return read(raw, *args)
    except RecursionError as e:
        raise ParseError("document is nested too deeply", kind="syntax") from e


def _decode_entry(v, where):
    """A matrix entry: a number, or an [re, im] pair of numbers."""
    re, im = v if isinstance(v, list) and len(v) == 2 else (v, 0.0)
    return complex(_number(re, where), _number(im, where))


def _entries(v, n, name):
    """v if it is a list of n entries."""
    if len(_typed(v, name, list)) != n:
        raise ParseError(f"{name} must have {n} entries, got {len(v)}",
                         kind="shape")
    return v


def _decode_matrix(rows, dim, where):
    return np.array([[_decode_entry(v, f"{where}[{i}][{k}]")
                      for k, v in enumerate(_entries(row, dim, f"{where}[{i}]"))]
                     for i, row in enumerate(_entries(rows, dim, where))],
                    dtype=complex)


def _decode_parts(mats, dims, where):
    """One matrix per party, of that party's dimension."""
    return tuple(_decode_matrix(mat, d, f"{where}[{a}]") for a, (mat, d)
                 in enumerate(zip(_entries(mats, len(dims), where), dims)))


def _measurement_from(raw, tol):
    if not isinstance(raw, dict):
        raise ParseError("top level must be an object", kind="syntax")
    fmt = raw.get("format", MEASUREMENT_FORMAT)
    if fmt != MEASUREMENT_FORMAT:
        raise ParseError(f"unsupported format tag {fmt!r}", kind="syntax")
    names, dims = [], []
    for i, p in enumerate(_nonempty(raw, "parties", "")):
        names.append(_field(p, "name", f"parties[{i}]", str))
        dims.append(_field(p, "dim", f"parties[{i}]", int))
        if dims[-1] < 1:
            raise ParseError(f"parties[{i}].dim must be positive, got {dims[-1]}",
                             kind="shape")
    if len(set(names)) != len(names):
        raise ParseError("party names must be distinct", kind="shape")
    labels, parts, kraus = [], [], []
    for j, op in enumerate(_nonempty(raw, "operators", "")):
        where = f"operators[{j}]"
        labels.append(_field(op, "label", where, str, f"M{j + 1}"))
        parts.append(_decode_parts(_field(op, "parts", where, list), dims,
                                   f"{where}.parts"))
        kr = _nonempty(op, "kraus", where, None)
        kraus.append(kr and tuple(
            _decode_parts(prod, dims, f"{where}.kraus[{g}]")
            for g, prod in enumerate(kr)))
    if len(set(labels)) != len(labels):
        raise ParseError("operator labels must be distinct", kind="shape")
    _field(raw, "meta", "", dict, None)
    # missing Kraus factors beside given ones are the parts' square roots; if
    # a part has none at `tol`, validate reports it, so none are kept
    groups = None
    if any(kraus):
        try:
            groups = tuple(tuple(map(KrausProduct, kr or (
                tuple(psd_sqrt(p, tol) for p in mats),)))
                for mats, kr in zip(parts, kraus))
        except InvalidOperatorError:
            pass
    try:
        return SeparableMeasurement(parts, labels=tuple(labels),
                                    party_names=tuple(names), kraus_groups=groups)
    except InvalidOperatorError as e:   # a part that is not Hermitian
        raise ParseError(str(e), kind="shape") from e


def parse_document(text: str, tol: float = PSD_TOL) -> SeparableMeasurement:
    """The measurement a document describes, unvalidated: syntax and shape
    are checked, positivity and duplicates are left to `validate`. A part
    that is not Hermitian is a ParseError naming it."""
    return _load(text, _measurement_from, tol)


def parse_measurement(text: str, tol: float = PSD_TOL) -> SeparableMeasurement:
    """Parse and fully validate; raises ParseError with a kind on any defect."""
    m = parse_document(text, tol)
    diags = validate(m, tol)
    if diags:
        d = diags[0]
        raise ParseError(f"{d.where}: {d.detail}",
                         kind=_KIND_MAP[d.kind])
    return m


def serialize_measurement(m: SeparableMeasurement, meta=None) -> str:
    doc = {
        "format": MEASUREMENT_FORMAT,
        "parties": [{"name": n, "dim": d}
                    for n, d in zip(m.party_names, m.dims)],
        "operators": [],
        "meta": dict(meta or {}),
    }
    for j in range(len(m)):
        entry = {
            "label": m.labels[j],
            "parts": [_encode_matrix(m.part(j, a)) for a in range(m.P)],
        }
        if m.kraus_groups is not None:
            entry["kraus"] = [[_encode_matrix(k) for k in prod.parts]
                              for prod in m.kraus_groups[j]]
        doc["operators"].append(entry)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def measurement_digest(m: SeparableMeasurement) -> str:
    body = serialize_measurement(m, meta={})
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _term_doc(t: Term):
    return {"op": t.op, "var": t.var, "scale": float(t.scale)}


def _group_doc(g):
    return [_term_doc(t) for t in g]


def _node_doc(n: Node):
    return {"party": n.party,
            "groups": [_group_doc(g) for g in n.groups],
            "children": [_node_doc(c) for c in n.children]}


def _term_from(d, where):
    return Term(_field(d, "op", where, int), _field(d, "var", where, int),
                _field(d, "scale", where, float, 1.0))


def _group_from(g, where):
    return tuple(_term_from(t, f"{where}[{i}]")
                 for i, t in enumerate(_typed(g, where, list)))


def _node_from(d, where):
    groups = tuple(_group_from(g, f"{where}.groups[{i}]")
                   for i, g in enumerate(_field(d, "groups", where, list, [])))
    children = tuple(_node_from(c, f"{where}.children[{i}]")
                     for i, c in enumerate(_field(d, "children", where, list, [])))
    if "party" not in d or not groups:
        raise ParseError(f"{where} needs a party and at least one group",
                         kind="shape")
    return Node(_field(d, "party", where, int), groups, children)


def _tree_doc(t: ProtocolTree):
    return {
        "P": t.P,
        "nvars": t.nvars,
        "depth": t.depth,
        "roots": [_node_doc(r) for r in t.roots],
    }


def _tree_from(d):
    """The tree of a protocol document. Its equalities are its nodes' alias
    groups; a `constraints` list, which older documents carry and which only
    restated those groups, is ignored."""
    roots = tuple(_node_from(r, f"tree.roots[{i}]")
                  for i, r in enumerate(_field(d, "roots", "tree", list, [])))
    return ProtocolTree(_field(d, "P", "tree", int), roots,
                        _field(d, "nvars", "tree", int), _field(d, "depth", "tree", int))


@dataclasses.dataclass(frozen=True)
class ProtocolDocument:
    verdict: str
    reason: str
    parties: tuple
    dims: tuple
    measurement_digest: str
    stats: SynthesisStats
    tree: ProtocolTree | None
    assignment: np.ndarray | None


def serialize_protocol(verdict: SynthesisVerdict, m: SeparableMeasurement) -> str:
    doc = {
        "format": PROTOCOL_FORMAT,
        "verdict": verdict.kind,
        "reason": verdict.reason,
        "rounds": verdict.stats.rounds,
        "parties": list(m.party_names),
        "dims": list(m.dims),
        "measurement_digest": measurement_digest(m),
        "stats": verdict.stats.as_dict(),
        "alternates": max(0, len(verdict.protocols) - 1),
        "tree": _tree_doc(verdict.tree) if verdict.tree is not None else None,
        "assignment": ([float(x) for x in verdict.assignment]
                       if verdict.assignment is not None else None),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _protocol_from(raw):
    if not isinstance(raw, dict) or raw.get("format") != PROTOCOL_FORMAT:
        raise ParseError("not a protocol document", kind="syntax")
    stats_raw = _field(raw, "stats", "", dict, {})
    stats = SynthesisStats(
        rounds=_field(stats_raw, "rounds", "stats", int,
                      _field(raw, "rounds", "", int, 0)),
        trees_built=_field(stats_raw, "trees_built", "stats", int, 0),
        lps_solved=_field(stats_raw, "lps_solved", "stats", int, 0),
        classes_found=_field(stats_raw, "classes_found", "stats", int, 0))
    tree = raw.get("tree")
    assignment = _field(raw, "assignment", "", list, None)
    return ProtocolDocument(
        verdict=_field(raw, "verdict", "", str, ""),
        reason=_field(raw, "reason", "", str, ""),
        parties=tuple(_typed(n, f"parties[{i}]", str)
                      for i, n in enumerate(_field(raw, "parties", "", list, []))),
        dims=tuple(_typed(d, f"dims[{i}]", int)
                   for i, d in enumerate(_field(raw, "dims", "", list, []))),
        measurement_digest=_field(raw, "measurement_digest", "", str, ""),
        stats=stats,
        tree=_tree_from(tree) if tree is not None else None,
        assignment=(np.asarray([_typed(x, f"assignment[{i}]", float)
                                for i, x in enumerate(assignment)])
                    if assignment is not None else None))


def parse_protocol(text: str) -> ProtocolDocument:
    return _load(text, _protocol_from)


def _caption(node: Node, m: SeparableMeasurement, assignment, party_names):
    name = party_names[node.party]
    parts = []
    for g in node.groups:
        terms = []
        for t in g:
            label = m.labels[t.op] if m is not None else f"op{t.op}"
            if assignment is not None:
                terms.append("%.6g*%s" % (assignment[t.var] * t.scale, label))
            elif t.scale != 1.0:
                terms.append("%.6g*x%d*%s" % (t.scale, t.var, label))
            else:
                terms.append("x%d*%s" % (t.var, label))
        parts.append(" + ".join(terms))
    return f"{name}: " + " = ".join(parts)


def _quoted(text):
    """text as a DOT string literal."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(tree: ProtocolTree, m: SeparableMeasurement | None = None,
               assignment=None, party_names=None) -> str:
    """Left-to-right digraph; P root boxes at the same rank, then the branchings."""
    if party_names is None:
        party_names = (m.party_names if m is not None
                       else tuple(str(a) for a in range(tree.P)))
    lines = ["digraph protocol {", "  rankdir=LR;", "  node [fontsize=10];"]
    for a in range(tree.P):
        r = root_for(tree, a)
        cap = _quoted(_caption(r, m, assignment, party_names))
        lines.append(f"  r{a} [shape=box, label={cap}];")
    lines.append("  { rank=same; " + "; ".join(f"r{a}" for a in range(tree.P))
                 + "; }")
    for a in range(tree.P - 1):
        lines.append(f"  r{a} -> r{a + 1} [style=dotted, arrowhead=none];")
    names = {}
    for k, (n, path) in enumerate(descend(tree)):
        if not path:
            names[id(n)] = f"r{n.party}"
            continue
        nid = names[id(n)] = f"n{k - 1}"
        cap = _quoted(_caption(n, m, assignment, party_names))
        shape = "ellipse" if n.children else "plaintext"
        lines.append(f"  {nid} [shape={shape}, label={cap}];")
        lines.append(f"  {names[id(path[-1])]} -> {nid};")
    lines.append("}")
    return "\n".join(lines) + "\n"
