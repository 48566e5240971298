"""JSON documents for measurements and protocols, plus DOT export.

Complex entries are written as [re, im] pairs so documents round-trip exactly.
Serialization is canonical (sorted keys, repr floats), so equal inputs always
produce byte-identical output.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from .errors import InvalidOperatorError, LoccForgeError, ParseError
from .hermitian import PSD_TOL, HermitianOperator, psd_sqrt
from .measurement import KrausProduct, SeparableMeasurement, validate
from .synthesis import SynthesisStats, SynthesisVerdict
from .tree import Node, ProtocolTree, Term, descend, root_for

MEASUREMENT_FORMAT = "loccforge.measurement/1"
PROTOCOL_FORMAT = "loccforge.protocol/1"

_KIND_MAP = {
    "bad-part-count": "shape",
    "dim-mismatch": "shape",
    "no-operators": "shape",
    "zero-part": "not-psd",
    "not-psd": "not-psd",
    "duplicate-product": "duplicate-product",
}


def _encode_complex(z: complex):
    return [float(z.real), float(z.imag)]


def _encode_matrix(mat: np.ndarray):
    return [[_encode_complex(complex(z)) for z in row] for row in np.asarray(mat)]


def _decode_entry(v, where):
    if isinstance(v, (int, float)):
        return complex(v, 0.0)
    if (isinstance(v, list) and len(v) == 2
            and all(isinstance(x, (int, float)) for x in v)):
        return complex(v[0], v[1])
    raise ParseError(f"{where}: matrix entry must be a number or [re, im] pair",
                     kind="shape")


def _decode_matrix(rows, dim, where):
    if not isinstance(rows, list) or len(rows) != dim:
        raise ParseError(f"{where}: expected a {dim}x{dim} matrix", kind="shape")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"{where}: row {i} must have {dim} entries",
                             kind="shape")
        for k, v in enumerate(row):
            out[i, k] = _decode_entry(v, f"{where}[{i}][{k}]")
    return out


@dataclasses.dataclass(frozen=True)
class MeasurementDocument:
    """Parsed form of a measurement file, prior to numerical validation."""

    parties: tuple     # (name, dim) pairs
    operators: tuple   # (label, parts tuple of ndarray, kraus tuple|None)
    meta: dict

    def to_measurement(self, tol: float = PSD_TOL) -> SeparableMeasurement:
        """The measurement; a non-Hermitian part raises a located ParseError.
        Missing Kraus factors beside given ones are the parts' square roots;
        if a part has none at `tol`, validate reports it, so none are kept."""
        ops = tuple(tuple(_hermitian(p, f"operators[{j}].parts[{a}]")
                          for a, p in enumerate(parts))
                    for j, (_, parts, _) in enumerate(self.operators))
        groups = None
        if any(kr is not None for _, _, kr in self.operators):
            try:
                groups = tuple(tuple(map(KrausProduct, kr or (
                    tuple(psd_sqrt(p, tol) for p in parts),)))
                    for _, parts, kr in self.operators)
            except InvalidOperatorError:
                pass
        return SeparableMeasurement(
            ops, labels=tuple(label for label, _, _ in self.operators),
            party_names=tuple(n for n, _ in self.parties), kraus_groups=groups)


def _hermitian(mat, where):
    try:
        return HermitianOperator(mat)
    except InvalidOperatorError as e:
        raise ParseError(f"{where}: {e}", kind="shape") from e


def parse_document(text: str) -> MeasurementDocument:
    """Syntax and shape checks only; no positivity or duplicate scanning."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}",
                         kind="syntax") from e
    if not isinstance(raw, dict):
        raise ParseError("top level must be an object", kind="syntax")
    fmt = raw.get("format", MEASUREMENT_FORMAT)
    if fmt != MEASUREMENT_FORMAT:
        raise ParseError(f"unsupported format tag {fmt!r}", kind="syntax")
    parties = raw.get("parties")
    if not isinstance(parties, list) or not parties:
        raise ParseError("'parties' must be a non-empty list", kind="shape")
    pt = []
    for i, p in enumerate(parties):
        if (not isinstance(p, dict) or not isinstance(p.get("name"), str)
                or not isinstance(p.get("dim"), int) or p["dim"] < 1):
            raise ParseError(f"parties[{i}] needs a string 'name' and a "
                             f"positive integer 'dim'", kind="shape")
        pt.append((p["name"], p["dim"]))
    if len({n for n, _ in pt}) != len(pt):
        raise ParseError("party names must be distinct", kind="shape")
    dims = [d for _, d in pt]
    operators = raw.get("operators")
    if not isinstance(operators, list) or not operators:
        raise ParseError("'operators' must be a non-empty list", kind="shape")
    ops = []
    for j, op in enumerate(operators):
        where = f"operators[{j}]"
        if not isinstance(op, dict):
            raise ParseError(f"{where} must be an object", kind="shape")
        label = op.get("label", f"M{j + 1}")
        if not isinstance(label, str):
            raise ParseError(f"{where}.label must be a string", kind="shape")
        parts = op.get("parts")
        if not isinstance(parts, list) or len(parts) != len(pt):
            raise ParseError(f"{where}.parts must list one matrix per party "
                             f"({len(pt)} expected)", kind="shape")
        mats = tuple(_decode_matrix(mat, dims[a], f"{where}.parts[{a}]")
                     for a, mat in enumerate(parts))
        kraus = op.get("kraus")
        if kraus is not None:
            if not isinstance(kraus, list) or not kraus:
                raise ParseError(f"{where}.kraus must be a non-empty list",
                                 kind="shape")
            prods = []
            for g, prod in enumerate(kraus):
                if not isinstance(prod, list) or len(prod) != len(pt):
                    raise ParseError(f"{where}.kraus[{g}] must list one matrix "
                                     f"per party", kind="shape")
                prods.append(tuple(
                    _decode_matrix(kmat, dims[a], f"{where}.kraus[{g}][{a}]")
                    for a, kmat in enumerate(prod)))
            kraus = tuple(prods)
        ops.append((label, mats, kraus))
    labels = [label for label, _, _ in ops]
    if len(set(labels)) != len(labels):
        raise ParseError("operator labels must be distinct", kind="shape")
    meta = raw.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError("'meta' must be an object", kind="shape")
    return MeasurementDocument(tuple(pt), tuple(ops), meta)


def parse_measurement(text: str, tol: float = PSD_TOL) -> SeparableMeasurement:
    """Parse and fully validate; raises ParseError with a kind on any defect."""
    doc = parse_document(text)
    try:
        m = doc.to_measurement(tol)
    except (LoccForgeError, ValueError) as e:
        raise ParseError(str(e), kind="shape") from e
    diags = validate(m, tol)
    if diags:
        d = diags[0]
        raise ParseError(f"{d.where}: {d.detail}",
                         kind=_KIND_MAP.get(d.kind, "shape"))
    return m


def serialize_measurement(m: SeparableMeasurement, meta=None) -> str:
    doc = {
        "format": MEASUREMENT_FORMAT,
        "parties": [{"name": n, "dim": d}
                    for n, d in zip(m.party_names, m.dims)],
        "operators": [],
        "meta": dict(meta or {}),
    }
    for j in range(len(m.ops)):
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


_REQUIRED = object()


def _field(d, key, where, kind, default=_REQUIRED):
    """d[key] as `kind` (int, float, list or dict), or `default` when the key
    is missing or null. A ParseError names the field when d is not an
    object, a required key is missing, or the value is of another type."""
    name = f"{where}.{key}" if where else key
    if not isinstance(d, dict):
        raise ParseError(f"{where} must be an object", kind="shape")
    if d.get(key) is None and default is not _REQUIRED:
        return default
    if key not in d:
        raise ParseError(f"{name} is missing", kind="shape")
    return _typed(d[key], name, kind)


def _typed(v, name, kind):
    if kind in (list, dict):
        if isinstance(v, kind):
            return v
        expected = "a list" if kind is list else "an object"
    else:
        try:
            return kind(v)
        except (TypeError, ValueError, OverflowError):
            expected = "a number"
    raise ParseError(f"{name} must be {expected}, got {v!r}", kind="shape")


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


def parse_protocol(text: str) -> ProtocolDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}",
                         kind="syntax") from e
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
        verdict=str(raw.get("verdict", "")),
        reason=str(raw.get("reason", "")),
        parties=tuple(_field(raw, "parties", "", list, [])),
        dims=tuple(_typed(d, f"dims[{i}]", int)
                   for i, d in enumerate(_field(raw, "dims", "", list, []))),
        measurement_digest=str(raw.get("measurement_digest", "")),
        stats=stats,
        tree=_tree_from(tree) if tree is not None else None,
        assignment=(np.asarray([_typed(x, f"assignment[{i}]", float)
                                for i, x in enumerate(assignment)])
                    if assignment is not None else None))


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


def export_dot(tree: ProtocolTree, m: SeparableMeasurement | None = None,
               assignment=None, party_names=None) -> str:
    """Left-to-right digraph; P root boxes at the same rank, then the branchings."""
    if party_names is None:
        party_names = (m.party_names if m is not None
                       else tuple(str(a) for a in range(tree.P)))
    lines = ["digraph protocol {", "  rankdir=LR;", "  node [fontsize=10];"]
    for a in range(tree.P):
        r = root_for(tree, a)
        cap = _caption(r, m, assignment, party_names)
        lines.append(f'  r{a} [shape=box, label="{cap}"];')
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
        cap = _caption(n, m, assignment, party_names)
        shape = "ellipse" if n.children else "plaintext"
        lines.append(f'  {nid} [shape={shape}, label="{cap}"];')
        lines.append(f"  {names[id(path[-1])]} -> {nid};")
    lines.append("}")
    return "\n".join(lines) + "\n"
