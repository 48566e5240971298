"""Command line interface.

Exit codes: synthesize returns 0 for a protocol, 2 for a proven impossibility,
3 when a budget ran out, 1 on bad input. check-nogo returns 2 when a witness
was found, 0 when none, and 1 for an incomplete measurement. validate returns
0 only for a clean, complete measurement. lift returns 0 on success.
"""
from __future__ import annotations

import argparse
import functools
import json
import pathlib
import sys

from .config import load_config
from .errors import InfeasibleError, InvalidMeasurementError, LoccForgeError
from .io import (
    _encode_matrix,
    export_dot,
    measurement_digest,
    parse_document,
    parse_measurement,
    parse_protocol,
    serialize_protocol,
)
from .lifting import lift
from .measurement import completeness_certificate, validate
from .nogo import find_partition_witness, find_singular_pair_witness, party_tables
from .synthesis import orderings, synthesize
from .tree import align_weights, leaves, validate_assignment


def _read(path: str) -> str:
    try:
        return pathlib.Path(path).read_text()
    except OSError as e:
        raise LoccForgeError(f"cannot read {path}: {e}") from e


def _write(path: str, text: str) -> None:
    try:
        pathlib.Path(path).write_text(text)
    except OSError as e:
        raise LoccForgeError(f"cannot write {path}: {e}") from e


def _emit(payload: dict, lines: list, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        out.write("\n".join(lines) + "\n")


def _cmd_validate(args, out) -> int:
    cfg = load_config(args.config)
    m = parse_document(_read(args.measurement)).to_measurement(cfg.tol.psd)
    diags = validate(m, cfg.tol.psd)
    complete = False
    residual = None
    if not diags:
        try:
            cert = completeness_certificate(m, cfg.delta, cfg.tol.lp)
            complete = True
            residual = float(cert.residual)
        except InfeasibleError:
            complete = False
    payload = {
        "command": "validate",
        "operators": len(m),
        "parties": [{"name": n, "dim": d} for n, d in zip(m.party_names, m.dims)],
        "diagnostics": [{"kind": d.kind, "where": d.where, "detail": d.detail}
                        for d in diags],
        "complete": complete,
        "completeness_residual": residual,
        "ok": bool(not diags and complete),
    }
    lines = ["measurement: %d operators, parties %s" % (
        len(m), ", ".join(f"{n}({d})" for n, d in zip(m.party_names, m.dims)))]
    if diags:
        lines.append("diagnostics:")
        lines.extend(f"  [{d.kind}] {d.where}: {d.detail}" for d in diags)
    else:
        lines.append("diagnostics: none")
    if complete:
        lines.append("completeness: ok (residual %.3g)" % residual)
    else:
        lines.append("completeness: no strictly positive weights reach the identity"
                     if not diags else "completeness: skipped")
    lines.append("verdict: %s" % ("ok" if payload["ok"] else "rejected"))
    _emit(payload, lines, args.format, out)
    return 0 if payload["ok"] else 1


def _cmd_check_nogo(args, out) -> int:
    cfg = load_config(args.config, {
        "partition_exhaustive_n": args.max_exhaustive,
    })
    m = parse_measurement(_read(args.measurement), cfg.tol.psd)
    # a witness speaks of a measurement; an incomplete one is refused as
    # synthesize refuses it
    try:
        completeness_certificate(m, cfg.delta, cfg.tol.lp)
    except InfeasibleError as e:
        raise InvalidMeasurementError(f"measurement is not complete: {e}") from e
    # both scans share one set of cones, checked at the tolerance the
    # document was validated with, and same-ray tables; a single operator
    # needs none, as neither scan reads them then
    tables = party_tables(m, cfg.tol.lp, cfg.tol.psd) if len(m) > 1 else None
    sp = find_singular_pair_witness(m, cfg.tol.lp, tables=tables)
    scan = find_partition_witness(m, max_exhaustive_n=cfg.partition_exhaustive_n,
                                  tol=cfg.tol.lp, tables=tables)
    pw = scan.witness
    payload = {"command": "check-nogo", "witness": bool(sp or pw)}
    lines = []
    if sp is not None:
        payload["singular_pair"] = {
            "op_index": sp.op_index,
            "label": m.labels[sp.op_index],
            "parties": [m.party_names[a] for a in sp.parties],
        }
        lines.append("singular-pair witness: operator %d (%s), parties %s" % (
            sp.op_index, m.labels[sp.op_index],
            ", ".join(m.party_names[a] for a in sp.parties)))
    else:
        payload["singular_pair"] = None
        lines.append("singular-pair witness: none")
    if pw is not None:
        s1 = sorted(pw.partition[0])
        payload["partition"] = {
            "s1": s1,
            "s1_labels": [m.labels[j] for j in s1],
            "parties": [m.party_names[a] for a in pw.parties],
            "exhaustive": scan.exhaustive,
        }
        lines.append("partition witness: S1 = {%s}, parties %s (%s scan)" % (
            ", ".join(m.labels[j] for j in s1),
            ", ".join(m.party_names[a] for a in pw.parties),
            "exhaustive" if scan.exhaustive else "partial"))
    else:
        payload["partition"] = None
        lines.append("partition witness: none (%s scan)"
                     % ("exhaustive" if scan.exhaustive else "partial"))
    lines.append("verdict: %s"
                 % ("impossible-by-witness" if payload["witness"] else "no-witness"))
    _emit(payload, lines, args.format, out)
    return 2 if payload["witness"] else 0


def _cmd_synthesize(args, out) -> int:
    cfg = load_config(args.config, {
        "rounds": args.rounds,
        "delta": args.delta,
        "max_lps": args.max_lps,
        "max_trees": args.max_trees,
        "mode": "exhaustive" if args.exhaustive else None,
    })
    m = parse_measurement(_read(args.measurement), cfg.tol.psd)
    verdict = synthesize(m, cfg)
    orders = orderings(verdict, m.party_names)
    payload = {
        "command": "synthesize",
        "verdict": verdict.kind,
        "reason": verdict.reason,
        "stats": verdict.stats.as_dict(),
        "orderings": [list(s) for s in orders],
        "alternates": max(0, len(verdict.protocols) - 1),
    }
    lines = ["verdict: %s" % verdict.kind, "reason: %s" % verdict.reason,
             "rounds: %d  trees: %d  lps: %d  classes: %d" % (
                 verdict.stats.rounds, verdict.stats.trees_built,
                 verdict.stats.lps_solved, verdict.stats.classes_found)]
    if verdict.tree is not None:
        w, residual = align_weights(verdict.tree, m, verdict.assignment)
        payload["leaves"] = len(leaves(verdict.tree)) or 1
        payload["depth"] = verdict.tree.depth
        payload["weights"] = {m.labels[j]: float(w[j]) for j in range(len(m))}
        payload["weight_residual"] = float(residual)
        lines.append("protocol: %d leaves, depth %d"
                     % (payload["leaves"], payload["depth"]))
        lines.append("orderings: " + "; ".join(
            ",".join(s) if s else "(none)"
            for s in orders))
        lines.append("weights: " + "  ".join(
            "%s %.6g" % (m.labels[j], float(w[j])) for j in range(len(m))))
        if payload["alternates"]:
            lines.append("alternates: %d" % payload["alternates"])
    else:
        payload["leaves"] = None
        payload["depth"] = None
        payload["weights"] = None
        payload["weight_residual"] = None
    if args.dot and verdict.tree is not None:
        _write(args.dot, export_dot(verdict.tree, m, verdict.assignment))
        lines.append("dot: %s" % args.dot)
    if args.save:
        _write(args.save, serialize_protocol(verdict, m))
        lines.append("saved: %s" % args.save)
    _emit(payload, lines, args.format, out)
    return {"Protocol": 0, "ProvedImpossible": 2, "BudgetExhausted": 3}[verdict.kind]


def _cmd_lift(args, out) -> int:
    cfg = load_config(args.config)
    m = parse_measurement(_read(args.measurement), cfg.tol.psd)
    doc = parse_protocol(_read(args.protocol))
    if doc.tree is None or doc.assignment is None:
        raise LoccForgeError("protocol document carries no tree to lift")
    if doc.measurement_digest != measurement_digest(m):
        raise LoccForgeError("protocol was synthesized for a different measurement")
    if not validate_assignment(doc.tree, m, doc.assignment, pin_identities=True,
                               tol=cfg.tol.lp):
        raise LoccForgeError("saved protocol fails revalidation on this measurement")
    lifted = lift(doc.tree, doc.assignment, m, cfg.tol.lp)
    payload = {
        "command": "lift",
        "extra_round": lifted.extra_round,
        "tails": [],
    }
    lines = ["extra coin round: %s" % ("yes" if lifted.extra_round else "no")]
    for tail in lifted.tails:
        payload["tails"].append({
            "leaf": tail.leaf_id,
            "op_index": tail.op_index,
            "label": m.labels[tail.op_index],
            "coin_round": tail.coin_round,
            "khat_scale": float(tail.khat_scale),
            "khat_parts": [_encode_matrix(k) for k in tail.khat_parts],
            "entries": [{
                "kraus_index": e.kraus_index,
                "probability": float(e.probability),
                "unitaries": [_encode_matrix(u) for u in e.unitaries],
            } for e in tail.entries],
        })
        lines.append("leaf %d -> %s (scale %.6g, coin %s)" % (
            tail.leaf_id, m.labels[tail.op_index], tail.khat_scale,
            "yes" if tail.coin_round else "no"))
        for e in tail.entries:
            lines.append("  entry %d: p = %.6g" % (e.kraus_index, e.probability))
    _emit(payload, lines, args.format, out)
    return 0


def _add_common(p):
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--config", default=None,
                   help="JSON config file (default: $LOCCFORGE_CONFIG if set)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by every
    `main` call; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="loccforge",
        description="Synthesize finite local measurement protocols for "
                    "separable quantum measurements, or prove none exists.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a measurement document")
    p.add_argument("measurement")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check-nogo", help="scan for impossibility witnesses")
    p.add_argument("measurement")
    p.add_argument("--max-exhaustive", type=int, default=None,
                   help="largest operator count scanned over all bipartitions")
    _add_common(p)
    p.set_defaults(func=_cmd_check_nogo)

    p = sub.add_parser("synthesize", help="search for a protocol")
    p.add_argument("measurement")
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--exhaustive", action="store_true",
                   help="collect every protocol of the first successful round")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--max-lps", type=int, default=None)
    p.add_argument("--max-trees", type=int, default=None)
    p.add_argument("--dot", default=None, help="write the protocol as DOT")
    p.add_argument("--save", default=None, help="write the protocol as JSON")
    _add_common(p)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("lift", help="recover Kraus tails along a saved protocol")
    p.add_argument("measurement")
    p.add_argument("--protocol", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_lift)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except LoccForgeError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
