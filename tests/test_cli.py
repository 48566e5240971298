import inspect
import json
import pathlib
import re
import sys

import numpy as np
import pytest

from loccforge import (
    cli, hermitian, io, lifting, measurement, nogo, simplex, synthesis)
from loccforge.cli import main
from loccforge.config import RunConfig
from loccforge.errors import InvalidMeasurementError, ParseError
from loccforge.hermitian import PSD_TOL
from loccforge.io import (
    measurement_digest,
    parse_document,
    parse_measurement,
    parse_protocol,
    serialize_measurement,
)
from loccforge.measurement import measurement_from_parts
from loccforge.synthesis import SynthesisStats, _search, admit, synthesize
from loccforge.tree import align_weights

from conftest import (
    FIXTURE_DIR,
    load_fixture,
    locc_random_measurements,
    product_basis,
)


def fx(name):
    return str(FIXTURE_DIR / f"{name}.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", fx("cascade5"))
    assert code == 0
    assert "verdict: ok" in out and err == ""


def test_validate_json_payload(capsys):
    code, out, _ = run(capsys, "validate", fx("cascade5"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["complete"]
    assert payload["operators"] == 5
    assert payload["diagnostics"] == []
    assert payload["completeness_residual"] <= 1e-8


def test_validate_incomplete_rejected(capsys):
    code, out, _ = run(capsys, "validate", fx("fourparty_mismatch"),
                       "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["diagnostics"] == [] and not payload["complete"]


def test_validate_structural_reject(tmp_path, capsys):
    bad = measurement_from_parts(
        [[np.diag([1.0, -0.3]), np.eye(2)], [np.eye(2), np.eye(2)]])
    p = tmp_path / "bad.json"
    p.write_text(serialize_measurement(bad))
    code, out, _ = run(capsys, "validate", str(p), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert any(d["kind"] == "not-psd" for d in payload["diagnostics"])


def test_validate_names_a_duplicate_of_a_tiny_part(tmp_path, capsys):
    """A part whose largest entry lies between the zero-part tolerance and
    1e-8 is compared at validate's own tolerance, not raised on."""
    p0, p1, eye = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2)
    m = measurement_from_parts(
        [[p0, (1 - 5e-9) * eye], [p0, 5e-9 * eye], [p1, eye]])
    p = tmp_path / "tiny.json"
    p.write_text(serialize_measurement(m))
    code, out, err = run(capsys, "validate", str(p))
    assert code == 1 and err == ""
    assert ("  [duplicate-product] operators[1]: product proportional to "
            "operators[0]") in out.splitlines()


EYE2 = [[1, 0], [0, 1]]


def write_document(tmp_path, operators):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({
        "parties": [{"name": "A", "dim": 2}, {"name": "B", "dim": 2}],
        "operators": operators}))
    return str(p)


@pytest.mark.parametrize("command", ["validate", "check-nogo"])
def test_non_hermitian_part_is_located(tmp_path, capsys, command):
    doc = write_document(tmp_path, [{"parts": [[[1, 1], [0, 1]], EYE2]},
                                    {"parts": [EYE2, EYE2]}])
    code, out, err = run(capsys, command, doc)
    assert (code, out) == (1, "")
    assert err == ("error: operators[0].parts[0]: matrix is not Hermitian "
                   "within tolerance\n")
    with pytest.raises(ParseError) as e:
        parse_measurement(pathlib.Path(doc).read_text())
    assert e.value.kind == "shape"


@pytest.mark.parametrize("command", ["validate", "check-nogo"])
def test_kraus_backfill_keeps_the_not_psd_diagnostic(tmp_path, capsys,
                                                     command):
    """A part with no square root is reported where it is, whether or not
    another operator carries Kraus factors."""
    reports = []
    for kraus in ({"kraus": [[EYE2, EYE2]]}, {}):
        doc = write_document(tmp_path, [{"parts": [EYE2, EYE2], **kraus},
                                        {"parts": [[[1, 0], [0, -1]], EYE2]}])
        reports.append(run(capsys, command, doc))
    assert reports[0] == reports[1]
    code, out, err = reports[0]
    assert code == 1
    located = "operators[1].parts[0]: local part has a negative eigenvalue"
    if command == "validate":
        assert f"  [not-psd] {located}" in out.splitlines() and err == ""
    else:
        assert err == f"error: {located}\n"


@pytest.mark.parametrize("config, operators", [
    # not PSD at the default 1e-9, PSD at the configured 1e-7
    ({"psd": 1e-7}, [[np.diag([1.0, -5e-9]), np.eye(2)],
                     [np.diag([0.0, 1.0 + 5e-9]), np.eye(2)]]),
    # above the default psd tolerance, below the default lp one
    ({}, [[np.diag([1.0, 0.0]), np.eye(2)],
          [np.diag([0.0, 1.0]), 5e-9 * np.eye(2)]]),
], ids=["configured-psd", "tiny-part"])
def test_check_nogo_accepts_what_validate_accepts(tmp_path, capsys, config,
                                                  operators):
    """check-nogo's cones check the parts at the tolerance validate used."""
    doc = tmp_path / "m.json"
    doc.write_text(serialize_measurement(measurement_from_parts(operators)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    flags = ("--config", str(cfg))
    assert run(capsys, "validate", str(doc), *flags)[0] == 0
    assert run(capsys, "synthesize", str(doc), *flags)[0] == 0
    code, out, err = run(capsys, "check-nogo", str(doc), *flags)
    assert (code, err) == (0, "")
    assert out.endswith("verdict: no-witness\n")


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/m.json")
    assert code == 1 and "error:" in err


def test_check_nogo_witness(capsys):
    code, out, _ = run(capsys, "check-nogo", fx("domino9"), "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["witness"]
    assert payload["singular_pair"]["op_index"] == 0
    assert payload["singular_pair"]["label"] == "M1"
    assert payload["partition"]["s1"] == [0]
    assert payload["partition"]["exhaustive"]


def test_check_nogo_clean(capsys):
    code, out, _ = run(capsys, "check-nogo", fx("productbasis4"))
    assert code == 0
    assert "no-witness" in out


def test_check_nogo_refuses_an_incomplete_measurement(capsys):
    """check-nogo runs synthesize's completeness LP and fails the same way,
    in either format; `admit` and `synthesize` raise that error, without
    diagnostics."""
    nogo_run = run(capsys, "check-nogo", fx("fourparty_mismatch"))
    synth_run = run(capsys, "synthesize", fx("fourparty_mismatch"))
    assert nogo_run == synth_run
    for cmd in ("check-nogo", "synthesize"):
        assert run(capsys, cmd, fx("fourparty_mismatch"), "--format", "json") == nogo_run
    assert nogo_run[:2] == (1, "")
    assert nogo_run[2].startswith("error: measurement is not complete: ")
    m = load_fixture("fourparty_mismatch")
    for call in (lambda: admit(m, RunConfig()), lambda: synthesize(m)):
        with pytest.raises(InvalidMeasurementError) as e:
            call()
        assert (f"error: {e.value}\n", e.value.diagnostics) == (nogo_run[2], [])


def test_check_nogo_partial_scan_flag(capsys):
    code, out, _ = run(capsys, "check-nogo", fx("domino9"),
                       "--max-exhaustive", "4", "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["partition"]["exhaustive"] is False


def check_nogo_text(payload):
    """The text report check-nogo prints for its JSON report."""
    sp, pw = payload["singular_pair"], payload["partition"]
    extent = "exhaustive" if payload["partition_exhaustive"] else "partial"
    return "\n".join([
        "singular-pair witness: none" if sp is None else
        "singular-pair witness: operator %d (%s), parties %s"
        % (sp["op_index"], sp["label"], ", ".join(sp["parties"])),
        "partition witness: none (%s scan)" % extent if pw is None else
        "partition witness: S1 = {%s}, parties %s (%s scan)"
        % (", ".join(pw["s1_labels"]), ", ".join(pw["parties"]), extent),
        "verdict: %s" % ("impossible-by-witness" if payload["witness"]
                         else "no-witness")]) + "\n"


@pytest.mark.parametrize("flags", [(), ("--max-exhaustive", "2")],
                         ids=["default", "max-exhaustive-2"])
def test_check_nogo_text_and_json_agree(capsys, flags):
    """Every fixture's JSON report says what its text report says, the
    partition scan's extent included, whether or not it found a witness.
    Under the cap of 2 the scan is exhaustive only on 2 operators."""
    found = set()
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        code, text, err = run(capsys, "check-nogo", str(path), *flags)
        jcode, out, jerr = run(capsys, "check-nogo", str(path), *flags,
                               "--format", "json")
        assert (jcode, jerr) == (code, err), path.name
        if code == 1:
            assert (text, out) == ("", ""), path.name
            continue
        payload = json.loads(out)
        assert check_nogo_text(payload) == text, path.name
        if payload["partition"] is not None:
            assert (payload["partition"]["exhaustive"]
                    == payload["partition_exhaustive"]), path.name
        assert payload["partition_exhaustive"] == (
            not flags or len(load_fixture(path.stem)) <= 2), path.name
        found.add((payload["partition"] is None, payload["partition_exhaustive"]))
    # a miss and a witness, each at the extent the cap gives most fixtures
    assert {(True, not flags), (False, not flags)} <= found


def test_check_nogo_config_tolerance_reaches_both_scans(tmp_path, capsys,
                                                       monkeypatch):
    seen = []

    def spy(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            seen.append((name, kwargs.get("tol", args[-1])))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    spy(cli, "find_singular_pair_witness")
    spy(cli, "find_partition_witness")
    spy(nogo, "member")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lp": 1e-6}))
    code, _, _ = run(capsys, "check-nogo", fx("domino9"), "--config", str(cfg))
    assert code == 2
    names = {name for name, _ in seen}
    assert names == {"find_singular_pair_witness", "find_partition_witness",
                     "member"}
    assert all(tol == 1e-6 for _, tol in seen)


def test_simplex_guard_is_a_reported_error(capsys, monkeypatch):
    monkeypatch.setattr(simplex, "_ITER_FACTOR", 0)
    code, out, err = run(capsys, "synthesize", fx("cascade5"))
    assert code == 1 and out == ""
    assert err.startswith("error: simplex iteration guard tripped")


def synthesize_json(tmp_path, capsys, m, *flags):
    doc = tmp_path / "m.json"
    doc.write_text(serialize_measurement(m))
    code, out, _ = run(capsys, "synthesize", str(doc), "--format", "json",
                       *flags)
    return code, json.loads(out)


@pytest.mark.parametrize("n, lps", [(7, 8), (8, 9)])
def test_one_sided_measurement_is_a_protocol(tmp_path, capsys, n, lps):
    """A holds the identity and B measures an n-outcome basis, so B alone
    implements it in one round: the split at B finds it with no LP, and no
    subset size cuts the cover search that finds it too."""
    m = measurement_from_parts([[np.eye(2), np.diag(np.eye(n)[i])]
                                for i in range(n)])
    code, payload = synthesize_json(tmp_path, capsys, m)
    assert (code, payload["verdict"]) == (0, "Protocol")
    assert payload["reason"] == f"split at party B into {n} branches"
    assert (payload["stats"]["rounds"], payload["stats"]["lps_solved"]) == (1, 0)
    assert payload["weight_residual"] <= 1e-9
    v = _search(m, RunConfig(), SynthesisStats())
    assert (v.kind, v.stats.rounds, v.stats.lps_solved) == ("Protocol", 1, lps)


def test_random_tree_29_gets_its_weights(tmp_path, capsys):
    """Seed 29 has operators with proportional products, and the search's
    protocol for it has leaves at the delta floor; each leaf of the protocol
    synthesize reports is weighed against the operator it names."""
    m = locc_random_measurements()[29]
    code, payload = synthesize_json(tmp_path, capsys, m, "--max-lps", "2000")
    assert (code, payload["verdict"]) == (0, "Protocol")
    assert payload["weight_residual"] < 1e-9


def test_quotient_protocols_report_unit_weights(tmp_path, capsys):
    """The LOCC random trees get the last-mover quotient's protocols (the
    search's one pinned LP for a single operator), which implement the
    document's unit weights: `weight_error`, the largest |w_j - 1|, is
    within lp."""
    lp = RunConfig().tol.lp
    for s, m in locc_random_measurements().items():
        code, payload = synthesize_json(tmp_path, capsys, m, "--max-lps", "2000")
        assert (code, payload["verdict"]) == (0, "Protocol"), s
        assert payload["weight_error"] <= lp, s
        assert payload["weight_error"] == max(
            abs(w - 1.0) for w in payload["weights"].values()), s


def test_search_protocol_reports_its_weight_error(tmp_path, capsys):
    """cascade5 with M1 doubled completes only at w_1 = 1/2, and the search
    answers it: `weight_error` is the largest |w_j - 1| of align_weights'
    weights, and the text report shows it on one line."""
    base = load_fixture("cascade5")
    m = measurement_from_parts(
        [[(2.0 if (j, a) == (0, 0) else 1.0) * base.part(j, a)
          for a in range(base.P)] for j in range(len(base))])
    v = synthesize(m)
    assert v.reason == "protocol found in round 4"
    w, _ = align_weights(v.tree, m, v.assignment)
    want = float(np.abs(w - 1.0).max())
    assert abs(want - 0.5) < 1e-9
    code, payload = synthesize_json(tmp_path, capsys, m)
    assert (code, payload["weight_error"]) == (0, want)
    code, out, _ = run(capsys, "synthesize", str(tmp_path / "m.json"))
    assert code == 0 and "weight error: %.3g" % round(want, 12) in out.splitlines()


def test_synthesize_protocol(capsys):
    code, out, _ = run(capsys, "synthesize", fx("cascade5"),
                       "--rounds", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Protocol"
    assert payload["stats"]["rounds"] == 4
    assert payload["leaves"] == 5
    assert payload["weight_residual"] <= 1e-8
    assert set(payload["weights"]) == {f"M{j}" for j in range(1, 6)}
    assert all(abs(w - 1.0) < 1e-9 for w in payload["weights"].values())
    assert payload["orderings"][-1] == ["B", "A", "B", "A"]


def test_synthesize_impossible(capsys):
    code, out, _ = run(capsys, "synthesize", fx("domino9"), "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["verdict"] == "ProvedImpossible"
    assert payload["leaves"] is None
    assert payload["weight_error"] is None


def test_synthesize_budget(capsys):
    code, out, _ = run(capsys, "synthesize", fx("cascade5"), "--rounds", "1",
                       "--format", "json")
    assert code == 3
    assert json.loads(out)["verdict"] == "BudgetExhausted"


def test_synthesize_split_obeys_max_trees(capsys):
    """The 2x2 basis splits down to four pinned operators, one tree each:
    under --max-trees 2 it exits 3 with the two trees it built."""
    code, out, _ = run(capsys, "synthesize", fx("productbasis4"), "--max-trees", "2",
                       "--format", "json")
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "BudgetExhausted"
    assert payload["reason"].endswith("tree budget exhausted")
    assert payload["stats"]["trees_built"] == 2


def test_synthesize_search_obeys_max_trees(capsys):
    """domino9 neither splits nor reduces, so the search builds its nine
    leaf trees first: under --max-trees 1 it exits 3 with no tree built and
    no LP solved."""
    code, out, _ = run(capsys, "synthesize", fx("domino9"), "--max-trees", "1",
                       "--format", "json")
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "BudgetExhausted"
    assert payload["reason"] == "tree budget exhausted"
    assert payload["stats"]["trees_built"] <= 1
    assert payload["stats"]["lps_solved"] == 0


def test_synthesize_exhaustive(capsys):
    code, out, _ = run(capsys, "synthesize", fx("productbasis4"),
                       "--exhaustive", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alternates"] == 1
    assert payload["orderings"] == [["A", "B"], ["B", "A"]]


def test_synthesize_save_dot_and_lift(tmp_path, capsys):
    proto = tmp_path / "proto.json"
    dot = tmp_path / "proto.dot"
    code, out, _ = run(capsys, "synthesize", fx("krausdemo"),
                       "--save", str(proto), "--dot", str(dot))
    assert code == 0
    assert proto.exists() and dot.exists()
    assert dot.read_text().startswith("digraph protocol {")
    doc = parse_protocol(proto.read_text())
    assert doc.measurement_digest == measurement_digest(load_fixture("krausdemo"))

    code, out, _ = run(capsys, "lift", fx("krausdemo"),
                       "--protocol", str(proto), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["extra_round"] is True
    by_label = {t["label"]: t for t in payload["tails"]}
    assert by_label["M1"]["coin_round"]
    probs = sorted(e["probability"] for e in by_label["M1"]["entries"])
    assert np.allclose(probs, [0.5, 0.5])


# a krausdemo protocol saved when a tree also listed its equalities under
# `tree.constraints`; each of them restated an alias pair of one node
LEGACY_PROTOCOL = (pathlib.Path(__file__).resolve().parent / "data"
                   / "krausdemo-constraints.protocol.json")


def test_protocol_with_constraints_still_parses_and_lifts(tmp_path, capsys):
    """A document that carries `tree.constraints` parses to the same tree as
    a new save, revalidates, and lifts as the new save does; the new save has
    no such key."""
    proto = tmp_path / "proto.json"
    code, _, _ = run(capsys, "synthesize", fx("krausdemo"), "--save", str(proto))
    assert code == 0
    assert "constraints" not in json.loads(proto.read_text())["tree"]
    assert json.loads(LEGACY_PROTOCOL.read_text())["tree"]["constraints"]
    old, new = (parse_protocol(p.read_text()) for p in (LEGACY_PROTOCOL, proto))
    assert old.tree == new.tree
    assert np.allclose(old.assignment, new.assignment, rtol=1e-12, atol=0)
    lifted = []
    for p in (LEGACY_PROTOCOL, proto):
        code, out, err = run(capsys, "lift", fx("krausdemo"), "--protocol",
                             str(p), "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        lifted.append([(t["label"], t["coin_round"],
                        [e["probability"] for e in t["entries"]])
                       for t in payload["tails"]])
    old_tails, new_tails = lifted
    assert [t[:2] for t in old_tails] == [t[:2] for t in new_tails]
    for (_, _, a), (_, _, b) in zip(old_tails, new_tails):
        assert np.allclose(a, b, rtol=1e-12, atol=0)


def test_save_into_a_missing_directory_is_a_reported_error(tmp_path, capsys):
    target = tmp_path / "missing" / "proto.json"
    code, out, err = run(capsys, "synthesize", fx("krausdemo"),
                         "--save", str(target))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


def test_dot_into_a_missing_directory_is_a_reported_error(tmp_path, capsys):
    target = tmp_path / "missing" / "proto.dot"
    code, out, err = run(capsys, "synthesize", fx("krausdemo"),
                         "--dot", str(target))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


def test_lift_digest_mismatch(tmp_path, capsys):
    proto = tmp_path / "proto.json"
    code, _, _ = run(capsys, "synthesize", fx("krausdemo"), "--save", str(proto))
    assert code == 0
    code, _, err = run(capsys, "lift", fx("cascade5"), "--protocol", str(proto))
    assert code == 1
    assert "different measurement" in err


def run_every_command(capsys, tmp_path, doc):
    """(code, out, err) of validate, check-nogo, synthesize and lift on a
    measurement document; lift reads a protocol saved from krausdemo."""
    meas, proto = tmp_path / "m.json", tmp_path / "proto.json"
    meas.write_text(json.dumps(doc))
    assert run(capsys, "synthesize", fx("krausdemo"), "--save", str(proto))[0] == 0
    return [run(capsys, *argv) for argv in (
        ("validate", str(meas)), ("check-nogo", str(meas)),
        ("synthesize", str(meas)), ("lift", str(meas), "--protocol", str(proto)))]


def assert_refused_alike(capsys, tmp_path, doc, kind, where, detail):
    """validate lists the one diagnostic and every other command exits 1
    with its text, before any search; the library raises it alike."""
    located = f"{where}: {detail}"
    (code, out, err), *rest = run_every_command(capsys, tmp_path, doc)
    assert code == 1 and err == ""
    assert out.splitlines()[1:] == ["diagnostics:", f"  [{kind}] {located}",
                                    "completeness: skipped", "verdict: rejected"]
    for code, out, err in rest:
        assert (code, out, err) == (1, "", f"error: {located}\n")
    text = json.dumps(doc)
    raised = []
    for call in (lambda: parse_measurement(text),
                 lambda: synthesize(parse_document(text)),
                 lambda: admit(parse_document(text), RunConfig())):
        with pytest.raises(InvalidMeasurementError) as e:
            call()
        raised.append((str(e.value), e.value.diagnostics))
    assert [d.kind for d in raised[0][1]] == [kind]
    assert raised == raised[:1] * 3
    assert raised[0][0] == located


def assert_kraus_factor_refused(capsys, tmp_path, factor):
    """krausdemo with operators[0].kraus[0][0] set to factor."""
    doc = json.loads(pathlib.Path(fx("krausdemo")).read_text())
    doc["operators"][0]["kraus"][0][0] = factor
    assert_refused_alike(capsys, tmp_path, doc, "kraus-factor",
                         "operators[0].kraus[0][0]", measurement.KRAUS_OFF)


def test_lift_names_a_zero_kraus_factor(tmp_path, capsys):
    """A zero Kraus factor is checked as lift checks it: every command
    refuses the document, naming the factor."""
    assert_kraus_factor_refused(capsys, tmp_path, [[0, 0], [0, 0]])


def test_commands_name_a_kraus_factor_off_its_part(tmp_path, capsys):
    """operators[0] is diag(1, 0) at party 0, so a factor diag(0, 1) there
    is no factor of it."""
    assert_kraus_factor_refused(capsys, tmp_path, [[0, 0], [0, 1]])


def test_configured_lp_reaches_the_kraus_factor_rule(tmp_path, capsys):
    """A factor diag(1, 3e-4) against the part diag(1, 0) is off by 3e-4:
    refused at the default lp, accepted by every command at lp 1e-6, where
    the protocol it saves lifts."""
    doc = json.loads(pathlib.Path(fx("krausdemo")).read_text())
    doc["operators"][0]["kraus"][0][0] = [[1, 0], [0, 3e-4]]
    assert_refused_alike(capsys, tmp_path, doc, "kraus-factor",
                         "operators[0].kraus[0][0]", measurement.KRAUS_OFF)
    meas, proto, cfg = (tmp_path / n for n in ("m.json", "p.json", "cfg.json"))
    meas.write_text(json.dumps(doc))
    cfg.write_text('{"lp": 1e-6}')
    loose = ("--config", str(cfg))
    assert run(capsys, "validate", str(meas), *loose)[:2] == (0, (
        "measurement: 3 operators, parties A(2), B(2)\ndiagnostics: none\n"
        "completeness: ok (residual 0)\nverdict: ok\n"))
    assert run(capsys, "check-nogo", str(meas), *loose)[0] == 0
    code, out, _ = run(capsys, "synthesize", str(meas), "--save", str(proto), *loose)
    assert code == 0 and out.startswith("verdict: Protocol\n")
    code, out, err = run(capsys, "lift", str(meas), "--protocol", str(proto), *loose)
    assert (code, err) == (0, "") and "leaf 0 -> M1 (scale 1.41421, coin yes)" in out


def test_configured_lp_reaches_align_weights(tmp_path, capsys, monkeypatch):
    """synthesize weighs its protocol's leaves at the configured lp: with
    {"lp": 1e-6} every leaf is checked against its operator at 1e-6, not at
    the default."""
    seen = []
    real = cli.align_weights

    def spy(t, m, assignment, tol=hermitian.LP_TOL):
        seen.append(tol)
        return real(t, m, assignment, tol)

    monkeypatch.setattr(cli, "align_weights", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"lp": 1e-6}')
    code, out, _ = run(capsys, "synthesize", fx("cascade5"), "--config", str(cfg))
    assert code == 0 and out.startswith("verdict: Protocol\n")
    assert seen == [1e-6]


def _set_part(value):
    def edit(doc):
        doc["operators"][2]["parts"][1] = value
    return edit


def _copy_operator_0(doc):
    ops = doc["operators"]
    ops[1].update(parts=ops[0]["parts"], kraus=ops[0]["kraus"])


@pytest.mark.parametrize("edit, kind, where, detail", [
    (_set_part([[1, 0], [0, -1]]), "not-psd", "operators[2].parts[1]",
     measurement.NOT_PSD),
    (_set_part([[1e-12, 0], [0, 0]]), "zero-part", "operators[2].parts[1]",
     measurement.ZERO_PART),
    (_copy_operator_0, "duplicate-product", "operators[1]",
     "product proportional to operators[0]"),
], ids=["not-psd", "zero-part", "duplicate-product"])
def test_every_command_refuses_a_defect_alike(tmp_path, capsys, edit, kind,
                                              where, detail):
    """Each defect validate finds is refused by one gate: the same text from
    every command, and the same error from the library's entry points."""
    doc = json.loads(pathlib.Path(fx("krausdemo")).read_text())
    edit(doc)
    assert_refused_alike(capsys, tmp_path, doc, kind, where, detail)


@pytest.mark.parametrize("field, message", [
    ("parties", "party names must be distinct"),
    ("operators", "operator labels must be distinct"),
])
def test_commands_refuse_repeated_names(tmp_path, capsys, field, message):
    """The constructor refuses repeated party names or labels, so a document
    that repeats one exits 1 from every command, with the constructor's text."""
    doc = json.loads(pathlib.Path(fx("krausdemo")).read_text())
    name = "name" if field == "parties" else "label"
    doc[field][1][name] = doc[field][0][name]
    for code, out, err in run_every_command(capsys, tmp_path, doc):
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_lift_rejects_protocol_without_tree(tmp_path, capsys):
    proto = tmp_path / "none.json"
    code, _, _ = run(capsys, "synthesize", fx("domino9"), "--save", str(proto))
    assert code == 2
    code, _, err = run(capsys, "lift", fx("domino9"), "--protocol", str(proto))
    assert code == 1
    assert "no tree" in err


MALFORMED_PROTOCOLS = [
    ({"tree": {"roots": []}, "assignment": [1.0]}, "tree.P is missing"),
    ({"tree": {"P": "two", "nvars": 1, "depth": 0}},
     "tree.P must be a number, got 'two'"),
    ({"tree": {"P": 2, "depth": 0}}, "tree.nvars is missing"),
    ({"tree": {"P": 2, "nvars": 1}}, "tree.depth is missing"),
    ({"tree": [1, 2]}, "tree must be an object"),
    ({"tree": {"P": 2, "nvars": 1, "depth": 0, "roots": {}}},
     "tree.roots must be a list, got {}"),
    ({"tree": {"P": 2, "nvars": 1, "depth": 0,
               "roots": [{"party": 0, "groups": 5}]}},
     "tree.roots[0].groups must be a list, got 5"),
    ({"tree": {"P": 2, "nvars": 1, "depth": 0,
               "roots": [{"party": 0, "groups": [7]}]}},
     "tree.roots[0].groups[0] must be a list, got 7"),
    ({"tree": {"P": 2, "nvars": 1, "depth": 0,
               "roots": [{"party": 0, "groups": [[{"op": 0}]]}]}},
     "tree.roots[0].groups[0][0].var is missing"),
    ({"tree": {"P": 2, "nvars": 1, "depth": 0,
               "roots": [{"party": 0, "groups": [[{"op": 0, "var": 0}]],
                          "children": "none"}]}},
     "tree.roots[0].children must be a list, got 'none'"),
    ({"tree": {"P": 2, "nvars": 1, "depth": 0,
               "roots": [{"party": "A", "groups": [[{"op": 0, "var": 0}]]}]}},
     "tree.roots[0].party must be a number, got 'A'"),
    ({"stats": {"rounds": "x"}}, "stats.rounds must be a number, got 'x'"),
    ({"stats": [1]}, "stats must be an object, got [1]"),
    ({"rounds": [2]}, "rounds must be a number, got [2]"),
    ({"assignment": 1.0}, "assignment must be a list, got 1.0"),
    ({"assignment": [1.0, "half"]}, "assignment[1] must be a number, got 'half'"),
    ({"dims": [2, None]}, "dims[1] must be a number, got None"),
    # a number is a finite int or float, never a bool or a string, and an
    # int field takes no float
    ({"tree": {"P": 2, "nvars": 1, "depth": 0,
               "roots": [{"party": 0, "groups": [[{"op": 1.5, "var": 0}]]}]}},
     "tree.roots[0].groups[0][0].op must be an integer, got 1.5"),
    ({"tree": {"P": 2, "nvars": 1, "depth": 0,
               "roots": [{"party": 0, "groups": [[{"op": 0, "var": "2"}]]}]}},
     "tree.roots[0].groups[0][0].var must be a number, got '2'"),
    ({"tree": {"P": 2, "nvars": 1, "depth": 0,
               "roots": [{"party": 0, "groups": [[{"op": 0, "var": 0}]]},
                         {"party": True, "groups": [[{"op": 1, "var": 0}]]}]}},
     "tree.roots[1].party must be a number, got True"),
    ({"assignment": ["0.5"]}, "assignment[0] must be a number, got '0.5'"),
    ({"tree": {"P": 2, "nvars": 1, "depth": 0,
               "roots": [{"party": 0, "groups": [[{"op": 0, "var": 0,
                                                   "scale": float("nan")}]]}]}},
     "tree.roots[0].groups[0][0].scale must be a finite number, got nan"),
    # 1,000 levels: json.loads stops before Python 3.13, the tree reader
    # from 3.13 on, and both give this message
    ('{"format": "loccforge.protocol/1", "tree": {"P": 2, "nvars": 1, '
     '"depth": 1000, "roots": ['
     + '{"party": 0, "groups": [[{"op": 0, "var": 0}]], "children": [' * 1000
     + '{"party": 0, "groups": [[{"op": 0, "var": 0}]]}' + "]}" * 1000 + "]}}",
     "document is nested too deeply"),
]


@pytest.mark.parametrize("fields, message", MALFORMED_PROTOCOLS,
                         ids=[m.split()[0] + ("-missing" if "missing" in m else "-type")
                              for _, m in MALFORMED_PROTOCOLS])
def test_malformed_protocol_is_a_reported_error(tmp_path, capsys, fields,
                                                message):
    proto = tmp_path / "proto.json"
    # a document too deep for json.dumps is given as its text
    proto.write_text(fields if isinstance(fields, str)
                     else json.dumps({"format": "loccforge.protocol/1", **fields}))
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_protocol(proto.read_text())
    code, out, err = run(capsys, "lift", fx("krausdemo"), "--protocol", str(proto))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def _set(path, key, value):
    """An edit of a tree document: set key to value in the object that path
    leads to, or in each object of the list it leads to."""
    def edit(tree):
        target = tree
        for step in path:
            target = target[step]
        targets = target if isinstance(target, list) else [target]
        for t in targets:
            t[key] = value
    return edit


# edits of a saved krausdemo protocol (3 operators, 2 parties, 6 variables)
# whose indices fall outside the measurement or the tree
OUT_OF_RANGE_EDITS = [
    pytest.param(_set(("roots", 0, "groups", 0, 0), "op", 99),
                 "term op 99 out of range [0, 3)", id="root-op-99"),
    pytest.param(_set(("roots", 0, "groups", 0, 0), "op", -1),
                 "term op -1 out of range [0, 3)", id="root-op-negative"),
    pytest.param(_set(("roots", 0, "groups", 0, 0), "var", -1),
                 "term var -1 out of range [0, 6)", id="root-var-negative"),
    pytest.param(_set(("roots", 1, "groups", 1, 1), "var", 6),
                 "term var 6 out of range [0, 6)", id="alias-var-nvars"),
    pytest.param(_set(("roots", 0, "children", 0, "children"), "party", 9),
                 "node party 9 out of range [0, 2)", id="node-party-9"),
    pytest.param(_set(("roots", 0, "children", 0, "children"), "party", -1),
                 "node party -1 out of range [0, 2)", id="node-party-negative"),
]


@pytest.mark.parametrize("edit, message", OUT_OF_RANGE_EDITS)
def test_out_of_range_index_is_a_reported_error(tmp_path, capsys, edit, message):
    proto = tmp_path / "proto.json"
    code, _, _ = run(capsys, "synthesize", fx("krausdemo"), "--save", str(proto))
    assert code == 0
    doc = json.loads(proto.read_text())
    edit(doc["tree"])
    proto.write_text(json.dumps(doc))
    for fmt in ((), ("--format", "json")):
        code, out, err = run(capsys, "lift", fx("krausdemo"), "--protocol",
                             str(proto), *fmt)
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_config_file_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rounds": 1}))
    code, out, _ = run(capsys, "synthesize", fx("cascade5"),
                       "--config", str(cfg), "--format", "json")
    assert code == 3
    # explicit flags beat the file
    code, out, _ = run(capsys, "synthesize", fx("cascade5"),
                       "--config", str(cfg), "--rounds", "4")
    assert code == 0


def test_config_env_var(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rounds": 1}))
    monkeypatch.setenv("LOCCFORGE_CONFIG", str(cfg))
    code, out, _ = run(capsys, "synthesize", fx("cascade5"), "--format", "json")
    assert code == 3
    assert json.loads(out)["verdict"] == "BudgetExhausted"


def test_bad_config_reports_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_key": 1}))
    code, _, err = run(capsys, "synthesize", fx("cascade5"), "--config", str(cfg))
    assert code == 1 and "unknown config keys" in err


def test_byte_determinism_over_commands(capsys):
    for argv in [
        ("validate", fx("cascade5"), "--format", "json"),
        ("check-nogo", fx("domino9"), "--format", "json"),
        ("synthesize", fx("productbasis4"), "--format", "json"),
    ]:
        c1, o1, _ = run(capsys, *argv)
        c2, o2, _ = run(capsys, *argv)
        assert c1 == c2 and o1 == o2


def test_check_nogo_builds_one_cone_per_party(tmp_path, capsys, monkeypatch):
    """Both scans ask the measurement for each party's cone at `psd`; it
    builds one per party and hands the same one to both."""
    asked = []
    real = measurement.SeparableMeasurement.cone

    def spy(self, alpha, psd=PSD_TOL):
        asked.append((alpha, psd, real(self, alpha, psd)))
        return asked[-1][2]

    monkeypatch.setattr(measurement.SeparableMeasurement, "cone", spy)
    doc = tmp_path / "basis3x3.json"
    m = product_basis(3, 3)
    doc.write_text(serialize_measurement(m))
    code, out, _ = run(capsys, "check-nogo", str(doc))
    assert code == 0 and out.endswith("verdict: no-witness\n")
    assert {(alpha, psd) for alpha, psd, _ in asked} == {(0, PSD_TOL), (1, PSD_TOL)}
    assert len({id(c) for *_, c in asked}) == m.P


def test_check_nogo_checks_each_party_once(capsys, monkeypatch):
    """One check-nogo run tests each party's parts for hermiticity once (the
    measurement's constructor) and for PSD once (the verdicts `validate`
    and the cones share), counted wherever the two checks are looked up."""
    P = load_fixture("domino9").P
    calls = dict.fromkeys(["hermitian_stack", "psd_mask"], 0)
    for name in calls:
        real = getattr(hermitian, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in [m for k, m in sys.modules.items() if k.startswith("loccforge")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    code, out, _ = run(capsys, "check-nogo", fx("domino9"))
    assert code == 2 and out.endswith("verdict: impossible-by-witness\n")
    assert calls == {"hermitian_stack": P, "psd_mask": P}


@pytest.mark.parametrize("key, command, expected", [
    ("max_lps", "synthesize", None),
    ("max_trees", "synthesize", "error: max_trees must be an integer >= 1, got None"),
    ("partition_exhaustive_n", "check-nogo",
     "error: partition_exhaustive_n must be an integer >= 1, got None"),
])
def test_null_budget_in_config(tmp_path, capsys, key, command, expected):
    """null means no cap where the search has none to miss; elsewhere it is
    a reported error, never a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: None}))
    code, out, err = run(capsys, command, fx("cascade5"), "--config", str(cfg))
    if expected is None:
        assert code == 0 and "verdict: Protocol" in out
    else:
        assert (code, out, err) == (1, "", expected + "\n")


@pytest.mark.parametrize("key", ["max_lps", "max_trees",
                                 "partition_exhaustive_n", "rounds", "delta",
                                 "lp"])
def test_non_numeric_config_value_is_a_reported_error(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "x"}))
    code, out, err = run(capsys, "synthesize", fx("cascade5"), "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "'x'" in err


def test_max_subset_is_an_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_subset": 6}))
    code, out, err = run(capsys, "synthesize", fx("cascade5"), "--config", str(cfg))
    assert (code, out, err) == (1, "", "error: unknown config keys: ['max_subset']\n")


def test_herm_is_an_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"herm": 0.5}))
    code, out, err = run(capsys, "check-nogo", fx("cascade5"), "--config", str(cfg))
    assert (code, out, err) == (1, "", "error: unknown config keys: ['herm']\n")


@pytest.mark.parametrize("command", ["validate", "lift"])
def test_missing_config_file_is_a_reported_error(tmp_path, capsys, command):
    argv = [command, fx("krausdemo"), "--config", str(tmp_path / "missing.json")]
    if command == "lift":
        argv += ["--protocol", str(tmp_path / "protocol.json")]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read config file")


def test_deep_config_file_is_a_reported_error(tmp_path, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text('{"a": ' * 100_000 + "1" + "}" * 100_000)
    code, out, err = run(capsys, "synthesize", fx("krausdemo"), "--config", str(cfg))
    assert (code, out, err) == (1, "", f"error: config file {cfg} is nested too deeply\n")


def test_undecodable_files_are_reported_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out, err) == (1, "", f"error: cannot read {bad}: {reason}\n")
    code, out, err = run(capsys, "validate", fx("krausdemo"), "--config", str(bad))
    assert (code, out, err) == (1, "", f"error: config file {bad} is not valid JSON: "
                                       f"{reason}\n")


def test_configured_tolerances_reach_every_command(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"psd": 2e-9, "lp": 3e-8, "delta": 2e-7}))
    proto = tmp_path / "protocol.json"
    assert run(capsys, "synthesize", fx("krausdemo"), "--save", str(proto))[0] == 0
    seen = {}

    def spy(site, real):
        def wrapped(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            seen[site] = {k: v for k, v in bound.arguments.items()
                          if k in ("tol", "delta", "psd", "lp")}
            return real(*args, **kwargs)
        return wrapped

    # each call site, so that the gate `admit` is seen from inside
    for module, name in [
            (cli, "parse_document"), (cli, "parse_measurement"),
            (cli, "validate_assignment"), (cli, "lift"), (io, "validate"),
            (synthesis, "validate"), (synthesis, "completeness_certificate"),
            (measurement, "kraus_ratio"), (lifting, "kraus_ratio")]:
        site = f"{module.__name__.split('.')[-1]}.{name}"
        monkeypatch.setattr(module, name, spy(site, getattr(module, name)))
    # the measurement's cones, which both scans read, are built on the
    # verdicts validate reads
    monkeypatch.setattr(measurement.SeparableMeasurement, "cone",
                        spy("cone", measurement.SeparableMeasurement.cone))
    psd = {"tol": 2e-9}
    tols = {"tol": 2e-9, "lp": 3e-8}
    lp = {"tol": 3e-8}
    # parsing validates, and validate checks each Kraus factor at lp
    parsed = {"cli.parse_measurement": tols, "io.validate": tols,
              "measurement.kraus_ratio": lp}
    admitted = {"synthesis.validate": tols, "measurement.kraus_ratio": lp,
                "synthesis.completeness_certificate": {"delta": 2e-7, "tol": 3e-8}}
    for argv, expected in [
        (("validate", fx("krausdemo")), {"cli.parse_document": psd, **admitted}),
        (("lift", fx("krausdemo"), "--protocol", str(proto)),
         {**parsed, "cli.validate_assignment": lp, "cli.lift": lp,
          "lifting.kraus_ratio": lp}),
        (("synthesize", fx("krausdemo")), {**parsed, **admitted}),
        (("check-nogo", fx("krausdemo")),
         {**parsed, **admitted, "cone": {"psd": 2e-9}}),
    ]:
        seen.clear()
        assert run(capsys, *argv, "--config", str(cfg))[0] == 0, argv
        assert seen == expected, argv
