import inspect
import json
import pathlib
import re

import numpy as np
import pytest

from loccforge import cli, cones, nogo, simplex
from loccforge.cli import main
from loccforge.errors import ParseError
from loccforge.io import (
    measurement_digest,
    parse_measurement,
    parse_protocol,
    serialize_measurement,
)
from loccforge.measurement import measurement_from_parts

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
    """check-nogo runs synthesize's completeness LP and fails the same way."""
    nogo_run = run(capsys, "check-nogo", fx("fourparty_mismatch"))
    synth_run = run(capsys, "synthesize", fx("fourparty_mismatch"))
    assert nogo_run == synth_run
    assert nogo_run[:2] == (1, "")
    assert nogo_run[2].startswith("error: measurement is not complete: ")


def test_check_nogo_partial_scan_flag(capsys):
    code, out, _ = run(capsys, "check-nogo", fx("domino9"),
                       "--max-exhaustive", "4", "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["partition"]["exhaustive"] is False


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


@pytest.mark.parametrize("n, lps", [(7, 24), (8, 31)])
def test_one_sided_measurement_is_a_protocol(tmp_path, capsys, n, lps):
    """A holds the identity and B measures an n-outcome basis, so B alone
    implements it in one round; no subset size cuts the class family that
    finds it."""
    m = measurement_from_parts([[np.eye(2), np.diag(np.eye(n)[i])]
                                for i in range(n)])
    code, payload = synthesize_json(tmp_path, capsys, m)
    assert (code, payload["verdict"]) == (0, "Protocol")
    assert (payload["stats"]["rounds"], payload["stats"]["lps_solved"]) == (1, lps)
    assert payload["weight_residual"] <= 1e-9


def test_random_tree_29_gets_its_weights(tmp_path, capsys):
    """Seed 29 has leaves at the delta floor and operators with proportional
    products; each leaf is weighed against the operator it names."""
    m = locc_random_measurements()[29]
    code, payload = synthesize_json(tmp_path, capsys, m, "--max-lps", "2000")
    assert (code, payload["verdict"]) == (0, "Protocol")
    assert payload["weight_residual"] < 1e-9


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


def test_synthesize_budget(capsys):
    code, out, _ = run(capsys, "synthesize", fx("cascade5"), "--rounds", "1",
                       "--format", "json")
    assert code == 3
    assert json.loads(out)["verdict"] == "BudgetExhausted"


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
    ({"tree": {"P": 2, "nvars": 1, "depth": 0, "constraints": [{"party": 0}]}},
     "tree.constraints[0].lhs is missing"),
    ({"stats": {"rounds": "x"}}, "stats.rounds must be a number, got 'x'"),
    ({"stats": [1]}, "stats must be an object, got [1]"),
    ({"rounds": [2]}, "rounds must be a number, got [2]"),
    ({"assignment": 1.0}, "assignment must be a list, got 1.0"),
    ({"assignment": [1.0, "half"]}, "assignment[1] must be a number, got 'half'"),
    ({"dims": [2, None]}, "dims[1] must be a number, got None"),
]


@pytest.mark.parametrize("fields, message", MALFORMED_PROTOCOLS,
                         ids=[m.split()[0] + ("-missing" if "missing" in m else "-type")
                              for _, m in MALFORMED_PROTOCOLS])
def test_malformed_protocol_is_a_reported_error(tmp_path, capsys, fields,
                                                message):
    proto = tmp_path / "proto.json"
    proto.write_text(json.dumps({"format": "loccforge.protocol/1", **fields}))
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_protocol(proto.read_text())
    code, out, err = run(capsys, "lift", fx("krausdemo"), "--protocol", str(proto))
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
    built = []
    real = cones.Cone.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(cones.Cone, "__init__", spy)
    doc = tmp_path / "basis3x3.json"
    m = product_basis(3, 3)
    doc.write_text(serialize_measurement(m))
    code, out, _ = run(capsys, "check-nogo", str(doc))
    assert code == 0 and out.endswith("verdict: no-witness\n")
    assert len(built) == m.P


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


def test_configured_tolerances_reach_every_command(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"psd": 2e-9, "lp": 3e-8, "delta": 2e-7}))
    proto = tmp_path / "protocol.json"
    assert run(capsys, "synthesize", fx("krausdemo"), "--save", str(proto))[0] == 0
    seen = {}

    def spy(real):
        def wrapped(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            seen[real.__name__] = {k: v for k, v in bound.arguments.items()
                                   if k in ("tol", "delta")}
            return real(*args, **kwargs)
        return wrapped

    for name in ("parse_measurement", "validate", "completeness_certificate",
                 "validate_assignment", "lift"):
        monkeypatch.setattr(cli, name, spy(getattr(cli, name)))
    # the scans' cones check their parts as validate does
    monkeypatch.setattr(nogo, "Cone", spy(nogo.Cone))
    psd = {"tol": 2e-9}
    for argv, expected in [
        (("validate", fx("krausdemo")),
         {"validate": psd,
          "completeness_certificate": {"delta": 2e-7, "tol": 3e-8}}),
        (("lift", fx("krausdemo"), "--protocol", str(proto)),
         {"parse_measurement": psd, "validate_assignment": {"tol": 3e-8},
          "lift": {"tol": 3e-8}}),
        (("synthesize", fx("krausdemo")), {"parse_measurement": psd}),
        (("check-nogo", fx("krausdemo")),
         {"parse_measurement": psd, "Cone": psd,
          "completeness_certificate": {"delta": 2e-7, "tol": 3e-8}}),
    ]:
        seen.clear()
        assert run(capsys, *argv, "--config", str(cfg))[0] == 0, argv
        assert seen == expected, argv
