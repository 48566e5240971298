"""End-to-end acceptance checks.

One test per shipped guarantee. Each prints a single summary line so a
plain pytest run doubles as an acceptance report:

    acceptance 1 (cascade measurement synthesized in four rounds): PASS
"""

import contextlib
import time

import numpy as np

from loccforge.cli import main
from loccforge.config import RunConfig
from loccforge.errors import InfeasibleError, InvalidMeasurementError
from loccforge.hermitian import proportional, tensor
from loccforge.lifting import lift
from loccforge.measurement import completeness_certificate
from loccforge.nogo import find_partition_witness, find_singular_pair_witness
from loccforge.synthesis import synthesize
from loccforge.tree import (
    align_weights,
    canonical_key,
    compact_same_party,
    eliminate_coin_flips,
    extract_measurement,
    group_value,
    leaf_tree,
    leaves,
    merge_and_extend,
    prune_unitary_rounds,
    root_for,
    validate_assignment,
)

from conftest import (
    FIXTURE_DIR,
    load_fixture,
    random_psd,
    random_valid_tree,
    random_witness_measurement,
)
from test_cones import (
    cone, nontrivial_intersection, random_generators, sampling_oracle)
from test_passes import same_extraction
from test_synthesis import classes_by_party

ALL_FIXTURES = [
    "cascade5",
    "domino9",
    "fourparty_aligned",
    "fourparty_mismatch",
    "productbasis4",
    "singularpair3",
    "krausdemo",
]

NORMALIZATION_PASSES = (prune_unitary_rounds, compact_same_party,
                        eliminate_coin_flips)


@contextlib.contextmanager
def report(capsys, num, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print("\nacceptance %d (%s): FAIL" % (num, name))
        raise
    with capsys.disabled():
        print("\nacceptance %d (%s): PASS" % (num, name))


def test_acceptance_1_cascade_protocol(capsys):
    with report(capsys, 1, "cascade measurement synthesized in four rounds"):
        m = load_fixture("cascade5")
        t0 = time.monotonic()
        v = synthesize(m, RunConfig(rounds=4))
        assert time.monotonic() - t0 <= 10.0
        assert v.kind == "Protocol"
        assert len(leaves(v.tree)) == 5

        # the published shape: B first, then the A/B cascade peeling one
        # outcome per round
        inner = merge_and_extend([leaf_tree(m, 0), leaf_tree(m, 1)], 0)
        mid = merge_and_extend([leaf_tree(m, 3), inner], 1)
        outer = merge_and_extend([leaf_tree(m, 4), mid], 0)
        top = merge_and_extend([leaf_tree(m, 2), outer], 1)
        want = prune_unitary_rounds(compact_same_party(top))
        assert canonical_key(v.tree) == canonical_key(want)

        assert v.tree.trunk_party == 1
        trunk = root_for(v.tree, 1)
        vals = sorted((group_value(c.groups[0], m, 1, v.assignment)
                       for c in trunk.children),
                      key=lambda h: float(h.trace().real))
        assert np.allclose(vals[0], np.diag([0.0, 0.3]), atol=1e-8)
        assert np.allclose(vals[1], np.diag([1.0, 0.7]), atol=1e-8)

        w, residual = align_weights(v.tree, m, v.assignment)
        assert residual <= 1e-8
        assert (w > 1e-8).all()
        assert len(extract_measurement(v.tree, m, v.assignment).measurement) == 5


def test_acceptance_2_domino_impossibility(capsys):
    with report(capsys, 2, "domino basis proved unreachable at every budget"):
        t0 = time.monotonic()
        m = load_fixture("domino9")
        cert = completeness_certificate(m)
        assert cert.residual <= 1e-8
        assert (cert.weights > 0).all()

        w = find_singular_pair_witness(m)
        assert w is not None and w.op_index == 0
        mid = np.diag([0.0, 1.0, 0.0])
        for a in w.parties:
            assert proportional(m.part(0, a), mid) is not None

        scan = find_partition_witness(m)
        assert scan.exhaustive
        assert scan.witness is not None
        assert scan.witness.partition[0] == (0,)

        for budget in range(7):
            v = synthesize(m, RunConfig(rounds=budget))
            assert v.kind != "Protocol"
        assert time.monotonic() - t0 <= 30.0


def test_acceptance_3_fourparty_classes(capsys):
    with report(capsys, 3, "merge classes separate aligned from mismatched"):
        mm = load_fixture("fourparty_mismatch")
        per_party = classes_by_party([leaf_tree(mm, j) for j in range(len(mm))], mm)
        assert all(maximal == [] for _, maximal in per_party.values())

        ma = load_fixture("fourparty_aligned")
        per_party = classes_by_party([leaf_tree(ma, j) for j in range(len(ma))], ma)
        assert sum(len(maximal) for _, maximal in per_party.values()) == 1

        v = synthesize(ma, RunConfig(rounds=2))
        assert v.kind == "Protocol"
        want = prune_unitary_rounds(compact_same_party(
            merge_and_extend([leaf_tree(ma, 0), leaf_tree(ma, 1)], 0)))
        assert canonical_key(v.tree) == canonical_key(want)


def _fixture_trees():
    cases = []
    for name in ALL_FIXTURES:
        m = load_fixture(name)
        for j in range(len(m)):
            t = leaf_tree(m, j)
            cases.append((t, m, np.ones(t.nvars)))
        try:
            v = synthesize(m)
        except InvalidMeasurementError:
            continue
        if v.kind == "Protocol":
            cases.append((v.tree, m, v.assignment))
    return cases


def test_acceptance_4_normalization_preserves_measurement(capsys, rng):
    with report(capsys, 4, "normalization passes preserve the measurement"):
        cases = _fixture_trees()
        for _ in range(200):
            cases.append(random_valid_tree(rng))
        for t, m, x in cases:
            base = extract_measurement(t, m, x)
            for p in NORMALIZATION_PASSES:
                out = p(t, m, x) if p is eliminate_coin_flips else p(t)
                assert validate_assignment(out, m, x)
                assert same_extraction(extract_measurement(out, m, x), base)
                again = (eliminate_coin_flips(out, m, x)
                         if p is eliminate_coin_flips else p(out))
                assert canonical_key(again) == canonical_key(out)


def test_acceptance_5_cone_oracle(capsys, rng):
    with report(capsys, 5, "intersection scan beats the sampling oracle"):
        hits = 0
        for _ in range(500):
            d = int(rng.integers(2, 4))
            gens_a = random_generators(rng, d)
            a = cone(gens_a)
            if rng.random() < 0.4:
                extra = [random_psd(rng, d)
                         for _ in range(int(rng.integers(0, 2)))]
                b = cone([g * float(rng.uniform(0.5, 2.0))
                          for g in gens_a] + extra)
            else:
                b = cone(random_generators(rng, d))
            w = nontrivial_intersection(a, b)
            if w is not None:
                assert w.residual <= 1e-8
            if sampling_oracle(rng, gens_a, b) is not None:
                hits += 1
                assert w is not None, "sampling found a point the scan missed"
        assert hits >= 100


def test_acceptance_6_witness_consistency(capsys, rng):
    with report(capsys, 6, "singular-pair witness forbids any protocol"):
        cases = []
        for name in ALL_FIXTURES:
            m = load_fixture(name)
            try:
                completeness_certificate(m)
            except InfeasibleError:
                continue
            cases.append(m)
        cases += [random_witness_measurement(rng) for _ in range(50)]
        checked = 0
        for m in cases:
            if find_singular_pair_witness(m) is None:
                continue
            checked += 1
            assert find_partition_witness(m).witness is not None
            assert synthesize(m).kind != "Protocol"
        assert checked >= 50


def test_acceptance_7_lift_reconstruction(capsys):
    with report(capsys, 7, "lifted tails reconstruct the Kraus operators"):
        lifted_any = 0
        for name in ALL_FIXTURES:
            m = load_fixture(name)
            if m.kraus_groups is None:
                continue
            lifted_any += 1
            v = synthesize(m)
            assert v.kind == "Protocol"
            lp = lift(v.tree, v.assignment, m)
            for tail in lp.tails:
                group = m.kraus_groups[tail.op_index]
                khat = tail.khat_scale * tensor(tail.khat_parts)
                total = 0.0
                for e in tail.entries:
                    total += e.probability
                    kprime = tensor(group[e.kraus_index].parts)
                    rhs = np.sqrt(e.probability) * tensor(e.unitaries) @ khat
                    assert (np.abs(kprime - rhs).max()
                            <= 1e-8 * (1 + np.abs(kprime).max()))
                    for u in e.unitaries:
                        eye = np.eye(u.shape[0])
                        assert np.abs(u.conj().T @ u - eye).max() <= 1e-8
                assert abs(total - 1.0) <= 1e-8
        assert lifted_any >= 1


def test_acceptance_8_cli_determinism(capsys, tmp_path):
    with report(capsys, 8, "repeated runs emit byte-identical reports"):
        def run(*argv):
            code = main(list(argv))
            cap = capsys.readouterr()
            return code, cap.out, cap.err

        for name in ALL_FIXTURES:
            path = str(FIXTURE_DIR / ("%s.json" % name))
            for argv in (("validate", path, "--format", "json"),
                         ("check-nogo", path, "--format", "json")):
                assert run(*argv) == run(*argv)

            dot = tmp_path / ("%s.dot" % name)
            saved = tmp_path / ("%s.protocol.json" % name)
            argv = ("synthesize", path, "--format", "json",
                    "--dot", str(dot), "--save", str(saved))

            r1 = run(*argv)
            files1 = (dot.read_bytes() if dot.exists() else None,
                      saved.read_bytes() if saved.exists() else None)
            dot.unlink(missing_ok=True)
            saved.unlink(missing_ok=True)

            r2 = run(*argv)
            files2 = (dot.read_bytes() if dot.exists() else None,
                      saved.read_bytes() if saved.exists() else None)
            assert r1 == r2
            assert files1 == files2

            if saved.exists() and r1[0] == 0:
                largv = ("lift", path, "--protocol", str(saved),
                         "--format", "json")
                l1 = run(*largv)
                assert l1 == run(*largv)
                if m_has_kraus(name):
                    assert l1[0] == 0


def m_has_kraus(name):
    return load_fixture(name).kraus_groups is not None
