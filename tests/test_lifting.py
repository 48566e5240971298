import json
import re

import numpy as np
import pytest

from loccforge.config import RunConfig, Tolerances
from loccforge.errors import (
    InvalidMeasurementError,
    LiftError,
    NoKrausDataError,
    TreeStructureError,
)
from loccforge.hermitian import psd_sqrt, tensor
from loccforge.io import parse_document, parse_measurement
from loccforge.lifting import lift
from loccforge.measurement import (
    KrausProduct,
    from_kraus,
    measurement_from_parts,
    validate,
)
from loccforge.synthesis import synthesize
from loccforge.tree import (
    align_weights,
    eliminate_coin_flips,
    leaf_tree,
    leaves,
    merge_and_extend,
)

from conftest import FIXTURE_DIR, load_fixture

P0 = np.diag([1.0, 0.0])
P1 = np.diag([0.0, 1.0])
I2 = np.eye(2)


def check_tail_reconstruction(tail, m, tol=1e-8):
    """Every recorded entry rebuilds its source Kraus product exactly."""
    group = m.kraus_groups[tail.op_index]
    psum = 0.0
    for e in tail.entries:
        kp = group[e.kraus_index]
        psum += e.probability
        khat = tail.khat_scale * tensor(tail.khat_parts)
        lhs = tensor(kp.parts)
        rhs = np.sqrt(e.probability) * tensor(e.unitaries) @ khat
        assert np.abs(lhs - rhs).max() <= tol * (1 + np.abs(lhs).max())
        for u in e.unitaries:
            assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= 1e-8
    assert abs(psum - 1.0) <= 1e-8


def test_lift_requires_kraus_data():
    m = load_fixture("cascade5")
    v = synthesize(m)
    with pytest.raises(NoKrausDataError):
        lift(v.tree, v.assignment, m)


def test_krausdemo_full_lift():
    m = load_fixture("krausdemo")
    v = synthesize(m)
    assert v.kind == "Protocol"
    lp = lift(v.tree, v.assignment, m)
    assert lp.extra_round
    assert len(lp.tails) == 3
    by_op = {t.op_index: t for t in lp.tails}
    assert set(by_op) == {0, 1, 2}

    grouped = by_op[0]
    assert grouped.coin_round
    assert len(grouped.entries) == 2
    assert grouped.khat_scale == pytest.approx(np.sqrt(2.0))
    probs = sorted(e.probability for e in grouped.entries)
    assert np.allclose(probs, [0.5, 0.5])
    # source entry 0 is (P0, P0): its tail unitaries are trivial
    ua0, ub0 = grouped.entries[0].unitaries
    assert np.allclose(ua0, np.eye(2))
    assert np.allclose(ub0, np.eye(2))
    # source entry 1 carries a rotation on A and a swap-with-phase on B
    ua1, ub1 = grouped.entries[1].unitaries
    assert np.allclose(ua1, [[0.6, -0.8], [0.8, 0.6]])
    assert np.allclose(ub1, [[0, 1], [1j, 0]])

    for t in lp.tails:
        check_tail_reconstruction(t, m)
        if t.op_index != 0:
            assert not t.coin_round
            assert len(t.entries) == 1
            assert t.entries[0].probability == pytest.approx(1.0)


def test_trivial_sqrt_kraus_gives_flat_tails():
    base = load_fixture("cascade5")
    entries = [tuple(psd_sqrt(base.part(j, a)) for a in range(base.P))
               for j in range(len(base))]
    m = from_kraus(entries, party_names=base.party_names)
    v = synthesize(m)
    assert v.kind == "Protocol"
    lp = lift(v.tree, v.assignment, m)
    assert not lp.extra_round
    assert len(lp.tails) == 5
    for t in lp.tails:
        assert not t.coin_round
        assert t.khat_scale == pytest.approx(1.0)
        check_tail_reconstruction(t, m)


def test_inconsistent_group_raises():
    m = measurement_from_parts([[P0, I2]],
                               kraus_groups=[[KrausProduct((P1, I2))]])
    with pytest.raises(LiftError, match="not internally proportional"):
        lift(leaf_tree(m, 0), np.ones(2), m)


def test_zero_kraus_factor_raises_lift_error():
    """A zero Kraus factor is proportional to no part: lift names its
    operator and party, as for any other factor, for a caller that skips
    `validate`, which names the factor."""
    m = measurement_from_parts(
        [[P0, I2]], kraus_groups=[[KrausProduct((np.zeros((2, 2)), I2))]])
    assert [d.where for d in validate(m)] == ["operators[0].kraus[0][0]"]
    with pytest.raises(LiftError, match="kraus group for operator 0 is not "
                       "internally proportional at party 0"):
        lift(leaf_tree(m, 0), np.ones(2), m)


def test_kraus_factor_checked_at_validates_tolerance():
    """lift checks a Kraus factor by `validate`'s rule at its own `tol`: a
    factor diag(1, 3e-4) against the part diag(1, 0) is refused by both at
    1e-8 (the default) and accepted by both at 1e-6."""
    doc = json.loads((FIXTURE_DIR / "krausdemo.json").read_text())
    doc["operators"][0]["kraus"][0][0] = [[1, 0], [0, 3e-4]]
    text = json.dumps(doc)
    m = parse_document(text)
    assert validate(m) == validate(m, lp=1e-8)
    assert [d.where for d in validate(m, lp=1e-8)] == ["operators[0].kraus[0][0]"]
    with pytest.raises(LiftError, match="kraus group for operator 0 is not "
                       "internally proportional at party 0"):
        lift(leaf_tree(m, 0), np.ones(2), m, tol=1e-8)
    with pytest.raises(InvalidMeasurementError, match=re.escape(
            "operators[0].kraus[0][0]: K^dagger K is not a positive multiple")):
        parse_measurement(text, lp=1e-8)
    assert validate(m, lp=1e-6) == []
    m = parse_measurement(text, lp=1e-6)
    v = synthesize(m, RunConfig(tol=Tolerances(lp=1e-6)))
    assert v.kind == "Protocol"
    lifted = lift(v.tree, v.assignment, m, tol=1e-6)
    assert [t.op_index for t in lifted.tails] == [0, 1, 2]


def test_leaf_naming_two_operators_is_rejected():
    """Pooling the coin flip between the first two outcomes leaves one leaf
    that names operators 0 and 1; neither weighing nor lifting picks one."""
    m = from_kraus([(P0, P0), (P0, P1), (P1, I2)])
    t = merge_and_extend([leaf_tree(m, j) for j in range(3)], 0)
    pooled = eliminate_coin_flips(t, m, np.ones(t.nvars))
    assert len(leaves(pooled)) == 2
    for call in (lambda: align_weights(pooled, m, np.ones(t.nvars)),
                 lambda: lift(pooled, np.ones(t.nvars), m)):
        with pytest.raises(TreeStructureError, match="leaf names 2 operators"):
            call()


def test_three_party_exact_unitary_recovery(rng):
    # full-rank bases leave no kernel freedom, so the recovered factors
    # coincide with the planted ones
    for _ in range(10):
        d = 2
        b = rng.random() * 0.8 + 0.1
        bases = [[np.diag([b, 1 - b]), I2, I2], [np.diag([1 - b, b]), I2, I2]]
        planted = []
        entries = []
        for j in range(2):
            us = []
            for a in range(3):
                h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                q, _ = np.linalg.qr(h)
                us.append(q)
            planted.append(us)
            entries.append(tuple(us[a] @ psd_sqrt(bases[j][a]) for a in range(3)))
        m = from_kraus(entries)
        v = synthesize(m)
        assert v.kind == "Protocol"
        lp = lift(v.tree, v.assignment, m)
        assert not lp.extra_round
        for t in lp.tails:
            assert len(t.entries) == 1
            for a in range(3):
                got = t.entries[0].unitaries[a]
                want = planted[t.op_index][a]
                assert np.abs(got - want).max() <= 1e-8
            check_tail_reconstruction(t, m)


def test_rank_deficient_base_completion_is_unitary(rng):
    # rank-one bases force basis completion; the result must stay unitary and
    # still reproduce the source Kraus operator
    for _ in range(10):
        v0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v0 /= np.linalg.norm(v0)
        proj = np.outer(v0, v0.conj())
        comp = np.eye(2) - proj
        entries = [(proj, I2), (comp, I2)]
        m = from_kraus(entries)
        verdict = synthesize(m)
        assert verdict.kind == "Protocol"
        lp = lift(verdict.tree, verdict.assignment, m)
        for t in lp.tails:
            check_tail_reconstruction(t, m)
