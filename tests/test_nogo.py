import numpy as np
import pytest

from loccforge import cones
from loccforge.errors import InvalidOperatorError
from loccforge.measurement import measurement_from_parts
from loccforge.nogo import find_partition_witness, find_singular_pair_witness

from conftest import load_fixture, random_witness_measurement

P0 = np.diag([1.0, 0.0])
P1 = np.diag([0.0, 1.0])
I2 = np.eye(2)


def test_domino9_singular_pair():
    m = load_fixture("domino9")
    w = find_singular_pair_witness(m)
    assert w is not None and w.kind == "singular-pair"
    assert w.op_index == 0
    assert w.evidence["label"] == "M1"
    text = w.describe(m)
    assert "M1" in text and "singular" in text


def test_domino9_partition_witness_singleton():
    m = load_fixture("domino9")
    res = find_partition_witness(m)
    assert res.exhaustive
    assert res.witness is not None and res.witness.kind == "partition"
    s1, s2 = res.witness.partition
    assert len(s1) == 1 and s1[0] == 0
    assert sorted(s1 + s2) == list(range(9))
    assert "vs" in res.witness.describe(m)


def test_singularpair3_witnesses():
    m = load_fixture("singularpair3")
    w = find_singular_pair_witness(m)
    assert w is not None and w.op_index == 0
    res = find_partition_witness(m)
    assert res.witness is not None
    assert res.witness.partition[0] == (0,)


def test_productbasis_has_no_witness():
    m = load_fixture("productbasis4")
    assert find_singular_pair_witness(m) is None
    res = find_partition_witness(m)
    assert res.witness is None and res.exhaustive


def test_cascade5_has_no_witness():
    m = load_fixture("cascade5")
    assert find_singular_pair_witness(m) is None
    assert find_partition_witness(m).witness is None


def test_partition_scan_builds_no_witness_points(monkeypatch):
    """The scan only asks whether two cones meet; it never builds the point."""
    def fail(*args):
        raise AssertionError("partition scan built a FeasibilityWitness")

    monkeypatch.setattr(cones, "FeasibilityWitness", fail)
    res = find_partition_witness(load_fixture("cascade5"))
    assert res.witness is None and res.exhaustive


def test_one_sided_refinement_is_clean():
    # each party refines a projective measurement; nothing blocks merging
    m = measurement_from_parts([[P0, I2], [P1, I2], [I2, P0], [I2, P1]])
    assert find_singular_pair_witness(m) is None
    assert find_partition_witness(m).witness is None


def test_singular_pair_implies_partition_on_fixtures():
    for name in ["domino9", "singularpair3"]:
        m = load_fixture(name)
        if find_singular_pair_witness(m) is not None:
            assert find_partition_witness(m).witness is not None


def test_singular_pair_implies_partition_random(rng):
    found = 0
    for _ in range(20):
        m = random_witness_measurement(rng)
        w = find_singular_pair_witness(m)
        assert w is not None
        found += 1
        res = find_partition_witness(m)
        assert res.witness is not None
        s1, s2 = res.witness.partition
        assert w.op_index in s1 or w.op_index in s2
    assert found == 20


def test_partition_scan_nonexhaustive_flag():
    m = load_fixture("domino9")
    res = find_partition_witness(m, max_exhaustive_n=4)
    # a witness with a singleton side is still found by the capped scan
    assert res.witness is not None
    assert not res.exhaustive


def test_partition_scan_rejects_non_psd_part():
    # measurement_from_parts does not validate; the scan's cones still do
    m = measurement_from_parts([[np.diag([1.0, -0.5]), I2], [P1, I2], [P0, I2]])
    with pytest.raises(InvalidOperatorError):
        find_partition_witness(m)


def test_single_operator_scan_is_trivial():
    m = measurement_from_parts([[I2, I2]])
    assert find_singular_pair_witness(m) is None
    res = find_partition_witness(m)
    assert res.witness is None and res.exhaustive
