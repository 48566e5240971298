import numpy as np
import pytest

from loccforge import cones, nogo
from loccforge.cones import Cone
from loccforge.errors import InvalidOperatorError
from loccforge.hermitian import LP_TOL
from loccforge.measurement import measurement_from_parts
from loccforge.nogo import (
    _bipartitions,
    find_partition_witness,
    find_singular_pair_witness,
)

from conftest import (
    load_fixture,
    locc_random_measurements,
    product_basis,
    random_valid_tree,
    random_witness_measurement,
)

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


def reference_partition_scan(m, max_exhaustive_n=16, tol=LP_TOL):
    """The scan without skipping: one LP per party per split, in order.

    Returns (partition, parties) of the first witness or None, and whether
    the scan was exhaustive.
    """
    n = len(m.ops)
    if n < 2:
        return None, True
    exhaustive = n <= max_exhaustive_n
    cs = [Cone(m.party_parts(a), tol) for a in range(m.P)]
    for s1, s2 in _bipartitions(n, None if exhaustive else 2):
        blocked = []
        for a in range(m.P):
            if cones._intersection_point(cs[a].subcone(s1), cs[a].subcone(s2),
                                         tol) is None:
                blocked.append(a)
                if len(blocked) == 2:
                    return ((s1, s2), tuple(blocked)), exhaustive
    return None, exhaustive


def reference_singular_pair(m, tol=LP_TOL):
    """The singular-pair scan with the pairwise proportionality loop."""
    if len(m.ops) < 2:
        return None
    cs = [Cone(m.party_parts(a), tol) for a in range(m.P)]
    for j in range(len(m.ops)):
        bad = [a for a in range(m.P)
               if cones.is_singular_ray(j, cs[a].generators, tol)
               and cones.is_extreme_ray(j, cs[a], tol)]
        if len(bad) >= 2:
            return j, tuple(bad[:2])
    return None


def scan_answer(m, max_exhaustive_n=16):
    res = find_partition_witness(m, max_exhaustive_n)
    w = res.witness
    return (None if w is None else (w.partition, w.parties)), res.exhaustive


def test_scans_match_reference_scans():
    """Skipping same-ray parties and hopeless splits, and reading the
    same-ray table for singular parts, change no answer."""
    cases = [(load_fixture(name), 16) for name in
             ["cascade5", "domino9", "fourparty_aligned", "fourparty_mismatch",
              "krausdemo", "productbasis4", "singularpair3"]]
    cases += [(product_basis(3, 3), 16), (product_basis(2, 2, 2), 16)]
    # capped at 8 so that the reference scan of the larger trees stays quick
    cases += [(random_valid_tree(np.random.default_rng(s))[1], 8)
              for s in range(40)]
    rng = np.random.default_rng(7)
    cases += [(random_witness_measurement(rng), 16) for _ in range(20)]
    witnesses = pairs = 0
    for m, cap in cases:
        expected = reference_partition_scan(m, cap)
        assert scan_answer(m, cap) == expected
        witnesses += expected[0] is not None
        w = find_singular_pair_witness(m)
        pair = reference_singular_pair(m)
        assert (None if w is None else (w.op_index, w.parties)) == pair
        pairs += pair is not None
    # domino9, fourparty_mismatch, singularpair3 and the 20 witness instances
    assert (witnesses, pairs) == (23, 23)


@pytest.mark.parametrize("dims, lps", [
    ((3, 3), 3),
    ((3, 4), 3),
    ((2, 2, 2), 2),
    ((2, 2, 3), 2),
    ((4, 4), 7),       # N = 16: the whole exhaustive scan
])
def test_partition_scan_lp_counts(dims, lps, monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return cones._intersection_point(*args)

    monkeypatch.setattr(nogo, "_intersection_point", spy)
    res = find_partition_witness(product_basis(*dims))
    assert res.witness is None and res.exhaustive
    assert len(calls) == lps


def test_locc_random_trees_have_no_witness():
    """A witness proves impossibility, so LOCC measurements never have one."""
    ms = locc_random_measurements()
    assert len(ms) == 16
    for s, m in ms.items():
        assert find_singular_pair_witness(m) is None, s
        assert find_partition_witness(m).witness is None, s


def test_shared_tables_give_the_same_answers():
    """Both scans answer the same from one shared set of tables as from
    their own, and refuse tables built with another tolerance."""
    for name in ["cascade5", "domino9", "krausdemo", "singularpair3"]:
        m = load_fixture(name)
        tables = nogo.party_tables(m, 1e-6)
        assert (find_singular_pair_witness(m, 1e-6, tables=tables)
                == find_singular_pair_witness(m, 1e-6))
        assert (find_partition_witness(m, tol=1e-6, tables=tables)
                == find_partition_witness(m, tol=1e-6))
        with pytest.raises(ValueError, match="tol"):
            find_singular_pair_witness(m, tables=tables)
        with pytest.raises(ValueError, match="tol"):
            find_partition_witness(m, tables=tables)
