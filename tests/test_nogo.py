import itertools
import json
import pathlib

import numpy as np
import pytest

from loccforge import cli, cones, measurement, nogo
from loccforge.cones import Cone
from loccforge.errors import InvalidOperatorError
from loccforge.hermitian import LP_TOL, PSD_TOL
from loccforge.io import measurement_digest
from loccforge.measurement import measurement_from_parts
from loccforge.nogo import find_partition_witness, find_singular_pair_witness

from conftest import (
    FIXTURE_DIR,
    load_fixture,
    locc_random_measurements,
    product_basis,
    random_psd,
    random_valid_tree,
    random_witness_measurement,
)
from test_cones import is_extreme_ray, is_singular_ray
from test_hermitian import reference_same_ray_masks

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

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
    """The scan only asks whether two cones meet; it never reads the point.
    Each common point is handed back as a bare object that supports no use,
    and every answer stays the same."""
    m = corpus_measurement("tree10")
    expected = find_partition_witness(m)
    met = []

    def opaque(*args):
        sol = cones._intersection_point(*args)
        met.append(sol is not None)
        return None if sol is None else object()

    monkeypatch.setattr(nogo, "_intersection_point", opaque)
    assert find_partition_witness(m) == expected
    assert any(met)


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


def _bipartitions(n, small_side_max):
    """Splits (S1, S2) with 0 in S1, ordered by |S1| then lexicographically."""
    rest = range(1, n)
    for extra in range(0, n - 1):
        if small_side_max is not None and min(extra + 1, n - 1 - extra) > small_side_max:
            continue
        for combo in itertools.combinations(rest, extra):
            # the complement of S1; never empty, as |S1| <= n - 1
            s2 = itertools.filterfalse(set(combo).__contains__, rest)
            yield (0,) + combo, tuple(s2)


def reference_partition_scan(m, max_exhaustive_n=16, tol=LP_TOL):
    """The scan without skipping: one LP per party per split, in order.

    Returns (partition, parties) of the first witness or None, and whether
    the scan was exhaustive.
    """
    n = len(m)
    if n < 2:
        return None, True
    exhaustive = n <= max_exhaustive_n
    cs = [Cone([m.part(j, a) for j in range(len(m))], tol) for a in range(m.P)]
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
    if len(m) < 2:
        return None
    cs = [Cone([m.part(j, a) for j in range(len(m))], tol) for a in range(m.P)]
    for j in range(len(m)):
        bad = [a for a in range(m.P)
               if is_singular_ray(j, cs[a].generators, tol)
               and is_extreme_ray(j, cs[a], tol)]
        if len(bad) >= 2:
            return j, tuple(bad[:2])
    return None


def scan_answer(m, max_exhaustive_n=16):
    res = find_partition_witness(m, max_exhaustive_n)
    w = res.witness
    return (None if w is None else (w.partition, w.parties)), res.exhaustive


def scan_cases():
    """(measurement, max_exhaustive_n) pairs the scans are checked on."""
    cases = [(load_fixture(name), 16) for name in
             ["cascade5", "domino9", "fourparty_aligned", "fourparty_mismatch",
              "krausdemo", "productbasis4", "singularpair3"]]
    cases += [(product_basis(3, 3), 16), (product_basis(2, 2, 2), 16)]
    # capped at 8 so that the reference scan of the larger trees stays quick
    cases += [(random_valid_tree(np.random.default_rng(s))[1], 8)
              for s in range(40)]
    rng = np.random.default_rng(7)
    cases += [(random_witness_measurement(rng), 16) for _ in range(20)]
    return cases


def test_scans_match_reference_scans():
    """Skipping same-ray parties and hopeless splits, and reading the
    same-ray table for singular parts, change no answer."""
    cases = scan_cases()
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


def corpus_measurement(name):
    """A document of the benchmark corpus, checked against its pinned digest."""
    source = json.loads((BENCH / "corpus.json").read_text())["instances"][name]
    if "fixture" in source:
        m = load_fixture(pathlib.Path(source["fixture"]).stem)
    elif source["generator"] == "product_basis":
        m = product_basis(*source["dims"])
    else:
        m = random_valid_tree(np.random.default_rng(source["seed"]),
                              **source["args"])[1]
    assert measurement_digest(m) == source["digest"]
    return m


LP_COUNTS = [
    # (corpus document, intersection LPs, exhaustive, witness found)
    ("basis3x3", 0, True, False),
    ("basis3x4", 0, True, False),
    ("basis2x2x2", 0, True, False),
    ("basis2x2x3", 0, True, False),
    ("basis4x4", 0, True, False),      # N = 16: no split passes two parties
    ("domino9", 2, True, True),
    ("tree02", 3, True, False),
    ("tree10", 5, True, False),
    ("tree51", 3, False, False),       # N = 17: the capped scan
]


@pytest.mark.parametrize("name, lps, exhaustive, found", LP_COUNTS,
                         ids=[case[0] for case in LP_COUNTS])
def test_partition_scan_lp_counts(name, lps, exhaustive, found, monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return cones._intersection_point(*args)

    monkeypatch.setattr(nogo, "_intersection_point", spy)
    res = find_partition_witness(corpus_measurement(name))
    assert (res.witness is not None, res.exhaustive) == (found, exhaustive)
    assert len(calls) == lps


def linked_by_reference(m, tol=LP_TOL):
    """Per party, per operator j, the mask of i != j with either part
    proportional to the other, from the pairwise `proportional` loop."""
    out = []
    for a in range(m.P):
        gens = Cone([m.part(j, a) for j in range(len(m))], tol).generators
        same = reference_same_ray_masks(gens, tol)
        out.append([same[j] | sum(1 << i for i in range(len(gens))
                                  if same[i] >> j & 1)
                    for j in range(len(gens))])
    return out


def visited_splits(m, cap, monkeypatch):
    """The splits the partition scan would visit, in its order, as (S1, S2)."""
    seen = []
    real = nogo._candidate_splits

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(nogo, "_candidate_splits", spy)
    find_partition_witness(m, cap)
    monkeypatch.undo()
    n = len(m)
    return [(tuple(j for j in range(n) if u >> j & 1),
             tuple(j for j in range(n) if not u >> j & 1))
            for u in (seen[0] if seen else [])]


def test_scan_visits_exactly_the_splits_two_parties_let_through(monkeypatch):
    """The component unions are the bipartitions (in their order, under the
    same cap) where at least two parties have no linked pair across."""
    for m, cap in scan_cases():
        n = len(m)
        linked = linked_by_reference(m)
        expected = [(s1, s2) for s1, s2 in _bipartitions(n, None if n <= cap else 2)
                    if sum(not any(row[j] >> i & 1 for j in s1 for i in s2)
                           for row in linked) >= 2]
        assert visited_splits(m, cap, monkeypatch) == expected


def test_capped_scan_of_distinct_parts_stays_small(monkeypatch):
    """40 operators with pairwise distinct rank-1 parts: every part is its
    own component, so the capped scan visits the splits with a side of at
    most two and never forms the 2^39 unions."""
    rng = np.random.default_rng(11)
    m = measurement_from_parts([[random_psd(rng, 2, rank=1) for _ in range(2)]
                                for _ in range(40)])
    visited = []

    def meets(*args):
        # with two parties, one meeting pair ends the split: one call each
        visited.append(args)
        return np.ones(1)

    monkeypatch.setattr(nogo, "_intersection_point", meets)
    res = find_partition_witness(m)
    assert res.witness is None and not res.exhaustive
    assert len(visited) <= sum(1 for _ in _bipartitions(40, 2)) == 820


def test_locc_random_trees_have_no_witness():
    """A witness proves impossibility, so LOCC measurements never have one."""
    ms = locc_random_measurements()
    assert len(ms) == 16
    for s, m in ms.items():
        assert find_singular_pair_witness(m) is None, s
        assert find_partition_witness(m).witness is None, s


def test_check_nogo_builds_each_party_table_once(tmp_path, capsys, monkeypatch):
    """One check-nogo run builds one Cone per party, asked for at `psd` by
    both scans, and per party two same-ray tables: at `psd` for validate's
    duplicate check and at `lp` for both scans. The measurement keeps them,
    so both scans share them."""
    cones_asked, rays_built = [], []
    real_cone = measurement.SeparableMeasurement.cone
    real_rays = measurement.same_ray_masks
    monkeypatch.setattr(measurement.SeparableMeasurement, "cone",
                        lambda self, a, psd: cones_asked.append(
                            (a, psd, real_cone(self, a, psd))) or cones_asked[-1][2])
    monkeypatch.setattr(measurement, "same_ray_masks",
                        lambda g, tol: rays_built.append(tol) or real_rays(g, tol))
    for name in ["cascade5", "domino9", "krausdemo", "singularpair3"]:
        m = load_fixture(name)
        cones_asked.clear()
        rays_built.clear()
        assert cli.main(["check-nogo", str(FIXTURE_DIR / f"{name}.json")]) in (0, 2)
        capsys.readouterr()
        assert ({(a, psd) for a, psd, _ in cones_asked}
                == {(a, PSD_TOL) for a in range(m.P)}), name
        assert len({id(c) for *_, c in cones_asked}) == m.P, name
        assert sorted(rays_built) == [PSD_TOL] * m.P + [LP_TOL] * m.P, name