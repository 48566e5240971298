import itertools
import json
import pathlib

import numpy as np
import pytest

from loccforge import cli, cones, measurement, nogo
from loccforge.errors import InvalidOperatorError
from loccforge.hermitian import LP_TOL, PSD_TOL, vectorize
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
from test_cones import cone, is_extreme_ray, is_singular_ray, random_generators
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
    for s1, s2 in _bipartitions(n, None if exhaustive else 2):
        blocked = []
        for a in range(m.P):
            if cones._intersection_point(cone([m.part(j, a) for j in s1], tol),
                                         cone([m.part(j, a) for j in s2], tol),
                                         tol) is None:
                blocked.append(a)
                if len(blocked) == 2:
                    return ((s1, s2), tuple(blocked)), exhaustive
    return None, exhaustive


def reference_singular_pair(m, tol=LP_TOL):
    """The singular-pair scan with the pairwise proportionality loop."""
    if len(m) < 2:
        return None
    gens = [[m.part(j, a) for j in range(len(m))] for a in range(m.P)]
    for a in range(m.P):
        cone(gens[a], tol)           # checks the parts as a cone's generators
    for j in range(len(m)):
        bad = [a for a in range(m.P)
               if is_singular_ray(j, gens[a], tol)
               and is_extreme_ray(j, gens[a], tol)]
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
    elif source["generator"] == "random_witness_measurement":
        m = random_witness_measurement(np.random.default_rng(source["seed"]))
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


SINGULAR_PAIR_LP_COUNTS = [
    # (corpus document, membership LPs, witness found)
    ("basis3x3", 0, False),            # no part is singular at two parties
    ("basis2x4", 0, False),
    ("basis3x4", 0, False),
    ("basis4x4", 0, False),
    ("basis2x2x2", 0, False),
    ("basis2x2x3", 0, False),
    ("tree02", 1, False),              # in the cone at the first of two parties
    ("tree10", 1, False),
    ("tree12", 0, False),
    ("tree51", 0, False),
    ("tree54", 0, False),
    ("cascade5", 3, False),
    ("domino9", 2, True),
    ("singularpair3", 2, True),
    ("witness0", 2, True),
]


@pytest.mark.parametrize("name, lps, found", SINGULAR_PAIR_LP_COUNTS,
                         ids=[case[0] for case in SINGULAR_PAIR_LP_COUNTS])
def test_singular_pair_scan_lp_counts(name, lps, found, monkeypatch):
    """Only parts singular at two or more parties get membership LPs, and an
    operator stops once it cannot reach two."""
    calls = []

    def spy(*args):
        calls.append(args)
        return cones.member(*args)

    monkeypatch.setattr(nogo, "member", spy)
    w = find_singular_pair_witness(corpus_measurement(name))
    assert (w is not None) == found
    assert len(calls) == lps


def linked_by_reference(m, tol=LP_TOL):
    """Per party, per operator j, the mask of i != j with either part
    proportional to the other, from the pairwise `proportional` loop."""
    out = []
    for a in range(m.P):
        gens = [m.part(j, a) for j in range(len(m))]
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
    """One check-nogo run builds one cone per party, asked for at `psd` by
    both scans, and per party two same-ray tables: at `psd` for validate's
    duplicate check and at `lp` for both scans. The measurement keeps them,
    so both scans share them, and both tables of a party compare one
    all-pairs broadcast against their tolerance."""
    cones_asked, rays_built, broadcasts = [], [], []
    real_cone = measurement.SeparableMeasurement.cone
    real_masks, real_terms = measurement.ray_masks, measurement.ray_terms
    monkeypatch.setattr(measurement.SeparableMeasurement, "cone",
                        lambda self, a, psd: cones_asked.append(
                            (a, psd, real_cone(self, a, psd))) or cones_asked[-1][2])
    monkeypatch.setattr(measurement, "ray_masks",
                        lambda t, tol: rays_built.append(tol) or real_masks(t, tol))
    monkeypatch.setattr(measurement, "ray_terms",
                        lambda g: broadcasts.append(len(g)) or real_terms(g))
    for name in ["cascade5", "domino9", "krausdemo", "singularpair3"]:
        m = load_fixture(name)
        cones_asked.clear()
        rays_built.clear()
        broadcasts.clear()
        assert cli.main(["check-nogo", str(FIXTURE_DIR / f"{name}.json")]) in (0, 2)
        capsys.readouterr()
        assert ({(a, psd) for a, psd, _ in cones_asked}
                == {(a, PSD_TOL) for a in range(m.P)}), name
        assert len({id(c) for *_, c in cones_asked}) == m.P, name
        assert sorted(rays_built) == [PSD_TOL] * m.P + [LP_TOL] * m.P, name
        assert broadcasts == [len(m)] * m.P, name


def nogo_scan_cases():
    """The fixtures and the benchmark's check-nogo documents, each at the
    default cap and at a cap of 2."""
    names = [p.stem for p in sorted(FIXTURE_DIR.glob("*.json"))]
    manifest = json.loads((BENCH / "corpus.json").read_text())
    names += [inv["instance"] for inv in manifest["workloads"]["nogo"]["invocations"]]
    ms = [load_fixture(n) if (FIXTURE_DIR / f"{n}.json").exists()
          else corpus_measurement(n) for n in dict.fromkeys(names)]
    return [(m, cap) for m in ms for cap in (16, 2)]


def test_cone_lps_agree_with_highs(monkeypatch, rng):
    """Every cone LP the scans solve over the fixtures and the benchmark's
    check-nogo documents, and those of random cones, is feasible for the
    simplex exactly when it is for HiGHS with x >= 0: a wrong "infeasible"
    here would be a false impossibility witness."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    lps, real = [], cones.feasible_point

    def spy(A, b, *, tol):
        lps.append((A, b, tol))
        return real(A, b, tol=tol)

    monkeypatch.setattr(cones, "feasible_point", spy)
    for m, cap in nogo_scan_cases():
        find_singular_pair_witness(m)
        find_partition_witness(m, cap)
    scanned = len(lps)
    for _ in range(150):
        d = int(rng.integers(2, 4))
        gens_a = random_generators(rng, d)
        a, b = cone(gens_a), cone(random_generators(rng, d))
        cones._intersection_point(a, b)
        # a point on a's first ray, or off it by a random PSD term
        x = gens_a[0] * float(rng.uniform(0.5, 2.0))
        if rng.random() < 0.5:
            x = x + random_psd(rng, d)
        cones.member(vectorize(x), a)
    monkeypatch.undo()
    verdicts = []
    for A, b, tol in lps:
        ref = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=b, method="highs",
                      bounds=[(0.0, None)] * A.shape[1])
        assert ref.status in (0, 2), ref.message
        x = cones.feasible_point(A, b, tol=tol)
        assert (x is not None) == (ref.status == 0), (A, b)
        verdicts.append(x is not None)
    assert scanned > 100
    # both answers occur among the scans' LPs and among the random ones
    assert 0 < np.mean(verdicts[:scanned]) < 1
    assert 0 < np.mean(verdicts[scanned:]) < 1


def test_cone_tables_are_the_parts_columns(monkeypatch, rng):
    """A party's cone is the read-only, C-contiguous table whose column j is
    vectorize(part(j, a)), byte for byte, kept per (party, tolerance); the
    singular-pair scan's membership point for part j is that column, and its
    cone the table's other columns."""
    ms = [load_fixture(p.stem) for p in sorted(FIXTURE_DIR.glob("*.json"))]
    ms += [random_valid_tree(np.random.default_rng(s))[1] for s in range(10)]
    ms += [measurement_from_parts([[random_psd(rng, d) for d in (2, 3)]
                                   for _ in range(int(rng.integers(1, 6)))])
           for _ in range(10)]
    for m in ms:
        for a in range(m.P):
            for psd in (PSD_TOL, LP_TOL):
                C = m.cone(a, psd)
                ref = np.column_stack([vectorize(p) for p in m.stack(a)])
                assert C.flags.c_contiguous and not C.flags.writeable
                assert C.dtype == ref.dtype
                assert C.shape == ref.shape and C.tobytes() == ref.tobytes()
                assert m.cone(a, psd) is C
    calls = []

    def spy(x, C, tol):
        calls.append((x, C))
        return cones.member(x, C, tol)

    monkeypatch.setattr(nogo, "member", spy)
    seen = 0
    for m in ms:
        calls.clear()
        find_singular_pair_witness(m)
        tables = [m.cone(a) for a in range(m.P)]
        seen += len(calls)
        for x, C in calls:
            # the party and operator whose column x is a view of
            a = next(a for a, t in enumerate(tables) if np.shares_memory(x, t))
            j = (x.ctypes.data - tables[a].ctypes.data) // x.itemsize
            assert x.base is tables[a] and x.strides == (tables[a].strides[0],)
            assert x.tobytes() == vectorize(m.part(j, a)).tobytes()
            others = [i for i in range(len(m)) if i != j]
            assert C.tobytes() == tables[a][:, others].tobytes()
    assert seen > 0
