import dataclasses
import gc
import hashlib
import itertools

import numpy as np
import pytest

from loccforge import simplex, synthesis
from loccforge.config import RunConfig
from loccforge.errors import InvalidMeasurementError
from loccforge.hermitian import LP_TOL, vectorize
from loccforge.measurement import measurement_from_parts
from loccforge.simplex import feasible_point
from loccforge.synthesis import (
    SynthesisStats,
    _class_feasible,
    _classes_feasible,
    _feasible_family,
    admit,
    build_classes,
    feasibility,
    orderings,
    synthesize,
)
from loccforge.tree import (
    Term,
    align_weights,
    canonical_key,
    compact_same_party,
    coverage,
    descend,
    group_value,
    leaf_tree,
    leaves,
    merge_and_extend,
    prune_unitary_rounds,
    root_for,
    validate_assignment,
    walk_nodes,
)

from conftest import (
    load_fixture,
    locc_random_measurements,
    product_basis,
    with_basis,
)

I2 = np.eye(2)


def search(m, cfg=None):
    """The search alone, which synthesize runs on a measurement that does
    not split, with fresh stats."""
    return synthesis._search(m, cfg or RunConfig(), SynthesisStats())


def test_cascade5_protocol_shape():
    m = load_fixture("cascade5")
    v = synthesize(m, RunConfig(rounds=4))
    assert v.kind == "Protocol"
    assert v.reason == "protocol found in round 4"
    assert v.stats.as_dict() == {"rounds": 4, "trees_built": 12,
                                 "lps_solved": 55, "classes_found": 3}
    assert len(leaves(v.tree)) == 5
    assert len(walk_nodes(v.tree)) == 9
    assert validate_assignment(v.tree, m, v.assignment, pin_identities=True)

    # first measurement splits the identity along the B2 / B4 directions
    trunk = root_for(v.tree, v.tree.trunk_party)
    vals = sorted(
        (np.round(group_value(c.groups[0], m, 1, v.assignment), 8) for c in
         trunk.children),
        key=lambda a: float(a[0, 0].real))
    assert np.allclose(vals[0], np.diag([0.0, 0.3]))
    assert np.allclose(vals[1], np.diag([1.0, 0.7]))

    # each input operator is realized exactly once with weight one
    w, residual = align_weights(v.tree, m, v.assignment)
    assert np.allclose(w, np.ones(5))
    assert residual <= 1e-8

    assert orderings(v, m.party_names) == [
        ("B",), ("B", "A"), ("B", "A", "B"), ("B", "A", "B", "A")]


def test_cascade5_matches_hand_built_merge_sequence():
    m = load_fixture("cascade5")
    v = synthesize(m)
    ls = [leaf_tree(m, j) for j in range(5)]
    inner = merge_and_extend([ls[0], ls[1]], 0)         # A splits A1 vs A2
    mid = merge_and_extend([ls[3], inner], 1)           # B splits B4 vs pooled B1 B2
    outer = merge_and_extend([ls[4], mid], 0)           # A splits A5 vs A4
    top = merge_and_extend([ls[2], outer], 1)           # B splits B3 vs B5
    hand = prune_unitary_rounds(compact_same_party(top))
    assert canonical_key(v.tree) == canonical_key(hand)


def test_domino9_proved_impossible():
    m = load_fixture("domino9")
    v = synthesize(m)
    assert v.kind == "ProvedImpossible"
    assert v.reason == "round 2 produced no new equivalence classes"
    assert v.tree is None and v.assignment is None
    assert v.stats.as_dict() == {"rounds": 2, "trees_built": 13,
                                 "lps_solved": 110, "classes_found": 4}


def test_productbasis_first_mode():
    m = load_fixture("productbasis4")
    for v, reason, trees in [(search(m), "protocol found in round 2", 9),
                             (synthesize(m), "split at party A into 2 branches", 4)]:
        assert v.kind == "Protocol"
        assert v.reason == reason
        assert v.stats.rounds == 2 and v.stats.trees_built == trees
        assert orderings(v, m.party_names) == [("A", "B")]
        assert len(v.protocols) == 1


def test_productbasis_exhaustive_mode():
    m = load_fixture("productbasis4")
    v = synthesize(m, RunConfig(mode="exhaustive"))
    assert v.kind == "Protocol"
    assert v.reason == "protocols found in round 2"
    assert len(v.protocols) == 2
    keys = {canonical_key(t) for t, _ in v.protocols}
    assert len(keys) == 2
    assert orderings(v, m.party_names) == [("A", "B"), ("B", "A")]
    for t, x in v.protocols:
        assert validate_assignment(t, m, x, pin_identities=True)


def classes_by_party(trees, m, known=None, start=0, stats=None):
    """build_classes for every free party over all trees: {free: (mergers,
    maximal)}; known is one set of feasible subsets per party, empty by
    default, so with start 0 every class is searched from scratch."""
    known = [set() for _ in range(m.P)] if known is None else known
    stats = SynthesisStats() if stats is None else stats
    out = {}
    for free in range(m.P):
        eligible = [i for i, t in enumerate(trees) if t.trunk_party != free]
        out[free] = build_classes(trees, eligible, free, m, known[free], start,
                                  stats, None, LP_TOL)
    return out


@pytest.mark.parametrize("name, kind, reason, stats, split", [
    ("fourparty_aligned", "Protocol", "protocol found in round 1", (1, 3, 2, 0),
     ("split at party A into 2 branches", (1, 2, 0, 0))),
    ("krausdemo", "Protocol", "protocol found in round 2", (2, 5, 9, 1),
     ("split at party A into 2 branches", (2, 3, 0, 0))),
    ("productbasis4", "Protocol", "protocol found in round 2", (2, 9, 15, 4),
     ("split at party A into 2 branches", (2, 4, 0, 0))),
    ("singularpair3", "ProvedImpossible",
     "round 1 produced no new equivalence classes", (1, 3, 6, 0), None),
    ("fourparty_mismatch", InvalidMeasurementError, "not complete", None, None),
])
def test_fixture_verdicts_under_default_config(name, kind, reason, stats, split):
    """reason and stats, (rounds, trees_built, lps_solved, classes_found),
    are the search's; split holds synthesize's where the fixture splits, and
    synthesize answers as the search does where it does not."""
    m = load_fixture(name)
    if stats is None:
        with pytest.raises(kind, match=reason):
            synthesize(m)
        return
    for v, (want_reason, want_stats) in [(search(m), (reason, stats)),
                                         (synthesize(m), split or (reason, stats))]:
        assert (v.kind, v.reason) == (kind, want_reason)
        assert v.stats.as_dict() == dict(zip(
            ("rounds", "trees_built", "lps_solved", "classes_found"), want_stats))
        if kind == "Protocol":
            assert validate_assignment(v.tree, m, v.assignment, pin_identities=True)


@pytest.mark.parametrize("dims, stats", [
    ((3, 3), (82, 34, 2)),
    ((2, 2, 2), (457, 33, 3)),
])
def test_product_basis_search_counts(dims, stats):
    """stats: (lps_solved, trees_built, rounds) of the search, which
    synthesize does not run on a product basis (it splits)."""
    v = search(product_basis(*dims))
    assert v.kind == "Protocol"
    assert (v.stats.lps_solved, v.stats.trees_built, v.stats.rounds) == stats


def test_fourparty_mismatch_has_no_classes():
    m = load_fixture("fourparty_mismatch")
    trees = [leaf_tree(m, j) for j in range(len(m))]
    assert all(classes == ([], []) for classes in classes_by_party(trees, m).values())
    # the mismatch also breaks completeness, so synthesis rejects the input
    with pytest.raises(InvalidMeasurementError, match="not complete"):
        synthesize(m)


def test_fourparty_aligned_single_class_and_protocol():
    m = load_fixture("fourparty_aligned")
    trees = [leaf_tree(m, j) for j in range(len(m))]
    maximal = {free: cls for free, (_, cls) in classes_by_party(trees, m).items()}
    assert maximal == {0: [(0, 1)], 1: [], 2: [], 3: []}

    v = synthesize(m, RunConfig(rounds=2))
    assert v.kind == "Protocol" and v.stats.rounds == 1
    hand = prune_unitary_rounds(compact_same_party(
        merge_and_extend([trees[0], trees[1]], 0)))
    assert canonical_key(v.tree) == canonical_key(hand)
    assert orderings(v, m.party_names) == [("A",)]


def test_feasibility_pins_reject_partial_coverage():
    """Two of four outcomes satisfy their alias equalities but cannot pin the
    roots to the identity; the protocol over all four can."""
    m = load_fixture("productbasis4")
    t = merge_and_extend([leaf_tree(m, 0), leaf_tree(m, 1)], 1)
    assert validate_assignment(t, m, np.ones(t.nvars))
    assert feasibility(t, m) is None
    full = synthesize(m).tree
    x = feasibility(full, m)
    assert x is not None and (x >= 1e-7 - 1e-12).all()
    assert validate_assignment(full, m, x, pin_identities=True)


def test_single_operator_identity():
    m = measurement_from_parts([[I2, I2]])
    v = synthesize(m)
    assert v.kind == "Protocol"
    assert v.reason == "single operator pins to the identity"
    assert v.tree.trunk_party is None
    assert orderings(v) == [()]
    assert np.allclose(v.assignment, [1.0, 1.0])


def test_single_operator_scaled_parts():
    m = measurement_from_parts([[2.0 * I2, 0.5 * I2]])
    v = synthesize(m)
    assert v.kind == "Protocol"
    assert np.allclose(v.assignment, [0.5, 2.0])


def test_rejects_invalid_measurement():
    m = measurement_from_parts([[np.diag([1.0, -0.5]), I2], [I2, I2]])
    with pytest.raises(InvalidMeasurementError) as exc:
        synthesize(m)
    assert any(d.kind == "not-psd" for d in exc.value.diagnostics)


def test_determinism_across_runs():
    m = load_fixture("cascade5")
    v1 = synthesize(m)
    v2 = synthesize(m)
    assert canonical_key(v1.tree) == canonical_key(v2.tree)
    assert v1.stats.as_dict() == v2.stats.as_dict()
    assert np.array_equal(v1.assignment, v2.assignment)

    mp = load_fixture("productbasis4")
    e1 = synthesize(mp, RunConfig(mode="exhaustive"))
    e2 = synthesize(mp, RunConfig(mode="exhaustive"))
    assert [canonical_key(t) for t, _ in e1.protocols] == \
        [canonical_key(t) for t, _ in e2.protocols]


def test_build_classes_extends_known_subsets():
    """A call with start past every tree only looks up the known subsets: it
    solves no LP and finds no class."""
    m = load_fixture("productbasis4")
    trees = [leaf_tree(m, j) for j in range(len(m))]
    known = [set() for _ in range(m.P)]
    stats = SynthesisStats()
    first = classes_by_party(trees, m, known, 0, stats)
    solved = stats.lps_solved
    assert solved > 0 and any(mergers for mergers, _ in first.values())
    again = classes_by_party(trees, m, known, len(trees), stats)
    assert again == {free: ([], []) for free in range(m.P)}
    assert stats.lps_solved == solved


def test_build_classes_merge_order_and_maximal():
    m = load_fixture("productbasis4")
    trees = [leaf_tree(m, j) for j in range(len(m))]
    for mergers, maximal in classes_by_party(trees, m).values():
        assert mergers == sorted(mergers, key=lambda s: (len(s), s))
        assert all(len(s) >= 2 for s in mergers)
        assert maximal and set(maximal) <= set(mergers)
        assert not any(set(a) < set(b) for a in maximal for b in mergers)


def round_searches(m, monkeypatch, rounds):
    """Per `_cover_search` call of the first `rounds` rounds of an exhaustive
    synthesize run, which covers every free party of every round: (trees,
    eligible, free, known, start, covers), each list and set copied at the
    call, before the search runs."""
    calls = []
    real = synthesis._cover_search

    def spy(trees, eligible, free, m, known, refuted, start, covers, *args):
        calls.append((list(trees), list(eligible), free, set(known), start,
                      list(covers)))
        return real(trees, eligible, free, m, known, refuted, start, covers,
                    *args)

    monkeypatch.setattr(synthesis, "_cover_search", spy)
    synthesize(m, RunConfig(rounds=rounds, mode="exhaustive"))
    monkeypatch.undo()
    return calls


def round_start_trees(m, monkeypatch, rounds):
    """The tree list at the start of each of the first `rounds` rounds of
    synthesize."""
    return [trees for trees, _, free, *_ in round_searches(m, monkeypatch, rounds)
            if free == 0]


# in round 2 of random-tree seed 5 a candidate has an infeasible one-smaller
# subset although both tuples it was joined from are feasible
@pytest.mark.parametrize("name", ["productbasis4", "cascade5", "domino9", 5])
def test_feasible_family_matches_brute_force(name, monkeypatch):
    """The family pass is plain Apriori: it returns the feasible subsets, the
    sets reaching _classes_feasible are exactly those and the negative border,
    each reached once, and every one of them but a single tree with no
    constraint rows costs one counted LP."""
    m = (load_fixture(name) if isinstance(name, str)
         else locc_random_measurements()[name])
    starts = round_start_trees(m, monkeypatch, 2)
    assert len(starts) == 2 and len(starts[1]) > len(starts[0]) == len(m)
    for trees in starts:
        for free in range(m.P):
            eligible = [i for i, t in enumerate(trees) if t.trunk_party != free]
            brute = {frozenset(c) for k in range(1, len(eligible) + 1)
                     for c in itertools.combinations(eligible, k)
                     if _class_feasible(trees, c, free, m, SynthesisStats(),
                                        None, LP_TOL)}

            solved = []

            def spy(trees, cands, *args):
                cands = list(cands)
                solved.extend(map(frozenset, cands))
                return _classes_feasible(trees, cands, *args)

            stats = SynthesisStats()
            monkeypatch.setattr(synthesis, "_classes_feasible", spy)
            family = _feasible_family(trees, eligible, free, m, set(), 0,
                                      stats, None, LP_TOL)
            monkeypatch.undo()
            assert len(set(family)) == len(family)
            assert set(map(frozenset, family)) == brute
            # the negative border: the infeasible sets whose one-smaller
            # subsets are all feasible
            border = {frozenset(c) for k in range(1, len(eligible) + 1)
                      for c in itertools.combinations(eligible, k)
                      if frozenset(c) not in brute
                      and all(len(c) == 1 or frozenset(c) - {i} in brute
                              for i in c)}
            assert len(set(solved)) == len(solved)
            assert set(solved) == brute | border
            free_singles = [i for i in eligible
                            if all(len(root_for(trees[i], beta).groups) == 1
                                   for beta in range(m.P) if beta != free)]
            assert stats.lps_solved == len(solved) - len(free_singles)


@pytest.mark.parametrize("name, rounds", [
    ("productbasis4", 2), ("cascade5", 4), ("domino9", 2)])
def test_cover_search_matches_brute_force(name, rounds, monkeypatch):
    """Each free party's cover search in every round of the run yields
    exactly the feasible subsets of size >= 2 of its eligible trees that
    cover every operator and hold an id >= start, as an LP for each finds
    them, in (size, ids) order."""
    m = load_fixture(name)
    calls = round_searches(m, monkeypatch, rounds)
    assert len({start for *_, start, _ in calls}) == rounds
    full = set(range(len(m)))
    found = 0
    for trees, eligible, free, known, start, covers in calls:
        cov = [coverage(t) for t in trees]
        assert covers == [sum(1 << j for j in c) for c in cov]
        brute = [c for k in range(2, len(eligible) + 1)
                 for c in itertools.combinations(eligible, k)
                 if c[-1] >= start and set().union(*(cov[i] for i in c)) == full
                 and _class_feasible(trees, c, free, m, SynthesisStats(), None,
                                     LP_TOL)]
        got = list(synthesis._cover_search(trees, eligible, free, m, set(known),
                                           set(), start, covers,
                                           SynthesisStats(), None, LP_TOL))
        assert got == brute
        found += len(got)
    # domino9 has no feasible full-coverage subset in either round
    assert (found > 0) == (name != "domino9")


def test_a_round_without_a_protocol_keeps_the_searched_trees(monkeypatch):
    """A round whose full-coverage mergers all fail the pinned LP, which no
    corpus instance has, so every pinned LP is made to fail here: the round
    builds its families, keeps each tree the cover search merged, builds no
    merger twice, and the next round's tree list adds every merger in
    (free, size, ids) order."""
    merged, tested, starts = [], [], []
    real_merge, real_search = synthesis.merge_and_extend, synthesis._cover_search

    def merge_spy(cs, free, memo):
        merged.append((free, tuple(map(id, cs))))
        return real_merge(cs, free, memo)

    def search_spy(trees, eligible, free, *args):
        if free == 0:
            starts.append(list(trees))
        return real_search(trees, eligible, free, *args)

    def no_protocol(t, *args, **kwargs):
        tested.append((len(starts), t))

    monkeypatch.setattr(synthesis, "merge_and_extend", merge_spy)
    monkeypatch.setattr(synthesis, "_cover_search", search_spy)
    monkeypatch.setattr(synthesis, "feasibility", no_protocol)
    m = load_fixture("productbasis4")
    v = search(m, RunConfig(rounds=3))
    monkeypatch.undo()
    assert (v.kind, v.stats.rounds) == ("BudgetExhausted", 3)
    assert len(set(merged)) == len(merged)
    assert v.stats.trees_built == len(m) + len(merged)
    # round 2 searched full-coverage mergers, and round 3 starts with them
    before, after = starts[1], starts[2]
    searched = [t for r, t in tested if r == 2]
    assert searched and all(any(t is u for u in after) for t in searched)
    answers, expected = {}, list(before)
    for free in range(m.P):
        eligible = [i for i, t in enumerate(before) if t.trunk_party != free]
        mergers, _ = scratch_classes(before, eligible, free, m, answers)
        expected += [merge_and_extend([before[i] for i in s], free)
                     for s in mergers if s[-1] >= len(starts[0])]
    assert list(map(canonical_key, after)) == list(map(canonical_key, expected))


def test_a_run_leaves_no_reference_cycle():
    """synthesize frees its trees and caches as it returns, not when the
    cycle collector next runs, so repeated runs in one process do not pile
    them up: a run leaves nothing in a reference cycle, also when it splits
    (the 3x3 basis, krausdemo, and domino9 times a qubit basis, proved
    impossible in a branch)."""
    ms = locc_random_measurements()
    gc.collect()
    gc.disable()
    try:
        for m, cfg in [(load_fixture("cascade5"), RunConfig()),
                       (product_basis(3, 3), RunConfig()),
                       (load_fixture("krausdemo"), RunConfig()),
                       (with_basis(load_fixture("domino9"), 2),
                        RunConfig(max_lps=2000)),
                       (ms[12], RunConfig(max_lps=2000)),
                       (ms[51], RunConfig(max_lps=2000))]:
            for mode in ("first", "exhaustive"):
                synthesize(m, dataclasses.replace(cfg, mode=mode))
                assert gc.collect() == 0
    finally:
        gc.enable()


# per instance, the number of protocols exhaustive mode returns and a digest
# of their canonical keys in order, as the search that built every class
# family before testing a merger returned them
EXHAUSTIVE_PROTOCOLS = {
    "basis3x3": (2, "ffc62d94a77eb52e"),
    "basis2x2x2": (27, "b5d07d76c9b09e0d"),
    "cascade5": (1, "e39fe99c2bdfd700"),
    5: (5, "0bea6c0fb6bfa40c"),
    29: (25, "1e55cf7826e492de"),
}


def test_exhaustive_protocols_are_pinned():
    """Exhaustive mode returns the same protocols in the same order: the
    cover search tests a round's full-coverage mergers in (free, size, ids)
    order, the order in which the family pass tested them."""
    ms = locc_random_measurements()
    cases = {"basis3x3": (product_basis(3, 3), RunConfig()),
             "basis2x2x2": (product_basis(2, 2, 2), RunConfig()),
             "cascade5": (load_fixture("cascade5"), RunConfig()),
             5: (ms[5], RunConfig(max_lps=2000)),
             29: (ms[29], RunConfig(max_lps=2000))}
    for name, (m, cfg) in cases.items():
        v = synthesize(m, dataclasses.replace(cfg, mode="exhaustive"))
        keys = [canonical_key(t) for t, _ in v.protocols]
        digest = hashlib.sha256(repr(keys).encode()).hexdigest()[:16]
        assert (len(keys), digest) == EXHAUSTIVE_PROTOCOLS[name], name


def scratch_classes(trees, eligible, free, m, answers):
    """Every mergeable class of the eligible trees, searched from scratch:
    (mergers in (size, ids) order, maximal ones). answers memoizes
    _class_feasible by (free, ids), as the trees a tuple names never change."""

    def feasible(c):
        if (free, c) not in answers:
            answers[free, c] = _class_feasible(trees, c, free, m,
                                               SynthesisStats(), None, LP_TOL)
        return answers[free, c]

    family = set()
    level = [(i,) for i in eligible if feasible((i,))]
    while level:
        family |= set(level)
        level = [a + b[-1:] for n, a in enumerate(level) for b in level[n + 1:]
                 if b[:-1] == a[:-1]
                 and all(a[:k] + a[k + 1:] + b[-1:] in family
                         for k in range(len(a)))
                 and feasible(a + b[-1:])]
    mergers = sorted((s for s in family if len(s) >= 2), key=lambda s: (len(s), s))
    maximal = [s for s in mergers
               if not any(tuple(sorted(s + (j,))) in family
                          for j in eligible if j not in s)]
    return mergers, maximal


def search_cases():
    cases = [(load_fixture(name), RunConfig())
             for name in ("productbasis4", "cascade5", "domino9")]
    return cases + [(m, RunConfig(max_lps=2000))
                    for m in locc_random_measurements().values()]


def test_rounds_return_only_new_classes(monkeypatch):
    """Each build_classes call of a run returns what a from-scratch search of
    its round finds beyond the earlier rounds: the mergers the last round did
    not have, and the maximal classes no earlier round had."""
    calls = []
    real = synthesis.build_classes

    def spy(trees, eligible, free, m, *args):
        got = real(trees, eligible, free, m, *args)
        calls.append((free, scratch_classes(trees, eligible, free, m, answers),
                      got))
        return got

    monkeypatch.setattr(synthesis, "build_classes", spy)
    rounds_extended = 0
    for m, cfg in search_cases():
        calls.clear()
        answers = {}
        last_mergers = {free: set() for free in range(m.P)}
        seen = {free: set() for free in range(m.P)}
        search(m, cfg)
        for free, (mergers, maximal), got in calls:
            assert got == ([s for s in mergers if s not in last_mergers[free]],
                           [s for s in maximal if s not in seen[free]])
            rounds_extended += bool(last_mergers[free])
            last_mergers[free] = set(mergers)
            seen[free] |= set(maximal)
    assert rounds_extended > 0


def test_no_subset_is_tested_or_merged_twice(monkeypatch):
    """Within one run, in first and exhaustive mode, no (free party, trees)
    reaches _classes_feasible or merge_and_extend a second time, across the
    cover search and the family pass of a round and across rounds; the
    family passes read what the cover searches refuted and merge sets whose
    LP the searches solved."""
    tested, merged, phase, families = [], [], [None], []
    real_class, real_merge = synthesis._classes_feasible, synthesis.merge_and_extend
    real_search, real_classes = synthesis._cover_search, synthesis.build_classes

    def class_spy(trees, cands, free, *args):
        cands = list(cands)
        tested.extend((phase[0], free, ids) for ids in cands)
        return real_class(trees, cands, free, *args)

    def merge_spy(cs, free, memo):
        merged.append((free, tuple(map(id, cs))))
        return real_merge(cs, free, memo)

    def search_spy(*args):
        phase[0] = "cover"
        return real_search(*args)

    def classes_spy(trees, eligible, free, m, known, start, stats, max_lps,
                    tol, rows, refuted):
        phase[0] = "family"
        shared = len(refuted)
        got = real_classes(trees, eligible, free, m, known, start, stats,
                           max_lps, tol, rows, refuted)
        families.append((free, got[0], shared))
        return got

    monkeypatch.setattr(synthesis, "_classes_feasible", class_spy)
    monkeypatch.setattr(synthesis, "merge_and_extend", merge_spy)
    monkeypatch.setattr(synthesis, "_cover_search", search_spy)
    monkeypatch.setattr(synthesis, "build_classes", classes_spy)
    cases = search_cases() + [(product_basis(*d), RunConfig())
                              for d in ((3, 3), (2, 2, 2))]
    runs = read = reused = 0
    for m, cfg in cases:
        for mode in ("first", "exhaustive"):
            tested.clear()
            merged.clear()
            families.clear()
            v = search(m, dataclasses.replace(cfg, mode=mode))
            pairs = [(free, ids) for _, free, ids in tested]
            assert len(set(pairs)) == len(pairs)
            assert len(set(merged)) == len(merged)
            runs += v.stats.rounds > 1 and bool(merged)
            found = {(free, ids) for p, free, ids in tested if p == "cover"}
            read += sum(shared > 0 for *_, shared in families)
            reused += sum((free, s) in found
                          for free, mergers, _ in families for s in mergers)
    assert runs > 0 and read > 0 and reused > 0


def test_merged_trees_never_repeat_a_key(monkeypatch):
    """No merged tree of a run has the key of a leaf or of another merged
    tree, so the search needs no table of the trees it has built."""
    merged = []
    real_merge = synthesis.merge_and_extend

    def merge_spy(cs, free, memo):
        t = real_merge(cs, free, memo)
        merged.append(t)
        return t

    monkeypatch.setattr(synthesis, "merge_and_extend", merge_spy)
    one_sided = measurement_from_parts([[I2, np.diag(np.eye(7)[i])]
                                        for i in range(7)])
    cases = search_cases()
    cases += [(m, dataclasses.replace(cfg, mode="exhaustive"))
              for m, cfg in search_cases()]
    cases.append((one_sided, RunConfig()))
    merges = 0
    for m, cfg in cases:
        merged.clear()
        v = search(m, cfg)
        leaf_keys = {canonical_key(leaf_tree(m, j)) for j in range(len(m))}
        keys = [canonical_key(t) for t in merged]
        assert len(set(keys)) == len(keys)
        assert not leaf_keys & set(keys)
        assert v.stats.trees_built == len(m) + len(merged)
        merges += len(merged)
    assert merges > 0


def test_tree_budget_is_checked_before_merging(monkeypatch):
    """A run that hits max_trees stops before it builds the tree it cannot
    keep."""
    calls = []
    real_merge = synthesis.merge_and_extend

    def merge_spy(cs, free, memo):
        calls.append(free)
        return real_merge(cs, free, memo)

    monkeypatch.setattr(synthesis, "merge_and_extend", merge_spy)
    v = search(product_basis(3, 3), RunConfig(max_trees=20))
    assert (v.kind, v.reason) == ("BudgetExhausted", "tree budget exhausted")
    assert v.stats.as_dict() == {"rounds": 1, "trees_built": 20,
                                 "lps_solved": 79, "classes_found": 6}
    assert len(calls) == 11


def test_tree_budget_spares_a_round_that_holds_a_protocol():
    """Only the full-coverage mergers are built before a round's answer is
    known: random-tree seed 59 finds its protocol in round 1 with 10 trees
    built, where building all 502 mergers of the round would pass a budget
    of 20 trees."""
    m = locc_random_measurements()[59]
    v = synthesize(m, RunConfig(max_trees=20))
    assert (v.kind, v.reason) == ("Protocol", "protocol found in round 1")
    assert (v.stats.trees_built, v.stats.lps_solved) == (10, 9)


def test_merged_coverage_is_the_union_of_its_members(monkeypatch):
    """On every merge of the runs, the operators a merged tree covers are
    those its members cover, and the trees tested for a protocol are exactly
    the merged ones that cover every operator."""
    merged, tested = [], []
    real_merge, real_feasibility = (synthesis.merge_and_extend,
                                    synthesis.feasibility)

    def merge_spy(cs, free, memo):
        t = real_merge(cs, free, memo)
        assert coverage(t) == set().union(*map(coverage, cs))
        merged.append(t)
        return t

    def feasibility_spy(t, *args, **kwargs):
        tested.append(t)
        return real_feasibility(t, *args, **kwargs)

    monkeypatch.setattr(synthesis, "merge_and_extend", merge_spy)
    monkeypatch.setattr(synthesis, "feasibility", feasibility_spy)
    for m, cfg in search_cases():
        merged.clear()
        tested.clear()
        search(m, cfg)
        full = set(range(len(m)))
        if len(m) > 1:
            assert list(map(id, tested)) == [
                id(t) for t in merged if coverage(t) == full]
    assert merged


def protocol_digest(tree):
    """A short digest of the tree's canonical_key."""
    return hashlib.sha256(repr(canonical_key(tree)).encode()).hexdigest()[:16]


# verdict, reason and protocol digest of each run, as the eager search
# without look-ahead found them; the split finds the same trees for the
# three fixtures it splits
PINNED_PROTOCOLS = {
    "cascade5": ("Protocol", "protocol found in round 4", "22fac4057ec55170"),
    "domino9": ("ProvedImpossible",
                "round 2 produced no new equivalence classes", None),
    "fourparty_aligned": ("Protocol", "split at party A into 2 branches",
                          "d77fb80978b1b232"),
    "krausdemo": ("Protocol", "split at party A into 2 branches",
                  "fc82d472505a3219"),
    "productbasis4": ("Protocol", "split at party A into 2 branches",
                      "49e3c4941f25d70c"),
    "singularpair3": ("ProvedImpossible",
                      "round 1 produced no new equivalence classes", None),
    2: ("Protocol", "protocol found in round 3", "3aa4a8742d0dfc99"),
    5: ("Protocol", "protocol found in round 2", "21e87b02ffee9c65"),
    7: ("Protocol", "protocol found in round 1", "50c42dc8ae10b2cb"),
    10: ("Protocol", "protocol found in round 3", "0cc819c6f4e6b540"),
    12: ("Protocol", "protocol found in round 2", "6a9c667a7abf68af"),
    16: ("Protocol", "protocol found in round 2", "7058db30a456f227"),
    20: ("Protocol", "single operator pins to the identity", "8115cfda3e9e7325"),
    24: ("Protocol", "protocol found in round 1", "efcca15420add068"),
    29: ("Protocol", "protocol found in round 2", "09969ec9b7cf4151"),
    35: ("Protocol", "single operator pins to the identity", "795cad728e79584f"),
    43: ("Protocol", "protocol found in round 3", "f1690f4ded7549b8"),
    46: ("Protocol", "single operator pins to the identity", "8115cfda3e9e7325"),
    51: ("BudgetExhausted", "lp budget exhausted", None),
    53: ("Protocol", "protocol found in round 1", "26bc27b4c4b911a4"),
    54: ("Protocol", "protocol found in round 1", "88e73f9d3472f3d1"),
    59: ("Protocol", "protocol found in round 1", "dd307841d4d23aec"),
}


def test_returned_protocols_are_pinned():
    """The cover search and lazy merges change only the LP and tree counts: the
    fixtures under the default config and the LOCC random trees under
    max_lps=2000 keep their verdict, reason and protocol."""
    cases = {name: (load_fixture(name), RunConfig())
             for name in PINNED_PROTOCOLS if isinstance(name, str)}
    cases.update((s, (m, RunConfig(max_lps=2000)))
                 for s, m in locc_random_measurements().items())
    assert cases.keys() == PINNED_PROTOCOLS.keys()
    for name, (m, cfg) in cases.items():
        v = synthesize(m, cfg)
        got = (v.kind, v.reason, None if v.tree is None else protocol_digest(v.tree))
        assert got == PINNED_PROTOCOLS[name], name


def test_class_lps_stay_small_on_seed_51(monkeypatch):
    """Random-tree seed 51 makes wide groups of level tuples. Yet no class it
    tests or LP it assembles spans more than 8 trees, and the simplex never
    trips its pivot guard (the error would propagate). The cover search of
    its third round finds its protocol after 2,654 LPs."""
    tested, assembled = [], []
    real_class, real_lp = synthesis._classes_feasible, synthesis._class_lp

    def class_spy(trees, cands, *args):
        cands = list(cands)
        tested.extend(map(len, cands))
        return real_class(trees, cands, *args)

    def lp_spy(ids, *args):
        assembled.append(len(ids))
        return real_lp(ids, *args)

    monkeypatch.setattr(synthesis, "_classes_feasible", class_spy)
    monkeypatch.setattr(synthesis, "_class_lp", lp_spy)
    v = synthesize(locc_random_measurements()[51], RunConfig(max_lps=5000))
    assert (v.kind, v.reason) == ("Protocol", "protocol found in round 3")
    assert v.stats.lps_solved == 2654
    assert assembled
    assert max(tested + assembled) <= 8


def test_intern_table_keeps_keys_and_trees(monkeypatch):
    """The search passes one intern table per run, a fresh one for each run,
    to every merge_and_extend call; the trees and the protocols' keys equal
    those built without one."""
    tables = []
    real_merge = synthesis.merge_and_extend

    def merge_spy(cs, free, memo):
        t = real_merge(cs, free, memo)
        assert t == merge_and_extend(cs, free)
        tables.append(memo)
        return t

    monkeypatch.setattr(synthesis, "merge_and_extend", merge_spy)
    for m in (load_fixture("cascade5"), product_basis(3, 3)):
        runs = []
        for _ in range(2):
            tables.clear()
            v = search(m)
            assert v.kind == "Protocol"
            assert len(tables) == v.stats.trees_built - len(m) > 0
            assert all(memo is tables[0] for memo in tables)
            runs.append((v.stats.as_dict(),
                         [canonical_key(t) for t, _ in v.protocols], tables[0]))
        assert runs[0][:2] == runs[1][:2]
        assert runs[0][2] is not runs[1][2]


def test_locc_random_trees_are_never_proved_impossible():
    """The random trees are LOCC by construction; running out of budget is
    allowed, a proof of impossibility is not."""
    ms = locc_random_measurements()
    assert len(ms) == 16
    for s, m in ms.items():
        kind = synthesize(m, RunConfig(max_lps=2000)).kind
        assert kind in ("Protocol", "BudgetExhausted"), s


def test_locc_random_tree_protocols_get_their_weights():
    """Every protocol found for the LOCC random trees weighs each leaf against
    the operator it names and completes to the identity, the leaves at the
    delta floor included."""
    found = set()
    for s, m in locc_random_measurements().items():
        v = synthesize(m, RunConfig(max_lps=2000))
        if v.kind == "Protocol":
            found.add(s)
            _, residual = align_weights(v.tree, m, v.assignment)
            assert residual <= 1e-9, s
    assert {12, 29, 54, 59} <= found


def test_round_budget():
    m = load_fixture("cascade5")
    v = synthesize(m, RunConfig(rounds=1))
    assert v.kind == "BudgetExhausted"
    assert v.reason == "round limit 1 reached"
    assert v.stats.rounds == 1
    v0 = synthesize(m, RunConfig(rounds=0))
    assert v0.kind == "BudgetExhausted" and v0.stats.rounds == 0


def test_lp_budget():
    m = load_fixture("cascade5")
    v = synthesize(m, RunConfig(max_lps=5))
    assert v.kind == "BudgetExhausted"
    assert v.reason == "lp budget exhausted"


@pytest.mark.parametrize("max_lps, stats", [
    (100, (1, 17, 101, 0)), (500, (2, 68, 501, 6)), (2000, (3, 278, 2001, 27))])
def test_lp_budget_cuts_a_level_where_one_lp_at_a_time_would(max_lps, stats,
                                                             monkeypatch):
    """A family level counts its LPs in candidate order before it decides
    any, so random-tree seed 51 stops at each budget with the rounds, trees,
    LPs and classes of solving one LP at a time; the level that passes the
    budget assembles no block."""
    calls = []
    real_class, real_lp = synthesis._classes_feasible, synthesis._class_lp

    def class_spy(*args):
        calls.append(0)
        return real_class(*args)

    def lp_spy(*args):
        calls[-1] += 1
        return real_lp(*args)

    monkeypatch.setattr(synthesis, "_classes_feasible", class_spy)
    monkeypatch.setattr(synthesis, "_class_lp", lp_spy)
    v = synthesize(locc_random_measurements()[51], RunConfig(max_lps=max_lps))
    assert (v.kind, v.reason) == ("BudgetExhausted", "lp budget exhausted")
    s = v.stats
    assert (s.rounds, s.trees_built, s.lps_solved, s.classes_found) == stats
    assert calls and calls[-1] == 0


def test_a_level_raises_the_guard_error_of_its_first_tripped_set(monkeypatch):
    """When class-LP blocks trip the simplex's iteration guard, a family
    level raises the error of the first set, in candidate order, whose block
    trips, as deciding one set at a time does, although it solves the blocks
    party by party. Here every block trips; on some levels of random-tree
    seed 10 that set's first undecided block is not at the first party that
    solves any, so raising in party order would name another set."""
    levels = []
    real = synthesis._classes_feasible

    def spy(trees, cands, free, m, stats, max_lps, tol, rows=None):
        cands = list(cands)
        levels.append((list(trees), cands, free, m))
        return real(trees, cands, free, m, stats, max_lps, tol, rows)

    monkeypatch.setattr(synthesis, "_classes_feasible", spy)
    synthesize(locc_random_measurements()[10], RunConfig(max_lps=300))
    monkeypatch.undo()
    calls = []

    def tripping(As, bs, *, tol, lowers, tripped):
        calls.append([simplex.SimplexGuardError(A.tobytes().hex()) for A in As])
        tripped.update(enumerate(calls[-1]))
        return [None] * len(As)

    def raised(trees, cands, free, m):
        try:
            real(trees, cands, free, m, SynthesisStats(), None, LP_TOL)
        except simplex.SimplexGuardError as e:
            return str(e)

    monkeypatch.setattr(synthesis, "feasible_points", tripping)
    crossed = 0
    for trees, cands, free, m in levels:
        want = next(filter(None, (raised(trees, [c], free, m) for c in cands)), None)
        del calls[:]
        assert raised(trees, cands, free, m) == want
        crossed += want is not None and want not in map(str, calls[0])
    assert crossed


def test_tree_budget():
    m = load_fixture("cascade5")
    v = synthesize(m, RunConfig(max_trees=5))
    assert v.kind == "BudgetExhausted"
    assert v.reason == "tree budget exhausted"


def test_orderings_input_forms():
    m = load_fixture("productbasis4")
    t = merge_and_extend([leaf_tree(m, 0), leaf_tree(m, 1)], 1)
    assert orderings([t]) == [(1, 0)] or orderings([t]) == [(1,)]
    assert orderings([(t, None)]) == orderings([t])
    named = orderings([t], m.party_names)
    assert all(isinstance(s[0], str) for s in named)


def kernel_answer(A, tol):
    """The class LP as _classes_feasible puts it to the simplex."""
    x = feasible_point(A, np.zeros(A.shape[0]), tol=tol,
                       lower=np.ones(A.shape[1]))
    return x is not None


def reference_class_lp(trees, ids, free_party, m):
    """The joint class LP (A, b) of ids over every party but free_party, as
    one matrix: per party, each tree's alias rows, then the chain rows of
    consecutive trees; a column is a (tree id, var) pair, numbered by first
    use, lhs before rhs. The per-party blocks replace this construction."""
    cols = {}

    def renamed(tid, g):
        return tuple(Term(t.op, cols.setdefault((tid, t.var), len(cols)), t.scale)
                     for t in g)

    pairs = {}
    for beta in range(trees[ids[0]].P):
        if beta == free_party:
            continue
        pairs[beta] = []
        for tid in ids:
            gs = root_for(trees[tid], beta).groups
            pairs[beta] += [(renamed(tid, ga), renamed(tid, gb))
                            for ga, gb in zip(gs, gs[1:])]
        for ta, tb in zip(ids, ids[1:]):
            ga = root_for(trees[ta], beta).groups[0]
            gb = root_for(trees[tb], beta).groups[0]
            pairs[beta].append((renamed(ta, ga), renamed(tb, gb)))
    A = np.vstack([synthesis._rows(p, m.columns(beta), len(cols))
                   for beta, p in pairs.items()])
    return A, np.zeros(A.shape[0])


def joint_blocks(trees, ids, free_party, m):
    """(party, row slice, column slice) of each party's block of
    `reference_class_lp`, in party order; a party without rows has no
    columns there either."""
    out, r, c = [], 0, 0
    for beta in range(trees[ids[0]].P):
        if beta == free_party:
            continue
        gs = [root_for(trees[tid], beta).groups for tid in ids]
        nrows = m.dims[beta] ** 2 * (sum(len(g) - 1 for g in gs) + len(ids) - 1)
        ncols = sum(len({u.var for g in groups for u in g})
                    for groups in gs) if nrows else 0
        out.append((beta, slice(r, r + nrows), slice(c, c + ncols)))
        r, c = r + nrows, c + ncols
    return out


def class_lp_cases():
    return [(product_basis(3, 3), RunConfig()),
            (product_basis(2, 2, 2), RunConfig()),
            (load_fixture("cascade5"), RunConfig()),
            (load_fixture("domino9"), RunConfig())] + [
        (m, RunConfig(max_lps=2000)) for m in locc_random_measurements().values()]


def reached_class_lps(monkeypatch):
    """Per search of `class_lp_cases`, the (trees, ids, free, m, tol, answer)
    of every class LP it asks `_classes_feasible`."""
    reached = []
    real = synthesis._classes_feasible

    def spy(trees, cands, free, m, stats, max_lps, tol, *rest):
        cands = list(cands)
        answers = real(trees, cands, free, m, stats, max_lps, tol, *rest)
        reached.extend((trees, ids, free, m, tol, answer)
                       for ids, answer in zip(cands, answers))
        return answers

    monkeypatch.setattr(synthesis, "_classes_feasible", spy)
    for m, cfg in class_lp_cases():
        reached.clear()
        search(m, cfg)
        yield list(reached)


def test_variables_label_one_party(monkeypatch):
    """Every tree variable occurs in the groups of one party only, across
    roots and descendants: leaf_tree creates var a at party a, and
    merge_and_extend only offsets vars. The class LP and the pinned LP split
    into one block per party on this."""
    built = []
    real = synthesis.merge_and_extend

    def spy(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(synthesis, "merge_and_extend", spy)
    merged = 0
    for m, cfg in class_lp_cases():
        built.clear()
        search(m, cfg)
        merged += len(built)
        for t in [leaf_tree(m, j) for j in range(len(m))] + built:
            parties = {}
            for n, _ in descend(t, t.roots):
                for g in n.groups:
                    for u in g:
                        parties.setdefault(u.var, set()).add(n.party)
            assert all(len(p) == 1 for p in parties.values())
    assert merged > 0


def test_class_blocks_match_the_joint_lp(monkeypatch):
    """Every class LP the searches reach: the joint matrix is block-diagonal
    by party, each block `_class_lp` assembles from the per-tree blocks
    `_tree_rows` keeps is that party's rows and columns of it, bit for bit,
    and `_classes_feasible` answers as the simplex does on the joint LP."""
    blocks = 0
    for reached in reached_class_lps(monkeypatch):
        rows = {}
        for trees, ids, free, m, tol, answer in reached:
            A, b = reference_class_lp(trees, ids, free, m)
            assert not b.any()
            assert answer == kernel_answer(A, tol)
            inside = np.zeros(A.shape, dtype=bool)
            parts = joint_blocks(trees, ids, free, m)
            assert (parts[-1][1].stop, parts[-1][2].stop) == A.shape
            for beta, rs, cs in parts:
                inside[rs, cs] = True
                if rs.stop > rs.start:
                    for tid in ids:
                        synthesis._tree_rows(trees, tid, beta, m, tol, rows)
                    block = synthesis._class_lp(ids, beta, rows)
                    # bit for bit, so Bland's rule pivots alike on both
                    assert block.shape == A[rs, cs].shape
                    assert block.tobytes() == A[rs, cs].tobytes()
                    blocks += 1
            assert not A[~inside].any()
    assert blocks > 0


def reference_pinned_lp(t, m):
    """The pinned LP of t as one matrix (A, b, cols): per party in order, the
    consecutive group pairs of each of its nodes, then its root's value group
    against the identity. The columns are party 0's vars in ascending order,
    then party 1's, and so on; cols lists the var of each column."""
    nodes = [n for n, _ in descend(t, t.roots)]
    blocks, rhs, cols = [], [], []
    for a in range(t.P):
        mine = [n for n in nodes if n.party == a]
        pairs = [p for n in mine for p in zip(n.groups, n.groups[1:])]
        pairs.append((root_for(t, a).groups[0], ()))
        blocks.append(synthesis._rows(pairs, m.columns(a), t.nvars))
        eye = vectorize(np.eye(m.dims[a], dtype=complex))
        rhs += [np.zeros(blocks[-1].shape[0] - eye.size), eye]
        cols += sorted({u.var for n in mine for g in n.groups for u in g})
    return np.vstack(blocks)[:, cols], np.concatenate(rhs), cols


def test_pinned_blocks_match_the_joint_lp(monkeypatch):
    """Every pinned LP the searches of `class_lp_cases` reach, in first and
    exhaustive mode: solving it one party at a time answers as the simplex
    does on the joint LP stacked from the same pairs, and finds the same
    assignment up to roundoff in the shift to x >= delta (module docstring
    of synthesis)."""
    reached = []
    real = synthesis.feasibility

    def spy(t, m, **kw):
        reached.append((t, m, kw, real(t, m, **kw)))
        return reached[-1][-1]

    monkeypatch.setattr(synthesis, "feasibility", spy)
    for m, cfg in class_lp_cases():
        for mode in ("first", "exhaustive"):
            search(m, dataclasses.replace(cfg, mode=mode))
    answers = {True: 0, False: 0}
    for t, m, kw, x in reached:
        A, b, cols = reference_pinned_lp(t, m)
        joint = feasible_point(A, b, tol=kw["tol"],
                               lower=np.full(len(cols), kw["delta"]))
        assert (x is None) == (joint is None)
        answers[x is not None] += 1
        if x is not None:
            assert np.abs(x[cols] - joint).max() <= 1e-12 * np.abs(joint).max()
    # both answers occur
    assert min(answers.values()) > 0


def test_class_certificates_agree_with_the_simplex(monkeypatch):
    """Every block of every class LP the searches reach on the product bases,
    the fixtures and the LOCC random trees: the certificate composed from
    per-tree blocks is the block's own, and a decided answer is the
    simplex's. The two add each row in another order, so they may differ on
    the zero test, and only where the block's row sums are within summation
    roundoff of zero (one block of cascade5)."""
    answers = {True: 0, False: 0, None: 0}
    for reached in reached_class_lps(monkeypatch):
        rows = {}
        for trees, ids, free, m, tol, _ in reached:
            A, _ = reference_class_lp(trees, ids, free, m)
            for beta, rs, cs in joint_blocks(trees, ids, free, m):
                block = A[rs, cs]
                known, = synthesis._block_certificates(trees, [ids], beta, m,
                                                       tol, rows)
                full = synthesis._class_certificate(block, tol)
                if known != full:
                    assert {known, full} == {True, None}
                    r = block @ np.ones(block.shape[1])
                    eps = np.finfo(float).eps
                    assert (np.abs(r) <= block.shape[1] * eps
                            * np.abs(block).sum(axis=1)).all()
                answers[known] += 1
                if known is not None:
                    assert known == kernel_answer(block, tol)
    # both certificates fire, and some blocks still need the simplex
    assert min(answers.values()) > 0


def test_class_certificate_margins():
    tol = LP_TOL
    mixed = [1.0, -1.0]
    cert = synthesis._class_certificate
    # a one-signed row summing to 1.9 tol is left to the simplex ...
    A = np.array([[0.95 * tol, 0.95 * tol], mixed])
    assert cert(A, tol) is None
    # ... and at 2.1 tol no x >= 1 passes the residual check
    A = np.array([[1.05 * tol, 1.05 * tol], mixed])
    assert cert(A, tol) is False and kernel_answer(A, tol) is False
    # a one-signed roundoff row is dropped by the simplex, which finds x
    A = np.array([[4e-13, 4e-13], mixed])
    assert cert(A, tol) is None and kernel_answer(A, tol) is True
    # a large mixed-sign row is not a certificate: x = (2, 1) solves it
    A = np.array([[1.0, -2.0]])
    assert cert(A, tol) is None and kernel_answer(A, tol) is True
    # A @ 1 == 0, a zero row included: x = 1 solves it
    A = np.array([[1.0, -1.0, 0.0], [0.0, 2.0, -2.0], [0.0, 0.0, 0.0]])
    assert cert(A, tol) is True and kernel_answer(A, tol) is True

    # the chain rows [G_a, -G_b] of two trees' value-group blocks, decided
    # from each block's row sums and signs as the full rows are
    pairs = []

    def chain(Ga, Gb):
        Ga, Gb = np.array(Ga), np.array(Gb)
        pairs.append((synthesis._block_signs(Ga), synthesis._block_signs(Gb)))
        known, = synthesis._chain_certificates(pairs[-1:], tol)
        A = np.hstack([Ga, -Gb])
        assert known == synthesis._class_certificate(A, tol)
        return known, A

    # g_a - g_b at 1.9 tol on a one-signed row is left to the simplex ...
    known, _ = chain([[0.95 * tol, 0.95 * tol], [1.0, 0.0]], [[0.0], [1.0]])
    assert known is None
    # ... and at 2.1 tol no x >= 1 passes the residual check
    known, A = chain([[1.05 * tol, 1.05 * tol], [1.0, 0.0]], [[0.0], [1.0]])
    assert known is False and kernel_answer(A, tol) is False
    # one-signed only across the pair: a's entries >= 0 and b's <= 0 ...
    known, A = chain([[1.0, 2.0]], [[-3.0]])
    assert known is False and kernel_answer(A, tol) is False
    # ... or a's <= 0 and b's >= 0
    known, A = chain([[-1.0, -2.0]], [[3.0]])
    assert known is False and kernel_answer(A, tol) is False
    # same signs on both sides make a mixed row: x = (1, 1, 3) solves it
    known, A = chain([[1.0, 2.0]], [[1.0]])
    assert known is None and kernel_answer(A, tol) is True
    # equal row sums: x = 1 solves it
    known, A = chain([[1.0, 2.0]], [[3.0]])
    assert known is True and kernel_answer(A, tol) is True
    # the pairs of one row count decided in one pass answer as one at a time
    for size in (1, 2):
        same = [p for p in pairs if len(p[0][0]) == size]
        assert synthesis._chain_certificates(same, tol) == [
            synthesis._chain_certificates([p], tol)[0] for p in same]


def test_product_basis_class_lps_need_no_pivots(monkeypatch):
    """On the 3x3 basis every class LP is decided by a certificate, and each
    still counts in lps_solved. Neither the one-LP kernel nor the stacked
    one pivots."""
    inside, calls, pivoted = [], [], []
    real_class = synthesis._classes_feasible
    real_phase1, real_stack = simplex._phase1, simplex._phase1_stack

    def class_spy(trees, cands, *args):
        cands = list(cands)
        inside.append(True)
        calls.extend(cands)
        try:
            return real_class(trees, cands, *args)
        finally:
            inside.pop()

    def phase1_spy(*args):
        if inside:
            pivoted.append(args)
        return real_phase1(*args)

    def stack_spy(*args):
        if inside:
            pivoted.append(args)
        return real_stack(*args)

    monkeypatch.setattr(synthesis, "_classes_feasible", class_spy)
    monkeypatch.setattr(simplex, "_phase1", phase1_spy)
    monkeypatch.setattr(simplex, "_phase1_stack", stack_spy)
    v = search(product_basis(3, 3))
    assert v.kind == "Protocol"
    assert (v.stats.lps_solved, v.stats.trees_built, v.stats.rounds) == (82, 34, 2)
    assert calls and pivoted == []


def test_product_basis_class_lps_are_never_assembled(monkeypatch):
    """On the 3x3 and 4x4 bases the certificates, read from per-tree blocks,
    decide every block of every class LP, so _classes_feasible never
    assembles one."""
    inside, calls, assembled = [], [], []
    real_class, real_lp = synthesis._classes_feasible, synthesis._class_lp

    def class_spy(trees, cands, *args):
        cands = list(cands)
        inside.append(True)
        calls.extend(cands)
        try:
            return real_class(trees, cands, *args)
        finally:
            inside.pop()

    def lp_spy(*args):
        if inside:
            assembled.append(args)
        return real_lp(*args)

    monkeypatch.setattr(synthesis, "_classes_feasible", class_spy)
    monkeypatch.setattr(synthesis, "_class_lp", lp_spy)
    v3 = search(product_basis(3, 3))
    v4 = search(product_basis(4, 4))
    assert v3.kind == v4.kind == "Protocol"
    assert (v3.stats.lps_solved, v3.stats.trees_built, v3.stats.rounds) == (82, 34, 2)
    assert calls and assembled == []


def synthesis_inputs():
    """Every fixture synthesize accepts, the computational product bases and
    the LOCC random trees."""
    yield from (load_fixture(name) for name in (
        "cascade5", "domino9", "fourparty_aligned", "krausdemo",
        "productbasis4", "singularpair3"))
    yield from (product_basis(*d) for d in (
        (3, 3), (2, 4), (3, 4), (4, 4), (2, 2, 2), (2, 2, 3)))
    yield from locc_random_measurements().values()


@pytest.mark.parametrize("mode", ["first", "exhaustive"])
def test_synthesized_protocols_are_normal(mode):
    """compact_same_party and prune_unitary_rounds return every protocol
    synthesize emits unchanged, so _emit need not apply them: on the inputs
    above, the frontier's bases, and a split whose branch measures the split
    party first."""
    count = 0
    frontier = [product_basis(*d) for d in ((8, 8), (2, 2, 2, 2, 2), (3, 3, 4))]
    for m in [*synthesis_inputs(), *frontier, cascade5_beside_an_outcome()]:
        v = synthesize(m, RunConfig(mode=mode, max_lps=2000))
        for t, _ in v.protocols:
            assert compact_same_party(t) == t
            assert prune_unitary_rounds(t) == t
            count += 1
    assert count >= 20


# ---------------------------------------------------------------- the split

def cascade5_beside_an_outcome():
    """cascade5 with a third direction at B, which one more outcome, A's
    identity times that direction, holds alone. It splits at B into cascade5,
    whose search measures B first, and that outcome."""
    c = load_fixture("cascade5")
    return measurement_from_parts(
        [[c.part(j, 0), np.pad(c.part(j, 1), (0, 1))] for j in range(len(c))]
        + [[I2, np.diag([0.0, 0.0, 1.0])]])


def stacks(m):
    return tuple(m.stack(a) for a in range(m.P))


def test_a_branch_that_measures_the_split_party_first_is_folded():
    """cascade5's protocol measures B first, so the split at B would give B
    two rounds in a row; composing folds them: the trunk's three outcomes
    are cascade5's two first ones and the new outcome. The split still
    counts as a round."""
    m = cascade5_beside_an_outcome()
    v = synthesize(m)
    assert (v.kind, v.reason) == ("Protocol", "split at party B into 2 branches")
    assert v.stats.as_dict() == {"rounds": 5, "trees_built": 13,
                                 "lps_solved": 55, "classes_found": 3}
    trunk = root_for(v.tree, v.tree.trunk_party)
    assert trunk.party == 1 and v.tree.depth == 4
    assert [c.party for c in trunk.children] == [1, 1, 1]
    assert all(k.party == 0 for c in trunk.children for k in c.children)
    assert validate_assignment(v.tree, m, v.assignment, pin_identities=True)


def unsplit_cases():
    """Documents that do not split: the LOCC random trees, cascade5,
    domino9, singularpair3 and a single operator."""
    cases = [(m, RunConfig(max_lps=2000))
             for m in locc_random_measurements().values()]
    cases += [(load_fixture(n), RunConfig())
              for n in ("cascade5", "domino9", "singularpair3")]
    return cases + [(measurement_from_parts([[2.0 * I2, 0.5 * I2]]), RunConfig())]


def test_a_document_that_does_not_split_gets_the_search_answer():
    """synthesize finds no branch on these documents and answers exactly as
    the search does: verdict, reason, stats, protocol keys and assignments,
    bit for bit."""
    kinds = set()
    for m, cfg in unsplit_cases():
        assert synthesis._split(stacks(m), admit(m, cfg).weights, cfg, 0) is None
        v, u = synthesize(m, cfg), search(m, cfg)
        assert (v.kind, v.reason, v.stats) == (u.kind, u.reason, u.stats)
        assert len(v.protocols) == len(u.protocols)
        for (t, x), (tu, xu) in zip(v.protocols, u.protocols):
            assert canonical_key(t) == canonical_key(tu)
            assert x.tobytes() == xu.tobytes()
        assert (v.assignment is None) == (u.assignment is None)
        if v.assignment is not None:
            assert v.assignment.tobytes() == u.assignment.tobytes()
        kinds.add(v.kind)
    assert kinds == {"Protocol", "ProvedImpossible", "BudgetExhausted"}


def assert_frontier_bases_split(cfg):
    """The 2x2x2x2x2, 3x3x4 and 2x3x3x3 bases, which the search alone does
    not decide within the default budgets, split down to single operators:
    a protocol with no LP, weights 1 within lp, that revalidates."""
    for dims in ((2, 2, 2, 2, 2), (3, 3, 4), (2, 3, 3, 3)):
        m = product_basis(*dims)
        v = synthesize(m, cfg)
        assert v.kind == "Protocol", dims
        assert (v.stats.lps_solved, v.stats.trees_built) == (0, len(m))
        assert v.stats.rounds == len(dims)
        assert validate_assignment(v.tree, m, v.assignment, pin_identities=True)
        w, residual = align_weights(v.tree, m, v.assignment)
        assert np.abs(w - 1.0).max() <= LP_TOL and residual <= LP_TOL


def assert_domino_products_impossible(cfg):
    """domino9 times a qubit, qutrit or 2x2 basis on new parties splits at
    the basis parties into copies of domino9, and the first is proved
    impossible: the reason names each split party and branch."""
    domino = load_fixture("domino9")

    def branch(stride, outcomes, party):
        labels = ", ".join(f"M{stride * j + k + 1}" for j in range(9)
                           for k in outcomes)
        return f"branch {{{labels}}} of the split at party {party}: "

    for dims, reason, lps in [
            ((2,), branch(2, [0], "C"), 196),
            ((3,), branch(3, [0], "C"), 196),
            ((2, 2), branch(4, [0, 1], "C") + branch(4, [0], "D"), 278)]:
        v = synthesize(with_basis(domino, *dims), cfg)
        assert v.kind == "ProvedImpossible", dims
        assert v.reason == reason + "round 2 produced no new equivalence classes"
        assert v.stats.lps_solved == lps


def test_frontier_bases_split_to_protocols():
    assert_frontier_bases_split(RunConfig())


def test_domino_products_are_proved_impossible():
    assert_domino_products_impossible(RunConfig())


def test_linking_everything_fails_the_frontier(monkeypatch):
    """With every pair linked nothing splits, and both frontier checks fail
    (under an LP budget that keeps the search short)."""
    monkeypatch.setattr(synthesis, "_components",
                        lambda g, psd: [np.arange(len(g))])
    cfg = RunConfig(max_lps=2000)
    for check in (assert_frontier_bases_split, assert_domino_products_impossible):
        with pytest.raises(AssertionError):
            check(cfg)


def test_linked_chains_form_one_component():
    """One-party parts where E_1 links E_2 and E_2 links E_3 but E_1 is
    orthogonal to E_3 form one component; a part orthogonal to all three,
    placed among them, forms its own."""
    u = np.array([1.0, 1.0, 1.0, 0.0]) / np.sqrt(3)
    e = np.eye(4)
    g = np.stack([np.outer(e[0], e[0]), np.outer(e[3], e[3]),
                  np.outer(e[2], e[2]), np.outer(u, u)]).astype(complex)
    assert [list(p) for p in synthesis._components(g, RunConfig().tol.psd)] == [
        [0, 2, 3], [1]]


def near_orthogonal_measurement():
    """One party, dimension 9: E_1 = |0><0| and E_2, E_3 = P_v + Q, P_v' + Q,
    with v, v' = (+-sqrt(2e-9), 1, 0, ...) and Q the projector on the last 7
    directions. E_1's overlap with E_2 and E_3, 2e-9 over their norm
    sqrt(8), is below the link margin, yet their summed part keeps the
    direction |0> (eigenvalue 4e-9 of 2), so the two supports overlap."""
    e = np.eye(9)
    q = np.diag([0.0, 0.0] + [1.0] * 7)

    def proj(u):
        return np.outer(u, u) / (u @ u)

    d = np.sqrt(2e-9)
    return measurement_from_parts([[proj(e[0])], [proj(d * e[0] + e[1]) + q],
                                   [proj(-d * e[0] + e[1]) + q]])


def test_a_split_whose_branch_is_incomplete_is_not_made(monkeypatch):
    """The completeness check refuses the split of the near-orthogonal
    measurement, whose branches' supports overlap, and the search answers.
    Without the check the split is made, and its incomplete branch {E_2, E_3}
    proves this one-party measurement, which is LOCC, impossible."""
    m, cfg = near_orthogonal_measurement(), RunConfig()
    assert [list(p) for p in synthesis._components(m.stack(0), cfg.tol.psd)] == [
        [0], [1, 2]]
    assert synthesis._split(stacks(m), admit(m, cfg).weights, cfg, 0) is None
    v = synthesize(m, cfg)
    assert (v.kind, v.reason) == ("Protocol", "protocol found in round 1")
    monkeypatch.setattr(synthesis, "_close", lambda *args: True)
    assert synthesize(m, cfg).kind == "ProvedImpossible"


def test_one_party_sets_need_no_lp():
    """With one party every class LP is the free party's only, so it has no
    rows and costs no LP: the near-orthogonal measurement, which does not
    split, and a one-party basis, run unsplit, each spend their one LP on
    the protocol's pinned LP, even under a budget of one LP."""
    stats = {"rounds": 1, "trees_built": 4, "lps_solved": 1, "classes_found": 0}
    assert synthesize(near_orthogonal_measurement()).stats.as_dict() == stats
    basis = measurement_from_parts([[np.diag(e)] for e in np.eye(3)])
    for m in (near_orthogonal_measurement(), basis):
        for cfg in (RunConfig(max_lps=1), RunConfig(mode="exhaustive")):
            v = search(m, cfg)
            assert v.kind == "Protocol"
            assert v.stats.as_dict() == stats


def test_branches_share_the_run_budgets():
    """cascade5 times a qubit basis splits into two copies of cascade5 of
    110 LPs each: under 150 LPs the second branch stops on the budget, and
    the counts sum over both branches."""
    m = with_basis(load_fixture("cascade5"), 2)
    v = synthesize(m)
    assert (v.kind, v.reason) == ("Protocol", "split at party C into 2 branches")
    assert v.stats.as_dict() == {"rounds": 5, "trees_built": 24,
                                 "lps_solved": 220, "classes_found": 6}
    v = synthesize(m, RunConfig(max_lps=150))
    assert (v.kind, v.reason) == (
        "BudgetExhausted", "branch {M2, M4, M6, M8, M10} of the split at "
        "party C: lp budget exhausted")
    assert v.stats.lps_solved == 151


def test_a_split_counts_as_a_round():
    """The 3x3 basis needs two splits, so two rounds; with one, its
    branches are out of rounds, and with none, nothing splits."""
    m = product_basis(3, 3)
    v = synthesize(m, RunConfig(rounds=0))
    assert (v.kind, v.reason, v.stats.rounds) == (
        "BudgetExhausted", "round limit 0 reached", 0)
    v = synthesize(m, RunConfig(rounds=2))
    assert (v.kind, v.stats.rounds) == ("Protocol", 2)
    v = synthesize(m, RunConfig(rounds=1))
    assert (v.kind, v.reason) == (
        "BudgetExhausted", "branch {M1, M2, M3} of the split at party A: "
        "round limit 1 reached")
    assert v.stats.rounds == 1
