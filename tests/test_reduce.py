"""The last-mover quotient (`loccforge.reduce`) and where `synthesize` runs
it: on a measurement that does not split and on each branch that splits no
further, before the search, which answers whatever it leaves undecided; and
the boundary of the module, which holds the split too (tested with the
search in `test_synthesis.py`)."""
import ast
import pathlib

import numpy as np

from loccforge import reduce, synthesis
from loccforge.config import RunConfig
from loccforge.measurement import measurement_from_parts
from loccforge.reduce import last_mover_quotient
from loccforge.synthesis import SynthesisStats, admit, synthesize
from loccforge.tree import (
    align_weights,
    compact_same_party,
    prune_unitary_rounds,
    validate_assignment,
)

from conftest import (
    load_fixture,
    locc_random_measurements,
    random_valid_tree,
    with_basis,
)


def search(m, cfg):
    return synthesis._search(m, cfg, SynthesisStats())


def quotient(m, cfg):
    return last_mover_quotient(m, admit(m, cfg).weights, cfg.tol.lp)


def assert_emitted(v, m, lp):
    """A protocol that revalidates, is normal, and implements the document's
    unit weights within lp."""
    assert v.kind == "Protocol"
    assert validate_assignment(v.tree, m, v.assignment, pin_identities=True, tol=lp)
    assert compact_same_party(v.tree) == v.tree
    assert prune_unitary_rounds(v.tree) == v.tree
    w, _ = align_weights(v.tree, m, v.assignment)
    assert np.abs(w - 1.0).max() <= lp


def test_the_quotient_decides_every_locc_random_tree():
    """Every random tree of two or more operators gets the quotient's
    protocol with no LP, in the round where the search finds its own, and
    seed 51, which the search does not finish within 2,000 LPs, in round 3.
    The stats count a round per step, a tree per operator and per merged
    class, and the classes merged. The single operators keep the search's
    one pinned LP."""
    cfg = RunConfig(max_lps=2000)
    lp = cfg.tol.lp
    decided = 0
    for s, m in locc_random_measurements().items():
        v = synthesize(m, cfg)
        assert_emitted(v, m, lp)
        if len(m) == 1:
            assert (v.reason, v.stats.lps_solved) == (
                "single operator pins to the identity", 1), s
            assert quotient(m, cfg) is None
            continue
        q = quotient(m, cfg)
        u = search(m, cfg)
        assert q.steps == (3 if s == 51 else u.stats.rounds), s
        assert (u.kind == "Protocol") == (s != 51), s
        assert v.reason == f"last-mover quotient reached one operator in round {q.steps}"
        assert v.stats.as_dict() == {"rounds": q.steps, "trees_built": len(m) + q.merges,
                                     "lps_solved": 0, "classes_found": q.merges}, s
        decided += 1
    assert decided == 13


def test_the_depth_five_frontier_tree_needs_no_lp():
    """The depth-5 random tree of seed 12, which the search leaves
    `BudgetExhausted` at the default budgets, and seed 51 at the default
    budgets: each a protocol with no LP."""
    _, m, _ = random_valid_tree(np.random.default_rng(12), max_parties=3,
                                max_dim=3, depth=5)
    cfg = RunConfig()
    v = synthesize(m, cfg)
    assert_emitted(v, m, cfg.tol.lp)
    assert (len(m), v.stats.rounds, v.stats.lps_solved) == (25, 3, 0)
    v = synthesize(locc_random_measurements()[51], cfg)
    assert (v.kind, v.stats.rounds, v.stats.lps_solved) == ("Protocol", 3, 0)


def test_cascade5_falls_back_to_the_search(monkeypatch):
    """cascade5's M1, M2 and M3 agree up to scale off party A. The quotient
    merges them into M' (5 -> 3 outcomes) and stops, so synthesize answers
    with the search on cascade5 itself, with the search's stats. M' is
    proved impossible: the merge is not exact, which is why a stop proves
    nothing."""
    m, cfg = load_fixture("cascade5"), RunConfig()
    merged = []
    real = reduce.merge_and_extend

    def spy(trees, free, memo):
        merged.append((len(trees), free))
        return real(trees, free, memo)

    monkeypatch.setattr(reduce, "merge_and_extend", spy)
    assert quotient(m, cfg) is None
    assert merged == [(3, 0)]
    v, u = synthesize(m, cfg), search(m, cfg)
    assert (v.kind, v.reason) == ("Protocol", "protocol found in round 4")
    assert (v.stats, v.tree) == (u.stats, u.tree)
    ratios = [np.trace(m.part(j, 1)).real / np.trace(m.part(0, 1)).real
              for j in range(3)]
    G = sum(r * m.part(j, 0) for j, r in enumerate(ratios))
    coarse = measurement_from_parts([[G, m.part(0, 1)]] + [
        [m.part(j, 0), m.part(j, 1)] for j in (3, 4)])
    assert synthesize(coarse).kind == "ProvedImpossible"


def test_budgets_and_revalidation_send_the_quotient_to_the_search(monkeypatch):
    """Seed 51's quotient takes 3 rounds and builds 27 trees. Under 2 rounds,
    or 26 trees, or when its protocol does not revalidate, synthesize gives
    the search's verdict with the search's stats; at 3 rounds and 27 trees
    it gives the quotient's. Exhaustive mode never runs the quotient."""
    m = locc_random_measurements()[51]
    for cfg in (RunConfig(max_lps=2000, rounds=2), RunConfig(max_lps=2000, max_trees=26),
                RunConfig(max_lps=2000, mode="exhaustive")):
        v, u = synthesize(m, cfg), search(m, cfg)
        assert (v.kind, v.reason, v.stats) == (u.kind, u.reason, u.stats)
    v = synthesize(m, RunConfig(rounds=3, max_trees=27))
    assert (v.kind, v.stats.rounds, v.stats.trees_built) == ("Protocol", 3, 27)
    monkeypatch.setattr(synthesis, "validate_assignment", lambda *a, **k: False)
    cfg = RunConfig(max_lps=2000)
    v, u = synthesize(m, cfg), search(m, cfg)
    assert (v.kind, v.reason, v.stats) == (u.kind, u.reason, u.stats)


def test_each_branch_of_a_split_gets_the_quotient():
    """Seed 12 times a qubit basis on a new party splits there into two
    copies of seed 12, and the quotient decides each: one round for the
    split plus the quotient's two, and no LP."""
    m0 = locc_random_measurements()[12]
    m = with_basis(m0, 2)
    cfg = RunConfig(max_lps=2000)
    v = synthesize(m, cfg)
    q = quotient(m0, cfg)
    assert v.reason == "split at party D into 2 branches"
    assert v.stats.as_dict() == {"rounds": 1 + q.steps,
                                 "trees_built": 2 * (len(m0) + q.merges),
                                 "lps_solved": 0, "classes_found": 2 * q.merges}
    assert_emitted(v, m, cfg.tol.lp)


def test_the_quotient_weighs_with_the_completion_weights():
    """With one operator doubled the unit weights no longer complete seed
    59, so the quotient's leaves realize the completion weights admit found,
    and the tree still revalidates."""
    m0 = locc_random_measurements()[59]
    m = measurement_from_parts(
        [[(2.0 if (j, a) == (0, 0) else 1.0) * m0.part(j, a) for a in range(m0.P)]
         for j in range(len(m0))])
    cfg = RunConfig(max_lps=2000)
    v = synthesize(m, cfg)
    assert v.kind == "Protocol" and v.stats.lps_solved == 0
    w, residual = align_weights(v.tree, m, v.assignment)
    assert np.allclose(w, admit(m, cfg).weights, rtol=1e-9, atol=1e-12)
    assert abs(w[0] - 1.0) > 0.1 and residual <= 1e-9


def test_reduce_imports_nothing_from_synthesis():
    """The reductions sit below the search: no import in reduce.py, at its
    top or inside a function, names the synthesis module."""
    names = []
    for node in ast.walk(ast.parse(pathlib.Path(reduce.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.name for alias in node.names]
    assert "numpy" in names
    assert not [n for n in names if "synthesis" in n.split(".")]
