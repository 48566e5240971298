import gc

import numpy as np
import pytest

from loccforge.config import RunConfig
from loccforge.hermitian import proportional
from loccforge.synthesis import synthesize
from loccforge.tree import (
    Node,
    ProtocolTree,
    Term,
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
    walk_nodes,
)

from conftest import load_fixture, random_valid_tree


def same_extraction(r1, r2, tol=1e-8):
    if len(r1.measurement) != len(r2.measurement):
        return False
    used = set()
    for i in range(len(r1.measurement)):
        parts1 = [r1.measurement.part(i, a) for a in range(r1.measurement.P)]
        for k in range(len(r2.measurement)):
            if k in used:
                continue
            parts2 = [r2.measurement.part(k, a) for a in range(r2.measurement.P)]
            if all(np.abs(a - b).max() < tol for a, b in zip(parts1, parts2)) \
                    and abs(r1.weights[i] - r2.weights[k]) < tol * (1 + abs(r1.weights[i])):
                used.add(k)
                break
        else:
            return False
    return True


def rewire_trunk(t, new_children):
    roots = []
    for r in t.roots:
        if r.children:
            roots.append(Node(r.party, r.groups, tuple(new_children)))
        else:
            roots.append(r)
    return ProtocolTree(t.P, tuple(roots), t.nvars, t.depth + 1)


def test_prune_splices_single_child():
    m = load_fixture("productbasis4")
    t = merge_and_extend([leaf_tree(m, 0), leaf_tree(m, 1)], 1)
    b0, b1 = root_for(t, 1).children
    # interpose a pointless single-outcome round below the first branch
    wrapped = Node(b0.party, b0.groups, (Node(0, ((Term(0, 0, 1.0),),), ()),))
    t2 = rewire_trunk(t, [wrapped, b1])
    x = np.ones(t.nvars)
    assert validate_assignment(t2, m, x)
    out = prune_unitary_rounds(t2)
    assert canonical_key(out) == canonical_key(t)
    assert validate_assignment(out, m, x)


def test_prune_collapses_chain():
    m = load_fixture("productbasis4")
    t = merge_and_extend([leaf_tree(m, 0), leaf_tree(m, 1)], 1)
    b0, b1 = root_for(t, 1).children
    inner = Node(0, ((Term(0, 0, 1.0),),), ())
    mid = Node(1, b0.groups, (inner,))
    wrapped = Node(b0.party, b0.groups, (mid,))
    t2 = rewire_trunk(t, [wrapped, b1])
    out = prune_unitary_rounds(t2)
    assert canonical_key(out) == canonical_key(t)


def test_compact_folds_same_party_round():
    m = load_fixture("productbasis4")
    t = merge_and_extend([leaf_tree(m, 0), leaf_tree(m, 1)], 1)
    b0, b1 = root_for(t, 1).children
    # the first branch measures party 1 again, splitting its outcome in half
    ca = Node(1, ((Term(0, 1, 0.5),),), ())
    cb = Node(1, ((Term(0, 1, 0.5),),), ())
    split = Node(1, b0.groups, (ca, cb))
    t2 = rewire_trunk(t, [split, b1])
    x = np.ones(t.nvars)
    assert validate_assignment(t2, m, x)
    out = compact_same_party(t2)
    assert validate_assignment(out, m, x)
    trunk_kids = root_for(out, 1).children
    assert len(trunk_kids) == 3
    assert all(not k.children for k in trunk_kids)
    assert same_extraction(extract_measurement(out, m, x),
                           extract_measurement(t, m, x))


def test_prune_and_compact_leave_no_reference_cycle(rng):
    """The two passes free what they build as they return, not when the cycle
    collector next runs: on cascade5's protocol and on random trees with
    single-outcome rounds and same-party chains, a call leaves nothing in a
    reference cycle."""
    trees = [synthesize(load_fixture("cascade5"), RunConfig()).tree]
    trees += [random_valid_tree(rng)[0] for _ in range(10)]
    gc.collect()
    gc.disable()
    try:
        for t in trees:
            for normalize in (prune_unitary_rounds, compact_same_party):
                normalize(t)
                assert gc.collect() == 0, normalize.__name__
    finally:
        gc.enable()


def test_coin_pools_proportional_leaves():
    m = load_fixture("productbasis4")
    t = merge_and_extend([leaf_tree(m, 0), leaf_tree(m, 1)], 1)
    b0, b1 = root_for(t, 1).children
    ca = Node(1, ((Term(0, 1, 0.3),),), ())
    cb = Node(1, ((Term(0, 1, 0.7),),), ())
    t2 = rewire_trunk(t, [ca, cb, b1])
    x = np.ones(t.nvars)
    assert validate_assignment(t2, m, x)
    out = eliminate_coin_flips(t2, m, x)
    assert validate_assignment(out, m, x)
    assert len(root_for(out, 1).children) == 2
    assert same_extraction(extract_measurement(out, m, x),
                           extract_measurement(t, m, x))


def test_coin_collapse_cascades_on_rank_one_carrier():
    m = load_fixture("productbasis4")
    t = merge_and_extend([leaf_tree(m, 0), leaf_tree(m, 1)], 1)
    b0, b1 = root_for(t, 1).children
    # one pooled sibling goes on to measure party 0, the other stops; the
    # carried party-0 value is rank one, so the rebalanced follow-ups are
    # proportional too and the whole subtree pools down to a single leaf
    kid = Node(0, ((Term(0, 0, 1.0),),), ())
    ca = Node(1, ((Term(0, 1, 0.3),),), (kid,))
    cb = Node(1, ((Term(0, 1, 0.7),),), ())
    t2 = rewire_trunk(t, [ca, cb, b1])
    x = np.ones(t.nvars)
    assert validate_assignment(t2, m, x)
    out = eliminate_coin_flips(t2, m, x)
    assert validate_assignment(out, m, x)
    kids = root_for(out, 1).children
    assert len(kids) == 2
    pooled = next(k for k in kids if k.children)
    assert len(pooled.children) == 1
    follow = pooled.children[0]
    assert float(np.trace(group_value(follow.groups[0], m, 0, x)).real) == \
        pytest.approx(1.0)
    assert same_extraction(extract_measurement(out, m, x),
                           extract_measurement(t, m, x))


def test_coin_bias_moves_into_next_party():
    m = load_fixture("cascade5")
    # trunk: party 1 measures B2 split 0.4 / 0.6 between two outcomes that
    # share a direction; the 0.4 branch then splits party 0 as A3 + A4
    ga = Node(0, ((Term(3, 0, 1.0),),), ())
    gb = Node(0, ((Term(4, 0, 1.0),),), ())
    ca = Node(1, ((Term(0, 1, 0.4),),), (ga, gb))
    cb = Node(1, ((Term(1, 1, 0.6),),), ())
    trunk = Node(1, ((Term(2, 1, 1.0),),), (ca, cb))
    r0 = Node(0, ((Term(2, 0, 1.0),),), ())
    t = ProtocolTree(2, (r0, trunk), 2, 2)
    x = np.ones(2)
    assert validate_assignment(t, m, x)
    out = eliminate_coin_flips(t, m, x)
    assert validate_assignment(out, m, x)
    kids = root_for(out, 1).children
    assert len(kids) == 1
    # three party-0 follow-ups: the old pair scaled by 0.4 plus the other
    # sibling's full carried value scaled by 0.6
    shares = sorted(
        float(np.trace(group_value(c.groups[0], m, 0, x)).real)
        for c in kids[0].children)
    assert np.allclose(shares, [0.4 * 0.8, 0.4 * 1.2, 0.6 * 2.0])
    assert same_extraction(extract_measurement(out, m, x),
                           extract_measurement(t, m, x))


def test_coin_prefers_same_party_hoist():
    m = load_fixture("productbasis4")
    t = merge_and_extend([leaf_tree(m, 0), leaf_tree(m, 1)], 1)
    b0, b1 = root_for(t, 1).children
    # a pooled sibling that itself continues with party 1 hoists unchanged
    ga = Node(1, ((Term(0, 1, 0.2),),), ())
    gb = Node(1, ((Term(0, 1, 0.1),),), ())
    ca = Node(1, ((Term(0, 1, 0.3),),), (ga, gb))
    cb = Node(1, ((Term(0, 1, 0.7),),), ())
    t2 = rewire_trunk(t, [ca, cb, b1])
    x = np.ones(t.nvars)
    assert validate_assignment(t2, m, x)
    out = eliminate_coin_flips(t2, m, x)
    assert validate_assignment(out, m, x)
    assert same_extraction(extract_measurement(out, m, x),
                           extract_measurement(t, m, x))


def test_no_op_on_plain_trees():
    m = load_fixture("productbasis4")
    t = merge_and_extend([leaf_tree(m, 0), leaf_tree(m, 1)], 1)
    x = np.ones(t.nvars)
    for out in [prune_unitary_rounds(t), compact_same_party(t),
                eliminate_coin_flips(t, m, x)]:
        assert canonical_key(out) == canonical_key(t)
    tl = leaf_tree(m, 0)
    assert eliminate_coin_flips(tl, m, np.ones(2)) is tl


def test_random_trees_passes_preserve_and_idempotent(rng):
    for _ in range(60):
        t, m, x = random_valid_tree(rng)
        base = extract_measurement(t, m, x)
        assert validate_assignment(t, m, x, pin_identities=True)

        pruned = prune_unitary_rounds(t)
        compacted = compact_same_party(pruned)
        pooled = eliminate_coin_flips(compacted, m, x)
        for out in [pruned, compacted, pooled]:
            assert validate_assignment(out, m, x, pin_identities=True)
            assert same_extraction(extract_measurement(out, m, x), base)

        assert canonical_key(prune_unitary_rounds(pruned)) == canonical_key(pruned)
        assert canonical_key(compact_same_party(compacted)) == canonical_key(compacted)
        assert canonical_key(eliminate_coin_flips(pooled, m, x)) == canonical_key(pooled)


def test_coin_fixpoint_has_no_proportional_siblings(rng):
    for _ in range(40):
        t, m, x = random_valid_tree(rng)
        out = eliminate_coin_flips(t, m, x)
        for n in walk_nodes(out):
            vals = [group_value(c.groups[0], m, c.party, x) for c in n.children]
            for i in range(len(vals)):
                for k in range(i + 1, len(vals)):
                    r = proportional(vals[i], vals[k], 1e-10)
                    assert r is None or r <= 0


def test_pass_pipeline_shrinks_or_keeps_node_count(rng):
    for _ in range(25):
        t, m, x = random_valid_tree(rng)
        out = eliminate_coin_flips(compact_same_party(prune_unitary_rounds(t)), m, x)
        assert len(walk_nodes(out)) <= len(walk_nodes(t))
        assert len(leaves(out)) <= len(leaves(t))
