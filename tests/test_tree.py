import numpy as np
import pytest

from loccforge.config import RunConfig
from loccforge.errors import (
    DimMismatchError,
    SubsetTooSmallError,
    TreeStructureError,
    UnboundVariableError,
)
from loccforge.tree import (
    Node,
    ProtocolTree,
    Term,
    align_weights,
    canonical_key,
    coverage,
    descend,
    extract_measurement,
    group_value,
    leaf_products,
    leaf_tree,
    leaves,
    merge_and_extend,
    root_for,
    validate_assignment,
    walk_nodes,
)
from loccforge.io import _caption, export_dot
from loccforge.synthesis import orderings, synthesize

from conftest import load_fixture, random_valid_tree


def t01(m):
    # merge the first two one-outcome trees; party 1 measures first
    return merge_and_extend([leaf_tree(m, 0), leaf_tree(m, 1)], 1)


def test_leaf_tree_shape():
    m = load_fixture("productbasis4")
    t = leaf_tree(m, 2)
    assert t.P == 2 and t.nvars == 2 and t.depth == 0
    assert t.trunk_party is None
    assert all(not r.children for r in t.roots)
    assert coverage(t) == {2}
    assert walk_nodes(t) == [] and leaves(t) == []
    assert root_for(t, 0).party == 0
    with pytest.raises(TreeStructureError):
        leaf_tree(m, 7)
    with pytest.raises(TreeStructureError):
        root_for(t, 5)


def test_merge_two_leaves_shape():
    m = load_fixture("productbasis4")
    t = t01(m)
    assert t.P == 2 and t.nvars == 4 and t.depth == 1
    assert t.trunk_party == 1
    trunk = root_for(t, 1)
    assert len(trunk.children) == 2
    assert trunk.groups[0] == (Term(0, 1, 1.0), Term(1, 3, 1.0))
    other = root_for(t, 0)
    assert not other.children
    assert other.groups == ((Term(0, 0, 1.0),), (Term(1, 2, 1.0),))
    assert coverage(t) == {0, 1}
    assert len(walk_nodes(t)) == 3 and len(leaves(t)) == 2


def test_merge_argument_checks():
    m = load_fixture("productbasis4")
    with pytest.raises(SubsetTooSmallError):
        merge_and_extend([leaf_tree(m, 0)], 0)
    with pytest.raises(TreeStructureError):
        merge_and_extend([leaf_tree(m, 0), leaf_tree(m, 1)], 2)
    m4 = load_fixture("fourparty_aligned")
    with pytest.raises(DimMismatchError):
        merge_and_extend([leaf_tree(m, 0), leaf_tree(m4, 0)], 0)


def test_merge_group_sort_by_length_then_ops():
    m = load_fixture("productbasis4")
    a = t01(m)
    b = merge_and_extend([a, leaf_tree(m, 2)], 0)
    # the shared party-1 root holds a length-2 alias from the pair and a
    # length-1 alias from the single leaf; shortest group sorts first
    r1 = root_for(b, 1)
    assert [len(g) for g in r1.groups] == [1, 2]
    assert r1.groups[0][0].op == 2


def test_validate_t01(rng):
    m = load_fixture("productbasis4")
    t = t01(m)
    ones = np.ones(t.nvars)
    assert validate_assignment(t, m, ones)
    # pinning demands the roots hit the identity, which two outcomes cannot
    assert not validate_assignment(t, m, ones, pin_identities=True)
    # breaking the alias equality is detected
    x = ones.copy()
    x[2] = 1.5
    assert not validate_assignment(t, m, x)


def test_validate_assignment_length_check():
    m = load_fixture("productbasis4")
    t = t01(m)
    with pytest.raises(UnboundVariableError):
        validate_assignment(t, m, np.ones(2))


def test_validate_rejects_two_branching_roots():
    m = load_fixture("productbasis4")
    kid = Node(0, ((Term(0, 0, 1.0),),), ())
    r0 = Node(0, ((Term(0, 0, 1.0),),), (kid,))
    r1 = Node(1, ((Term(0, 1, 1.0),),), (Node(1, ((Term(0, 1, 1.0),),), ()),))
    t = ProtocolTree(2, (r0, r1), 2, 1)
    with pytest.raises(TreeStructureError):
        validate_assignment(t, m, np.ones(2))


def test_validate_perturbation_threshold(rng):
    hits = 0
    for _ in range(30):
        t, m, x = random_valid_tree(rng)
        assert validate_assignment(t, m, x, pin_identities=True)
        i = int(rng.integers(t.nvars))
        bumped = x.copy()
        bumped[i] += 1e-5
        if not validate_assignment(t, m, bumped, pin_identities=True):
            hits += 1
        tiny = x.copy()
        tiny[i] += 1e-12
        assert validate_assignment(t, m, tiny, pin_identities=True)
    assert hits == 30


def test_canonical_key_invariances(rng):
    m = load_fixture("productbasis4")
    t = t01(m)
    k = canonical_key(t)

    # root storage order
    flipped = ProtocolTree(t.P, tuple(reversed(t.roots)), t.nvars,
                           t.depth)
    assert canonical_key(flipped) == k

    # constituent (= sibling) order
    t_rev = merge_and_extend([leaf_tree(m, 1), leaf_tree(m, 0)], 1)
    assert canonical_key(t_rev) == k

    # variable renaming
    from loccforge.tree import _rename_node
    shifted = ProtocolTree(t.P, tuple(_rename_node(r, 11) for r in t.roots),
                           t.nvars + 11, t.depth)
    assert canonical_key(shifted) == k

    # distinct structures separate
    assert canonical_key(leaf_tree(m, 0)) != canonical_key(leaf_tree(m, 1))
    t_other_free = merge_and_extend([leaf_tree(m, 0), leaf_tree(m, 1)], 0)
    assert canonical_key(t_other_free) != k


def test_canonical_key_random_invariance(rng):
    for _ in range(25):
        t, m, x = random_valid_tree(rng)
        k = canonical_key(t)
        perm = rng.permutation(t.P)
        roots = tuple(t.roots[i] for i in perm)
        assert canonical_key(ProtocolTree(t.P, roots, t.nvars,
                                          t.depth)) == k

        def rev(n):
            return Node(n.party, n.groups, tuple(rev(c) for c in reversed(n.children)))

        roots2 = tuple(rev(r) for r in t.roots)
        assert canonical_key(ProtocolTree(t.P, roots2, t.nvars,
                                          t.depth)) == k


def test_extract_measurement_t01():
    m = load_fixture("productbasis4")
    t = t01(m)
    res = extract_measurement(t, m, np.ones(t.nvars))
    assert len(res.measurement) == 2
    assert np.allclose(res.weights, [1.0, 1.0])
    # trace-one parts proportional to the inputs
    for i in range(2):
        for a in range(2):
            got = res.measurement.part(i, a)
            want = m.part(i, a) / np.trace(m.part(i, a)).real
            assert np.abs(got - want).max() < 1e-10


def test_extract_pools_proportional_leaves():
    m = load_fixture("productbasis4")
    t = t01(m)
    # halving both branch variables of one constituent keeps products
    # proportional, so scaling one leaf must not add an operator
    x = np.ones(t.nvars)
    res = extract_measurement(t, m, x)
    assert len(res.measurement) == 2

    m2 = load_fixture("cascade5")
    tl = leaf_tree(m2, 2)
    res2 = extract_measurement(tl, m2, np.ones(2))
    assert len(res2.measurement) == 1
    assert res2.weights[0] == pytest.approx(0.6)  # tr(I) * tr(B2)


def test_align_weights_t01():
    m = load_fixture("productbasis4")
    t = t01(m)
    w, residual = align_weights(t, m, np.ones(t.nvars))
    assert np.allclose(w, [1.0, 1.0, 0.0, 0.0])
    # only half the outcomes are covered, so the sum misses the identity
    assert residual == pytest.approx(1.0)


def test_align_weights_random_trees(rng):
    for _ in range(20):
        t, m, x = random_valid_tree(rng)
        res = extract_measurement(t, m, x)
        total = np.zeros((m.total_dim(), m.total_dim()), dtype=complex)
        for i, w in enumerate(res.weights):
            total += w * res.measurement.ops[i].product()
        assert np.abs(total - m.identity()).max() <= 1e-8 * (1 + 1.0)


def test_coverage_modes(rng):
    m = load_fixture("cascade5")
    assert coverage(leaf_tree(m, 3)) == {3}
    t = merge_and_extend([leaf_tree(m, 1), leaf_tree(m, 4)], 0)
    assert coverage(t) == {1, 4}


# Recursive walks kept as references for `descend`: each visits the trunk
# subtree in preorder, carrying each party's value down the path.

def reference_walk_nodes(t):
    trunk = t.trunk_party
    if trunk is None:
        return []
    out = []

    def rec(n):
        out.append(n)
        for c in n.children:
            rec(c)

    rec(root_for(t, trunk))
    return out


def reference_leaf_products(t, m, assignment):
    assignment = np.asarray(assignment, dtype=float)
    values = {r.party: group_value(r.groups[0], m, r.party, assignment)
              for r in t.roots}
    trunk = t.trunk_party
    if trunk is None:
        return [(None, tuple(values[a] for a in range(t.P)))]
    out = []

    def rec(n, values):
        values = dict(values)
        values[n.party] = group_value(n.groups[0], m, n.party, assignment)
        if not n.children:
            out.append((n, tuple(values[a] for a in range(t.P))))
            return
        for c in n.children:
            rec(c, values)

    rec(root_for(t, trunk), values)
    return out


def reference_orderings(t):
    trunk = t.trunk_party
    if trunk is None:
        return [()]
    seqs = set()

    def rec(n, seq):
        if not n.children:
            seqs.add(seq)
            return
        step = seq + (n.children[0].party,)
        for c in n.children:
            rec(c, step)

    rec(root_for(t, trunk), ())
    return sorted(seqs)


def reference_export_dot(tree, m=None, assignment=None):
    party_names = (m.party_names if m is not None
                   else tuple(str(a) for a in range(tree.P)))
    lines = ["digraph protocol {", "  rankdir=LR;", "  node [fontsize=10];"]
    for a in range(tree.P):
        cap = _caption(root_for(tree, a), m, assignment, party_names)
        lines.append(f'  r{a} [shape=box, label="{cap}"];')
    lines.append("  { rank=same; " + "; ".join(f"r{a}" for a in range(tree.P))
                 + "; }")
    for a in range(tree.P - 1):
        lines.append(f"  r{a} -> r{a + 1} [style=dotted, arrowhead=none];")
    trunk = tree.trunk_party
    counter = 0
    if trunk is not None:

        def visit(n, parent_id):
            nonlocal counter
            nid = f"n{counter}"
            counter += 1
            cap = _caption(n, m, assignment, party_names)
            shape = "ellipse" if n.children else "plaintext"
            lines.append(f'  {nid} [shape={shape}, label="{cap}"];')
            lines.append(f"  {parent_id} -> {nid};")
            for c in n.children:
                visit(c, nid)

        for c in root_for(tree, trunk).children:
            visit(c, f"r{trunk}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def walk_cases():
    rng = np.random.default_rng(1414)
    for _ in range(40):
        yield random_valid_tree(rng, max_parties=3, max_dim=3, depth=4)
    for name in ("cascade5", "fourparty_aligned", "krausdemo", "productbasis4"):
        m = load_fixture(name)
        for t, x in synthesize(m, RunConfig(mode="exhaustive")).protocols:
            yield t, m, x
    m = load_fixture("cascade5")
    yield leaf_tree(m, 2), m, np.ones(m.P)


def test_descend_matches_the_recursive_walks():
    """Node order and identity, leaf values, orderings and DOT text, which
    `lift`'s leaf ids and the DOT node names expose, equal the recursions'."""
    for t, m, x in walk_cases():
        nodes = walk_nodes(t)
        ref = reference_walk_nodes(t)
        assert len(nodes) == len(ref)
        assert all(a is b for a, b in zip(nodes, ref))
        got, want = leaf_products(t, m, x), reference_leaf_products(t, m, x)
        assert len(got) == len(want)
        for (leaf, parts), (ref_leaf, ref_parts) in zip(got, want):
            assert leaf is ref_leaf
            assert all(np.array_equal(a, b) for a, b in zip(parts, ref_parts))
        assert orderings([t]) == reference_orderings(t)
        assert export_dot(t, m, x) == reference_export_dot(t, m, x)
        assert export_dot(t) == reference_export_dot(t)
        # over the whole forest, each path leads from a root to the node
        for n, path in descend(t, t.roots):
            chain = path + (n,)
            assert any(chain[0] is r for r in t.roots)
            assert all(any(b is c for c in a.children)
                       for a, b in zip(chain, chain[1:]))
