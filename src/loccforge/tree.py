"""Protocol trees: symbolic node labels, consistency checks, normalization passes.

A tree has one root per party. All roots are childless placeholders except at
most one, the trunk root, whose party measured first; its children are the
first-round outcomes. Node labels are groups of (op, var, scale) terms; a
group's numeric value under an assignment is the weighted sum of that party's
local operator parts. Multiple groups on one node are aliases and must agree
numerically; they are the only place a tree states an equality. Walking the
trunk top-down while carrying each party's current value reproduces the
branching-consistency rule: at every node, the children's values sum to the
carried value of the children's party.

`descend` is the one read-only walk: it yields each node in preorder with the
path of nodes above it, and the checks, leaf readings and exports read the
carried values off that path. Only the passes that rebuild a tree recurse on
their own.
"""
from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from .errors import (
    DimMismatchError,
    SubsetTooSmallError,
    TreeStructureError,
    UnboundVariableError,
    ZeroOperatorError,
)
from .hermitian import HERM_TOL, LP_TOL, proportional
from .measurement import SeparableMeasurement


class Term(NamedTuple):
    op: int
    var: int
    scale: float = 1.0


# a Group is a tuple of Terms; its value is the sum of the terms' values
Group = tuple


@dataclasses.dataclass(frozen=True)
class Node:
    party: int
    groups: tuple        # tuple of Groups; groups[0] is the value group, the rest aliases
    children: tuple = ()


@dataclasses.dataclass(frozen=True)
class ProtocolTree:
    P: int
    roots: tuple         # one Node per party, any storage order
    nvars: int
    depth: int

    @property
    def trunk_party(self):
        for r in self.roots:
            if r.children:
                return r.party
        return None


def root_for(t: ProtocolTree, party: int) -> Node:
    for r in t.roots:
        if r.party == party:
            return r
    raise TreeStructureError(f"tree has no root for party {party}")


def leaf_tree(m: SeparableMeasurement, j: int) -> ProtocolTree:
    """One-outcome tree for operator j: childless roots, variable per party."""
    if not 0 <= j < len(m):
        raise TreeStructureError(f"operator index {j} out of range")
    roots = tuple(Node(a, ((Term(j, a, 1.0),),), ()) for a in range(m.P))
    return ProtocolTree(m.P, roots, m.P, 0)


def _rename_group(g: Group, offset: int, memo: dict) -> Group:
    key = (g, offset)
    out = memo.get(key)
    if out is None:
        out = memo[key] = tuple(
            memo.setdefault(u, u)
            for u in (Term(t.op, t.var + offset, t.scale) for t in g))
    return out


def _rename_node(n: Node, offset: int, memo: dict | None = None) -> Node:
    memo = {} if memo is None else memo
    return Node(n.party,
                tuple(_rename_group(g, offset, memo) for g in n.groups),
                tuple(_rename_node(c, offset, memo) for c in n.children))


def _group_sort_key(g: Group):
    return (len(g), tuple(sorted((t.op, t.scale) for t in g)))


def merge_and_extend(constituents, free_party: int,
                     memo: dict | None = None) -> ProtocolTree:
    """Merge trees that agree on all parties but one; that party measures first.

    Each non-free party's new root stacks every constituent's root groups as
    aliases. The free party's root becomes the trunk: one branch per
    constituent, carrying its old free-party root groups and adopting its old
    trunk children. Variables are renumbered per constituent so occurrences
    stay independent.
    """
    memo = {} if memo is None else memo
    cs = list(constituents)
    if len(cs) < 2:
        raise SubsetTooSmallError("merging needs at least two trees")
    P = cs[0].P
    if any(c.P != P for c in cs):
        raise DimMismatchError("constituents disagree on party count")
    if not 0 <= free_party < P:
        raise TreeStructureError(f"free party {free_party} out of range")

    offsets = []
    total = 0
    for c in cs:
        offsets.append(total)
        total += c.nvars

    renamed_roots = [{r.party: _rename_node(r, off, memo) for r in c.roots}
                     for c, off in zip(cs, offsets)]   # per constituent

    roots = []
    for beta in range(P):
        if beta == free_party:
            continue
        stacked = [g for rr in renamed_roots for g in rr[beta].groups]
        stacked.sort(key=_group_sort_key)
        roots.append(Node(beta, tuple(stacked), ()))

    branches = []
    for c, rr in zip(cs, renamed_roots):
        trunk_kids = ()
        if c.trunk_party is not None:
            trunk_kids = rr[c.trunk_party].children
        branches.append(Node(free_party, rr[free_party].groups, trunk_kids))
    value = tuple(t for rr in renamed_roots for t in rr[free_party].groups[0])
    roots.insert(free_party, Node(free_party, (value,), tuple(branches)))

    depth = 1 + max(c.depth for c in cs)
    return ProtocolTree(P, tuple(roots), total, depth)


def group_value(g: Group, m: SeparableMeasurement, party: int,
                assignment) -> np.ndarray:
    out = np.zeros((m.dims[party], m.dims[party]), dtype=complex)
    for t in g:
        if t.var >= len(assignment):
            raise UnboundVariableError(f"variable {t.var} not bound")
        out += t.scale * float(assignment[t.var]) * m.part(t.op, party)
    return out


def _close(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    scale = max(1.0, float(np.abs(a).max(initial=0.0)) + float(np.abs(b).max(initial=0.0)))
    return float(np.abs(a - b).max(initial=0.0)) <= tol * scale


def descend(t: ProtocolTree, starts=None):
    """Each node under `starts` in preorder, with the tuple of nodes above it
    (its start first). `starts` defaults to the trunk root, so a one-outcome
    tree yields nothing; `t.roots` gives the whole forest."""
    if starts is None:
        trunk = t.trunk_party
        starts = () if trunk is None else (root_for(t, trunk),)
    stack = [(n, ()) for n in reversed(tuple(starts))]
    while stack:
        n, path = stack.pop()
        yield n, path
        stack.extend((c, path + (n,)) for c in reversed(n.children))


def _check_index(what, value, bound):
    if not 0 <= value < bound:
        raise TreeStructureError(f"{what} {value} out of range [0, {bound})")


def _check_shape(t: ProtocolTree, m: SeparableMeasurement):
    if t.P != m.P:
        raise TreeStructureError("tree and measurement disagree on party count")
    if len(t.roots) != t.P or sorted(r.party for r in t.roots) != list(range(t.P)):
        raise TreeStructureError("roots must cover each party exactly once")
    if sum(1 for r in t.roots if r.children) > 1:
        raise TreeStructureError("more than one branching root")
    for n, _ in descend(t, t.roots):
        _check_index("node party", n.party, t.P)
        if not n.groups or any(len(g) == 0 for g in n.groups):
            raise TreeStructureError("node with empty label")
        for term in (u for g in n.groups for u in g):
            _check_index("term op", term.op, len(m))
            _check_index("term var", term.var, t.nvars)
        if any(c.party != n.children[0].party for c in n.children):
            raise TreeStructureError("children of one node must share a party")


def _node_values(t: ProtocolTree, m: SeparableMeasurement, assignment) -> dict:
    """Per node id, the value of the node's value group, each computed once."""
    return {id(n): group_value(n.groups[0], m, n.party, assignment)
            for n, _ in descend(t, t.roots)}


def _carried(t: ProtocolTree, values: dict, nodes) -> list:
    """Per party, the value it carries below `nodes`: that of the last of
    them it measured, else its root's."""
    out = [values[id(root_for(t, a))] for a in range(t.P)]
    for n in nodes:
        out[n.party] = values[id(n)]
    return out


def validate_assignment(t: ProtocolTree, m: SeparableMeasurement, assignment,
                        *, pin_identities: bool = False,
                        tol: float = LP_TOL) -> bool:
    """True iff every alias pair, branching sum, and optional identity pin holds."""
    assignment = np.asarray(assignment, dtype=float)
    if assignment.ndim != 1 or len(assignment) < t.nvars:
        raise UnboundVariableError(
            f"assignment binds {assignment.size} variables, tree uses {t.nvars}")
    _check_shape(t, m)
    values = _node_values(t, m, assignment)
    for n, path in descend(t, t.roots):
        base = values[id(n)]
        if not all(_close(group_value(g, m, n.party, assignment), base, tol)
                   for g in n.groups[1:]):
            return False
        if n.children and not _close(
                sum(values[id(c)] for c in n.children),
                _carried(t, values, path + (n,))[n.children[0].party], tol):
            return False
    return not pin_identities or all(
        _close(v, np.eye(m.dims[a], dtype=complex), tol)
        for a, v in enumerate(_carried(t, values, ())))


def walk_nodes(t: ProtocolTree):
    """Trunk-subtree nodes in preorder; empty for a one-outcome tree."""
    return [n for n, _ in descend(t)]


def leaves(t: ProtocolTree):
    return [n for n in walk_nodes(t) if not n.children]


def coverage(t: ProtocolTree) -> set:
    trunk = t.trunk_party
    if trunk is None:
        return {term.op for r in t.roots for g in r.groups for term in g}
    return {term.op for n in leaves(t) for g in n.groups for term in g}


def leaf_products(t: ProtocolTree, m: SeparableMeasurement, assignment):
    """Per leaf, the tuple of carried party values (the realized local parts)."""
    values = _node_values(t, m, np.asarray(assignment, dtype=float))
    if t.trunk_party is None:
        return [(None, tuple(_carried(t, values, ())))]
    return [(n, tuple(_carried(t, values, path + (n,))))
            for n, path in descend(t) if not n.children]


@dataclasses.dataclass(frozen=True)
class ExtractionResult:
    measurement: SeparableMeasurement
    weights: np.ndarray


def extract_measurement(t: ProtocolTree, m: SeparableMeasurement, assignment,
                        tol: float = LP_TOL) -> ExtractionResult:
    """The separable measurement the tree implements: trace-one parts + weights.

    Leaves with proportional products pool into one operator whose weight is
    the summed leaf weight, so normalization passes leave the result unchanged.
    """
    reps = []      # list of tuples of trace-1 parts
    weights = []
    for _, parts in leaf_products(t, m, assignment):
        c = 1.0
        normed = []
        for p in parts:
            tr = float(np.trace(p).real)
            if tr <= tol:
                raise ZeroOperatorError("leaf realizes a vanishing local part")
            c *= tr
            normed.append(p / tr)
        for i, rp in enumerate(reps):
            if all(_close(a, b, tol) for a, b in zip(normed, rp)):
                weights[i] += c
                break
        else:
            reps.append(tuple(normed))
            weights.append(c)
    out = SeparableMeasurement(reps, labels=[f"E{i + 1}" for i in range(len(reps))],
                               party_names=m.party_names)
    return ExtractionResult(out, np.array(weights))


def leaf_operator(t: ProtocolTree, leaf, parts, m: SeparableMeasurement,
                  tol: float = LP_TOL):
    """(j, weight) for one item of `leaf_products`: synthesized leaves come
    from `leaf_tree`, so the leaf's terms (the roots' without a trunk) name
    one operator j, and each part must be lam * part(j, a), lam > 0 the trace
    ratio, as `validate_assignment` checks; the weight is the product of lams."""
    named = {term.op for n in (t.roots if leaf is None else (leaf,))
             for g in n.groups for term in g}
    if len(named) != 1:
        raise TreeStructureError(f"leaf names {len(named)} operators, expected exactly 1")
    (j,) = named
    lams = []
    for a, part in enumerate(parts):
        lam = float(np.trace(part).real) / float(np.trace(m.part(j, a)).real)
        if not (lam > 0 and _close(part, lam * m.part(j, a), tol)):
            raise TreeStructureError(
                f"leaf is no positive multiple of operator {j} at party {a}")
        lams.append(lam)
    return j, float(np.prod(lams))


def align_weights(t: ProtocolTree, m: SeparableMeasurement, assignment,
                  tol: float = LP_TOL):
    """Weigh each leaf against the operator it names; return per-op weights
    and the completeness residual of the weighted sum against the identity,
    summed over the measurement's products in operator order."""
    w = np.zeros(len(m))
    for leaf, parts in leaf_products(t, m, assignment):
        j, c = leaf_operator(t, leaf, parts, m, tol)
        w[j] += c
    total = sum(wj * k for wj, k in zip(w, m.products()))
    residual = float(np.abs(total - m.identity()).max(initial=0.0))
    return w, residual


def canonical_key(t: ProtocolTree):
    """Structural identity: party-tagged shape with sorted (op, scale) term sets.

    Invariant under root storage order, sibling order, group order, term order,
    and variable renaming.
    """
    def gkey(g):
        return tuple(sorted((term.op, round(term.scale, 9)) for term in g))

    def nkey(n):
        return (n.party, tuple(sorted(gkey(g) for g in n.groups)),
                tuple(sorted(nkey(c) for c in n.children)))

    return (t.P, tuple(sorted(nkey(r) for r in t.roots)))


def _refresh(t: ProtocolTree, roots) -> ProtocolTree:
    roots = tuple(roots)
    return ProtocolTree(t.P, roots, t.nvars,
                        max(len(path) for _, path in descend(t, roots)))


def prune_unitary_rounds(t: ProtocolTree) -> ProtocolTree:
    """Splice out single-outcome rounds; they carry no information."""

    def fix(n):
        kids = [fix(c) for c in n.children]
        while len(kids) == 1:
            kids = list(kids[0].children)
        return Node(n.party, n.groups, tuple(kids))

    return _refresh(t, (fix(r) for r in t.roots))


def compact_same_party(t: ProtocolTree) -> ProtocolTree:
    """Fold a child into its parent list when the child measures its own party
    again immediately; consecutive same-party rounds compose into one."""

    def fix(n):
        kids = [fix(c) for c in n.children]
        out = []
        for c in kids:
            if c.children and c.children[0].party == c.party:
                out.extend(c.children)
            else:
                out.append(c)
        return Node(n.party, n.groups, tuple(out))

    return _refresh(t, (fix(r) for r in t.roots))


def _scale_group(g: Group, f: float) -> Group:
    return tuple(Term(term.op, term.var, term.scale * f) for term in g)


def _scale_subtree(n: Node, up_party: int, down_party: int, lam: float) -> Node:
    if n.party == up_party:
        f = lam
    elif n.party == down_party:
        f = 1.0 / lam
    else:
        f = 1.0
    groups = n.groups if f == 1.0 else tuple(_scale_group(g, f) for g in n.groups)
    return Node(n.party, groups,
                tuple(_scale_subtree(c, up_party, down_party, lam) for c in n.children))


def eliminate_coin_flips(t: ProtocolTree, m: SeparableMeasurement, assignment,
                         tol: float = HERM_TOL) -> ProtocolTree:
    """Pool proportional sibling outcomes; a coin decides nothing physical.

    When some pooled sibling continues with the same party, its outcomes hoist
    unchanged and the other siblings pass through, which is exact. Otherwise
    the coin bias moves into the next measuring party: each sibling's share
    scales that party's node labels by its branch probability (and rescales
    later same-party labels of the pooled party back), preserving every leaf
    product and branching sum.
    """
    if t.trunk_party is None:
        return t
    assignment = np.asarray(assignment, dtype=float)

    def val(n):
        return group_value(n.groups[0], m, n.party, assignment)

    def pool_list(kids, anchors):
        """One pooling layer over a sibling list; returns (new_kids, changed)."""
        psi = kids[0].party
        classes = []   # list of [member nodes]
        vals = {}
        for c in kids:
            v = val(c)
            vals[id(c)] = v
            for cl in classes:
                try:
                    ratio = proportional(v, vals[id(cl[0])], tol)
                except ZeroOperatorError:
                    ratio = None
                if ratio is not None:
                    cl.append(c)
                    break
            else:
                classes.append([c])
        if all(len(cl) == 1 for cl in classes):
            return kids, False

        out = []
        for cl in classes:
            if len(cl) == 1:
                out.append(cl[0])
                continue
            pooled_val = sum(vals[id(c)] for c in cl)
            tr_total = float(np.trace(pooled_val).real)
            lams = [float(np.trace(vals[id(c)]).real) / tr_total for c in cl]
            ngroups = (tuple(term for c in cl for term in c.groups[0]),)
            if any(c.children and c.children[0].party == psi for c in cl):
                nkids = []
                for c in cl:
                    if c.children and c.children[0].party == psi:
                        nkids.extend(c.children)
                    else:
                        nkids.append(c)
                out.append(Node(psi, ngroups, tuple(nkids)))
            elif all(not c.children for c in cl):
                out.append(Node(psi, ngroups, ()))
            else:
                beta = min(c.children[0].party for c in cl if c.children)
                anchor = anchors[beta]
                nkids = []
                for c, lam in zip(cl, lams):
                    if not c.children:
                        nkids.append(Node(beta, (_scale_group(anchor, lam),), ()))
                    elif c.children[0].party == beta:
                        nkids.extend(_scale_subtree(k, beta, psi, lam)
                                     for k in c.children)
                    else:
                        wrapped = tuple(_scale_subtree(k, beta, psi, lam)
                                        for k in c.children)
                        nkids.append(Node(beta, (_scale_group(anchor, lam),), wrapped))
                out.append(Node(psi, ngroups, tuple(nkids)))
        return out, True

    def sweep(n, anchors):
        anchors = dict(anchors)
        anchors[n.party] = n.groups[0]
        if not n.children:
            return n, False
        kids, changed = pool_list(list(n.children), anchors)
        if changed:
            return Node(n.party, n.groups, tuple(kids)), True
        rebuilt = []
        for c in kids:
            nc, ch = sweep(c, anchors)
            rebuilt.append(nc)
            changed = changed or ch
        return Node(n.party, n.groups, tuple(rebuilt)), changed

    limit = len(walk_nodes(t)) + 16
    roots = {r.party: r for r in t.roots}
    trunk = t.trunk_party
    for _ in range(limit):
        anchors = {p: r.groups[0] for p, r in roots.items()}
        new_trunk, changed = sweep(roots[trunk], anchors)
        roots[trunk] = new_trunk
        if not changed:
            break
    else:
        raise TreeStructureError("coin pooling failed to reach a fixed point")
    return _refresh(t, (roots[p] for p in sorted(roots)))
