"""The reductions before the search: the split and the last-mover quotient.

`synthesize` answers in the order split -> quotient -> search: it splits a
measurement on orthogonal local supports, runs the last-mover quotient on
the unsplit measurement and on each branch that splits no further, and
searches (`synthesis.py`) what is left, keeping the budgets. Each reduction
fixes a mover with no LP, the split the first and the quotient the last.
The split is exact both ways; a protocol the quotient reaches is one of the
measurement, but a quotient that stops proves nothing.

The split is Walgate and Hardy's orthogonality-preserving measurement
(PRL 89, 147901, 2002), used as an exact reduction. At party a, link two
operators when their a-parts have a nonzero product; for PSD parts that is
when tr(E_i^a E_j^a) > 0. Let the links form components C_1..C_r with r >= 2,
S_k the support of C_k's summed a-parts, Pi_k its projector, V_k an isometry
onto it, and M_k = {V_k^+ E_j^a V_k (x) E_j's other parts : j in C_k}.
- Compose. If every M_k is finite-round LOCC, so is M: party a measures
  {Pi_k}, which disturbs no outcome as every E_j^a lies in one S_k, and then
  branch k runs M_k's protocol. Renamed to M's operators (`rename`), that
  protocol has a-root value Pi_k under M's parts; `compose` joins the branch
  trees by `merge_and_extend` on free party a, whose values sum to the
  identity, and concatenates the branch assignments.
- Restrict. If M is LOCC, so is each M_k: pre-compose party a's first
  instrument with V_k. The outcomes outside C_k then have zero compression,
  and the others implement M_k up to the positive reweighting that the
  protocol of M carries, which is what a `Protocol` implements (README,
  "What a `Protocol` implements").
So M is finite-round LOCC iff every M_k is. The split recurses on every party
of each branch, and one `ProvedImpossible` branch makes M `ProvedImpossible`.

Numerically, a pair is linked unless tr(E_i^a E_j^a) <= psd |E_i^a| |E_j^a|
(Frobenius norms), so a near-orthogonal pair stays linked: linking errs
toward fewer splits, never toward a wrong branch. S_k is spanned by the
eigenvectors of C_k's summed a-parts above psd times the largest eigenvalue.
Each branch must then be complete under M's completeness weights w:
sum_{j in C_k} w_j V_k^+ E_j V_k = I within lp, by `validate_assignment`'s
rule; a party where a branch fails is not split. The check can fail: a pair
below the margin can still leave S_k and S_l overlapping, so that the Pi_k do
not sum to I (the tests build one). When it holds for every k, the Pi_k sum
to I within the tolerances: averaged over the other parties, the weighted
a-parts of C_k sum to a matrix G_k supported on S_k (up to the dropped
eigenvalues) with V_k^+ G_k V_k = I, so G_k = Pi_k, and the G_k sum to I by
M's completeness. `synthesize` emits the composed protocol only once it
revalidates against M.

A branch of one operator that passes the check has w_j E_j' = I, so every
compressed part E_j'^b is proportional to the identity: its leaf tree with
x_b = d_b' / tr(E_j'^b) (`pin`) is its protocol, and it needs no LP. A
branch whose own trunk party is a would give party a two rounds in a row;
`compose` folds them by `compact_same_party`'s rule.

The last-mover quotient runs a protocol backwards. In a protocol whose
leaves each match one outcome, the children of a deepest node differ only at
the party a that measures there, so their outcomes have proportional parts
at every other party. Conversely, let a set S of outcomes
E_i = A_i (x) (x)_{b != a} E_i^b agree up to scale off party a:
E_i^b = lam_ib E_j^b for a representative j in S and every b != a. With
completeness weights w, replace S by the one outcome
G (x) (x)_{b != a} E_j^b of weight 1, where G = sum_i lam_i w_i A_i and
lam_i is the product of i's ratios lam_ib. The weighted sum of S is
unchanged, so the quotient is complete under the same weights.
- A protocol for the quotient gives one for M. At a leaf matching the new
  outcome, party a carries a positive multiple of G and the others of the
  shared parts; a measures {G^-1/2 lam_i w_i A_i G^-1/2} on the support of
  G, a complete measurement there, and its outcome i's leaf carries
  multiples of A_i and of E_i's other parts: it matches E_i. In tree terms,
  the leaf is `merge_and_extend` of S's trees with a free.
- Only `Protocol` transfers. The quotient of an LOCC measurement need not be
  LOCC. cascade5's M1, M2 and M3 agree up to scale off party A, and merging
  them takes its 5 outcomes to 3: the README's M', which the search proves
  impossible, while cascade5 has a protocol in round 4. So when the quotient
  stops above one outcome it proves nothing, and the search runs on the
  measurement as given, with its stats untouched; the quotient never
  answers `ProvedImpossible`.

A step is one round. For every party a in order, each class of the outcomes
not merged yet in this step that agree up to scale off a (the AND of the
other parties' `same_ray_masks` at tol) becomes one outcome; an outcome
alone in its class stays for the later parties, and the merged outcomes
wait for the next step. The classes of a step are disjoint, so each leaf of
a protocol for the step's quotient matches at most one merged outcome and
is extended by that class's measurement alone, as the argument above says:
one step adds one round to every branch at most, and a protocol of r rounds
for the quotient gives one of r + 1 for the measurement before the step.
At one outcome, of weight 1, the products sum to it, so each of its parts
is a multiple of the identity and its tree is a protocol of 0 rounds: a
chain of `steps` steps gives a protocol of `steps` rounds. A step that
merges nothing ends the quotient undecided, as does a single operator,
which the search pins with its one LP.

The tree is built from `leaf_tree`s by `merge_and_extend`, which adopts a
member's trunk children; a member whose trunk party is the free one gives
that party two rounds in a row, which `compact_same_party`'s rule folds
into one. Every merge has two or more members, so the tree is normal, and
each leaf is one operator's leaf tree: quotient trees stay in the model of
the README's "Which question a verdict answers". The assignment needs no
LP. Top down, the last outcome gets `pin`'s scalings d_b / tr(part), which
pin its roots to the identity as they pin a split's branch of one operator.
An outcome of scalings s merged at party a from S gives member i the
scalings s_b / lam_ib at b != a, so that its parts there equal the
representative's, and s_a lam_i w_i at a, so that the members' a-values sum
to s_a G. Each leaf then realizes w_j E_j. The weights are the document's
unit weights when they complete the measurement within tol, and the given
completion weights otherwise; `synthesize` revalidates the tree as it
revalidates every protocol.
"""
from __future__ import annotations

import dataclasses
import functools
import operator

import numpy as np

from .hermitian import column_masks, components, same_ray_masks, tensor, vectorize
from .measurement import SeparableMeasurement
from .tree import (
    Node,
    ProtocolTree,
    Term,
    _close,
    compact_same_party,
    leaf_tree,
    merge_and_extend,
)


def _components(g, psd):
    """The positions of each component of the (N, d, d) stack g's link
    graph (module docstring), ascending, by least position. A pair is
    linked when its test links it in either order, which can only merge
    components."""
    n = len(g)
    V = vectorize(g)
    gram = V @ V.T      # tr(E_i E_j): `vectorize` is an isometry
    norms = np.sqrt(gram.diagonal())
    linked = gram > psd * np.outer(norms, norms)
    if linked.all():
        return [np.arange(n)]
    return [np.array([j for j in range(n) if c >> j & 1])
            for c in components(column_masks(linked | linked.T))]


def split(stacks, weights, tol):
    """(a, branches) for the first party a whose parts in the party stacks
    link into two or more components whose branches all pass the
    completeness check under weights at the `Tolerances` tol, else None
    (module docstring). Each branch is (positions, stacks): its operators'
    positions in stacks, ascending, and their parts with party a's
    compressed onto the component's support."""
    for a, g in enumerate(stacks):
        members = _components(g, tol.psd)
        if len(members) < 2:
            continue
        vals, vecs = np.linalg.eigh(np.stack([g[p].sum(axis=0) for p in members]))
        branches = []
        for p, ev, U in zip(members, vals, vecs):
            V = U[:, ev > tol.psd * ev[-1]]
            parts = tuple(V.conj().T @ s[p] @ V if b == a else s[p]
                          for b, s in enumerate(stacks))
            prods = tensor(parts)
            total = (weights[p] @ prods.reshape(len(p), -1)).reshape(prods.shape[1:])
            if not _close(total, np.eye(len(total)), tol.lp):
                break
            branches.append((p, parts))
        else:
            return a, branches
    return None


def compose(trees, assignments, a):
    """The tree and assignment of a split at party a from its branches'
    protocols, named by the measurement's operators: the trees merged on
    free party a, a branch whose trunk party is a folded into the split's
    round, and the assignments concatenated."""
    return (compact_same_party(merge_and_extend(trees, a)),
            np.concatenate(assignments))


def pin(stacks):
    """The assignment x_b = d_b / tr(part) of the leaf tree of the one
    operator of the party stacks, which pins its roots to the identity when
    that operator alone is complete."""
    return np.array([s.shape[-1] / np.trace(s[0]).real for s in stacks])


def rename(t, names):
    """Tree t with each term's operator k renamed names[k]."""
    names = [int(j) for j in names]
    return ProtocolTree(t.P, tuple(_renamed(r, names) for r in t.roots),
                        t.nvars, t.depth)


def _renamed(n, names):
    """Node n with each term's operator k renamed names[k]."""
    return Node(n.party,
                tuple(tuple(Term(names[t.op], t.var, t.scale) for t in g)
                      for g in n.groups),
                tuple(_renamed(c, names) for c in n.children))


@dataclasses.dataclass(frozen=True)
class Quotient:
    """A protocol the quotient reached: its tree and assignment, the steps
    (rounds) it took and the classes it merged, one new tree each."""
    tree: ProtocolTree
    assignment: np.ndarray
    steps: int
    merges: int


def last_mover_quotient(m: SeparableMeasurement, weights,
                        tol: float) -> Quotient | None:
    """The protocol the last-mover quotient of m reaches (module docstring),
    or None when m has one operator or a step merges nothing. weights must
    complete m to the identity; unit weights are used instead when they
    complete it within tol."""
    N, P = len(m), m.P
    if N < 2:
        return None
    prods = m.products()
    u = (np.ones(N) if _close(prods.sum(axis=0), m.identity(), tol)
         else np.asarray(weights, dtype=float))
    stacks = [m.stack(b) for b in range(P)]
    trees = [leaf_tree(m, j) for j in range(N)]
    # per outcome, each var of its tree: the var's party, and its scaling
    # relative to the outcome's own scaling at that party
    owners = [np.arange(P)] * N
    scales = [np.ones(P)] * N
    memo = {}
    steps = merges = 0
    while len(trees) > 1:
        masks = [same_ray_masks(s, tol) for s in stacks]
        left = (1 << len(trees)) - 1    # the outcomes not merged in this step
        classes = {}                    # leader -> (party, members)
        for a in range(P):
            off = [functools.reduce(operator.and_,
                                    (masks[b][j] for b in range(P) if b != a), -1)
                   for j in range(len(trees))]
            avail = left
            while avail:
                j = (avail & -avail).bit_length() - 1
                cls = off[j] & avail | 1 << j
                avail &= ~cls
                if cls != 1 << j:
                    left &= ~cls
                    classes[j] = (a, [i for i in range(j, len(trees)) if cls >> i & 1])
        if not classes:
            return None
        steps += 1
        merges += len(classes)
        traces = np.array([np.trace(s, axis1=1, axis2=2).real for s in stacks])
        nxt = []    # per outcome of the next step: parts, weight, tree, owners, scales
        for j in range(len(trees)):
            if j in classes:
                a, S = classes[j]
                lam = traces[:, S] / traces[:, [j]]      # (P, |S|) scales to j's
                rel = 1.0 / lam
                rel[a] = np.prod(np.delete(lam, a, axis=0), axis=0) * u[S]
                parts = [s[j] for s in stacks]
                parts[a] = np.tensordot(rel[a], stacks[a][S], axes=1)
                nxt.append((parts, 1.0, merge_and_extend([trees[i] for i in S], a, memo),
                            np.concatenate([owners[i] for i in S]),
                            np.concatenate([rel[owners[i], k] * scales[i]
                                            for k, i in enumerate(S)])))
            elif left >> j & 1:
                nxt.append(([s[j] for s in stacks], u[j], trees[j], owners[j], scales[j]))
        parts, u, trees, owners, scales = zip(*nxt)
        stacks = [np.array(p) for p in zip(*parts)]
        u = np.array(u)
    return Quotient(compact_same_party(trees[0]),
                    pin(stacks)[owners[0]] * scales[0], steps, merges)
