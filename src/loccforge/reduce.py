"""The last-mover quotient: protocols read off a measurement with no LP.

`synthesize` answers in three stages: the split on orthogonal local supports
(`synthesis.py`), then this quotient on the unsplit measurement and on each
branch that splits no further, then the search on whatever the quotient
leaves undecided. Exhaustive mode runs the search alone.

Run a protocol backwards. In a protocol whose leaves each match one outcome,
the children of a deepest node differ only at the party a that measures
there, so their outcomes have proportional parts at every other party.
Conversely, let a set S of outcomes E_i = A_i (x) (x)_{b != a} E_i^b agree
up to scale off party a: E_i^b = lam_ib E_j^b for a representative j in S
and every b != a. With completeness weights w, replace S by the one outcome
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
LP. Top down, the last outcome's scaling at party b is d_b / tr(part), which
pins its roots to the identity, as the split does for a branch of one
operator. An outcome of scalings s merged at party a from S gives member i
the scalings s_b / lam_ib at b != a, so that its parts there equal the
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

from .hermitian import same_ray_masks
from .measurement import SeparableMeasurement
from .tree import ProtocolTree, _close, compact_same_party, leaf_tree, merge_and_extend


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
    top = np.array([s.shape[-1] / np.trace(s[0]).real for s in stacks])
    return Quotient(compact_same_party(trees[0]), top[owners[0]] * scales[0],
                    steps, merges)
