"""The synthesis loop: the split, classes, mergers, feasibility, verdicts.

Before the search, `synthesize` splits a measurement on orthogonal local
supports. This is Walgate and Hardy's orthogonality-preserving measurement
(PRL 89, 147901, 2002), used as an exact reduction. At party a, link two
operators when their a-parts have a nonzero product; for PSD parts that is
when tr(E_i^a E_j^a) > 0. Let the links form components C_1..C_r with r >= 2,
S_k the support of C_k's summed a-parts, Pi_k its projector, V_k an isometry
onto it, and M_k = {V_k^+ E_j^a V_k (x) E_j's other parts : j in C_k}.
- Compose. If every M_k is finite-round LOCC, so is M: party a measures
  {Pi_k}, which disturbs no outcome as every E_j^a lies in one S_k, and then
  branch k runs M_k's protocol. Renamed to M's operators, that protocol has
  a-root value Pi_k under M's parts; `merge_and_extend` joins the branch
  trees on free party a, whose values sum to the identity, and the branch
  assignments concatenate.
- Restrict. If M is LOCC, so is each M_k: pre-compose party a's first
  instrument with V_k. The outcomes outside C_k then have zero compression,
  and the others implement M_k up to the positive reweighting that the
  protocol of M carries, which is what a `Protocol` implements (README,
  "What a `Protocol` implements").
So M is finite-round LOCC iff every M_k is. The split recurses on every party
of each branch, and one `ProvedImpossible` branch makes M `ProvedImpossible`;
its reason names the party and the branch's labels.

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
M's completeness. `_emit` checks the composed protocol against M.

A branch of one operator that passes the check has w_j E_j' = I, so every
compressed part E_j'^b is proportional to the identity: its leaf tree with
x_b = d_b' / tr(E_j'^b) is its protocol, and it needs no LP. A branch that
splits no further is searched as its own measurement.

The branches share one `SynthesisStats`, so `max_lps` and `max_trees` bound
the whole run, and `lps_solved`, `trees_built` and `classes_found` sum over
the branches; the first branch that is not a `Protocol` ends the run with its
verdict. A split costs one round: `rounds` is the most rounds of any branch
plus 1 (a leaf branch has none), and the configured `rounds` bounds that
total, so a branch reached through that many splits is not split again. A
branch whose own trunk party is a would give party a two rounds in a row;
composing folds them by `compact_same_party`'s rule. Exhaustive mode runs
unsplit: it lists the search's alternative orderings, and a split fixes the
first party. A measurement that does not split goes straight to the search.

Starting from one-outcome trees, each round groups trees whose roots on all
parties but one can carry a common strictly positive value (an LP question)
and merges every such subset with that remaining party measuring first. A
merged tree that covers every operator is a protocol when an assignment pins
every root to the identity; a round searches those first (the cover search,
below). No new maximal class in a round means no tree can ever be built that
was not already buildable, which proves impossibility.

That proof needs the whole family of mergeable subsets of each round, so no
subset size cuts it: only the budgets (`max_lps`, `max_trees`, `rounds`) stop
a search early, and each ends it `BudgetExhausted`.

The feasible family is found level by level, and a subset gets an LP only
when every subset one tree smaller is feasible. This keeps the impossibility
argument because the family returned is exactly the set of feasible subsets,
as an LP for each one would find it; only fewer LPs are solved. Feasibility
is downward closed: a subset's LP keeps the alias equalities of its own trees,
and its chain equalities follow from the superset's by transitivity, so any
point of the superset's LP restricted to the subset's columns is a point of
the subset's. A subset with an infeasible one-smaller subset is therefore
infeasible without an LP, and the maximal classes, the mergers and the
no-new-class test see the same family.

Every set admitted to `known` costs exactly one counted LP, except a set
with no constraint rows: a single tree whose roots have one group on every
party but the free one, or any set of a one-party measurement, whose class
LP has no block. So with two or more parties `max_lps` bounds each round's
family directly. The largest class LP a family pass solves is one tree more
than its largest feasible set.

Each round extends the last one's search: a round only adds trees, and a
fixed set's feasibility never changes, so every subset of last round's trees
was tested, merged and counted then. A new class holds a tree born in the
last round, and so do its one-larger supersets; only such subsets get an LP
or a merge, and their maximality is decided among themselves.

A round searches for a protocol before it builds any family. The operators
a merged tree covers are the union of its members' (its leaves are theirs),
so a run keeps one coverage bitmask per tree id and knows which mergers cover
every operator before building any. For each free party in order,
`_cover_search` yields the feasible subsets of size >= 2 of its eligible
trees that cover every operator and hold an id >= start, in (size, ids)
order, and each is merged and its pinned LP solved at once. The families
(`build_classes`) are built only when no free party's search found a
protocol; exhaustive mode runs every party's search and returns the round's
protocols in that order. So `classes_found` counts only the classes of
rounds that built their families.

The first protocol is the one a family-first round returns. That round
built a free party's family, then tested its full-coverage mergers in
(size, ids) order, party after party, and returned the first feasible
pinned LP. The family is exactly the set of feasible subsets (above), and
the search yields exactly its full-coverage members of size >= 2 holding an
id >= start, by the same `_classes_feasible` answers and in the same order; so
the candidates, and the pinned LPs, come in the same (free, size, ids) order.

The search runs a depth-first search for each size k = 2, 3, ... over
ascending positions of the eligible list, and extends a prefix only if it is
feasible: a feasible set's prefixes are feasible. A set gets no LP when it
is in `known` or in the round's `refuted` set, when it holds only ids below
start and is not in `known` (every feasible set of such ids is), or when a
one-smaller subset is refuted, or holds only such ids and is not in `known`
(downward closure). Two bounds end the loop over the next position q. Each
skips only sets that cannot cover every operator, so the search is
complete, and each only tightens as q grows:
- the coverage bound: the prefix's cover with the covers of all trees at
  positions >= q is not every operator;
- the count bound: with `need` trees still to add and `missing` the
  operators the prefix lacks, need times the most operators of `missing`
  that one tree at a position >= q covers is below |missing|.
In a prototype the looser count bound, need times the largest remaining
cover, spent 745 prefix LPs in seed 51's third round.

The sizes stop after a size whose search extended no prefix one tree short
of it and cut nothing by the count bound. The next size visits only what
this one did: feasibility and the coverage bound do not depend on the size,
the range of positions narrows as the size grows, and the count bound, which
weakens as `need` grows, cut nothing here. So it extends no prefix one tree
short of this size, yields nothing and cuts nothing by the count bound
either; by induction no larger size yields a set.

Prefixes are tested eagerly, before their candidates. In prototypes, testing
only the full-coverage candidates spent the 50,000-LP budget on the 2x2x3
product basis, and testing a prefix only once one of its candidates failed
took that basis to 5,200 LPs, against 2,774 for the family-first search and
1,630 for this one.

The two passes share every answer: a set the search finds feasible joins
`known`, and one it finds infeasible joins `refuted`, which the family pass
reads for its candidates; so no (free party, set) gets two LPs in a run.
Where a round holds no protocol the search still tests sets the family
never would, those with an infeasible subset that is not a prefix, as on
the products of domino9 with a product basis. Every set the search merges
is a full-coverage member of the family, and when the round builds its
families that tree is reused at its place in the round's (free, size, ids)
merge list. Tree ids thus follow the round's merge order, so the
next round sees the same tree list as if every merger had been built at
once, and no tree is built twice. `max_trees` counts the trees built and is
checked before each merge, so a round that holds a protocol returns it even
when building all of its mergers would pass the budget.

A run never builds a tree twice, so it keeps no table of trees. It merges each
(free party f, subset S) once, and the canonical key of merge(S, f) names f,
the party of the only root with children, and each member's key: branch i
holds member i's f-root groups and trunk children; a leaf's groups name its
operator, a merged member's trunk value sums its branches' values and its
other roots stack its members'. All terms have scale 1.0, so the group
`_group_sort_key` puts first depends only on the key. By induction keys
differ. A repeat would be harmless: the impossibility proof needs every class.

Both LPs of a run split by party. Every tree variable labels nodes of one
party only: `leaf_tree` gives operator j's tree var a at party a, and
`merge_and_extend` only offsets its members' vars. A row that equates two
groups of party beta, or pins one to the identity, thus holds columns of
party beta only, so each LP is block-diagonal with one block per party and
is feasible iff every block's LP is.

A class LP, "is there an x >= 1 with A x = 0?", has a block for every party
but the free one. `_classes_feasible` decides a sequence of class LPs, a
family level or one set of the cover search. It counts one LP per set in
`lps_solved` as it reaches the set, before it decides any, so a budget stops
the run at the set where one LP at a time would, and lists no set of the
level past it and solves none. Per set it reads each block's certificate
(below) in ascending party order and stops at the first that refutes; a
certified block is skipped. The undecided blocks go to the simplex in
ascending party order, a set's block only while its earlier blocks were
feasible, which is the order one set at a time would solve them in. A
party's blocks are solved together, up to `_CHUNK` at a time, by
`simplex.feasible_points`, stacked by shape: each block gets the same pivots
and the same arithmetic as alone (the simplex module says why), so
its answer is `feasible_point`'s, bit for bit, and the family, the LP count
and every tree are those of solving the blocks one at a time. A block does
not depend on the free party, so a run keeps each solved block's answer
under (ids, party): with three or more parties, two free parties can ask for
the same block. A block that trips the simplex's iteration guard drops its
set from the later parties, and the first such set's error is raised once
every party has run, as one set at a time would raise it; but a budget hit
in the same call comes first, as it comes before any block is solved.

The pinned LP of a full-coverage tree, "is there an x >= delta under which
every node's groups agree and every root's value group is the identity?",
has a block for every party. A tree states each of its equalities once, as
the groups of one node: `merge_and_extend` stacks the members' roots of a
non-free party as the alias groups of the new root, and keeps every other
node as it was. Party a's block holds, per node of a in `descend` order,
the rows of each group against the next, then the rows of a's root's value
group against the identity, over a's vars in ascending order.
`feasibility` counts one LP and solves the blocks in party order until one
is infeasible.

The simplex answers a block as it answers the joint LP that stacks the
blocks in party order, up to roundoff and three margins; the argument is
the same for class and pinned blocks. Phase 1 on the joint LP minimizes a
sum of per-block objectives over a product of per-block sets, so its
optimum is zero iff every block's is. Restricted to one block, its pivots
are the block's own, in the same order: Bland's rule enters the column of
lowest index with a negative reduced cost and breaks ratio ties by the
lowest basis index, both orders keep each block's columns and rows in
their order, the ratio test reads only the entering block's rows, and a
pivot changes neither the rows nor the reduced costs of another block.
The final residual check bounds every row by tol (1 + max |b|), and max |b|
is also each block's (0 in a class LP, 1 in a pinned one), so a point
passes it iff its part on each block does. Three thresholds grow with the
whole matrix, though: a row is dropped as zero relative to the matrix's
largest entry, the phase-1 objective is compared with 1e-9 (1 + rows), and
the iteration guard allows _ITER_FACTOR (columns + rows + 10) pivots. And
equal rows do not make bit-equal pivots: `feasible_point` shifts to
x >= lower with the product A @ lower, which BLAS sums in an order that
depends on the matrix's shape, so the shifted rhs, and every pivot after
it, can differ in the last bits. A block's answer can differ from the
joint LP's only where a row, the objective or the pivot count falls
between the block's threshold and the joint one, or where that roundoff
crosses a pivot or drop threshold. The tests compare the two on every
class LP and every pinned LP of their searches; the pinned LPs' points
agree within 1e-12 relative.

Most blocks are answered by one of two certificates on r = A @ 1 before the
simplex, A now the block; each gives the answer the simplex would. If r is
exactly zero, x = 1 is a solution: the shifted rhs -r is all zero, so
phase 1 ends at objective 0 and x = 1 has residual 0. If a row of A has
entries of one sign and |r_i| > 2 tol, no x >= 1 passes the residual check:
the row sums same-signed terms, so |(A x)_i| >= |r_i| > tol with room for
roundoff.

Both certificates are read without building a block. Its columns are (tree
id, var) pairs, so two trees never share a column, and each row holds the
entries of one equality: a tree's alias rows (group k against group k+1
of its root) or the chain rows (group 0 of one tree against group 0 of the
next). Row sums and "one-signed" are properties of single rows, so the
block's certificate combines its trees' and chains': False if one has a
one-signed row with |r| > 2 tol, True if every one sums to exactly zero,
and otherwise the block is assembled and goes to the simplex. A tree's
alias rows depend only on (tree, party). A chain depends only on the two
value groups: with g the row sums of a value group's column block and pos,
neg its masks of rows with entries all >= 0 and all <= 0, the chain rows
sum to g_a - g_b and are one-signed where (pos_a & neg_b) | (neg_a & pos_b).
A run keeps these per (tree, party): the certificate of its alias rows,
the row sums and sign masks of its value group, and the rows themselves,
which an undecided block reads (below). The parts' sums add each row in
another order than A @ 1 does, so the exact-zero test can differ from the
full block's only where A @ 1 is zero up to roundoff; a True still means
that, so x = 1 passes the simplex's residual check. The False test keeps
tol of room for roundoff in either order. A run also keeps each chain's
certificate under (ta, tb, party). The chains a list of sets needs that are
not kept yet are decided in one numpy pass per party, over the stacked row
sums and masks, entry by entry as for one chain. Only a set's last chain is
new past the first level, as its prefix is a feasible set whose chains were
all read, so this reads the chains one set at a time would read.

An undecided block is assembled from per-tree blocks, not renamed from the
trees' terms. `_root_blocks` numbers a tree's variables at party beta in
order of first use over its root's groups and builds its alias rows and its
value group's column block V over them, the rows the certificates were
read from. The block's rows are each tree's alias rows, then the chain rows
[V_a | -V_b]. Its columns follow the first-use order of renaming the trees'
terms into those rows one pair at a time: alias rows come before every
chain row, so the trees with alias rows come first, in id order, then the
single-group trees, whose vars first occur in the chain rows, in id order.
The block equals that renamed LP's rows bit for bit (the tests keep the
renaming).
"""
from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .config import RunConfig
from .errors import InfeasibleError, InvalidMeasurementError, TreeStructureError
from .hermitian import LP_TOL, column_masks, components, tensor, vectorize
from .measurement import SeparableMeasurement, completeness_certificate, validate
from .simplex import feasible_point, feasible_points
from .tree import (
    Node,
    ProtocolTree,
    Term,
    _close,
    compact_same_party,
    descend,
    leaf_tree,
    merge_and_extend,
    root_for,
    validate_assignment,
)


@dataclasses.dataclass
class SynthesisStats:
    rounds: int = 0
    trees_built: int = 0
    lps_solved: int = 0
    classes_found: int = 0

    def as_dict(self):
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class SynthesisVerdict:
    kind: str                  # "Protocol" | "ProvedImpossible" | "BudgetExhausted"
    tree: ProtocolTree | None
    assignment: np.ndarray | None
    stats: SynthesisStats
    protocols: tuple = ()      # (tree, assignment) pairs, exhaustive mode
    reason: str = ""


class _BudgetHit(Exception):
    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


# the most blocks of one party solved at once: stacks of 64 keep most of the
# speed of one stack per shape, and a wide level's memory at that of one LP
# at a time
_CHUNK = 64


def _count_lp(stats: SynthesisStats, max_lps):
    stats.lps_solved += 1
    if max_lps is not None and stats.lps_solved > max_lps:
        raise _BudgetHit("lp budget exhausted")


def _rows(pairs, V, ncols):
    """The LP rows of lhs - rhs = 0 over ncols columns, one per term var: one
    block of d*d rows per (lhs, rhs) group pair, in order (Bland's rule
    pivots by row and column order); V is the party's `m.columns` table."""
    size = V.shape[1]
    A = np.zeros((size * len(pairs), ncols))
    for k, pair in enumerate(pairs):
        block = A[k * size:(k + 1) * size]
        for group, sign in zip(pair, (1.0, -1.0)):
            for t in group:
                block[:, t.var] += sign * t.scale * V[t.op]
    return A


def _block_signs(B):
    """(row sums, rows with entries all >= 0, rows with entries all <= 0) of
    the column block B."""
    # the product feasible_point forms for its shift to x >= 1
    r = B @ (np.zeros(B.shape[1]) + 1.0)
    return r, (B >= 0.0).all(axis=1), (B <= 0.0).all(axis=1)


def _certificates(r, one_sign, tol):
    """The two certificates of each block whose row sums are a row of r and
    whose one-signed rows are that row of the mask one_sign: True if the row
    sums are all zero, False if a one-signed row sums past 2 tol, else None."""
    zero = ~r.any(axis=1)
    refuted = (one_sign & (np.abs(r) > 2.0 * tol)).any(axis=1)
    return [True if z else (False if f else None)
            for z, f in zip(zero.tolist(), refuted.tolist())]


def _class_certificate(A, tol):
    """True or False when the LP A x = 0, x >= 1 is decided by a certificate
    of the module docstring, None when it needs the simplex."""
    r, pos, neg = _block_signs(A)
    return _certificates(r[None], (pos | neg)[None], tol)[0]


def _chain_certificates(pairs, tol):
    """`_class_certificate` of the chain rows [G_a, -G_b] of each pair (a, b)
    of `_block_signs` of two value-group blocks of one party, in one numpy
    pass: the rows sum to g_a - g_b and are one-signed where
    (pos_a & neg_b) | (neg_a & pos_b), entry by entry as for one pair."""
    (ga, pos_a, neg_a), (gb, pos_b, neg_b) = (
        [np.array(v) for v in zip(*side)] for side in zip(*pairs))
    return _certificates(ga - gb, (pos_a & neg_b) | (neg_a & pos_b), tol)


def _root_blocks(t, beta, m):
    """t's alias rows at party beta and its value group's column block, over
    t's own variables numbered by first use over its root's groups."""
    V = m.columns(beta)
    cols = {}
    gs = [tuple(Term(u.op, cols.setdefault(u.var, len(cols)), u.scale)
                for u in g) for g in root_for(t, beta).groups]
    return (_rows(list(zip(gs, gs[1:])), V, len(cols)),
            _rows([(gs[0], ())], V, len(cols)))


def _tree_rows(trees, tid, beta, m, tol, rows):
    """The data of tree tid at party beta, cached in rows under (tid, beta):
    `_class_certificate` of its root's alias rows, the `_block_signs` of its
    value group's column block, and both blocks (`_root_blocks`)."""
    if (tid, beta) not in rows:
        alias, value = blocks = _root_blocks(trees[tid], beta, m)
        rows[tid, beta] = (_class_certificate(alias, tol), _block_signs(value),
                           blocks)
    return rows[tid, beta]


def _combined(certs):
    """False if one of the certificates is False, else None if one is None,
    else True."""
    return min(certs, key=(False, None, True).index, default=True)


def _block_certificates(trees, cands, beta, m, tol, rows):
    """`_class_certificate` of the block at party beta of each candidate's
    class LP, composed from its trees' and chains' (module docstring) without
    building it. Beside `_tree_rows`, rows caches (ta, tb, beta), the chain
    certificate of consecutive trees ta, tb; the chains of the candidates
    that no tree refutes and that rows lacks are found in one numpy pass."""
    out = [_combined(_tree_rows(trees, tid, beta, m, tol, rows)[0] for tid in ids)
           for ids in cands]
    new = list(dict.fromkeys(
        (ta, tb, beta) for ids, known in zip(cands, out) if known is not False
        for ta, tb in zip(ids, ids[1:]) if (ta, tb, beta) not in rows))
    if new:
        certs = _chain_certificates(
            [(rows[ta, beta][1], rows[tb, beta][1]) for ta, tb, _ in new], tol)
        rows.update(zip(new, certs))
    return [known if known is False else _combined(
        [known] + [rows[ta, tb, beta] for ta, tb in zip(ids, ids[1:])])
        for ids, known in zip(cands, out)]


def _class_lp(ids, beta, rows):
    """The block A of the class LP of ids at party beta, assembled from the
    trees' `_root_blocks` that `_tree_rows` keeps in rows: each tree's alias
    rows, then the chain rows [V_a | -V_b] of consecutive trees. The columns
    are the trees' vars in order of first use: the trees with alias rows in
    id order, then the others in id order (module docstring)."""
    data = [rows[tid, beta][2] for tid in ids]
    cols, n = [None] * len(ids), 0
    for k in sorted(range(len(ids)), key=lambda k: not len(data[k][0])):
        width = data[k][1].shape[1]
        cols[k] = slice(n, n + width)
        n += width
    size = data[0][1].shape[0]
    A = np.zeros((sum(len(d[0]) for d in data) + size * (len(ids) - 1), n))
    r = 0
    for c, (alias, _) in zip(cols, data):
        A[r:r + len(alias), c] = alias
        r += len(alias)
    for k in range(len(ids) - 1):
        A[r:r + size, cols[k]] = data[k][1]
        A[r:r + size, cols[k + 1]] -= data[k + 1][1]
        r += size
    return A


def _classes_feasible(trees, cands, free_party, m, stats, max_lps, tol,
                      rows=None):
    """For each candidate ids of the iterable cands, in order: can the listed
    trees' roots share one strictly positive common value on every party
    except free_party? Counted, certified and solved as the module docstring
    says; rows, the run's cache of `_block_certificates` (a fresh one when
    None), also keeps each solved block's answer under (ids, party)."""
    rows = {} if rows is None else rows
    parties = [beta for beta in range(m.P) if beta != free_party]
    sets, answers = [], []
    for ids in cands:
        sets.append(ids)
        if all(len(ids) == 1 and len(root_for(trees[ids[0]], beta).groups) == 1
               for beta in parties):
            answers.append(True)  # no constraint rows
        else:
            _count_lp(stats, max_lps)
            answers.append(None)
    cands, undecided = sets, []
    for beta in parties:
        alive = [k for k, answer in enumerate(answers) if answer is None]
        certs = _block_certificates(trees, [cands[k] for k in alive], beta, m,
                                    tol, rows)
        for k, cert in zip(alive, certs):
            if cert is not True:
                answers[k] = cert
        undecided.append((beta, [k for k, c in zip(alive, certs) if c is None]))
    tripped = {}
    for beta, ks in undecided:
        ks = [k for k in ks if answers[k] is None and k not in tripped]
        new = [k for k in ks if (cands[k], beta) not in rows]
        for lo in range(0, len(new), _CHUNK):
            chunk = new[lo:lo + _CHUNK]
            As = [_class_lp(cands[k], beta, rows) for k in chunk]
            trips = {}
            xs = feasible_points(As, [np.zeros(len(A)) for A in As], tol=tol,
                                 lowers=[np.ones(A.shape[1]) for A in As],
                                 tripped=trips)
            tripped.update((chunk[i], e) for i, e in trips.items())
            rows.update(((cands[k], beta), x is not None)
                        for i, (k, x) in enumerate(zip(chunk, xs)) if i not in trips)
        for k in ks:
            if k not in tripped and not rows[cands[k], beta]:
                answers[k] = False
    if tripped:
        raise tripped[min(tripped)]
    return [answer is not False for answer in answers]


def _class_feasible(trees, ids, free_party, m, stats, max_lps, tol, rows=None):
    """`_classes_feasible` of the one set ids, as the cover search asks."""
    return _classes_feasible(trees, [ids], free_party, m, stats, max_lps, tol,
                             rows)[0]


def _feasible_family(trees, eligible, free_party, m, known, start, stats,
                     max_lps, tol, rows=None, refuted=None):
    """The feasible subsets of the ascending eligible ids that hold an id >=
    start, level by level; `known` must hold this free party's feasible
    subsets of the ids below start, and gains every feasible subset found.
    refuted holds sets known to be infeasible (`_cover_search`'s) and is only
    read; a set in known or refuted gets no LP. rows is passed to
    `_classes_feasible`, which decides each level's candidates at once.

    Level k+1 joins two feasible level-k tuples that share their first k-1
    ids; a candidate gets an LP only when every one-smaller subset is
    feasible (the family is downward closed). Each level is in ascending
    order of its tuples.
    """
    refuted = refuted or ()

    def decide(cands):
        """The feasible sets of the iterable cands, in order. The ones not
        known yet go to `_classes_feasible` as they are reached, so a budget
        cut lists no set past it."""
        level, ask = [], []

        def unknown():
            for c in cands:
                level.append(c)
                if c not in known and c[-1] >= start and c not in refuted:
                    ask.append(c)
                    yield c

        answers = _classes_feasible(trees, unknown(), free_party, m, stats,
                                    max_lps, tol, rows)
        known.update(c for c, ok in zip(ask, answers) if ok)
        return [c for c in level if c in known]

    def joined(level):
        """Level k+1's candidates from the feasible level k, in order."""
        for _, group in itertools.groupby(level, key=lambda c: c[:-1]):
            group = list(group)
            for n, a in enumerate(group):
                for b in group[n + 1:]:
                    c = a + b[-1:]
                    # dropping c[-1] gives a and dropping c[-2] gives b
                    if all(c[:k] + c[k + 1:] in known for k in range(len(c) - 2)):
                        yield c

    level = decide((i,) for i in eligible)
    family = list(level)
    while level:
        level = decide(joined(level))
        family += level
    return [c for c in family if c[-1] >= start]


def build_classes(trees, eligible, free, m, known, start, stats, max_lps, tol,
                  rows=None, refuted=None):
    """Mergeable classes of the eligible trees with free party `free` that
    hold an id >= start (`known`, rows and refuted as in `_feasible_family`).

    Returns (mergers, maximal): every such feasible subset of size >= 2 in
    merge order (size, then ids), and the subsets among them that no further
    eligible tree extends; such a superset holds an id >= start too.
    """
    new = _feasible_family(trees, eligible, free, m, known, start, stats,
                           max_lps, tol, rows, refuted)
    extended = {c[:k] + c[k + 1:] for c in new for k in range(len(c))}
    mergers = [s for s in new if len(s) >= 2]
    return mergers, [s for s in mergers if s not in extended]


def _cover_search(trees, eligible, free, m, known, refuted, start, covers,
                  stats, max_lps, tol, rows=None):
    """Yield the feasible subsets of size >= 2 of the ascending eligible ids
    that cover every operator and hold an id >= start, in (size, ids) order;
    covers[i] is the bitmask of the operators tree i covers.

    For each size a depth-first search extends a prefix over ascending
    positions of eligible, and only when the prefix is feasible. Every set it
    tests joins known (as in `_feasible_family`) when feasible and refuted
    when not. A set gets no LP when it is in either, when it holds only ids
    below start, or when a one-smaller subset is refuted or holds only ids
    below start and is not known. Two coverage bounds end a loop, and the
    sizes stop after one that reached no prefix one tree short and cut
    nothing by the count bound (module docstring).
    """
    full = (1 << len(m)) - 1
    cov = [covers[i] for i in eligible]
    n = len(cov)
    rest = [0] * (n + 1)  # rest[q]: the operators covered at positions >= q
    for q in range(n - 1, -1, -1):
        rest[q] = rest[q + 1] | cov[q]
    reached = cut = False

    def feasible(c):
        if c in known:
            return True
        if c in refuted or c[-1] < start:
            return False
        smaller = [c[:k] + c[k + 1:] for k in range(len(c))] if len(c) > 1 else []
        ok = (not any(s in refuted or (s[-1] < start and s not in known)
                      for s in smaller)
              and _class_feasible(trees, c, free, m, stats, max_lps, tol, rows))
        (known if ok else refuted).add(c)
        return ok

    def candidates(prefix, cover, pos, size):
        """(c, its cover, its position) for each next position q >= pos that
        the bounds leave: c is a feasible prefix, or a feasible full-coverage
        set of the size that holds an id >= start."""
        nonlocal reached, cut
        need = size - len(prefix)
        missing = full & ~cover
        # the count bound: past position last no tree adds `least` of the
        # missing operators, so need more trees cannot cover them; for
        # least <= 1 the coverage bound below implies it
        least = -(-missing.bit_count() // need)
        last = n - 1
        if least > 1:
            while last >= pos and (cov[last] & missing).bit_count() < least:
                last -= 1
        for q in range(pos, n - need + 1):
            if cover | rest[q] != full:
                break
            if q > last:
                cut = True
                break
            c = prefix + (eligible[q],)
            if need == 1:
                if cover | cov[q] == full and c[-1] >= start and feasible(c):
                    yield c, full, q
            elif feasible(c):
                reached = reached or need == 2
                yield c, cover | cov[q], q

    # depth first with a stack of loops, not recursion: a recursive closure
    # would hold the run's trees in a reference cycle after it returns
    for size in range(2, n + 1):
        reached = cut = False
        stack = [candidates((), 0, 0, size)]
        while stack:
            for c, cover, q in stack[-1]:
                if len(c) == size:
                    yield c
                else:
                    stack.append(candidates(c, cover, q + 1, size))
                    break
            else:
                stack.pop()
        if not (reached or cut):
            return


def feasibility(t: ProtocolTree, m: SeparableMeasurement, *,
                delta: float = 1e-7, tol: float = LP_TOL):
    """An assignment >= delta under which every node's groups agree and every
    root's value group is the identity, or None. Solved one party at a time
    (module docstring): party a's rows are the consecutive group pairs of
    each of its nodes in `descend` order, then its root's value group against
    the identity, over its vars in ascending order; the first infeasible
    party ends the search."""
    x = np.full(t.nvars, delta)
    nodes = [n for n, _ in descend(t, t.roots)]
    for a in range(t.P):
        mine = [n for n in nodes if n.party == a]
        pairs = [p for n in mine for p in zip(n.groups, n.groups[1:])]
        pairs.append((root_for(t, a).groups[0], ()))
        cols = sorted({u.var for n in mine for g in n.groups for u in g})
        V = m.columns(a)
        A = _rows(pairs, V, t.nvars)[:, cols]
        b = np.zeros(A.shape[0])
        b[-V.shape[1]:] = vectorize(np.eye(m.dims[a], dtype=complex))
        xa = feasible_point(A, b, tol=tol, lower=x[cols])
        if xa is None:
            return None
        x[cols] = xa
    return x


def _emit(tree, assignment, m, tol):
    """(tree, assignment) once the tree revalidates under the assignment.

    A synthesized tree is already normal: `compact_same_party` and
    `prune_unitary_rounds` would return it unchanged, by induction over the
    merges. A branch of free party f adopts the trunk children of a member
    whose trunk party is not f, as a tree with trunk party f is not eligible
    for free party f; so no round is followed at once by a round of its own
    party, and nothing is folded. Every merge has at least two members, so
    every round has at least two outcomes, and nothing is spliced. A split
    composes normal branch trees on free party a and folds each branch whose
    trunk party is a (module docstring), and it has at least two branches.
    """
    if not validate_assignment(tree, m, assignment, pin_identities=True, tol=tol):
        raise TreeStructureError("synthesized protocol failed revalidation")
    return tree, assignment


def admit(m: SeparableMeasurement, cfg: RunConfig):
    """The `CompletenessCertificate` of a valid measurement: the one gate a
    measurement passes before `synthesize` or a command decides anything.
    Raises InvalidMeasurementError carrying validate's diagnostics at cfg's
    `psd` and `lp`, named by the first, when there are any; else, without
    diagnostics, when no weights >= cfg's `delta` complete m to the identity.
    """
    diags = validate(m, cfg.tol.psd, cfg.tol.lp)
    if diags:
        raise InvalidMeasurementError(str(diags[0]), diags)
    try:
        return completeness_certificate(m, cfg.delta, cfg.tol.lp)
    except InfeasibleError as e:
        raise InvalidMeasurementError(f"measurement is not complete: {e}") from e


def synthesize(m: SeparableMeasurement,
               config: RunConfig | None = None) -> SynthesisVerdict:
    """A `Protocol`, `ProvedImpossible` or `BudgetExhausted` verdict for m
    under config (default `RunConfig()`); m must pass `admit` at config, or
    InvalidMeasurementError is raised. m is split on orthogonal local
    supports first, unless config's mode is exhaustive (module docstring)."""
    cfg = config or RunConfig()
    w = admit(m, cfg).weights
    stats = SynthesisStats()
    split = None if cfg.mode == "exhaustive" else _split(
        tuple(m.stack(a) for a in range(m.P)), w, cfg, 0)
    if split is None:
        return _search(m, cfg, stats)
    v = _compose(m, np.arange(len(m)), split, w, cfg, stats, 0)
    if v.kind != "Protocol":
        return v
    emitted = _emit(v.tree, v.assignment, m, cfg.tol.lp)
    return dataclasses.replace(v, protocols=(emitted,))


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


def _split(stacks, w, cfg, depth):
    """(a, branches) for the first party a whose parts link into two or more
    components whose branches all pass the completeness check under the
    weights w, else None (module docstring); also None when depth, the
    splits above, leaves no round for one more. Each branch is (positions,
    stacks): its operators' positions in stacks, ascending, and their parts
    with party a's compressed onto the component's support."""
    if cfg.rounds is not None and depth >= cfg.rounds:
        return None
    psd = cfg.tol.psd
    for a, g in enumerate(stacks):
        members = _components(g, psd)
        if len(members) < 2:
            continue
        vals, vecs = np.linalg.eigh(np.stack([g[p].sum(axis=0) for p in members]))
        branches = []
        for p, ev, U in zip(members, vals, vecs):
            V = U[:, ev > psd * ev[-1]]
            parts = tuple(V.conj().T @ s[p] @ V if b == a else s[p]
                          for b, s in enumerate(stacks))
            prods = tensor(parts)
            total = (w[p] @ prods.reshape(len(p), -1)).reshape(prods.shape[1:])
            if not _close(total, np.eye(len(total)), cfg.tol.lp):
                break
            branches.append((p, parts))
        else:
            return a, branches
    return None


def _compose(m, ids, split, w, cfg, stats, depth):
    """The verdict of m's operators ids, split as `_split` returned, at depth
    splits into the run: a Protocol's tree names m's operators and is not yet
    emitted; otherwise the first branch's verdict that is not a Protocol,
    its reason naming the branch."""
    a, branches = split
    trees, xs, rounds = [], [], 0
    for p, parts in branches:
        v = _branch(m, ids[p], parts, w, cfg, stats, depth + 1)
        if v.kind != "Protocol":
            labels = ", ".join(m.labels[j] for j in ids[p])
            return dataclasses.replace(v, reason=(
                f"branch {{{labels}}} of the split at party "
                f"{m.party_names[a]}: {v.reason}"))
        rounds = max(rounds, stats.rounds)
        trees.append(v.tree)
        xs.append(v.assignment)
    stats.rounds = rounds
    # folds a branch whose trunk party is a into the split's round
    t = compact_same_party(merge_and_extend(trees, a))
    return SynthesisVerdict(
        "Protocol", t, np.concatenate(xs), stats,
        reason=f"split at party {m.party_names[a]} into {len(branches)} branches")


def _branch(m, ids, parts, w, cfg, stats, depth):
    """`_compose`'s verdict for one branch: m's operators ids with the
    (compressed) party stacks parts. One operator is its leaf tree; a branch
    that splits is composed; any other is searched as its own measurement."""
    if len(ids) == 1:
        stats.trees_built += 1
        stats.rounds = depth
        x = np.array([s.shape[-1] / np.trace(s[0]).real for s in parts])
        return SynthesisVerdict("Protocol", leaf_tree(m, int(ids[0])), x, stats)
    split = _split(parts, w[ids], cfg, depth)
    if split is not None:
        return _compose(m, ids, split, w, cfg, stats, depth)
    mb = SeparableMeasurement(
        [[s[k] for s in parts] for k in range(len(ids))],
        labels=[m.labels[j] for j in ids], party_names=m.party_names)
    v = _search(mb, cfg, stats, depth)
    if v.kind != "Protocol":
        return v
    names = [int(j) for j in ids]
    tree = ProtocolTree(v.tree.P, tuple(_renamed(r, names) for r in v.tree.roots),
                        v.tree.nvars, v.tree.depth)
    return dataclasses.replace(v, tree=tree, protocols=())


def _renamed(n, names):
    """Node n with each term's operator k renamed names[k]."""
    return Node(n.party,
                tuple(tuple(Term(names[t.op], t.var, t.scale) for t in g)
                      for g in n.groups),
                tuple(_renamed(c, names) for c in n.children))


def _search(m, cfg, stats, depth=0):
    """The search's verdict for an admitted m (module docstring), counting
    into stats; depth is the number of splits above m, which `rounds` and
    the round limit count too."""
    N = len(m)
    trees = [leaf_tree(m, j) for j in range(N)]
    stats.trees_built += N
    stats.rounds = depth
    # One intern table per run shares repeated terms and renamed groups
    # between trees; its kinds of entry never compare equal.
    memo = {}

    if N == 1:
        _count_lp(stats, cfg.max_lps)
        x = feasibility(trees[0], m, delta=cfg.delta, tol=cfg.tol.lp)
        if x is not None:
            tree, x = _emit(trees[0], x, m, cfg.tol.lp)
            return SynthesisVerdict("Protocol", tree, x, stats,
                                    protocols=((tree, x),),
                                    reason="single operator pins to the identity")
        return SynthesisVerdict("ProvedImpossible", None, None, stats,
                                reason="single operator cannot pin to the identity")

    # per free party, the feasible subsets found so far (ascending id tuples)
    known = [set() for _ in range(m.P)]
    # the class LPs' data per (tree id, party) and the solved blocks' answers
    # per (ids, party), read by every free party; tree ids are stable, as
    # trees are only appended
    rows = {}
    # per tree id, the bitmask of the operators its leaves cover
    covers = [1 << j for j in range(N)]
    start = 0
    round_idx = 0

    def merge(s, free):
        if stats.trees_built >= cfg.max_trees:
            raise _BudgetHit("tree budget exhausted")
        stats.trees_built += 1
        return merge_and_extend([trees[i] for i in s], free, memo)

    while True:
        if cfg.rounds is not None and depth + round_idx >= cfg.rounds:
            return SynthesisVerdict("BudgetExhausted", None, None, stats,
                                    reason=f"round limit {cfg.rounds} reached")
        round_idx += 1
        stats.rounds = depth + round_idx
        new_classes = 0
        round_protocols = []
        # one round = one parallel layer: trees born here only merge next round
        snapshot = len(trees)
        eligible = [[i for i in range(snapshot) if trees[i].trunk_party != free]
                    for free in range(m.P)]
        # per free party, the sets the cover search found infeasible
        refuted = [set() for _ in range(m.P)]
        # the trees the cover search merged, per (free, subset)
        built = {}
        # (free, subset) per merger, in merge order
        merges = []
        try:
            for free in range(m.P):
                for s in _cover_search(trees, eligible[free], free, m,
                                       known[free], refuted[free], start,
                                       covers, stats, cfg.max_lps, cfg.tol.lp,
                                       rows):
                    tnew = built[free, s] = merge(s, free)
                    _count_lp(stats, cfg.max_lps)
                    x = feasibility(tnew, m, delta=cfg.delta, tol=cfg.tol.lp)
                    if x is not None:
                        emitted = _emit(tnew, x, m, cfg.tol.lp)
                        if cfg.mode == "first":
                            return SynthesisVerdict(
                                "Protocol", emitted[0], emitted[1], stats,
                                protocols=(emitted,),
                                reason=f"protocol found in round {round_idx}")
                        round_protocols.append(emitted)
            if round_protocols:
                first = round_protocols[0]
                return SynthesisVerdict("Protocol", first[0], first[1], stats,
                                        protocols=tuple(round_protocols),
                                        reason=f"protocols found in round {round_idx}")
            for free in range(m.P):
                mergers, maximal = build_classes(
                    trees, eligible[free], free, m, known[free], start, stats,
                    cfg.max_lps, cfg.tol.lp, rows, refuted[free])
                new_classes += len(maximal)
                stats.classes_found += len(maximal)
                merges += [(free, s) for s in mergers]
            if new_classes == 0:
                return SynthesisVerdict(
                    "ProvedImpossible", None, None, stats,
                    reason=f"round {round_idx} produced no new equivalence classes")
            for free, s in merges:
                t = built.get((free, s))
                trees.append(merge(s, free) if t is None else t)
                cover = 0
                for i in s:
                    cover |= covers[i]
                covers.append(cover)
        except _BudgetHit as e:
            return SynthesisVerdict("BudgetExhausted", None, None, stats,
                                    reason=e.reason)
        start = snapshot


def orderings(protocols, party_names=None) -> list:
    """Distinct per-branch measurement-order sequences over the protocols.

    Accepts a SynthesisVerdict, (tree, assignment) pairs, or bare trees. Names
    parties when given a name list, otherwise returns party indices.
    """
    if isinstance(protocols, SynthesisVerdict):
        items = [p[0] for p in protocols.protocols]
    else:
        items = [p[0] if isinstance(p, tuple) else p for p in protocols]
    seqs = set()
    for t in items:
        if t.trunk_party is None:
            seqs.add(())
        seqs.update(tuple(n.party for n in path[1:] + (leaf,))
                    for leaf, path in descend(t) if not leaf.children)
    if party_names is not None:
        seqs = {tuple(party_names[p] for p in s) for s in seqs}
    return sorted(seqs)
