"""Fast impossibility witnesses that skip synthesis entirely.

Two sound-but-incomplete checks. The singular-pair scan looks for one operator
whose local parts at two parties are simultaneously singular and extreme in
their party cones. The partition scan splits the operator set in two and asks
whether both local cone pairs have trivial intersection, which no protocol can
reconcile. Finding nothing proves nothing; only synthesis can.

Both scans read one cone per party, `m.cone(a, psd)`, the column table of
its parts (a slice of its columns is the cone of those parts), and one
same-ray table per party, `m.same_ray(a, tol)`: for each operator j, the
mask of operators i != j whose part at that party is proportional to j's. The
measurement keeps both per tolerance, so both scans, and `validate`'s
duplicate check when its tolerance is `tol`, read the same tables. A cone
is built only when `validate`'s zero and PSD verdicts at `psd` pass every
part of its party, so a part may lie below the scans' `tol`;
`same_ray_masks` decides it by `proportional`'s tests instead of raising.
The singular-pair scan calls part j singular when its mask is empty, and
extreme when the cone of the other parts misses it.

The singular-pair scan skips the membership LPs that cannot complete a
pair. Only a party where part j is singular can count for j, and those
parties are tested in order only while the count so far plus the parties
left can still reach two, so an operator singular at fewer than two parties
gets no LP. A skipped LP only ever leaves a party uncounted for an operator
that could not reach two with it, so the first witness and its two parties
are those of a scan that tests every singular part, and every reported
witness rests on two LPs that found the part outside the cone of the others.

The partition scan skips two kinds of intersection LP whose answer is known.
A split that puts two operators with proportional parts at party a on
opposite sides shares their ray: both cones hold a nonzero point of it (the
cones reject zero parts), so the cones meet, a is not blocked, and a gets no
LP. And once the parties left cannot bring the blocked count to two, the
split is abandoned. Both rules only ever count a party as not blocked, which
could hide a witness but never invent one: every reported witness still
rests on two LPs that found the two cone pairs disjoint.

The first rule also decides which splits are visited at all. Call two
operators linked at party a when either part is proportional to the other
there. A split passes a's same-ray test exactly when no linked pair crosses
it, that is when S1 is a union of connected components of a's link graph.
A witness needs two parties a < b that pass, so its S1 is a union of
components of the union of a's and b's graphs, and holds operator 0 as every
S1 does. The scan enumerates these unions per party pair, merges them, and
visits them in the order of a scan over all bipartitions (|S1|, then S1
lexicographically). A split outside them passes at most one party, so it
can block at most one and the full scan would find nothing there: the first
witness, its parties and the exhaustive flag are those of the full scan.
A capped scan enumerates only the unions that leave a side of at most two
operators, which is a union of at most two components, so it never forms
the 2^(c-1) unions of c components.
"""
from __future__ import annotations

import dataclasses
import itertools

from .cones import _intersection_point, member
from .hermitian import LP_TOL, PSD_TOL, components
from .measurement import SeparableMeasurement


@dataclasses.dataclass(frozen=True)
class NoGoWitness:
    kind: str                       # "singular-pair" | "partition"
    op_index: int | None            # singular-pair: the witnessing operator
    partition: tuple[tuple[int, ...], tuple[int, ...]] | None
    parties: tuple[int, ...]        # party indices the evidence lives on
    evidence: dict

    def describe(self, m: SeparableMeasurement) -> str:
        names = m.party_names
        if self.kind == "singular-pair":
            a, b = self.parties
            return (f"operator {m.labels[self.op_index]} has singular extreme parts "
                    f"at parties {names[a]} and {names[b]}")
        s1, s2 = self.partition
        return ("operator split {%s} vs {%s} leaves disjoint local cones at parties %s and %s"
                % (",".join(m.labels[j] for j in s1),
                   ",".join(m.labels[j] for j in s2),
                   names[self.parties[0]], names[self.parties[1]]))


@dataclasses.dataclass(frozen=True)
class PartitionScanResult:
    witness: NoGoWitness | None
    exhaustive: bool   # False when only small partitions were tried


def find_singular_pair_witness(m: SeparableMeasurement, tol: float = LP_TOL, *,
                               psd: float = PSD_TOL) -> NoGoWitness | None:
    """First operator (ascending index) with singular extreme parts at two
    parties. Only parties where the part is singular get a membership LP,
    and only while they can still make two (see the module docstring). The
    cones' parts are checked PSD and nonzero at `psd`."""
    if len(m) < 2:
        # one outcome is always implementable; the conditions hold vacuously
        return None
    cones = [m.cone(a, psd) for a in range(m.P)]
    same = [m.same_ray(a, tol) for a in range(m.P)]
    for j in range(len(m)):
        cand = [a for a in range(m.P) if not same[a][j]]
        others = [i for i in range(len(m)) if i != j]
        bad = []
        for k, a in enumerate(cand):
            if len(bad) + len(cand) - k < 2:
                break
            c = cones[a]
            if member(c[:, j], c[:, others], tol) is None:
                bad.append(a)
                if len(bad) == 2:
                    return NoGoWitness("singular-pair", j, None, (bad[0], bad[1]),
                                       {"label": m.labels[j]})
    return None


def _unions_up_to(comps, k: int) -> list:
    """The unions of `comps` that hold 1 to k operators."""
    out = []
    stack = [(0, 0, 0)]          # (next component, union, its size)
    while stack:
        start, union, size = stack.pop()
        for i in range(start, len(comps)):
            s = size + comps[i].bit_count()
            if s <= k:
                out.append(union | comps[i])
                stack.append((i + 1, union | comps[i], s))
    return out


def _candidate_splits(linked, n: int, small_side_max: int | None) -> list:
    """S1 bitmasks of the splits where two parties have no linked pair across,
    in bipartition order: |S1|, then S1 lexicographically.

    Per party pair, S1 is operator 0's component plus any union of the other
    components of the pair's joint link graph. With `small_side_max` only the
    unions that leave S1 or S2 at most that many operators are formed.
    """
    full = (1 << n) - 1
    found = set()
    for la, lb in itertools.combinations(linked, 2):
        c0, *rest = components([x | y for x, y in zip(la, lb)])
        if small_side_max is None:
            unions = [c0]
            for c in rest:
                unions += [u | c for u in unions]
        else:
            unions = [full ^ u for u in _unions_up_to(rest, small_side_max)]
            k = small_side_max - c0.bit_count()
            if k >= 0:
                unions += [c0] + [c0 | u for u in _unions_up_to(rest, k)]
        found.update(unions)
    found.discard(full)
    # among equal sizes S1 comes first iff it holds the lowest operator that
    # only one of the two holds; with its bits reversed, its mask is larger
    return sorted(found, key=lambda u: (u.bit_count(),
                                        -int(format(u, f"0{n}b")[::-1], 2)))


def find_partition_witness(m: SeparableMeasurement, max_exhaustive_n: int = 16,
                           tol: float = LP_TOL, *,
                           psd: float = PSD_TOL) -> PartitionScanResult:
    """Scan bipartitions for two parties whose local cone pairs never meet.

    Only splits that two parties' same-ray tests let through are visited.
    Beyond max_exhaustive_n operators only splits with a side of at most two
    are tried, and a miss is reported as non-exhaustive. A party where the
    split separates two proportional parts gets no LP, and a split stops once
    too few parties are left to block two (see the module docstring). The
    cones' parts are checked PSD and nonzero at `psd`.
    """
    n = len(m)
    if n < 2:
        return PartitionScanResult(None, True)
    exhaustive = n <= max_exhaustive_n
    small_side_max = None if exhaustive else 2
    # each bipartition slices its two sides' columns out of the validated cones
    cones = [m.cone(a, psd) for a in range(m.P)]
    same = [m.same_ray(a, tol) for a in range(m.P)]
    # operators that share a ray at a party, in either order of the test
    linked = [[row[j] | sum(1 << i for i in range(n) if row[i] >> j & 1)
               for j in range(n)] for row in same]
    full = (1 << n) - 1
    for mask in _candidate_splits(linked, n, small_side_max):
        s1 = tuple(j for j in range(n) if mask >> j & 1)
        s2 = tuple(j for j in range(n) if not mask >> j & 1)
        other = full ^ mask
        blocked = []
        for a in range(m.P):
            c = cones[a]
            if (not any(linked[a][j] & other for j in s1)
                    and _intersection_point(c[:, s1], c[:, s2], tol) is None):
                blocked.append(a)
                if len(blocked) == 2:
                    w = NoGoWitness("partition", None, (s1, s2),
                                    (blocked[0], blocked[1]), {})
                    return PartitionScanResult(w, exhaustive)
            if len(blocked) + (m.P - a - 1) < 2:
                break
    return PartitionScanResult(None, exhaustive)
