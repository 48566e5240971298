"""Fast impossibility witnesses that skip synthesis entirely.

Two sound-but-incomplete checks. The singular-pair scan looks for one operator
whose local parts at two parties are simultaneously singular and extreme in
their party cones. The partition scan splits the operator set in two and asks
whether both local cone pairs have trivial intersection, which no protocol can
reconcile. Finding nothing proves nothing; only synthesis can.

Both scans read one validated `Cone` per party and one same-ray table per
party: for each operator j, the mask of operators i != j whose part at that
party is proportional to j's, `proportional(g_i, g_j)`. `party_tables`
builds both; a caller running both scans builds them once and passes them
to each. The singular-pair scan calls part j singular when its mask is
empty, exactly as `is_singular_ray` would, and extreme when the cone of the
other parts misses it, as `is_extreme_ray` would with no same-ray part.

The partition scan skips two kinds of intersection LP whose answer is known.
A split that puts two operators with proportional parts at party a on
opposite sides shares their ray: both cones hold a nonzero point of it (the
cones reject zero parts), so the cones meet, a is not blocked, and a gets no
LP. And once the parties left cannot bring the blocked count to two, the
split is abandoned. Both rules only ever count a party as not blocked, which
could hide a witness but never invent one: every reported witness still
rests on two LPs that found the two cone pairs disjoint.
"""
from __future__ import annotations

import dataclasses
import itertools
from typing import NamedTuple

from .cones import Cone, _intersection_point, member
from .hermitian import LP_TOL, proportional
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


class PartyTables(NamedTuple):
    """What both scans read, built with one tolerance (see `party_tables`)."""

    tol: float
    cones: list       # one validated Cone of the parts per party
    same: list        # per party, per operator j: the mask of its same-ray parts


def party_tables(m: SeparableMeasurement, tol: float = LP_TOL) -> PartyTables:
    """One validated Cone per party and the same-ray table built from them:
    per party, per operator j, the bitmask of i != j with part i
    proportional to part j, tested as `proportional(g_i, g_j)`."""
    cones = [Cone(m.party_parts(a), tol) for a in range(m.P)]
    same = []
    for c in cones:
        gens = c.generators
        same.append([sum(1 << i for i, g in enumerate(gens)
                         if i != j and proportional(g, gj, tol) is not None)
                     for j, gj in enumerate(gens)])
    return PartyTables(tol, cones, same)


def _tables_for(m, tol, tables):
    if tables is None:
        return party_tables(m, tol)
    if tables.tol != tol:
        raise ValueError(f"tables built with tol {tables.tol}, scan given {tol}")
    return tables


def find_singular_pair_witness(m: SeparableMeasurement, tol: float = LP_TOL, *,
                               tables: PartyTables | None = None
                               ) -> NoGoWitness | None:
    """First operator (ascending index) with singular extreme parts at two
    parties. `tables` defaults to `party_tables(m, tol)`."""
    if len(m.ops) < 2:
        # one outcome is always implementable; the conditions hold vacuously
        return None
    _, cones, same = _tables_for(m, tol, tables)
    for j in range(len(m.ops)):
        others = [i for i in range(len(m.ops)) if i != j]
        bad = []
        for a in range(m.P):
            if not same[a][j] and member(cones[a].generators[j],
                                         cones[a].subcone(others), tol) is None:
                bad.append(a)
                if len(bad) == 2:
                    return NoGoWitness("singular-pair", j, None, (bad[0], bad[1]),
                                       {"label": m.labels[j]})
    return None


def _bipartitions(n: int, small_side_max: int | None):
    """Splits (S1, S2) with 0 in S1, ordered by |S1| then lexicographically."""
    rest = range(1, n)
    for extra in range(0, n - 1):
        if small_side_max is not None and min(extra + 1, n - 1 - extra) > small_side_max:
            continue
        for combo in itertools.combinations(rest, extra):
            # the complement of S1; never empty, as |S1| <= n - 1
            s2 = itertools.filterfalse(set(combo).__contains__, rest)
            yield (0,) + combo, tuple(s2)


def find_partition_witness(m: SeparableMeasurement, max_exhaustive_n: int = 16,
                           tol: float = LP_TOL, *,
                           tables: PartyTables | None = None
                           ) -> PartitionScanResult:
    """Scan bipartitions for two parties whose local cone pairs never meet.

    Beyond max_exhaustive_n operators only splits with a side of at most two
    are tried, and a miss is reported as non-exhaustive. A party where the
    split separates two proportional parts gets no LP, and a split stops once
    too few parties are left to block two (see the module docstring).
    `tables` defaults to `party_tables(m, tol)`.
    """
    n = len(m.ops)
    if n < 2:
        return PartitionScanResult(None, True)
    exhaustive = n <= max_exhaustive_n
    small_side_max = None if exhaustive else 2
    # each bipartition slices its two sides out of the validated cones
    _, cones, same = _tables_for(m, tol, tables)
    # operators that share a ray at a party, in either order of the test
    linked = [[row[j] | sum(1 << i for i in range(n) if row[i] >> j & 1)
               for j in range(n)] for row in same]
    bit = [1 << j for j in range(n)]
    for s1, s2 in _bipartitions(n, small_side_max):
        other = sum(map(bit.__getitem__, s2))
        blocked = []
        for a in range(m.P):
            c = cones[a]
            if (not any(linked[a][j] & other for j in s1)
                    and _intersection_point(c.subcone(s1), c.subcone(s2),
                                            tol) is None):
                blocked.append(a)
                if len(blocked) == 2:
                    w = NoGoWitness("partition", None, (s1, s2),
                                    (blocked[0], blocked[1]), {})
                    return PartitionScanResult(w, exhaustive)
            if len(blocked) + (m.P - a - 1) < 2:
                break
    return PartitionScanResult(None, exhaustive)
