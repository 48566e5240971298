"""Fast impossibility witnesses that skip synthesis entirely.

Two sound-but-incomplete checks. The singular-pair scan looks for one operator
whose local parts at two parties are simultaneously singular and extreme in
their party cones. The partition scan splits the operator set in two and asks
whether both local cone pairs have trivial intersection, which no protocol can
reconcile. Finding nothing proves nothing; only synthesis can.
"""
from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .cones import Cone, _intersection_point, is_extreme_ray, is_singular_ray
from .hermitian import LP_TOL
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


def find_singular_pair_witness(m: SeparableMeasurement,
                               tol: float = LP_TOL) -> NoGoWitness | None:
    """First operator (ascending index) with singular extreme parts at two parties."""
    if len(m.ops) < 2:
        # one outcome is always implementable; the conditions hold vacuously
        return None
    cones = [Cone(m.party_parts(a), tol) for a in range(m.P)]
    for j in range(len(m.ops)):
        bad = []
        for a in range(m.P):
            if (is_singular_ray(j, cones[a].generators, tol)
                    and is_extreme_ray(j, cones[a], tol)):
                bad.append(a)
                if len(bad) == 2:
                    return NoGoWitness("singular-pair", j, None, (bad[0], bad[1]),
                                       {"label": m.labels[j]})
    return None


def _bipartitions(n: int, small_side_max: int | None):
    """Splits (S1, S2) with 0 in S1, ordered by |S1| then lexicographically."""
    rest = list(range(1, n))
    for extra in range(0, n - 1):
        if small_side_max is not None and min(extra + 1, n - 1 - extra) > small_side_max:
            continue
        for combo in itertools.combinations(rest, extra):
            s1 = (0,) + combo
            s2 = tuple(j for j in range(n) if j not in s1)
            if not s2:
                continue
            yield s1, s2


def find_partition_witness(m: SeparableMeasurement, max_exhaustive_n: int = 16,
                           tol: float = LP_TOL) -> PartitionScanResult:
    """Scan bipartitions for two parties whose local cone pairs never meet.

    Beyond max_exhaustive_n operators only splits with a side of at most two
    are tried, and a miss is reported as non-exhaustive.
    """
    n = len(m.ops)
    if n < 2:
        return PartitionScanResult(None, True)
    exhaustive = n <= max_exhaustive_n
    small_side_max = None if exhaustive else 2
    # validated once; each bipartition slices its two sides out of these
    cones = [Cone(m.party_parts(a), tol) for a in range(m.P)]
    for s1, s2 in _bipartitions(n, small_side_max):
        blocked = []
        for a in range(m.P):
            c = cones[a]
            if _intersection_point(c.subcone(s1), c.subcone(s2), tol) is None:
                blocked.append(a)
                if len(blocked) == 2:
                    w = NoGoWitness("partition", None, (s1, s2),
                                    (blocked[0], blocked[1]), {})
                    return PartitionScanResult(w, exhaustive)
    return PartitionScanResult(None, exhaustive)
