"""Turning a synthesized protocol into instrument data with Kraus tails.

Each leaf of a protocol realizes one measurement operator up to positive
scaling. When the measurement carries Kraus data, the leaf's product operator
factors as a canonical product Kraus map followed, per recorded Kraus
alternative, by local unitaries and a classical coin. This module recovers
those unitaries and coin probabilities.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .errors import FactorizationFailureError, LiftError, NoKrausDataError
from .hermitian import LP_TOL, proportional, psd_sqrt
from .measurement import SeparableMeasurement
from .tree import ProtocolTree, leaf_operator, leaf_products

_KERNEL_CUT = 1e-12
_GS_CUT = 1e-7


@dataclasses.dataclass(frozen=True)
class UnitaryTailEntry:
    kraus_index: int
    probability: float
    unitaries: tuple  # one ndarray per party


@dataclasses.dataclass(frozen=True)
class UnitaryTail:
    leaf_id: int
    op_index: int
    entries: tuple
    coin_round: bool
    khat_scale: float
    khat_parts: tuple  # one ndarray per party, scale * tensor(parts) is the map


@dataclasses.dataclass(frozen=True)
class LiftedProtocol:
    tree: ProtocolTree
    assignment: np.ndarray
    tails: tuple
    extra_round: bool


def _support_unitary(kprime, base, ratio, tol):
    """U with kprime = sqrt(ratio) * U * sqrt(base), or raise."""
    d = base.shape[0]
    evals, evecs = np.linalg.eigh(base)
    cut = _KERNEL_CUT * max(1.0, float(evals.max(initial=0.0)))
    u = np.zeros((d, d), dtype=complex)
    cols = []
    kernel = []
    for k in range(d):
        if evals[k] > cut:
            col = kprime @ evecs[:, k] / np.sqrt(ratio * evals[k])
            cols.append(col)
        else:
            kernel.append(evecs[:, k])
    # complete the image basis: kernel eigenvectors first, then standard basis
    completed = []
    candidates = kernel + [np.eye(d, dtype=complex)[:, k] for k in range(d)]
    for cand in candidates:
        if len(cols) + len(completed) >= d:
            break
        v = cand.astype(complex).copy()
        for w in cols + completed:
            v -= (w.conj() @ v) * w
        nrm = np.linalg.norm(v)
        if nrm > _GS_CUT:
            completed.append(v / nrm)
    if len(cols) + len(completed) != d:
        raise FactorizationFailureError("could not complete a unitary basis")
    src = [evecs[:, k] for k in range(d) if evals[k] > cut] + kernel
    for col, s in zip(cols + completed, src):
        u += np.outer(col, s.conj())
    if np.abs(u.conj().T @ u - np.eye(d)).max() > max(tol, 1e-8):
        raise FactorizationFailureError("recovered tail map is not unitary")
    return u


def lift(tree: ProtocolTree, assignment, m: SeparableMeasurement,
         tol: float = LP_TOL) -> LiftedProtocol:
    if m.kraus_groups is None:
        raise NoKrausDataError("measurement carries no Kraus data")
    tails = []
    for leaf_id, (leaf, parts) in enumerate(leaf_products(tree, m, assignment)):
        i, _ = leaf_operator(tree, leaf, parts, m, tol)
        group = m.kraus_groups[i]
        base = [m.part(i, a) for a in range(m.P)]
        weights = []
        for kp in group:
            pos = kp.positive_parts()
            rs = []
            for a in range(m.P):
                r = proportional(pos[a], base[a], max(tol, 1e-8))
                if r is None:
                    raise LiftError(
                        f"kraus group for operator {i} is not internally "
                        f"proportional at party {a}")
                rs.append(r)
            weights.append(rs)
        totals = [float(np.prod(rs)) for rs in weights]
        csum = float(sum(totals))
        entries = []
        for jk, (kp, rs, cj) in enumerate(zip(group, weights, totals)):
            us = tuple(_support_unitary(kp.parts[a], base[a], rs[a], tol)
                       for a in range(m.P))
            entries.append(UnitaryTailEntry(jk, cj / csum, us))
        tails.append(UnitaryTail(
            leaf_id, i, tuple(entries), coin_round=len(group) >= 2,
            khat_scale=float(np.sqrt(csum)),
            khat_parts=tuple(psd_sqrt(b) for b in base)))
    extra = any(t.coin_round for t in tails)
    return LiftedProtocol(tree, np.asarray(assignment, dtype=float),
                          tails=tuple(tails), extra_round=extra)
