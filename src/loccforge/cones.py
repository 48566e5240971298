"""Convex cones generated by finite sets of PSD operators.

Both tests reduce to LP feasibility over nonnegative combination
coefficients: membership, and a common nonzero point of two cones. The
intersection test excludes the origin by normalizing one side's coefficients
to sum to 1, which is valid because the generators are PSD and nonzero: a
nonnegative combination vanishes only if all coefficients do.
"""
from __future__ import annotations

import numpy as np

from .errors import DimMismatchError, InvalidOperatorError, ZeroOperatorError
from .hermitian import LP_TOL, PSD_TOL, asmat, is_psd, vectorize
from .simplex import feasible_point


class Cone:
    """Cone of nonnegative combinations of validated PSD, nonzero generators.

    `tol` is the tolerance of both checks, as `measurement.validate` applies
    them to a part: PSD by `is_psd(g, tol)`, nonzero by max|g| > tol.
    """

    __slots__ = ("dim", "generators", "_vecs")

    def __init__(self, generators, tol: float = PSD_TOL):
        mats = [asmat(g) for g in generators]
        if not mats:
            raise InvalidOperatorError("a cone needs at least one generator")
        d = mats[0].shape[0]
        frozen = []
        for g in mats:
            if g.shape != (d, d):
                raise DimMismatchError("cone generators must share one dimension")
            if not is_psd(g, tol):
                raise InvalidOperatorError("cone generator is not PSD")
            if float(np.abs(g).max(initial=0.0)) <= tol:
                raise ZeroOperatorError("cone generator is numerically zero")
            g = g.copy()
            g.flags.writeable = False
            frozen.append(g)
        self.dim = int(d)
        self.generators = tuple(frozen)
        self._vecs = np.column_stack([vectorize(g) for g in frozen])

    def subcone(self, indices) -> Cone:
        """The cone of the generators at `indices`, in that order.

        The generators were validated when this cone was built, so the PSD
        and zero checks are not repeated; their columns are sliced.
        """
        indices = list(indices)
        if not indices:
            raise InvalidOperatorError("a cone needs at least one generator")
        sub = object.__new__(Cone)
        sub.dim = self.dim
        sub.generators = tuple(self.generators[i] for i in indices)
        sub._vecs = self._vecs[:, indices]
        return sub

    def __len__(self):
        return len(self.generators)

    def __repr__(self):
        return f"Cone(dim={self.dim}, generators={len(self.generators)})"


def member(X, C: Cone, tol: float = LP_TOL) -> np.ndarray | None:
    """Nonnegative c with sum(c_i G_i) = X within tolerance, or None."""
    x = asmat(X)
    if x.shape != (C.dim, C.dim):
        raise DimMismatchError("operator and cone dimensions differ")
    return feasible_point(C._vecs, vectorize(x), tol=tol)


def _intersection_point(A: Cone, B: Cone, tol: float = LP_TOL) -> np.ndarray | None:
    """Coefficients (a of A, then b of B) of a common nonzero point, or None."""
    if A.dim != B.dim:
        raise DimMismatchError("cones live on different dimensions")
    ka, kb = len(A), len(B)
    rows = np.hstack([A._vecs, -B._vecs])
    # sum of a-coefficients = 1 rules out the origin
    norm_row = np.concatenate([np.ones(ka), np.zeros(kb)])
    M = np.vstack([rows, norm_row])
    rhs = np.zeros(M.shape[0])
    rhs[-1] = 1.0
    return feasible_point(M, rhs, tol=tol)
