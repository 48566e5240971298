"""Convex cones generated by finite sets of PSD operators.

Both tests reduce to LP feasibility over nonnegative combination
coefficients: membership, and a common nonzero point of two cones. The
intersection test excludes the origin by normalizing one side's coefficients
to sum to 1, which is valid because the generators are PSD and nonzero: a
nonnegative combination vanishes only if all coefficients do.

The generators are checked where every measurement part is checked: a cone
is the cone of one party's parts, `SeparableMeasurement.cone`, and a cone of
other generators is that of the one-party measurement holding them.
"""
from __future__ import annotations

import numpy as np

from .errors import DimMismatchError, InvalidOperatorError
from .hermitian import LP_TOL, PSD_TOL, vectorize
from .simplex import feasible_point


class Cone:
    """Cone of nonnegative combinations of validated PSD, nonzero generators.

    `Cone(generators, tol)` is `SeparableMeasurement([[g] for g in
    generators]).cone(0, tol)`: the constructor checks shapes, then
    hermiticity, and the cone checks each generator nonzero and PSD at `tol`
    as `validate` checks a part. An error names the first failing generator
    as `operators[j].parts[0]`. The generators are the symmetrized stack.
    """

    __slots__ = ("dim", "generators", "_vecs")

    def __init__(self, generators, tol: float = PSD_TOL):
        from .measurement import SeparableMeasurement   # it builds on Cone
        c = SeparableMeasurement([[g] for g in generators]).cone(0, tol)
        self.dim, self.generators, self._vecs = c.dim, c.generators, c._vecs

    @classmethod
    def _unchecked(cls, generators, vecs) -> Cone:
        """The cone of checked (d, d) generators and their vectorized columns,
        one per generator, C-contiguous as the LP layer expects."""
        c = object.__new__(cls)
        c.dim = int(generators[0].shape[0])
        c.generators = tuple(generators)
        c._vecs = vecs
        return c

    def subcone(self, indices) -> Cone:
        """The cone of the generators at `indices`, in that order; their
        columns are sliced, unchecked again."""
        indices = list(indices)
        if not indices:
            raise InvalidOperatorError("a cone needs at least one generator")
        return Cone._unchecked([self.generators[i] for i in indices],
                               self._vecs[:, indices])

    def __len__(self):
        return len(self.generators)

    def __repr__(self):
        return f"Cone(dim={self.dim}, generators={len(self.generators)})"


def member(X, C: Cone, tol: float = LP_TOL) -> np.ndarray | None:
    """Nonnegative c with sum(c_i G_i) = X within tolerance, or None."""
    x = np.asarray(X, dtype=complex)
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
