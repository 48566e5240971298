"""Convex cones generated by finite sets of PSD operators.

A cone is a column table: a real (d*d, k) array whose column i is
`vectorize` of generator i. A party's cone is `SeparableMeasurement.cone`,
the table of its parts, each checked nonzero and PSD; a slice of its
columns is the cone of those parts.

Both tests reduce to LP feasibility over nonnegative combination
coefficients: membership, and a common nonzero point of two cones. The
intersection test excludes the origin by normalizing one side's coefficients
to sum to 1, which is valid because the generators are PSD and nonzero: a
nonnegative combination vanishes only if all coefficients do.
"""
from __future__ import annotations

import numpy as np

from .errors import DimMismatchError
from .hermitian import LP_TOL
from .simplex import feasible_point


def member(x, C: np.ndarray, tol: float = LP_TOL) -> np.ndarray | None:
    """Nonnegative c with C @ c = x within tolerance, or None; x is a
    vectorized point."""
    x = np.asarray(x, dtype=float)
    if x.shape != C.shape[:1]:
        raise DimMismatchError("point and cone dimensions differ")
    return feasible_point(C, x, tol=tol)


def _intersection_point(A: np.ndarray, B: np.ndarray,
                        tol: float = LP_TOL) -> np.ndarray | None:
    """Coefficients (a of A's columns, then b of B's) of a common nonzero
    point, or None."""
    if A.shape[0] != B.shape[0]:
        raise DimMismatchError("cones live on different dimensions")
    ka, kb = A.shape[1], B.shape[1]
    rows = np.hstack([A, -B])
    # sum of a-coefficients = 1 rules out the origin
    norm_row = np.concatenate([np.ones(ka), np.zeros(kb)])
    M = np.vstack([rows, norm_row])
    rhs = np.zeros(M.shape[0])
    rhs[-1] = 1.0
    return feasible_point(M, rhs, tol=tol)
