"""Small dense LP feasibility kernel.

Everything the package asks of linear programming is one question: does
A x = b have a solution with x >= lower? A phase-1 simplex with Bland's rule
answers it. Problems here are tiny (tens of rows and columns) but numerous,
so the implementation favors determinism and a final residual check over
generality: no objective phase, no sparsity, no revised simplex.

`feasible_point` answers one LP, and every caller asks one LP at a time.
The entering column is the first one with a negative reduced cost. The
leaving row is Bland's (Math. Oper. Res. 2, 1977), ratios within
eps = `_PIVOT_EPS` of the least r counting as tied: of the rows whose
entering-column entry exceeds eps and whose ratio q has q - r < eps, the one
of least basis index. (Not q < r + eps, which no row meets once r + eps
rounds to r.) `_leaving_row` is a Python loop: on 9 to 30 rows it takes 2-3
us a call (2-vCPU Xeon VM).
"""
from __future__ import annotations

import numpy as np

from .errors import SimplexGuardError

# pivot threshold on the row-scaled tableau; rows are normalized to max entry 1
_PIVOT_EPS = 1e-10
# pivots allowed per (columns + rows + 10) before Bland's rule is presumed stuck
_ITER_FACTOR = 200


def feasible_point(A, b, *, tol: float = 1e-8, lower=None) -> np.ndarray | None:
    """Return x with A x = b, x >= lower (default 0), or None if infeasible.

    The verdict is judged twice: phase-1 objective ~ 0 on the scaled system,
    then the residual of the candidate against the original unscaled system
    must satisfy ||A x - b||_inf <= tol * (1 + ||b||_inf).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    m, n = A.shape
    if b.shape != (m,):
        raise ValueError(f"rhs shape {b.shape} does not match {m} rows")

    shift = None
    b_work = b
    if lower is not None:
        shift = np.zeros(n) + np.asarray(lower, dtype=float)
        b_work = b - A @ shift

    # scale rows, flip signs so rhs >= 0, drop zero rows; "zero" is judged
    # relative to the whole matrix, else roundoff rows blow up into hard
    # constraints once normalized (the final residual check keeps this sound)
    amax = np.abs(A).max(axis=1, initial=0.0)
    keep = amax > 1e-12 * max(1.0, float(amax.max(initial=0.0)))
    bound = tol * (1.0 + float(np.abs(b).max(initial=0.0)))
    if (np.abs(b_work[~keep]) > bound).any():
        return None  # 0 = nonzero
    s = 1.0 / np.maximum(amax[keep], np.abs(b_work[keep]))
    rows = A[keep] * s[:, None]
    rhs = b_work[keep] * s
    neg = rhs < 0
    rows[neg] = -rows[neg]
    rhs[neg] = -rhs[neg]

    if rows.shape[0]:
        x = _phase1(rows, rhs, n)
        if x is None:
            return None
    else:
        x = np.zeros(n)

    x = np.maximum(x, 0.0)
    if shift is not None:
        x = x + shift
    if float(np.abs(A @ x - b).max(initial=0.0)) > bound:
        return None
    return x


def _leaving_row(col, rhs, basis):
    """Bland's leaving row (module docstring): over the rows with col[i] >
    _PIVOT_EPS, the least basis index among those whose ratio rhs[i] /
    col[i] is within _PIVOT_EPS of the least ratio; -1 when no row
    qualifies."""
    ratios = {}
    least = np.inf
    for i, a in enumerate(col):
        if a > _PIVOT_EPS:
            ratios[i] = ratio = rhs[i] / a
            if ratio < least:
                least = ratio
    leave = -1
    for i, ratio in ratios.items():
        if ratio - least < _PIVOT_EPS and (leave < 0 or basis[i] < basis[leave]):
            leave = i
    return leave


def _phase1(A: np.ndarray, b: np.ndarray, n: int) -> np.ndarray | None:
    """Minimize the sum of artificials for A x = b, x >= 0, b >= 0 (rows scaled)."""
    k = A.shape[0]
    # tableau: n structural columns, k artificial, rhs; objective row last
    T = np.zeros((k + 1, n + k + 1))
    T[:k, :n] = A
    T[:k, n:n + k] = np.eye(k)
    T[:k, -1] = b
    # reduced-cost row for minimizing sum of artificials with artificial basis
    T[k, :n] = -A.sum(axis=0)
    T[k, -1] = -b.sum()
    basis = list(range(n, n + k))

    max_iter = _ITER_FACTOR * (n + k + 10)
    for _ in range(max_iter):
        # Bland: entering = smallest column index with negative reduced cost
        negative = T[k, :n + k] < -_PIVOT_EPS
        enter = int(negative.argmax())
        if not negative[enter]:
            break
        leave = _leaving_row(T[:k, enter].tolist(), T[:k, -1].tolist(), basis)
        if leave < 0:
            # unbounded phase-1 objective cannot happen; bail out defensively
            return None
        piv = T[leave, enter]
        T[leave] /= piv
        # clear the entering column in every other row; rows where it is
        # already zero are not written, as in a row-by-row elimination
        coef = T[:, enter].copy()
        coef[leave] = 0.0
        np.subtract(T, np.outer(coef, T[leave]), out=T, where=(coef != 0.0)[:, None])
        basis[leave] = enter
    else:
        raise SimplexGuardError(
            f"simplex iteration guard tripped after {max_iter} pivots "
            f"({k} rows, {n} columns)")

    if -T[k, -1] > 1e-9 * (1.0 + k):
        return None  # artificials cannot be driven to zero
    x = np.zeros(n)
    for i, j in enumerate(basis):
        if j < n:
            x[j] = T[i, -1]
    return x
