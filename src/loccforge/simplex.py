"""Small dense LP feasibility kernel.

Everything the package asks of linear programming is one question: does
A x = b have a solution with x >= lower? A phase-1 simplex with Bland's rule
answers it. Problems here are tiny (tens of rows and columns) but numerous,
so the implementation favors determinism and a final residual check over
generality: no objective phase, no sparsity, no revised simplex.

`feasible_point` answers one LP. `feasible_points` answers a list of them,
each exactly as `feasible_point` would: the same point bit for bit, or
None. It stacks the LPs whose kept rows have one shape and runs phase 1 on
each stack, one tableau per LP, so numpy's fixed cost per call is paid once
per stack, not once per LP. Each LP keeps its own pivots and arithmetic:
- The shift to x >= lower and the residual check are the same helpers
  (`_shifted`, `_checked`), called on each LP's own arrays, as BLAS may sum
  a product in an order that depends on the layout. Dropping zero rows, row
  scaling (`_scaled`) and the tableau (`_tableau`) are the same numpy
  operations on a stack as on one LP: entry by entry, or a reduction of
  one LP's own row or column, in the same memory order (the tests compare
  every point of the searches bit for bit).
- A pivot divides the leaving row and subtracts its multiples from the rows
  where the entering column is nonzero, entry by entry, as on one LP.
- The entering column is the LP's first negative reduced cost.
- The leaving row is Bland's (Math. Oper. Res. 2, 1977), ratios within
  eps = `_PIVOT_EPS` of the least r counting as tied: of the rows whose
  entering-column entry exceeds eps and whose ratio q has q - r < eps, the
  one of least basis index. (Not q < r + eps, which no row meets once
  r + eps rounds to r.) `_leaving_rows` takes the same division, exact
  minimum, subtraction and comparison on a stack, so it picks
  `_leaving_row`'s row. The one-LP form stays a Python loop: on 9 to 30
  rows it takes 2-3 us a call, a stack of one 14-22 us (2-vCPU Xeon VM).
- An LP stops when it has no entering column or no leaving row, and it
  trips the iteration guard after as many pivots as alone.
An LP alone in its shape is answered by the one-LP kernel `_phase1`, as a
stack of one costs more.
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
    shift, b_work = _shifted(A, b, lower)
    amax, keep, refuted = _kept(A, b, b_work, tol)
    if refuted:
        return None  # 0 = nonzero
    rows, rhs = _scaled(A[keep], b_work[keep], amax[keep])

    if rows.shape[0]:
        x = _phase1(rows, rhs, n)
        if x is None:
            return None
    else:
        x = np.zeros(n)
    return _checked(A, b, x, shift, tol)


def feasible_points(As, bs, *, tol: float = 1e-8, lowers=None,
                    tripped=None) -> list:
    """[feasible_point(A, b, tol=tol, lower=lower) for each LP], bit for bit,
    with phase 1 run on a stack per shape of the rows kept (module
    docstring); lowers is a list like As, or None for x >= 0 throughout. The
    first LP in list order whose pivots trip the iteration guard raises its
    SimplexGuardError, once every LP has run; given a dict tripped, each
    such LP's error is stored there under its position instead, and its
    answer is None."""
    lowers = [None] * len(As) if lowers is None else lowers
    trips = {} if tripped is None else tripped
    mats = [np.atleast_2d(np.asarray(A, dtype=float)) for A in As]
    vecs = [np.asarray(b, dtype=float).ravel() for b in bs]
    for A, b in zip(mats, vecs):
        if b.shape != A.shape[:1]:
            raise ValueError(f"rhs shape {b.shape} does not match {A.shape[0]} rows")
    shifted = [_shifted(A, b, lower) for A, b, lower in zip(mats, vecs, lowers)]
    # per shape (rows kept, columns): the positions of its LPs and their
    # kept rows, rhs and largest |entries|, as feasible_point drops them
    pool = {}
    shapes = {}
    for i, A in enumerate(mats):
        shapes.setdefault(A.shape, []).append(i)
    for (m, n), idx in shapes.items():
        A = np.stack([mats[i] for i in idx])
        b_work = np.stack([shifted[i][1] for i in idx])
        amax, keep, refuted = _kept(A, np.stack([vecs[i] for i in idx]), b_work, tol)
        full = ~refuted & keep.all(axis=1)
        # an LP with a row dropped joins the shape of its kept rows; one
        # refuted stays None
        for t in np.flatnonzero(~refuted & ~full):
            kt = keep[t]
            pool.setdefault((int(kt.sum()), n), []).append(
                ([idx[t]], A[t, kt][None], b_work[t, kt][None], amax[t, kt][None]))
        if full.any():
            pool.setdefault((m, n), []).append(
                ([i for i, f in zip(idx, full) if f], A[full], b_work[full], amax[full]))
    out = [None] * len(As)
    while pool:
        (k, n), parts = pool.popitem()
        idx = [i for p in parts for i in p[0]]
        rows, rhs = _scaled(*(np.concatenate(a) for a in list(zip(*parts))[1:]))
        del parts   # the pooled copies, before the tableaux are built
        if len(idx) > 1 and k:
            x, ok, tripped_j = _phase1_stack(rows, rhs, n)
            xs = [x[j] if ok[j] else None for j in range(len(idx))]
            trips.update((idx[j], _guard_error(k, n)) for j in tripped_j)
        else:
            xs = []
            for j, i in enumerate(idx):
                try:
                    xs.append(_phase1(rows[j], rhs[j], n) if k else np.zeros(n))
                except SimplexGuardError as e:
                    xs.append(None)
                    trips[i] = e
        for i, x in zip(idx, xs):
            if x is not None:
                out[i] = _checked(mats[i], vecs[i], x, shifted[i][0], tol)
    if trips and tripped is None:
        raise trips[min(trips)]
    return out


def _shifted(A, b, lower):
    """(shift, b - A @ shift) for x >= lower, or (None, b) for x >= 0."""
    if lower is None:
        return None, b
    shift = np.zeros(A.shape[1]) + np.asarray(lower, dtype=float)
    return shift, b - A @ shift


def _kept(A, b, b_work, tol):
    """(amax, keep, refuted) of one LP's (m, n) A or a stack's (B, m, n): the
    largest |entry| of each row, the rows that are not zero, and whether a
    zero row has a nonzero rhs (0 = nonzero). "Zero" is judged relative to
    the whole matrix, else roundoff rows blow up into hard constraints once
    normalized; the final residual check keeps dropping them sound."""
    amax = np.abs(A).max(axis=-1, initial=0.0)
    keep = amax > 1e-12 * np.fmax(1.0, amax.max(axis=-1, initial=0.0, keepdims=True))
    bound = tol * (1.0 + np.abs(b).max(axis=-1, initial=0.0, keepdims=True))
    return amax, keep, ((np.abs(b_work) > bound) & ~keep).any(axis=-1)


def _scaled(A, b_work, amax):
    """Rows of A x = b_work, one LP's (m, n) or a stack's (B, m, n), each
    divided by max(amax, |rhs|) (amax its largest |entry|) and negated where
    its rhs is negative."""
    s = 1.0 / np.maximum(amax, np.abs(b_work))
    rows = A * s[..., None]
    rhs = b_work * s
    neg = rhs < 0
    rows[neg] = -rows[neg]
    rhs[neg] = -rhs[neg]
    return rows, rhs


def _checked(A, b, x, shift, tol):
    """Phase 1's x clipped at 0 and shifted back, if it passes the residual
    check on the unscaled system, else None."""
    x = np.maximum(x, 0.0)
    if shift is not None:
        x = x + shift
    resid = float(np.abs(A @ x - b).max(initial=0.0))
    if resid > tol * (1.0 + float(np.abs(b).max(initial=0.0))):
        return None
    return x


def _tableau(A, b):
    """The phase-1 tableau of A x = b, x >= 0, b >= 0, one LP's or a stack's:
    n structural columns, k artificial ones in the basis, the rhs last, and
    the reduced costs of minimizing the sum of artificials as the last row."""
    *lead, k, n = A.shape
    T = np.zeros((*lead, k + 1, n + k + 1))
    T[..., :k, :n] = A
    T[..., :k, n:n + k] = np.eye(k)
    T[..., :k, -1] = b
    T[..., k, :n] = -A.sum(axis=-2)
    T[..., k, -1] = -b.sum(axis=-1)
    return T


def _guard_error(k, n):
    """The error of an LP of k rows and n columns whose pivots reach the
    iteration guard."""
    return SimplexGuardError(
        f"simplex iteration guard tripped after {_ITER_FACTOR * (n + k + 10)} "
        f"pivots ({k} rows, {n} columns)")


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
    T = _tableau(A, b)
    basis = list(range(n, n + k))

    for _ in range(_ITER_FACTOR * (n + k + 10)):
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
        raise _guard_error(k, n)

    if -T[k, -1] > 1e-9 * (1.0 + k):
        return None  # artificials cannot be driven to zero
    x = np.zeros(n)
    for i, j in enumerate(basis):
        if j < n:
            x[j] = T[i, -1]
    return x


def _phase1_stack(A, b, n):
    """`_phase1` of each LP of a stack A (B, k, n), b (B, k): (x, ok,
    tripped), x (B, n) the points, ok the mask of the LPs it gives a point
    for, tripped the positions of those that reach the iteration guard. An
    LP with no entering column is done, and no later pivot writes it."""
    B, k = b.shape
    T = _tableau(A, b)
    basis = np.tile(np.arange(n, n + k), (B, 1))
    dead = np.zeros(B, dtype=bool)      # no leaving row, or tripped: None
    on = np.arange(B)                   # the LPs that pivot
    tripped = on[:0]
    for _ in range(_ITER_FACTOR * (n + k + 10)):
        negative = T[:, k, :n + k] < -_PIVOT_EPS
        on = np.flatnonzero(negative.any(axis=1) & ~dead)
        if not len(on):
            break
        enter = negative[on].argmax(axis=1)
        Ton = T[on]
        ar = np.arange(len(on))
        leave = _leaving_rows(Ton[ar, :k, enter], Ton[:, :k, -1], basis[on])
        if (leave < 0).any():
            dead[on[leave < 0]] = True
            go = leave >= 0
            on, enter, leave, Ton = on[go], enter[go], leave[go], Ton[go]
            ar = np.arange(len(on))
        prow = Ton[ar, leave] / Ton[ar, leave, enter][:, None]
        Ton[ar, leave] = prow
        coef = Ton[ar, :, enter]
        coef[ar, leave] = 0.0
        np.subtract(Ton, coef[:, :, None] * prow[:, None, :], out=Ton,
                    where=(coef != 0.0)[:, :, None])
        T[on] = Ton
        basis[on, leave] = enter
    else:
        tripped = on
        dead[on] = True
    ok = ~dead & ~(-T[:, k, -1] > 1e-9 * (1.0 + k))
    x = np.zeros((B, n))
    r, i = np.nonzero((basis < n) & ok[:, None])
    x[r, basis[r, i]] = T[r, i, -1]
    return x, ok, tripped


def _leaving_rows(col, rhs, basis):
    """`_leaving_row` of each LP of a stack, from its entering column col and
    rhs (B, k), by the same arithmetic (module docstring)."""
    cand = col > _PIVOT_EPS
    ratio = np.full(col.shape, np.inf)
    np.divide(rhs, col, out=ratio, where=cand)
    least = ratio.min(axis=1)
    some = cand.any(axis=1)
    # an LP with no candidate subtracts 0, not inf, from its inf ratios
    tied = cand & (ratio - np.where(some, least, 0.0)[:, None] < _PIVOT_EPS)
    leave = np.where(tied, basis, np.iinfo(basis.dtype).max).argmin(axis=1)
    leave[~some] = -1
    return leave
