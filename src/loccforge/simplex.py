"""Small dense LP feasibility kernel.

Everything the package asks of linear programming is one question: does
A x = b have a solution with x >= lower? A phase-1 simplex with Bland's rule
answers it. Problems here are tiny (tens of rows and columns) but numerous,
so the implementation favors determinism and a final residual check over
generality: no objective phase, no sparsity, no revised simplex.

`feasible_point` answers one LP. `feasible_points` answers a list of them,
each exactly as `feasible_point` would: the same point bit for bit, or
None. It pivots every LP that keeps a row in one stack of tableaux, each
zero-padded to the most kept rows K and most columns N of those LPs, so
numpy's fixed cost per call is paid once per call, not once per LP or per
shape; a refuted LP, or one with no row kept, does not widen the stack.
LP j keeps its k rows and n columns first; its artificials sit at N..N+k-1
and the rhs last. The padding is inert:
- A zero column has reduced cost 0, so it never enters, and a pivot leaves
  it zero.
- A zero row has entering-column entry 0, so it never leaves, and a pivot
  does not write it. Its artificial stays basic at 0 with reduced cost 0.
- Every artificial index shifts by the same N - n, and the structural ones
  stay below them, so Bland's orders of columns and of basis indices are
  the LP's own.
Each LP keeps its own pivots and arithmetic:
- Per LP, on its own data: the shift to x >= lower and the residual check
  (`_shifted`, `_checked`, on its own arrays, as BLAS may sum a product in
  an order that depends on the layout); the kept-row test, relative to its
  own largest entry; the iteration guard, _ITER_FACTOR (n + k + 10) pivots;
  the objective threshold 1e-9 (1 + k); and the objective's rhs, summed
  over its own k rows, as numpy sums a vector pairwise in blocks of 8, so
  padding zeros would change the order once k >= 8. For the same reason a
  one-column LP's reduced cost is summed over its own rows. With two or
  more columns numpy sums a column row by row, so the padding rows add
  zeros; at most a -0.0 turns +0.0 in the objective row, which no
  comparison tells apart and no other row reads.
- Dropping zero rows (exact maxima, which padding leaves alone), row
  scaling (`_scaled`) and the tableau (`_tableau`) are entry by entry on
  the stack as on one LP, or a reduction of one LP's own row or column in
  the same memory order. An LP's kept rows move up in order, and its
  dropped rows become padding: zeroed, and scaled by 1, never by 1 / 0.
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
A call left with one LP that keeps a row answers it with the one-LP kernel
`_phase1`, as a stack of one costs more.
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
    with phase 1 run on one zero-padded stack of the LPs that keep a row
    (module docstring); lowers is a list like As, or None for x >= 0
    throughout. The first LP in list order whose pivots trip the iteration
    guard raises its SimplexGuardError, once every LP has run; given a dict
    tripped, each such LP's error is stored there under its position
    instead, and its answer is None."""
    lowers = [None] * len(As) if lowers is None else lowers
    trips = {} if tripped is None else tripped
    mats = [np.atleast_2d(np.asarray(A, dtype=float)) for A in As]
    vecs = [np.asarray(b, dtype=float).ravel() for b in bs]
    for A, b in zip(mats, vecs):
        if b.shape != A.shape[:1]:
            raise ValueError(f"rhs shape {b.shape} does not match {A.shape[0]} rows")
    out = [None] * len(As)
    if not mats:
        return out
    shifted = [_shifted(A, b, lower) for A, b, lower in zip(mats, vecs, lowers)]
    ms, ns = np.array([A.shape for A in mats]).T
    # every LP zero-padded to the largest shape: the maxima of the row test
    # do not see the padding, and a padding row is dropped
    A = np.zeros((len(mats), ms.max(), ns.max()))
    b = np.zeros(A.shape[:2])
    b_work = np.zeros(A.shape[:2])
    for i, (Ai, bi, (_, wi)) in enumerate(zip(mats, vecs, shifted)):
        m, n = Ai.shape
        A[i, :m, :n] = Ai
        b[i, :m] = bi
        b_work[i, :m] = wi
    amax, keep, refuted = _kept(A, b, b_work, tol)
    ks = keep.sum(axis=1)
    live = np.flatnonzero(~refuted & (ks > 0))
    xs = {i: np.zeros(ns[i]) for i in np.flatnonzero(~refuted & (ks == 0))}
    if len(live) == 1:
        (i,) = live
        kt = keep[i, :ms[i]]
        try:
            xs[i] = _phase1(*_scaled(mats[i][kt], shifted[i][1][kt],
                                     amax[i, :ms[i]][kt]), ns[i])
        except SimplexGuardError as e:
            trips[int(i)] = e
    elif len(live):
        # each LP's kept rows moved up in order and the rest zeroed, with
        # scale 1, so that no row is divided by 0; the columns are padded to
        # the widest LP that pivots, not to a refuted or row-free one
        order = np.argsort(~keep[live], axis=1, kind="stable")[:, :ks.max()]
        kept = np.take_along_axis(keep[live], order, axis=1)
        rows = np.take_along_axis(A[live, :, :ns[live].max()], order[:, :, None],
                                  axis=1)
        rows[~kept] = 0.0
        rows, rhs = _scaled(
            rows, np.where(kept, np.take_along_axis(b_work[live], order, 1), 0.0),
            np.where(kept, np.take_along_axis(amax[live], order, 1), 1.0))
        x, ok, tripped_j = _phase1_stack(rows, rhs, ns[live], ks[live])
        xs.update((i, x[j, :ns[i]]) for j, i in enumerate(live) if ok[j])
        trips.update((int(live[j]), _guard_error(ks[live[j]], ns[live[j]]))
                     for j in tripped_j)
    for i, x in xs.items():
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


def _phase1_stack(A, b, n, k):
    """`_phase1` of each LP of a zero-padded stack A (B, K, N), b (B, K), LP j
    in its first k[j] rows and n[j] columns: (x, ok, tripped), x (B, N) the
    points, ok the mask of the LPs it gives a point for, tripped the
    positions of those that reach their iteration guard. An LP that stops
    pivoting is done, and no later pivot writes it."""
    B, K, N = A.shape
    T = _tableau(A, b)
    # numpy sums a vector, and a matrix of one column, pairwise in blocks
    # of 8, so zero padding can change those sums: each is taken on the LP's
    # own rows
    for kj in set(k.tolist()):
        on = np.flatnonzero(k == kj)
        T[on, K, -1] = -b[on, :kj].sum(axis=-1)
    for j in np.flatnonzero(n == 1):
        T[j, K, :1] = -A[j, :k[j], :1].sum(axis=-2)
    limit = _ITER_FACTOR * (n + k + 10)
    basis = np.tile(np.arange(N, N + K), (B, 1))
    dead = np.zeros(B, dtype=bool)      # no leaving row, or tripped: None
    tripped = []
    on = np.arange(B)                   # the LPs that pivot
    pivots = 0
    while len(on):
        over = limit[on] <= pivots
        if over.any():
            tripped.extend(on[over].tolist())
            dead[on[over]] = True
            on = on[~over]
        negative = T[on, K, :N + K] < -_PIVOT_EPS
        some = negative.any(axis=1)
        on, negative = on[some], negative[some]
        if not len(on):
            break
        enter = negative.argmax(axis=1)
        # while every LP pivots, the stack itself, else a copy written back
        Ton = T if len(on) == B else T[on]
        ar = np.arange(len(on))
        leave = _leaving_rows(Ton[ar, :K, enter], Ton[:, :K, -1], basis[on])
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
        if Ton is not T:
            T[on] = Ton
        basis[on, leave] = enter
        pivots += 1
    ok = ~dead & ~(-T[:, K, -1] > 1e-9 * (1.0 + k))
    x = np.zeros((B, N))
    r, i = np.nonzero((basis < N) & ok[:, None])
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
