import numpy as np
import pytest

from loccforge import simplex, synthesis
from loccforge.config import RunConfig
from loccforge.hermitian import LP_TOL
from loccforge.simplex import feasible_point

from conftest import load_fixture, locc_random_measurements


def test_recovers_known_feasible_systems(rng):
    for _ in range(300):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, 6))
        a = rng.standard_normal((k, n))
        x0 = rng.uniform(0.1, 2.0, size=n)
        b = a @ x0
        x = feasible_point(a, b)
        assert x is not None
        assert (x >= -1e-12).all()
        assert np.abs(a @ x - b).max() <= 1e-8 * (1 + np.abs(b).max())


def test_respects_lower_bounds(rng):
    for _ in range(100):
        n = int(rng.integers(1, 6))
        a = rng.standard_normal((2, n))
        x0 = rng.uniform(1.0, 3.0, size=n)
        lower = rng.uniform(0.2, 0.9, size=n)
        x = feasible_point(a, a @ x0, lower=lower)
        assert x is not None
        assert (x >= lower - 1e-12).all()


def test_detects_infeasible():
    # sum of nonnegative variables cannot be negative
    assert feasible_point(np.ones((1, 3)), np.array([-1.0])) is None
    # contradictory equalities
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert feasible_point(a, np.array([1.0, 2.0])) is None


def test_lower_bound_can_make_system_infeasible():
    a = np.ones((1, 2))
    assert feasible_point(a, np.array([1.0])) is not None
    assert feasible_point(a, np.array([1.0]), lower=np.ones(2)) is None


def test_zero_rows_and_columns():
    a = np.zeros((1, 2))
    x = feasible_point(a, np.zeros(1))
    assert x is not None and (x >= 0).all()
    assert feasible_point(a, np.array([1.0])) is None
    # an all-zero column leaves that variable at its lower bound
    a = np.array([[1.0, 0.0]])
    x = feasible_point(a, np.array([2.0]), lower=np.array([0.0, 0.5]))
    assert x is not None and x[1] >= 0.5 - 1e-12


def test_empty_constraint_matrix():
    x = feasible_point(np.zeros((0, 3)), np.zeros(0), lower=np.full(3, 0.25))
    assert x is not None and (x >= 0.25 - 1e-12).all()


def _lp_cases(rng):
    """(A, b, lower) systems covering the row-scaling paths: random feasible
    and infeasible, degenerate, all-zero rows, negative rhs after a shift."""
    for _ in range(40):
        n, k = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        a = rng.standard_normal((k, n))
        lower = rng.uniform(0.0, 1.0, n) if rng.random() < 0.5 else None
        x0 = (0.0 if lower is None else lower) + rng.uniform(0.1, 2.0, n)
        yield a, a @ x0, lower                               # feasible
        yield a, rng.standard_normal(k), lower               # either
        tall = rng.standard_normal((n + 2, n))
        yield tall, rng.standard_normal(n + 2), lower        # overdetermined
        pos = np.abs(a) + 0.1
        yield pos, -pos @ rng.uniform(0.1, 2.0, n), None     # x >= 0 forbids
        # degenerate: repeated and combined rows, a vertex with zero entries
        x1 = rng.uniform(0.1, 2.0, n) * (rng.random(n) < 0.5)
        d = np.vstack([a, a[:1], a[:1] + a[-1:], np.zeros((1, n))])
        yield d, d @ x1, None
        bad = d @ x1
        bad[k] += 1.0                                        # a copy disagrees
        yield d, bad, None
        # all-zero rows with zero and with nonzero rhs
        z = np.vstack([np.zeros((1, n)), a])
        yield z, np.concatenate([[0.0], a @ x0]), lower
        yield z, np.concatenate([[1.0], a @ x0]), lower
        # negative rhs once the lower bound is shifted out
        lo = rng.uniform(0.5, 1.5, n)
        yield -pos, -pos @ (lo + rng.uniform(0.1, 1.0, n)), lo
        yield pos, pos @ (0.5 * lo), lo                      # below the floor


def test_feasible_point_agrees_with_highs(rng):
    linprog = pytest.importorskip("scipy.optimize").linprog
    verdicts = []
    for a, b, lower in _lp_cases(rng):
        n = a.shape[1]
        lo = np.zeros(n) if lower is None else lower
        ref = linprog(np.zeros(n), A_eq=a, b_eq=b, method="highs",
                      bounds=[(float(v), None) for v in lo])
        assert ref.status in (0, 2), ref.message
        x = feasible_point(a, b, lower=lower)
        assert (x is not None) == (ref.status == 0), (a, b, lower)
        if x is not None:
            assert (x >= lo - 1e-12).all()
            assert np.abs(a @ x - b).max() <= 1e-8 * (1 + np.abs(b).max())
        verdicts.append(x is not None)
    assert 0.2 < np.mean(verdicts) < 0.8


def test_class_blocks_agree_with_highs(monkeypatch):
    """The per-party class LP blocks that reach the simplex in the searches
    on cascade5, domino9 and the LOCC random trees 10, 12 and 29: A x = 0,
    x >= 1 is feasible for the simplex exactly when it is for HiGHS."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    blocks = []
    real = synthesis._class_lp

    def spy(*args):
        blocks.append(real(*args))
        return blocks[-1]

    monkeypatch.setattr(synthesis, "_class_lp", spy)
    seeds = locc_random_measurements()
    for m, cfg in [(load_fixture("cascade5"), RunConfig()),
                   (load_fixture("domino9"), RunConfig())] + [
            (seeds[s], RunConfig(max_lps=2000)) for s in (10, 12, 29)]:
        # the search alone, as the last-mover quotient decides the trees
        synthesis._search(m, cfg, synthesis.SynthesisStats())
    verdicts = []
    for a in blocks:
        n = a.shape[1]
        ref = linprog(np.zeros(n), A_eq=a, b_eq=np.zeros(a.shape[0]),
                      method="highs", bounds=[(1.0, None)] * n)
        assert ref.status in (0, 2), ref.message
        x = feasible_point(a, np.zeros(a.shape[0]), tol=LP_TOL,
                           lower=np.ones(n))
        assert (x is not None) == (ref.status == 0), a
        verdicts.append(x is not None)
    # both answers occur
    assert 0 < np.mean(verdicts) < 1


def test_feasibility_blocks_agree_with_highs(monkeypatch):
    """The per-party pinned LP blocks that `feasibility` solves in the
    searches on cascade5, krausdemo and the LOCC random trees 10 and 12, in
    first and exhaustive mode: A x = b, x >= delta is feasible for the
    simplex exactly when it is for HiGHS, and a point found passes the bound
    and the residual check."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    inside, blocks = [], []
    real_feasibility = synthesis.feasibility

    def feasibility_spy(*args, **kwargs):
        inside.append(True)
        try:
            return real_feasibility(*args, **kwargs)
        finally:
            inside.pop()

    def point_spy(A, b, *, tol, lower):
        if inside:
            blocks.append((A, b, tol, lower))
        return feasible_point(A, b, tol=tol, lower=lower)

    monkeypatch.setattr(synthesis, "feasibility", feasibility_spy)
    monkeypatch.setattr(synthesis, "feasible_point", point_spy)
    seeds = locc_random_measurements()
    for m, max_lps in [(load_fixture("cascade5"), None),
                       (load_fixture("krausdemo"), None),
                       (seeds[10], 2000), (seeds[12], 2000)]:
        for mode in ("first", "exhaustive"):
            # the search alone, as krausdemo splits before it in first mode
            synthesis._search(m, RunConfig(mode=mode, max_lps=max_lps),
                              synthesis.SynthesisStats())
    verdicts = []
    for a, b, tol, lower in blocks:
        # HiGHS's default primal tolerance, 1e-7, is the size of the delta
        # floor: on a cascade5 block that forces a variable to 0 it accepts
        # x = delta with a residual of 4e-8, so it is held to 1e-10 here
        ref = linprog(np.zeros(a.shape[1]), A_eq=a, b_eq=b, method="highs",
                      bounds=[(float(v), None) for v in lower],
                      options={"primal_feasibility_tolerance": 1e-10})
        assert ref.status in (0, 2), ref.message
        x = feasible_point(a, b, tol=tol, lower=lower)
        assert (x is not None) == (ref.status == 0), a
        if x is not None:
            assert (x >= lower).all()
            assert np.abs(a @ x - b).max() <= tol * (1 + np.abs(b).max())
        verdicts.append(x is not None)
    # both answers occur
    assert 0 < np.mean(verdicts) < 1


def _loop_scaling(A, b, tol, lower):
    """The row-by-row scaling feasible_point vectorizes: None for a zero row
    with a nonzero rhs, else the (rows, rhs) handed to _phase1."""
    b_work = b if lower is None else b - A @ (np.zeros(A.shape[1]) + lower)
    drop = 1e-12 * max(1.0, float(np.abs(A).max(initial=0.0)))
    rows, rhs = [], []
    for i in range(A.shape[0]):
        amax = float(np.abs(A[i]).max(initial=0.0))
        if amax <= drop:
            if abs(b_work[i]) > tol * (1.0 + float(np.abs(b).max(initial=0.0))):
                return None
            continue
        s = 1.0 / max(amax, abs(b_work[i]))
        r, v = A[i] * s, b_work[i] * s
        if v < 0:
            r, v = -r, -v
        rows.append(r)
        rhs.append(v)
    return np.array(rows), np.array(rhs)


def _loop_phase1(A, b, n):
    """_phase1 with Python scans for the entering column and the row
    elimination."""
    eps = simplex._PIVOT_EPS
    k = A.shape[0]
    T = np.zeros((k + 1, n + k + 1))
    T[:k, :n] = A
    T[:k, n:n + k] = np.eye(k)
    T[:k, -1] = b
    T[k, :n] = -A.sum(axis=0)
    T[k, -1] = -b.sum()
    basis = list(range(n, n + k))
    while True:
        enter = next((j for j in range(n + k) if T[k, j] < -eps), -1)
        if enter < 0:
            break
        ratios = {i: T[i, -1] / T[i, enter] for i in range(k) if T[i, enter] > eps}
        least = min(ratios.values(), default=np.inf)
        leave = -1
        for i, ratio in ratios.items():
            if ratio - least < eps and (leave < 0 or basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            return None
        T[leave] /= T[leave, enter]
        for i in range(k + 1):
            if i != leave and T[i, enter] != 0.0:
                T[i] -= T[i, enter] * T[leave]
        basis[leave] = enter
    if -T[k, -1] > 1e-9 * (1.0 + k):
        return None
    x = np.zeros(n)
    for i, j in enumerate(basis):
        if j < n:
            x[j] = T[i, -1]
    return x


def test_vectorized_kernel_matches_loop_reference(rng, monkeypatch):
    """Row scaling and pivots are bit-for-bit those of the loop versions."""
    seen = []
    phase1 = simplex._phase1

    def spy(A, b, n):
        x = phase1(A, b, n)
        seen.append((A.copy(), b.copy(), x))
        return x

    monkeypatch.setattr(simplex, "_phase1", spy)
    for a, b, lower in _lp_cases(rng):
        seen.clear()
        feasible_point(a, b, lower=lower)
        ref = _loop_scaling(a, b, 1e-8, lower)
        if ref is None or not len(ref[0]):
            assert not seen
            continue
        (rows, rhs, x), = seen
        assert rows.tobytes() == ref[0].tobytes()
        assert rhs.tobytes() == ref[1].tobytes()
        x_ref = _loop_phase1(rows, rhs, a.shape[1])
        assert (x is None) == (x_ref is None)
        if x is not None:
            assert x.tobytes() == x_ref.tobytes()


def _tied_lps(rng, B, k, n):
    """B LPs A x = b, x >= 0 of k rows and n columns whose rows have entries
    in [0, 1] and rhs in [0.5, 0.5 + 3 eps): column 0 is all ones, so it
    enters first and its ratios are the rhs, tied within a few _PIVOT_EPS."""
    eps = simplex._PIVOT_EPS
    As, bs = [], []
    for _ in range(B):
        A = rng.random((k, n)) * (rng.random((k, n)) < 0.7)
        A[:, 0] = 1.0
        b = 0.5 + eps * rng.choice([0.0, 0.3, 0.9, 1.1, 1.5, 2.1, 2.9], size=k)
        As.append(A)
        bs.append(b)
    return As, bs


def test_leaving_row_keeps_the_least_ratio_where_eps_vanishes_beside_it():
    """A least ratio of 2e8, where adding _PIVOT_EPS rounds back to it: the
    rows of that ratio are still the candidates, and the one of least basis
    index leaves."""
    col = [5e-9, 5e-9, 4e-9, 0.0]
    rhs = [1.0, 1.0, 1.0, 1.0]
    basis = [7, 3, 5, 1]
    assert 2e8 + simplex._PIVOT_EPS == 2e8
    assert simplex._leaving_row(col, rhs, basis) == 1
    assert simplex._leaving_row(col[::-1], rhs, basis[::-1]) == 2
    assert simplex._leaving_row([0.0, -1.0, 1e-11, 0.0], rhs, basis) == -1


def test_near_tied_stacks_agree_with_highs(rng):
    """The LPs where the leaving-row rule meets ties within _PIVOT_EPS:
    `_tied_lps`'s, and degenerate ones with a duplicated row, zero rhs
    entries and, in some, a first column of 5e-9 whose ratios, of order 1e8,
    swallow eps. Each LP's feasible_point verdict is HiGHS's."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    cases = [_tied_lps(rng, 60, k, n) for k, n in ((3, 4), (5, 5), (6, 9))]
    for k, n in ((4, 5), (6, 6)):
        As, bs = [], []
        for _ in range(60):
            A = rng.random((k, n)) * (rng.random((k, n)) < 0.6)
            A[:, 0] = rng.choice([1.0, 5e-9])
            b = rng.choice([0.0, 0.5, 1.0], size=k)
            A[1], b[1] = A[0], b[0]
            As.append(A)
            bs.append(b)
        cases.append((As, bs))
    verdicts = []
    for As, bs in cases:
        for A, b in zip(As, bs):
            ref = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=b, method="highs")
            assert ref.status in (0, 2), ref.message
            x = feasible_point(A, b)
            assert (x is not None) == (ref.status == 0), (A, b)
            verdicts.append(x is not None)
    assert 0 < np.mean(verdicts) < 1


def test_lps_of_a_few_shapes_agree_with_highs(rng):
    """Random LPs of a few shapes, feasible and infeasible, with and without
    lower bounds: each feasible_point answer is HiGHS's verdict, and a point
    passes the bound and the residual check."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    verdicts = []
    for _ in range(150):
        k, n = [(3, 4), (4, 6), (5, 5)][int(rng.integers(3))]
        A = rng.standard_normal((k, n)) * (rng.random((k, n)) < 0.8)
        lower = rng.uniform(0.0, 1.0, n) if rng.random() < 0.5 else None
        x0 = (0.0 if lower is None else lower) + rng.uniform(0.1, 2.0, n)
        b = A @ x0 if rng.random() < 0.5 else rng.standard_normal(k)
        x = feasible_point(A, b, lower=lower)
        lo = np.zeros(n) if lower is None else lower
        ref = linprog(np.zeros(n), A_eq=A, b_eq=b, method="highs",
                      bounds=[(float(v), None) for v in lo])
        assert ref.status in (0, 2), ref.message
        assert (x is not None) == (ref.status == 0), (A, b, lower)
        if x is not None:
            assert (x >= lo - 1e-12).all()
            assert np.abs(A @ x - b).max() <= 1e-8 * (1 + np.abs(b).max())
        verdicts.append(x is not None)
    assert 0.2 < np.mean(verdicts) < 0.8
