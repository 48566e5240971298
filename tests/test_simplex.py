import itertools

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


def same_answers(got, As, bs, tol, lowers):
    """Whether each answer of got is feasible_point's on its LP, bit for bit."""
    return all((x is None and y is None) or (
        x is not None and y is not None and x.tobytes() == y.tobytes())
        for x, y in zip(got, (feasible_point(A, b, tol=tol, lower=lower)
                              for A, b, lower in zip(As, bs, lowers))))


def test_feasible_points_match_feasible_point_on_search_levels(monkeypatch):
    """Every list of class-LP blocks that the searches on cascade5, domino9
    and the LOCC random trees 10, 12, 29 and 51 hand to feasible_points, a
    party's undecided blocks of a family level: each answer is the one
    feasible_point gives that block alone, the same point bit for bit or
    both None. Most blocks are answered on stacks."""
    calls, stacked = [], []
    real, real_stack = simplex.feasible_points, simplex._phase1_stack

    def spy(As, bs, *, tol, lowers, tripped):
        calls.append((As, bs, tol, lowers,
                      real(As, bs, tol=tol, lowers=lowers, tripped=tripped)))
        assert not tripped
        return calls[-1][-1]

    def stack_spy(A, b, n, k):
        stacked.append(len(A))
        return real_stack(A, b, n, k)

    monkeypatch.setattr(synthesis, "feasible_points", spy)
    monkeypatch.setattr(simplex, "_phase1_stack", stack_spy)
    seeds = locc_random_measurements()
    for m, cfg in [(load_fixture("cascade5"), RunConfig()),
                   (load_fixture("domino9"), RunConfig())] + [
            (seeds[s], RunConfig(max_lps=2000)) for s in (10, 12, 29, 51)]:
        # the search alone, as the last-mover quotient decides the trees
        synthesis._search(m, cfg, synthesis.SynthesisStats())
    blocks = answers = 0
    for As, bs, tol, lowers, got in calls:
        assert len(got) == len(As)
        assert same_answers(got, As, bs, tol, lowers)
        blocks += len(As)
        answers += sum(x is not None for x in got)
    # both answers occur, and most blocks share a stack
    assert 0 < answers < blocks
    assert sum(stacked) > blocks / 2


def _tie_stack(rng, B, k, n):
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


def test_feasible_points_break_ratio_ties_as_the_scan(rng, monkeypatch):
    """Stacks whose ratio tests hold ties within 2 _PIVOT_EPS: feasible_points
    answers each LP as feasible_point does, bit for bit, choosing every
    leaving row on a stack, and pivots each call's LPs in one stack. The
    last call interleaves five shapes, so that rows k >= 9 are padding
    beside shorter LPs, and raises on any floating-point warning."""
    cases = []
    for k, n in ((3, 4), (5, 5), (6, 9), (12, 2), (9, 5)):
        As, bs = _tie_stack(rng, 60 if k < 9 else 20, k, n)
        want = [feasible_point(A, b) for A, b in zip(As, bs)]
        assert any(x is not None for x in want)
        cases.append((As, bs, want))
    mixed = [lp for lps in itertools.zip_longest(*(zip(*c) for c in cases))
             for lp in lps if lp is not None]
    pivots, scanned, stacks = [], [], []
    real_rows, real_scan = simplex._leaving_rows, simplex._leaving_row
    real_stack = simplex._phase1_stack

    def rows_spy(col, rhs, basis):
        pivots.append(len(col))
        return real_rows(col, rhs, basis)

    def scan_spy(*args):
        scanned.append(True)
        return real_scan(*args)

    def stack_spy(*args):
        stacks.append(True)
        return real_stack(*args)

    monkeypatch.setattr(simplex, "_leaving_rows", rows_spy)
    monkeypatch.setattr(simplex, "_leaving_row", scan_spy)
    monkeypatch.setattr(simplex, "_phase1_stack", stack_spy)
    for As, bs, want in cases[:3] + [tuple(map(list, zip(*mixed)))]:
        stacks.clear()
        with np.errstate(all="raise"):
            got = simplex.feasible_points(As, bs)
        assert all((x is None and y is None) or x.tobytes() == y.tobytes()
                   for x, y in zip(got, want))
        assert len(stacks) == 1
    assert sum(pivots) and not scanned


def test_feasible_points_sum_each_objective_over_its_own_rows():
    """-x = b_i on 9 rows, with sum(b) within an ulp of the objective
    threshold 1e-9 (1 + 9): no column enters, so how b is summed decides
    between x = 0 and None. Beside a 16-row LP its rhs is padded to 16
    entries, and numpy's pairwise sum over those adds b[8] elsewhere and
    crosses the threshold; feasible_points still answers as feasible_point."""
    limit = 1e-9 * (1.0 + 9)
    ulp = np.spacing(limit)
    b = np.array([limit - 3 * ulp] + [0.4 * ulp] * 7 + [0.5 * ulp])
    padded = np.zeros(16)
    padded[:9] = b
    assert b.sum() <= limit < padded.sum()
    A = -np.ones((9, 1))
    want = feasible_point(A, b)
    assert want is not None
    got, _ = simplex.feasible_points([A, np.ones((16, 2))], [b, np.ones(16)])
    assert got.tobytes() == want.tobytes()


def test_feasible_points_sum_a_one_column_reduced_cost_over_its_own_rows():
    """A x = 1 with one column of 16 entries near 0.5: column 0 enters, and
    the phase-1 objective after its pivot, 16 - sum(a) / a_0, lies within
    roundoff of the threshold 1e-9 (1 + 16), so how sum(a) is summed decides
    between x = 1 / a_0 and None. Beside a two-column LP the stack sums its
    columns row by row, where numpy sums one column alone pairwise;
    feasible_points still answers as feasible_point."""
    k = 16
    limit = 1e-9 * (1.0 + k)
    u = np.linspace(0.0, 1.0, k) ** 2       # row 0 has the largest entry

    def objective(a, total):
        # the kernel's arithmetic: -b.sum(), then the pivot on row 0
        return -(-float(k) - (-total) * (1.0 / a[0]))

    for step in range(-2000, 2000):
        a = 0.5 * (1.0 - limit / u.sum() * (1.0 + step * 1e-9) * u)
        alone = a[:, None].sum(axis=0)[0]
        stacked = 0.0
        for v in a:
            stacked += v
        if (objective(a, alone) > limit) != (objective(a, stacked) > limit):
            break
    else:
        pytest.fail("no column whose summation order crosses the threshold")
    A, b = a[:, None], np.ones(k)
    want = feasible_point(A, b)
    got, _ = simplex.feasible_points([A, np.ones((k, 2))], [b, np.ones(k)])
    assert (got is None and want is None) or got.tobytes() == want.tobytes()


def test_feasible_points_pad_columns_to_the_widest_live_lp(monkeypatch):
    """The widest LP of the call is refuted (0 = 1 on a zero row) and the
    next widest keeps no row: phase 1 gets a stack only as wide as the two
    LPs that pivot, and every answer is feasible_point's, bit for bit."""
    widths = []
    real = simplex._phase1_stack

    def spy(A, b, n, k):
        widths.append(A.shape[2])
        return real(A, b, n, k)

    monkeypatch.setattr(simplex, "_phase1_stack", spy)
    refuted = np.zeros((2, 12))
    refuted[0, :] = 1.0
    As = [refuted, np.zeros((3, 9)), np.array([[1.0, 2.0, 1.0]]),
          np.array([[1.0, -1.0], [2.0, 1.0]])]
    bs = [np.array([1.0, 1.0]), np.zeros(3), np.array([2.0]), np.array([0.0, 3.0])]
    got = simplex.feasible_points(As, bs)
    assert widths == [3]
    assert got[0] is None and got[1] is not None and got[3] is not None
    assert same_answers(got, As, bs, 1e-8, [None] * len(As))


def test_feasible_points_trip_each_lp_at_its_own_guard(monkeypatch):
    """A guard of 0.2 (n + k + 10) pivots per LP: the identity on 5 rows
    needs 5 pivots and is allowed 4, so it trips; [I_6 | 0] on 6 rows and 30
    columns needs 6 and is allowed 9.2, so it answers as feasible_point does.
    A guard shared by the stack trips both (the least limit) or neither (the
    padded shape's)."""
    A1, A2 = np.eye(5), np.hstack([np.eye(6), np.zeros((6, 24))])
    b1, b2 = np.ones(5), np.ones(6)
    want = feasible_point(A2, b2)
    monkeypatch.setattr(simplex, "_ITER_FACTOR", 0.2)
    tripped = {}
    got = simplex.feasible_points([A1, A2], [b1, b2], tripped=tripped)
    assert list(tripped) == [0]
    assert str(tripped[0]) == str(simplex._guard_error(5, 5))
    assert got[0] is None and got[1].tobytes() == want.tobytes()


def test_leaving_rows_read_off_only_what_the_scan_gives(rng):
    """On near-tied ratio tests, the stacked leaving rows equal the scalar
    rule's row by row."""
    eps = simplex._PIVOT_EPS
    B, k = 2000, 6
    col = rng.choice([0.0, 1e-11, 0.5, 1.0, 2.0], size=(B, k))
    rhs = rng.choice([0.0, 1e-17, 0.4, 0.5, 1.0], size=(B, k))
    rhs += eps * rng.choice([0.0, 0.5, 0.99, 1.0, 1.01, 1.5, 2.0, 2.5], size=(B, k))
    basis = np.array([rng.permutation(20)[:k] for _ in range(B)])
    got = simplex._leaving_rows(col, rhs, basis)
    want = [simplex._leaving_row(c.tolist(), r.tolist(), b.tolist())
            for c, r, b in zip(col, rhs, basis)]
    assert got.tolist() == want
    assert -1 in want and len(set(want)) > 2


def test_leaving_row_keeps_the_least_ratio_where_eps_vanishes_beside_it():
    """A least ratio of 2e8, where adding _PIVOT_EPS rounds back to it: the
    rows of that ratio are still the candidates, and the one of least basis
    index leaves, in the scalar rule and on a stack. On the stack's last LP
    no row qualifies, and its -1 comes without a floating-point warning."""
    col = [5e-9, 5e-9, 4e-9, 0.0]
    rhs = [1.0, 1.0, 1.0, 1.0]
    basis = [7, 3, 5, 1]
    assert 2e8 + simplex._PIVOT_EPS == 2e8
    assert simplex._leaving_row(col, rhs, basis) == 1
    with np.errstate(all="raise"):
        got = simplex._leaving_rows(
            np.array([col, col[::-1], [0.0, -1.0, 1e-11, 0.0]]),
            np.array([rhs, rhs, rhs]), np.array([basis, basis[::-1], basis]))
    assert got.tolist() == [1, 2, -1]


def test_near_tied_stacks_agree_with_highs(rng):
    """The stacks where the leaving-row rule meets ties within _PIVOT_EPS:
    `_tie_stack`'s, and degenerate ones with a duplicated row, zero rhs
    entries and, in some, a first column of 5e-9 whose ratios, of order 1e8,
    swallow eps. Each LP's verdict, from feasible_points and from
    feasible_point, is HiGHS's."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    cases = [_tie_stack(rng, 60, k, n) for k, n in ((3, 4), (5, 5), (6, 9))]
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
        for A, b, x in zip(As, bs, simplex.feasible_points(As, bs)):
            ref = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=b, method="highs")
            assert ref.status in (0, 2), ref.message
            assert (x is not None) == (feasible_point(A, b) is not None) == (
                ref.status == 0), (A, b)
            verdicts.append(x is not None)
    assert 0 < np.mean(verdicts) < 1


def test_feasible_points_drop_zero_rows_as_feasible_point(rng):
    """LPs with rows that are zero relative to their matrix, with zero and
    with nonzero rhs, stacked with others of their shape and of the shape
    their kept rows have: each answer is feasible_point's, bit for bit."""
    As, bs, lowers = [], [], []
    for j in range(120):
        n = 5
        A = rng.standard_normal((6, n))
        x0 = rng.uniform(1.0, 2.0, n)
        lower = np.ones(n) if j % 2 else None
        zero = rng.choice(6, size=int(rng.integers(0, 3)), replace=False)
        A[zero] *= rng.choice([0.0, 1e-13])
        b = A @ x0 if j % 3 else rng.standard_normal(6)
        if j % 5 == 0 and len(zero):
            b[zero[0]] = 1.0               # 0 = 1 on a dropped row
        As.append(A if j % 4 else A[:4])
        bs.append(b if j % 4 else b[:4])
        lowers.append(lower)
    got = simplex.feasible_points(As, bs, tol=LP_TOL, lowers=lowers)
    assert same_answers(got, As, bs, LP_TOL, lowers)
    assert 0 < sum(x is not None for x in got) < len(As)


def test_feasible_points_raise_the_first_tripped_guard(rng, monkeypatch):
    """With no pivots allowed, every LP with a row kept trips the guard:
    feasible_points raises the error feasible_point raises on the first such
    LP in list order, here one alone in its shape that comes after an LP
    with every row dropped and before a stack, which trips too."""
    monkeypatch.setattr(simplex, "_ITER_FACTOR", 0)
    As, bs = _tie_stack(rng, 8, 12, 2)
    As, bs = [np.zeros((2, 3)), np.ones((1, 3))] + As, [np.zeros(2), np.ones(1)] + bs
    assert feasible_point(As[0], bs[0]) is not None
    errors = []
    for A, b in zip(As[1:], bs[1:]):
        with pytest.raises(simplex.SimplexGuardError) as err:
            feasible_point(A, b)
        errors.append(str(err.value))
    assert "(1 rows, 3 columns)" in errors[0] and "(12 rows" in errors[1]
    with pytest.raises(simplex.SimplexGuardError) as err:
        simplex.feasible_points(As, bs)
    assert str(err.value) == errors[0]


def test_feasible_points_agree_with_highs(rng):
    """Random stacks of LPs of a few shapes, feasible and infeasible, with and
    without lower bounds: each feasible_points answer is HiGHS's verdict, and
    a point passes the bound and the residual check."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    As, bs, lowers = [], [], []
    for _ in range(150):
        k, n = [(3, 4), (4, 6), (5, 5)][int(rng.integers(3))]
        A = rng.standard_normal((k, n)) * (rng.random((k, n)) < 0.8)
        lower = rng.uniform(0.0, 1.0, n) if rng.random() < 0.5 else None
        x0 = (0.0 if lower is None else lower) + rng.uniform(0.1, 2.0, n)
        b = A @ x0 if rng.random() < 0.5 else rng.standard_normal(k)
        As.append(A)
        bs.append(b)
        lowers.append(lower)
    got = simplex.feasible_points(As, bs, lowers=lowers)
    for A, b, lower, x in zip(As, bs, lowers, got):
        lo = np.zeros(A.shape[1]) if lower is None else lower
        ref = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=b, method="highs",
                      bounds=[(float(v), None) for v in lo])
        assert ref.status in (0, 2), ref.message
        assert (x is not None) == (ref.status == 0), (A, b, lower)
        if x is not None:
            assert (x >= lo - 1e-12).all()
            assert np.abs(A @ x - b).max() <= 1e-8 * (1 + np.abs(b).max())
    assert 0.2 < np.mean([x is not None for x in got]) < 0.8
