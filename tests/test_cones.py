import dataclasses

import numpy as np
import pytest

from loccforge.cones import Cone, _intersection_point, member
from loccforge.errors import DimMismatchError, InvalidOperatorError
from loccforge.hermitian import LP_TOL, devectorize, proportional

from conftest import random_psd

P0 = np.diag([1.0, 0.0])
P1 = np.diag([0.0, 1.0])


@dataclasses.dataclass(frozen=True)
class FeasibilityWitness:
    """A common nonzero point of two cones: sum(a_i A_i) = sum(b_j B_j) = point."""

    coefficients_a: np.ndarray
    coefficients_b: np.ndarray
    point: np.ndarray
    residual: float


def nontrivial_intersection(A, B, tol=LP_TOL):
    """Witness a common nonzero point of two cones, or None if only 0 is
    shared: the point and residual behind the scans' `_intersection_point`."""
    sol = _intersection_point(A, B, tol)
    if sol is None:
        return None
    ka = len(A)
    a, b = sol[:ka], sol[ka:]
    pa = A._vecs @ a
    pb = B._vecs @ b
    residual = float(np.abs(pa - pb).max(initial=0.0))
    return FeasibilityWitness(a, b, devectorize(pa, A.dim), residual)


def is_singular_ray(k, generators, tol=LP_TOL):
    """True iff generator k is proportional to no other generator in the list."""
    mats = [np.asarray(g, dtype=complex) for g in generators]
    gk = mats[k]
    return all(i == k or proportional(g, gk, tol) is None
               for i, g in enumerate(mats))


def is_extreme_ray(k, C, tol=LP_TOL):
    """True iff generator k is not a combination of the generators off its ray.

    Generators proportional to G_k are excluded from the test set; they lie on
    the same ray and would make the membership test vacuous.
    """
    gk = C.generators[k]
    rest = [i for i, g in enumerate(C.generators)
            if i != k and proportional(g, gk, tol) is None]
    if not rest:
        return True
    return member(gk, C.subcone(rest), tol) is None


def random_cone(rng, d):
    k = int(rng.integers(1, 5))
    return Cone([random_psd(rng, d, rank=int(rng.integers(1, d + 1)))
                 for _ in range(k)])


def test_member_recognizes_combinations(rng):
    for _ in range(100):
        d = int(rng.integers(2, 4))
        c = random_cone(rng, d)
        coeffs = rng.uniform(0.1, 2.0, size=len(c))
        x = sum(w * g for w, g in zip(coeffs, c.generators))
        assert member(x, c) is not None


def test_member_rejects_outside_point():
    c = Cone([P0])
    assert member(P1, c) is None
    assert member(P0, c) is not None


def test_member_dim_mismatch():
    with pytest.raises(DimMismatchError):
        member(np.eye(3), Cone([P0]))


def test_intersection_with_shared_generator(rng):
    for _ in range(50):
        d = int(rng.integers(2, 4))
        shared = random_psd(rng, d, rank=1)
        a = Cone([shared, random_psd(rng, d)])
        b = Cone([shared, random_psd(rng, d)])
        w = nontrivial_intersection(a, b)
        assert w is not None
        assert w.residual <= 1e-8
        assert np.abs(w.point).max() > 1e-10


def test_intersection_disjoint_cones():
    assert nontrivial_intersection(Cone([P0]), Cone([P1])) is None


def sampling_oracle(rng, a, b, tries=40):
    """Find a common point by sampling cone-A combinations; None if unlucky."""
    for _ in range(tries):
        coeffs = rng.uniform(0.0, 1.0, size=len(a))
        x = sum(w * g for w, g in zip(coeffs, a.generators))
        if np.abs(x).max() < 1e-9:
            continue
        if member(x, b) is not None:
            return x
    return None


def test_intersection_has_no_false_negatives(rng):
    hits = 0
    for _ in range(150):
        d = int(rng.integers(2, 4))
        a = random_cone(rng, d)
        if rng.random() < 0.4:
            # plant containment so the sampling oracle actually lands
            extra = [random_psd(rng, d) for _ in range(int(rng.integers(0, 2)))]
            b = Cone([g * float(rng.uniform(0.5, 2.0)) for g in a.generators]
                     + extra)
        else:
            b = random_cone(rng, d)
        w = nontrivial_intersection(a, b)
        if w is not None:
            assert w.residual <= 1e-8
            assert (w.coefficients_a >= -1e-12).all()
            assert (w.coefficients_b >= -1e-12).all()
        sampled = sampling_oracle(rng, a, b)
        if sampled is not None:
            hits += 1
            assert w is not None, "oracle found a common point the scan missed"
    assert hits > 20


def test_intersection_is_symmetric(rng):
    for _ in range(80):
        d = int(rng.integers(2, 4))
        a, b = random_cone(rng, d), random_cone(rng, d)
        assert ((nontrivial_intersection(a, b) is None)
                == (nontrivial_intersection(b, a) is None))


def test_member_reconstruction_error(rng):
    for _ in range(60):
        d = int(rng.integers(2, 4))
        c = random_cone(rng, d)
        coeffs = rng.uniform(0.0, 1.5, size=len(c))
        x = sum(w * g for w, g in zip(coeffs, c.generators))
        got = member(x, c)
        assert got is not None
        rebuilt = sum(w * g for w, g in zip(got, c.generators))
        assert np.abs(rebuilt - x).max() <= 1e-8 * (1 + np.abs(x).max())


def test_subcone_matches_a_fresh_cone(rng):
    gens = [random_psd(rng, 3, rank=int(rng.integers(1, 4))) for _ in range(6)]
    big = Cone(gens)
    for idx in [(0,), (4, 1), (1, 2, 5), (5, 4, 3, 2, 1, 0)]:
        sub = big.subcone(idx)
        fresh = Cone([gens[i] for i in idx])
        assert sub.dim == fresh.dim and len(sub) == len(idx)
        assert sub._vecs.tobytes() == fresh._vecs.tobytes()
        assert all((g == h).all() for g, h in zip(sub.generators, fresh.generators))
    with pytest.raises(InvalidOperatorError):
        big.subcone([])


def test_singular_ray():
    assert is_singular_ray(0, [P0, P1])
    assert not is_singular_ray(0, [P0, 3 * P0])
    assert not is_singular_ray(1, [P1, 2 * P1, P0])


def test_extreme_ray():
    c = Cone([P0, P1, np.eye(2)])
    assert is_extreme_ray(0, c)
    assert is_extreme_ray(1, c)
    assert not is_extreme_ray(2, c)  # identity = P0 + P1


def test_extreme_ray_rank_one_in_spanning_cone(rng):
    for _ in range(30):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        proj = np.outer(v, v.conj())
        c = Cone([proj, random_psd(rng, 2) + 0.3 * np.eye(2)])
        assert is_extreme_ray(0, c)
