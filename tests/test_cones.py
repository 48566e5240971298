import dataclasses
import math

import numpy as np
import pytest

from loccforge.cones import _intersection_point, member
from loccforge.errors import DimMismatchError, InvalidOperatorError
from loccforge.hermitian import (
    LP_TOL, PSD_TOL, devectorize, proportional, vectorize)
from loccforge.measurement import SeparableMeasurement

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


def cone(generators, tol=PSD_TOL):
    """The column table of the cone of the generators: that of the one-party
    measurement holding them, checked as its parts."""
    return SeparableMeasurement([[g] for g in generators]).cone(0, tol)


def nontrivial_intersection(A, B, tol=LP_TOL):
    """Witness a common nonzero point of two cones, or None if only 0 is
    shared: the point and residual behind the scans' `_intersection_point`."""
    sol = _intersection_point(A, B, tol)
    if sol is None:
        return None
    ka = A.shape[1]
    a, b = sol[:ka], sol[ka:]
    pa = A @ a
    pb = B @ b
    residual = float(np.abs(pa - pb).max(initial=0.0))
    point = devectorize(pa, math.isqrt(A.shape[0]))
    return FeasibilityWitness(a, b, point, residual)


def is_singular_ray(k, generators, tol=LP_TOL):
    """True iff generator k is proportional to no other generator in the list."""
    mats = [np.asarray(g, dtype=complex) for g in generators]
    gk = mats[k]
    return all(i == k or proportional(g, gk, tol) is None
               for i, g in enumerate(mats))


def is_extreme_ray(k, generators, tol=LP_TOL):
    """True iff generator k is not a combination of the generators off its ray.

    Generators proportional to G_k are excluded from the test set; they lie on
    the same ray and would make the membership test vacuous.
    """
    gk = generators[k]
    rest = [g for i, g in enumerate(generators)
            if i != k and proportional(g, gk, tol) is None]
    if not rest:
        return True
    return member(vectorize(gk), cone(rest, tol), tol) is None


def random_generators(rng, d):
    k = int(rng.integers(1, 5))
    return [random_psd(rng, d, rank=int(rng.integers(1, d + 1)))
            for _ in range(k)]


def test_member_recognizes_combinations(rng):
    for _ in range(100):
        d = int(rng.integers(2, 4))
        gens = random_generators(rng, d)
        coeffs = rng.uniform(0.1, 2.0, size=len(gens))
        x = sum(w * g for w, g in zip(coeffs, gens))
        assert member(vectorize(x), cone(gens)) is not None


def test_member_rejects_outside_point():
    c = cone([P0])
    assert member(vectorize(P1), c) is None
    assert member(vectorize(P0), c) is not None


def test_member_dim_mismatch():
    with pytest.raises(DimMismatchError):
        member(vectorize(np.eye(3)), cone([P0]))
    with pytest.raises(DimMismatchError):
        _intersection_point(cone([np.eye(3)]), cone([P0]))


def test_intersection_with_shared_generator(rng):
    for _ in range(50):
        d = int(rng.integers(2, 4))
        shared = random_psd(rng, d, rank=1)
        a = cone([shared, random_psd(rng, d)])
        b = cone([shared, random_psd(rng, d)])
        w = nontrivial_intersection(a, b)
        assert w is not None
        assert w.residual <= 1e-8
        assert np.abs(w.point).max() > 1e-10


def test_intersection_disjoint_cones():
    assert nontrivial_intersection(cone([P0]), cone([P1])) is None


def sampling_oracle(rng, gens_a, b, tries=40):
    """Find a common point by sampling combinations of cone A's generators;
    None if unlucky."""
    for _ in range(tries):
        coeffs = rng.uniform(0.0, 1.0, size=len(gens_a))
        x = sum(w * g for w, g in zip(coeffs, gens_a))
        if np.abs(x).max() < 1e-9:
            continue
        if member(vectorize(x), b) is not None:
            return x
    return None


def test_intersection_has_no_false_negatives(rng):
    hits = 0
    for _ in range(150):
        d = int(rng.integers(2, 4))
        gens_a = random_generators(rng, d)
        a = cone(gens_a)
        if rng.random() < 0.4:
            # plant containment so the sampling oracle actually lands
            extra = [random_psd(rng, d) for _ in range(int(rng.integers(0, 2)))]
            b = cone([g * float(rng.uniform(0.5, 2.0)) for g in gens_a] + extra)
        else:
            b = cone(random_generators(rng, d))
        w = nontrivial_intersection(a, b)
        if w is not None:
            assert w.residual <= 1e-8
            assert (w.coefficients_a >= -1e-12).all()
            assert (w.coefficients_b >= -1e-12).all()
        sampled = sampling_oracle(rng, gens_a, b)
        if sampled is not None:
            hits += 1
            assert w is not None, "oracle found a common point the scan missed"
    assert hits > 20


def test_intersection_is_symmetric(rng):
    for _ in range(80):
        d = int(rng.integers(2, 4))
        a, b = cone(random_generators(rng, d)), cone(random_generators(rng, d))
        assert ((nontrivial_intersection(a, b) is None)
                == (nontrivial_intersection(b, a) is None))


def test_member_reconstruction_error(rng):
    for _ in range(60):
        d = int(rng.integers(2, 4))
        gens = random_generators(rng, d)
        coeffs = rng.uniform(0.0, 1.5, size=len(gens))
        x = sum(w * g for w, g in zip(coeffs, gens))
        got = member(vectorize(x), cone(gens))
        assert got is not None
        rebuilt = sum(w * g for w, g in zip(got, gens))
        assert np.abs(rebuilt - x).max() <= 1e-8 * (1 + np.abs(x).max())


def test_column_slice_matches_a_fresh_cone(rng):
    """A slice of a cone's columns, as the scans take it, is byte for byte
    the cone of the sliced generators."""
    gens = [random_psd(rng, 3, rank=int(rng.integers(1, 4))) for _ in range(6)]
    m = SeparableMeasurement([[g] for g in gens])
    big = m.cone(0)
    for idx in [(0,), (4, 1), (1, 2, 5), (5, 4, 3, 2, 1, 0)]:
        sub = big[:, idx]
        fresh_m = SeparableMeasurement([[gens[i]] for i in idx])
        fresh = fresh_m.cone(0)
        assert sub.shape == fresh.shape == (9, len(idx))
        assert sub.tobytes() == fresh.tobytes()
        assert m.stack(0)[list(idx)].tobytes() == fresh_m.stack(0).tobytes()
    with pytest.raises(InvalidOperatorError):
        cone([])


def test_singular_ray():
    assert is_singular_ray(0, [P0, P1])
    assert not is_singular_ray(0, [P0, 3 * P0])
    assert not is_singular_ray(1, [P1, 2 * P1, P0])


def test_extreme_ray():
    gens = [P0, P1, np.eye(2)]
    assert is_extreme_ray(0, gens)
    assert is_extreme_ray(1, gens)
    assert not is_extreme_ray(2, gens)  # identity = P0 + P1


def test_extreme_ray_rank_one_in_spanning_cone(rng):
    for _ in range(30):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        proj = np.outer(v, v.conj())
        assert is_extreme_ray(0, [proj, random_psd(rng, 2) + 0.3 * np.eye(2)])
