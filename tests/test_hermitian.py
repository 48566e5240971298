import numpy as np
import pytest

from loccforge.errors import DimMismatchError, InvalidOperatorError, ZeroOperatorError
from loccforge.hermitian import (
    LP_TOL,
    PSD_TOL,
    devectorize,
    hermitian_stack,
    proportional,
    psd_mask,
    psd_sqrt,
    same_ray_masks,
    tensor,
    vectorize,
)
from loccforge.measurement import SeparableMeasurement

from conftest import (
    load_fixture,
    random_hermitian,
    random_psd,
    random_valid_tree,
    random_witness_measurement,
)


def char_poly_min_root(m):
    """Independent PSD oracle: smallest real root of the characteristic polynomial."""
    coeffs = np.poly(m)
    roots = np.roots(coeffs)
    real = roots[np.abs(roots.imag) < 1e-7].real
    return real.min()


def psd(m, tol=PSD_TOL):
    """`psd_mask` on the one-matrix stack of a Hermitian m, symmetrized by
    `hermitian_stack` as a measurement keeps its parts."""
    ok, stack = hermitian_stack([m])
    assert ok[0]
    return bool(psd_mask(stack, tol)[0])


def test_is_psd_against_char_poly_oracle(rng):
    agree = 0
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        if rng.random() < 0.5:
            m = random_psd(rng, d)
        else:
            m = random_hermitian(rng, d)
        scale = max(1.0, np.abs(m).max())
        lo = char_poly_min_root(m)
        if abs(lo) < 1e-6 * scale:
            continue  # too close to the boundary for two oracles to agree
        assert psd(m) == (lo > 0)
        agree += 1
    assert agree > 800


def test_is_psd_boundary_tolerance():
    assert psd(np.diag([1.0, 0.0]))
    assert psd(np.diag([1.0, -1e-12]))
    assert not psd(np.diag([1.0, -1e-6]))


def test_is_psd_method_honours_each_tolerance():
    """A measurement's PSD verdicts are kept per tolerance: each call reads
    the one its tolerance asks for, in either order."""
    part = np.diag([1.0, -5e-9])
    assert psd(part, 1e-8) and not psd(part, 1e-10)
    m = SeparableMeasurement([[part]])
    assert m.verdicts(0, 1e-8)[1] == [True]
    assert m.verdicts(0, 1e-10)[1] == [False]
    assert SeparableMeasurement([[part]]).verdicts(0, 1e-10)[1] == [False]


def test_proportional_symmetry_and_scaling(rng):
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        a = random_hermitian(rng, d)
        if np.abs(a).max() < 1e-9:
            continue
        c = float(rng.uniform(0.1, 5.0))
        r = proportional(c * a, a)
        assert r is not None and abs(r - c) < 1e-8 * max(1, c)
        back = proportional(a, c * a)
        assert back is not None and abs(back - 1 / c) < 1e-8


def test_proportional_rejects_independent():
    assert proportional(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) is None
    assert proportional(np.diag([1.0, 0.5]), np.eye(2)) is None


def test_proportional_zero_raises():
    with pytest.raises(ZeroOperatorError):
        proportional(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ZeroOperatorError):
        proportional(np.eye(2), np.zeros((2, 2)))


def reference_same_ray_masks(gens, tol=LP_TOL):
    """The same-ray table as a pairwise `proportional(g_i, g_j)` loop."""
    return [sum(1 << i for i, g in enumerate(gens)
                if i != j and proportional(g, gj, tol) is not None)
            for j, gj in enumerate(gens)]


def test_same_ray_masks_match_the_proportional_loop():
    ms = [load_fixture(name) for name in
          ["cascade5", "domino9", "fourparty_aligned", "fourparty_mismatch",
           "krausdemo", "productbasis4", "singularpair3"]]
    ms += [random_valid_tree(np.random.default_rng(s))[1] for s in range(40)]
    rng = np.random.default_rng(7)
    ms += [random_witness_measurement(rng) for _ in range(20)]
    linked = 0
    for m in ms:
        for a in range(m.P):
            gens = m.stack(a)
            same = same_ray_masks(gens)
            assert same == reference_same_ray_masks(gens)
            linked += sum(map(bool, same))
    assert linked > 0
    # pairs at the edge of each of `proportional`'s three tests
    tol = LP_TOL
    g = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    off = g.copy()
    off[1, 1] += 2 * tol
    floor = np.diag([1.0, 1e-9])
    edge_cases = [
        [g, (1 + tol / 2) * g, 3 * g],            # the same ray, rescaled
        [g, off, g + np.diag([0.0, tol / 4])],    # one entry off by 2 tol
        [floor, np.diag([1.0, 0.0]), np.diag([2.0, 3e-9]), 2e-8 * np.eye(2)],
        [np.diag([1.0, -1.0]), np.diag([2.0, -2.0]), np.diag([2 * tol, -tol]),
         np.diag([2.0, -1.0]), -g, g],            # traces at or below the floor
    ]
    edge_cases = [np.array(gens, dtype=complex) for gens in edge_cases]
    for gens in edge_cases:
        assert same_ray_masks(gens, tol) == reference_same_ray_masks(gens, tol), gens
    assert same_ray_masks(edge_cases[0], tol) == [6, 5, 3]
    assert same_ray_masks(edge_cases[1], tol)[1] & 1 == 0
    assert same_ray_masks(np.empty((0, 2, 2), dtype=complex), tol) == []


def test_same_ray_masks_do_not_raise_on_tiny_parts():
    """Parts at or below `tol`, where `proportional` raises, are decided by
    its three tests; every other pair agrees with `proportional`."""
    tol = LP_TOL
    gens = np.array([np.eye(2), 5e-9 * np.eye(2), np.zeros((2, 2)),
                     np.diag([1.0, 0.0]), np.diag([5e-9, 0.0])], dtype=complex)
    same = same_ray_masks(gens, tol)
    for j, gj in enumerate(gens):
        for i, g in enumerate(gens):
            if i == j:
                assert not same[j] >> i & 1
                continue
            try:
                expected = proportional(g, gj, tol) is not None
            except ZeroOperatorError:
                continue
            assert bool(same[j] >> i & 1) == expected, (i, j)
    # both tiny parts lie within tol of every ray whose trace clears the
    # floor, a zero part lies on none, and no part lies on a tiny one's ray
    assert same == [0b10010, 0, 0, 0b10010, 0]


def test_tensor_matches_kron(rng):
    a, b, c = (random_hermitian(rng, 2) for _ in range(3))
    assert np.allclose(tensor([a, b, c]), np.kron(np.kron(a, b), c))
    assert np.allclose(tensor([a]), a)


def test_vectorize_is_isometric(rng):
    for _ in range(200):
        d = int(rng.integers(1, 5))
        a = random_hermitian(rng, d)
        b = random_hermitian(rng, d)
        va, vb = vectorize(a), vectorize(b)
        assert va.dtype == float and va.shape == (d * d,)
        inner = float(np.real(np.trace(a.conj().T @ b)))
        assert abs(va @ vb - inner) < 1e-9 * max(1, abs(inner))
        assert np.abs(devectorize(va, d) - a).max() < 1e-12


def test_hermitian_operator_symmetrizes_and_rejects():
    """A measurement keeps a part within the hermiticity tolerance
    symmetrized, exactly Hermitian, and rejects a part off it or not square."""
    near = np.array([[1.0, 1e-12j], [-1.1e-12j, 2.0]])
    assert hermitian_stack([near])[0][0]
    assert not hermitian_stack([near], tol=0)[0][0]
    part = SeparableMeasurement([[near]]).part(0, 0)
    assert hermitian_stack([part], tol=0)[0][0]
    with pytest.raises(InvalidOperatorError):
        SeparableMeasurement([[np.array([[0.0, 1.0], [0.0, 0.0]])]])
    with pytest.raises(DimMismatchError):
        SeparableMeasurement([[np.zeros((2, 3))]])


def test_psd_sqrt_squares_back(rng):
    for _ in range(50):
        d = int(rng.integers(1, 4))
        m = random_psd(rng, d)
        r = psd_sqrt(m)
        assert np.abs(r @ r - m).max() < 1e-9 * max(1, np.abs(m).max())
        assert psd(r)


def test_psd_sqrt_projector():
    p = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert np.abs(psd_sqrt(p) - p).max() < 1e-12
