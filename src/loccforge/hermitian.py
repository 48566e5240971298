"""Dense complex Hermitian operator numerics.

The rest of the package works with plain numpy arrays; this module owns the
conventions: tolerance semantics for PSD tests, proportionality up to a
positive scalar, Kronecker products, matrix square roots, and the real
vectorization that turns operator equalities into LP rows.

Vectorization basis order for a d x d Hermitian M: the d diagonal entries in
row order, then Re M[i,j] for i < j (row-major), then Im M[i,j] for i < j.
Off-diagonal slots are scaled by sqrt(2), which makes the map an isometry for
the Hilbert-Schmidt inner product, so row norms in the LP layer stay
meaningful.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidOperatorError, ZeroOperatorError

HERM_TOL = 1e-10
PSD_TOL = 1e-9
LP_TOL = 1e-8

_SQRT2 = np.sqrt(2.0)


def asmat(x) -> np.ndarray:
    """Coerce a HermitianOperator or array-like to a complex ndarray."""
    if isinstance(x, HermitianOperator):
        return x.mat
    return np.asarray(x, dtype=complex)


def is_hermitian(m, tol: float = HERM_TOL) -> bool:
    m = asmat(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    scale = 1.0 + float(np.abs(m).max(initial=0.0))
    return float(np.abs(m - m.conj().T).max(initial=0.0)) <= tol * scale


class HermitianOperator:
    """A validated dim x dim complex Hermitian matrix.

    Construction checks hermiticity within `tol`, then symmetrizes, so entries
    satisfy M[i][j] == conj(M[j][i]) exactly.
    """

    __slots__ = ("mat", "dim")

    def __init__(self, mat, tol: float = HERM_TOL):
        m = np.asarray(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidOperatorError(f"expected a square matrix, got shape {m.shape}")
        if not is_hermitian(m, tol):
            raise InvalidOperatorError("matrix is not Hermitian within tolerance")
        m = (m + m.conj().T) / 2.0
        m.flags.writeable = False
        self.mat = m
        self.dim = int(m.shape[0])

    def is_psd(self, tol: float = PSD_TOL) -> bool:
        return is_psd(self.mat, tol)

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"


def is_psd(m, tol: float = PSD_TOL) -> bool:
    """True iff the smallest eigenvalue is >= -tol * max(1, spectral radius)."""
    m = asmat(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not is_hermitian(m):
        raise InvalidOperatorError("is_psd needs a square Hermitian matrix")
    w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    radius = max(abs(float(w[0])), abs(float(w[-1])))
    return float(w[0]) >= -tol * max(1.0, radius)


def proportional(m, n, tol: float = LP_TOL) -> float | None:
    """Return lam > 0 with M = lam * N entrywise within tolerance, else None.

    lam is estimated from traces (stable for PSD operators), then verified
    entrywise. Numerically zero inputs are rejected rather than matched.
    """
    m = asmat(m)
    n = asmat(n)
    if m.shape != n.shape:
        return None
    mmax = float(np.abs(m).max(initial=0.0))
    nmax = float(np.abs(n).max(initial=0.0))
    if mmax <= tol or nmax <= tol:
        raise ZeroOperatorError("proportionality test on a zero operator")
    tn = float(np.trace(n).real)
    if abs(tn) <= tol * max(1.0, nmax):
        return None
    lam = float(np.trace(m).real) / tn
    if lam <= 0:
        return None
    err = float(np.abs(m - lam * n).max(initial=0.0))
    if err <= tol * max(1.0, abs(lam)) * max(1.0, nmax):
        return lam
    return None


def tensor(parts) -> np.ndarray:
    """Kronecker product of the given operators, in order."""
    mats = [asmat(p) for p in parts]
    if not mats:
        raise InvalidOperatorError("tensor of an empty list")
    out = mats[0]
    for p in mats[1:]:
        out = np.kron(out, p)
    return out


def psd_sqrt(m, tol: float = PSD_TOL) -> np.ndarray:
    """Positive square root by eigendecomposition; tiny negative eigenvalues clamp to 0."""
    m = asmat(m)
    w, u = np.linalg.eigh((m + m.conj().T) / 2.0)
    radius = max(abs(float(w[0])), abs(float(w[-1])), 1.0)
    if float(w[0]) < -tol * radius:
        raise InvalidOperatorError("psd_sqrt of a matrix with a negative eigenvalue")
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.conj().T


@functools.lru_cache(maxsize=None)
def _triu(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Strict upper-triangle indices of a dim x dim matrix, built once per dim."""
    iu = np.triu_indices(dim, k=1)
    for ix in iu:
        ix.flags.writeable = False
    return iu


def vectorize(m) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in the documented basis order."""
    m = asmat(m)
    off = m[_triu(m.shape[0])]
    return np.concatenate([m.diagonal().real, _SQRT2 * off.real, _SQRT2 * off.imag])


def devectorize(coords, dim: int) -> np.ndarray:
    """Inverse of vectorize."""
    v = np.asarray(coords, dtype=float)
    if v.shape != (dim * dim,):
        raise InvalidOperatorError(f"expected {dim * dim} coordinates, got shape {v.shape}")
    m = np.zeros((dim, dim), dtype=complex)
    np.fill_diagonal(m, v[:dim])
    iu = _triu(dim)
    k = dim + len(iu[0])
    off = (v[dim:k] + 1j * v[k:]) / _SQRT2
    m[iu] = off
    m[(iu[1], iu[0])] = off.conj()
    return m

