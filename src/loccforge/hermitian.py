"""Dense complex Hermitian operator numerics.

The package works with plain numpy arrays, and every routine here reads its
input as a complex array; this module owns the conventions: tolerance
semantics for PSD tests, proportionality up to a positive scalar, Kronecker
products, matrix square roots, and the real vectorization that turns
operator equalities into LP rows.

The hermiticity and PSD tests are written once, over an (N, d, d) stack
(`hermitian_stack`, `psd_mask`); `SeparableMeasurement`, their one
caller, applies them to each party's parts in one numpy call. `tensor` and
`vectorize` take stacks too, such as a measurement's party stacks.

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

NOT_HERMITIAN = "matrix is not Hermitian within tolerance"


def hermitian_stack(mats, tol: float = HERM_TOL) -> tuple[np.ndarray, np.ndarray]:
    """(ok, stack) for same-shape square matrices: per matrix, whether
    max|M - M^H| <= tol * (1 + max|M|), and the read-only stack of the
    symmetrized (M + M^H) / 2, whose entries satisfy S[i][j] == conj(S[j][i])
    exactly."""
    g = np.array(mats, dtype=complex)
    adj = g.conj().swapaxes(1, 2)
    scale = 1.0 + np.abs(g).max(axis=(1, 2), initial=0.0)
    ok = np.abs(g - adj).max(axis=(1, 2), initial=0.0) <= tol * scale
    stack = (g + adj) / 2.0
    stack.flags.writeable = False
    return ok, stack


def psd_mask(stack: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """Per matrix of an exactly Hermitian (N, d, d) stack, one `eigvalsh`
    for all: the smallest eigenvalue is >= -tol * max(1, spectral radius)."""
    w = np.linalg.eigvalsh(stack)
    radius = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
    return w[:, 0] >= -tol * np.maximum(1.0, radius)


def proportional(m, n, tol: float = LP_TOL) -> float | None:
    """Return lam > 0 with M = lam * N entrywise within tolerance, else None.

    lam is estimated from traces (stable for PSD operators), then verified
    entrywise. Numerically zero inputs are rejected rather than matched.
    """
    m = np.asarray(m, dtype=complex)
    n = np.asarray(n, dtype=complex)
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


def same_ray_masks(g: np.ndarray, tol: float = LP_TOL) -> list[int]:
    """Per j, the bitmask of i != j with `proportional(g[i], g[j], tol)`.

    One broadcast over all pairs of an (N, d, d) stack, read as it is,
    applies `proportional`'s tests in its order of operations: the trace
    tr_j clear of tol * max(1, max|M_j|), lam = tr_i / tr_j > 0, and
    max|M_i - lam M_j| <= tol * max(1, |lam|) * max(1, max|M_j|). So bit i
    of mask j equals `proportional(g[i], g[j], tol) is not None` for every
    pair on which `proportional` does not raise. Numerically zero matrices
    are not rejected: a pair holding one is decided by the same three tests.
    The broadcast does not depend on tol (`ray_terms`); only the comparisons
    do (`ray_masks`), so a stack's masks at two tolerances share it.
    """
    return ray_masks(ray_terms(g), tol)


def ray_terms(g: np.ndarray) -> tuple[np.ndarray, ...]:
    """The tolerance-free terms of `same_ray_masks`: per matrix its trace and
    max(1, max|M|), per pair (i, j) lam = tr_i / tr_j and max|M_i - lam M_j|."""
    # bit for bit the trace `proportional` takes of each matrix
    tr = np.trace(g, axis1=1, axis2=2).real
    scale = np.maximum(1.0, np.abs(g).max(axis=(1, 2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = tr[:, None] / tr[None, :]
        err = np.abs(g[:, None] - lam[:, :, None, None] * g[None, :]).max(axis=(2, 3))
    return tr, scale, lam, err


def ray_masks(terms, tol: float = LP_TOL) -> list[int]:
    """`same_ray_masks` at tol from the stack's `ray_terms`."""
    tr, scale, lam, err = terms
    with np.errstate(invalid="ignore"):
        ok = ((np.abs(tr) > tol * scale)[None, :] & (lam > 0)
              & (err <= tol * np.maximum(1.0, np.abs(lam)) * scale[None, :]))
    np.fill_diagonal(ok, False)
    return column_masks(ok)


def column_masks(ok: np.ndarray) -> list[int]:
    """Per column j of the boolean (N, N) ok, the little-endian bitmask of
    its rows."""
    return [int.from_bytes(col.tobytes(), "little")
            for col in np.packbits(ok, axis=0, bitorder="little").T]


def components(link) -> list[int]:
    """Connected components of the graph with neighbour masks `link`, as
    bitmasks in order of their lowest node."""
    comps, seen = [], 0
    for j in range(len(link)):
        if seen >> j & 1:
            continue
        comp = frontier = 1 << j
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = link[low.bit_length() - 1] & ~comp
            comp |= new
            frontier |= new
        comps.append(comp)
        seen |= comp
    return comps


def tensor(parts) -> np.ndarray:
    """Kronecker product of the given operators, in order; of (N, d, d)
    stacks, the N products matrix by matrix. Each entry is the one product
    of parts' entries that chained `np.kron` forms, so both agree bit for bit."""
    mats = [np.asarray(p, dtype=complex) for p in parts]
    if not mats:
        raise InvalidOperatorError("tensor of an empty list")
    out = mats[0]
    for p in mats[1:]:
        n = out.shape[-1] * p.shape[-1]
        out = (out[..., :, None, :, None] * p[..., None, :, None, :]).reshape(
            out.shape[:-2] + (n, n))
    return out


def psd_sqrt(m, tol: float = PSD_TOL) -> np.ndarray:
    """Positive square root by eigendecomposition; tiny negative eigenvalues clamp to 0."""
    m = np.asarray(m, dtype=complex)
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
    """Real coordinates of a Hermitian matrix in the documented basis order;
    of an (N, d, d) stack, one row per matrix."""
    m = np.asarray(m, dtype=complex)
    iu = _triu(m.shape[-1])
    off = m[..., iu[0], iu[1]]
    return np.concatenate([m.diagonal(axis1=-2, axis2=-1).real,
                           _SQRT2 * off.real, _SQRT2 * off.imag], axis=-1)


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

