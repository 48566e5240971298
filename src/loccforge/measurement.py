"""The separable-measurement input object.

A measurement {E_j = E_j^1 x ... x E_j^P} is held as its party stacks: one
read-only (N, d, d) array per party whose matrix j is E_j's part there, with
an optional Kraus-level description. It is read through `len(m)`,
`m.part(j, a)`, `m.stack(a)`, `m.columns(a)` and `m.products()`.
Completeness means the products admit strictly positive weights summing to
the identity; that certificate is an LP.

The constructor checks every part's shape and hermiticity and keeps the
symmetrized stacks, so no measurement with a ragged or 0-dim part exists.
A party's zero and PSD verdicts (`verdicts`) take one `eigvalsh`;
`validate` reports the parts they flag, and `cone` raises on the first.
They, the diagnostics, the same-ray tables (`same_ray`), the cones, the
columns and the products are kept in the measurement's one memo, so each is
found once per party and tolerance. No other module checks a part.
`SeparableMeasurement.products` forms all Kronecker products as one stacked
product; each entry is the one product of part entries that `np.kron` forms,
so the stack, its vectorized columns and the completeness residual are bit
for bit those of the parts' products taken one operator at a time.
"""
from __future__ import annotations

import dataclasses
import string

import numpy as np

from .errors import (
    DimMismatchError,
    InfeasibleError,
    InvalidOperatorError,
    ZeroOperatorError,
)
from .cones import Cone
from .hermitian import (
    LP_TOL,
    NOT_HERMITIAN,
    PSD_TOL,
    asmat,
    hermitian_stack,
    proportional,
    psd_mask,
    same_ray_masks,
    tensor,
    vectorize,
)
from .simplex import feasible_point


@dataclasses.dataclass(frozen=True)
class KrausProduct:
    """A product Kraus operator: one complex square matrix per party."""

    parts: tuple[np.ndarray, ...]

    def positive_parts(self) -> tuple[np.ndarray, ...]:
        return tuple(k.conj().T @ k for k in self.parts)


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    kind: str   # "zero-part" | "not-psd" | "duplicate-product"; shape is the constructor's
    where: str  # e.g. "operators[2].parts[1]"
    detail: str

    def __str__(self):
        return f"{self.kind} at {self.where}: {self.detail}"


@dataclasses.dataclass(frozen=True)
class CompletenessCertificate:
    weights: np.ndarray
    residual: float


ZERO_PART = "local part is numerically zero"
NOT_PSD = "local part has a negative eigenvalue"


def default_party_names(P: int) -> tuple[str, ...]:
    letters = string.ascii_uppercase
    if P <= len(letters):
        return tuple(letters[:P])
    return tuple(f"P{i + 1}" for i in range(P))


class SeparableMeasurement:
    """Immutable container for the party stacks, labels, and Kraus groups.

    `ops` holds one row of P part matrices per operator (array-likes or
    HermitianOperators). The constructor checks every part's shape and
    hermiticity, and `verdicts` finds its zero and PSD tests. First the
    shapes: every operator has P parts and its part at party a is
    dims[a] x dims[a] with dims[a] >= 1, where operator 0 sets P and the
    dims; else a DimMismatchError names `operators[j]` or
    `operators[j].parts[a]`. Then each party's parts, stacked, pass
    `hermitian_stack`; else an InvalidOperatorError names the part. Either
    names the first failure in operator order, then party order.

    What is derived from the stacks is kept in one memo, `_memo`, keyed by
    its kind and the party and tolerance it was found for.
    """

    __slots__ = ("P", "dims", "labels", "party_names", "kraus_groups",
                 "_stacks", "_memo")

    def __init__(self, ops, labels=None, party_names=None, kraus_groups=None):
        rows = [[asmat(p) for p in op] for op in ops]
        if not rows:
            raise InvalidOperatorError("a measurement needs at least one operator")
        P = len(rows[0])
        if P < 1:
            raise InvalidOperatorError("every operator needs at least one party part")
        dims = tuple(g.shape[0] if g.ndim == 2 and g.shape[0] == g.shape[1] else 0
                     for g in rows[0])
        for j, row in enumerate(rows):
            if len(row) != P:
                raise DimMismatchError(f"operators[{j}]: expected {P} parts, found {len(row)}")
            for a, (g, d) in enumerate(zip(row, dims)):
                if not d or g.shape != (d, d):
                    need = f"a {d} x {d} matrix" if d else "a square matrix of dim >= 1"
                    raise DimMismatchError(
                        f"operators[{j}].parts[{a}]: expected {need}, got shape {g.shape}")
        checked = [hermitian_stack([row[a] for row in rows]) for a in range(P)]
        bad = ~np.array([ok for ok, _ in checked]).T     # (operator, party)
        if bad.any():
            j, a = np.argwhere(bad)[0]
            raise InvalidOperatorError(f"operators[{j}].parts[{a}]: {NOT_HERMITIAN}")
        self.P = P
        self.dims = dims
        self._stacks = tuple(stack for _, stack in checked)
        self.labels = tuple(labels) if labels is not None else tuple(
            f"M{j + 1}" for j in range(len(rows)))
        if len(self.labels) != len(rows):
            raise InvalidOperatorError("label count does not match operator count")
        self.party_names = tuple(party_names) if party_names is not None else default_party_names(P)
        if len(self.party_names) != P:
            raise DimMismatchError("party name count does not match party count")
        if kraus_groups is not None:
            kraus_groups = tuple(tuple(g) for g in kraus_groups)
            if len(kraus_groups) != len(rows):
                raise DimMismatchError("kraus group count does not match operator count")
        self.kraus_groups = kraus_groups
        self._memo = {}

    def _kept(self, key, build):
        """The memo's entry at key, made by `build()` on first use; if `build`
        raises, nothing is stored."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def __len__(self):
        return len(self._stacks[0])

    def part(self, j: int, alpha: int) -> np.ndarray:
        """Read-only view of operator j's part at party alpha."""
        return self._stacks[alpha][j]

    def stack(self, alpha: int) -> np.ndarray:
        """Read-only (N, d, d) array whose matrix j is part(j, alpha)."""
        return self._stacks[alpha]

    def same_ray(self, alpha: int, tol: float = LP_TOL) -> list[int]:
        """`same_ray_masks(stack(alpha), tol)`, found once per tolerance."""
        return self._kept(("same_ray", alpha, tol),
                          lambda: same_ray_masks(self.stack(alpha), tol))

    def verdicts(self, alpha: int, tol: float = PSD_TOL) -> tuple[list, list]:
        """Per part j of party alpha: zero, max|part| <= tol, and PSD by
        `psd_mask` at tol; found once per tolerance."""
        g = self.stack(alpha)
        return self._kept(("verdicts", alpha, tol), lambda: (
            (np.abs(g).max(axis=(1, 2)) <= tol).tolist(), psd_mask(g, tol).tolist()))

    def cone(self, alpha: int, psd: float = PSD_TOL) -> Cone:
        """The Cone of party alpha's parts, built once per tolerance. The first
        part `validate` flags at `psd` raises, with its diagnostic's text."""
        def build():
            for j, (zero, psd_ok) in enumerate(zip(*self.verdicts(alpha, psd))):
                where = f"operators[{j}].parts[{alpha}]"
                if zero:
                    raise ZeroOperatorError(f"{where}: {ZERO_PART}")
                if not psd_ok:
                    raise InvalidOperatorError(f"{where}: {NOT_PSD}")
            return Cone._unchecked(
                self.stack(alpha), np.ascontiguousarray(self.columns(alpha).T))
        return self._kept(("cone", alpha, psd), build)

    def columns(self, alpha: int) -> np.ndarray:
        """Read-only (N, d*d) table whose row j is vectorize(part(j, alpha))."""
        return self._kept(("columns", alpha),
                          lambda: _read_only(vectorize(self.stack(alpha))))

    def products(self) -> np.ndarray:
        """Read-only (N, D, D) array whose matrix j is the Kronecker product
        of operator j's parts in party order."""
        return self._kept("products", lambda: _read_only(tensor(self._stacks)))

    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def identity(self) -> np.ndarray:
        return np.eye(self.total_dim(), dtype=complex)

    def __repr__(self):
        return f"SeparableMeasurement(P={self.P}, dims={self.dims}, N={len(self)})"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def validate(m: SeparableMeasurement, tol: float = PSD_TOL) -> list[Diagnostic]:
    """All violated invariants as structured diagnostics; empty iff valid.

    The constructor has checked every part's shape and hermiticity, so only
    positivity and duplicates are left. A part is zero or not PSD by
    `m.verdicts`, which tests a party's parts at once and which `m.cone`
    reads too; a zero part is reported as zero only.
    Diagnostics follow operator order, then party order. Operator jp > j
    duplicates j when every part of jp is proportional to j's,
    `proportional(part(jp, a), part(j, a), tol)`. Only operators whose parts
    all passed are compared, so no part of a compared pair is zero at `tol`
    and `m.same_ray(a, tol)` answers every such pair as `proportional` would.

    The diagnostics are found once per measurement and `tol`; each call
    returns a new list of them.
    """
    return list(m._kept(("diagnostics", tol), lambda: tuple(_diagnose(m, tol))))


def _diagnose(m: SeparableMeasurement, tol: float) -> list[Diagnostic]:
    zero, psd = zip(*(m.verdicts(a, tol) for a in range(m.P)))
    out: list[Diagnostic] = []
    idx = []    # the operators with no diagnostic, compared for duplicates
    for j in range(len(m)):
        before = len(out)
        for a in range(m.P):
            where = f"operators[{j}].parts[{a}]"
            if zero[a][j]:
                out.append(Diagnostic("zero-part", where, ZERO_PART))
            elif not psd[a][j]:
                out.append(Diagnostic("not-psd", where, NOT_PSD))
        if len(out) == before:
            idx.append(j)
    # masks over all operators; only pairs of clean operators are read
    same = [-1] * len(m)
    for a in range(m.P):
        same = [s & t for s, t in zip(same, m.same_ray(a, tol))]
    for k, j in enumerate(idx):
        for jp in idx[k + 1:]:
            if same[j] >> jp & 1:
                out.append(Diagnostic("duplicate-product", f"operators[{jp}]",
                                      f"product proportional to operators[{j}]"))
    return out


def from_kraus(kraus_ops, labels=None, party_names=None) -> SeparableMeasurement:
    """Build a measurement from product Kraus operators.

    Entries whose positive parts are proportional party-by-party describe the
    same product operator; they collapse into one operator whose Kraus group
    retains every source entry for later lifting.
    """
    entries: list[KrausProduct] = []
    for i, raw in enumerate(kraus_ops):
        parts = []
        for a, k in enumerate(raw.parts if isinstance(raw, KrausProduct) else raw):
            k = np.asarray(k, dtype=complex)
            if k.ndim != 2 or k.shape[0] != k.shape[1]:
                raise InvalidOperatorError(
                    f"kraus[{i}].parts[{a}] must be a square matrix, got shape {k.shape}")
            if float(np.abs(k).max(initial=0.0)) <= LP_TOL:
                raise ZeroOperatorError(f"kraus[{i}].parts[{a}] is numerically zero")
            parts.append(k)
        entries.append(KrausProduct(tuple(parts)))
    if not entries:
        raise InvalidOperatorError("from_kraus needs at least one Kraus operator")
    P = len(entries[0].parts)
    dims = tuple(k.shape[0] for k in entries[0].parts)
    for i, e in enumerate(entries):
        if len(e.parts) != P or tuple(k.shape[0] for k in e.parts) != dims:
            raise DimMismatchError(f"kraus[{i}] has inconsistent party dimensions")

    positives = [e.positive_parts() for e in entries]
    # proportional refuses a zero operator at this tolerance
    for i, pos in enumerate(positives):
        for a, p in enumerate(pos):
            if float(np.abs(p).max()) <= LP_TOL:
                raise ZeroOperatorError(f"kraus[{i}].parts[{a}] has a numerically zero "
                                        "positive part")
    groups: list[list[int]] = []
    for i in range(len(entries)):
        for g in groups:
            rep = positives[g[0]]
            if all(proportional(positives[i][a], rep[a]) is not None for a in range(P)):
                g.append(i)
                break
        else:
            groups.append([i])

    ops = [positives[g[0]] for g in groups]
    kraus_groups = [tuple(entries[i] for i in g) for g in groups]
    if labels is None:
        labels = [f"M{j + 1}" for j in range(len(groups))]
    return SeparableMeasurement(ops, labels=labels, party_names=party_names,
                                kraus_groups=kraus_groups)


def completeness_certificate(m: SeparableMeasurement, delta: float = 1e-7,
                             tol: float = LP_TOL) -> CompletenessCertificate:
    """Strictly positive weights with sum_j w_j K_j = I, or InfeasibleError."""
    products = m.products()
    # column j is product j's coordinates; the copy keeps the LP matrix
    # C-contiguous, as BLAS sums the simplex's products in an order that
    # depends on the layout
    cols = np.ascontiguousarray(vectorize(products).T)
    target = vectorize(m.identity())
    w = feasible_point(cols, target, tol=tol, lower=delta)
    if w is None:
        raise InfeasibleError(
            "no strictly positive weights complete this measurement to the identity")
    total = sum(float(wj) * k for wj, k in zip(w, products))
    residual = float(np.abs(total - m.identity()).max(initial=0.0))
    return CompletenessCertificate(w, residual)


def measurement_from_parts(parts_lists, labels=None, party_names=None,
                           kraus_groups=None) -> SeparableMeasurement:
    """Convenience: build from [[party matrices] per operator]."""
    return SeparableMeasurement(parts_lists, labels=labels, party_names=party_names,
                                kraus_groups=kraus_groups)
