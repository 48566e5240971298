"""The separable-measurement input object.

A measurement is a list of product operators, one PSD part per party, with an
optional Kraus-level description. Completeness means the products admit
strictly positive weights summing to the identity; that certificate is an LP.

The checks work per party, on the read-only (N, d, d) stack of its parts
(`SeparableMeasurement.stack`): `validate` tests every part for zero and
PSD with one `eigvalsh` per party, and its diagnostics are kept on the
measurement per tolerance, so each part is checked once per tolerance.
`SeparableMeasurement.products` forms all Kronecker products as one stacked
product; each entry is the one product of part entries that `np.kron` forms,
so the stack, its vectorized columns and the completeness residual are bit
for bit those of the operators' products taken one at a time.
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
from .hermitian import (
    LP_TOL,
    PSD_TOL,
    HermitianOperator,
    asmat,
    proportional,
    psd_mask,
    same_ray_masks,
    tensor,
    vectorize,
)
from .simplex import feasible_point


@dataclasses.dataclass(frozen=True)
class ProductOperator:
    """One measurement outcome: a tuple of local PSD operators, one per party."""

    parts: tuple[HermitianOperator, ...]

    @property
    def mats(self) -> tuple[np.ndarray, ...]:
        return tuple(p.mat for p in self.parts)

    def product(self) -> np.ndarray:
        return tensor(self.mats)


@dataclasses.dataclass(frozen=True)
class KrausProduct:
    """A product Kraus operator: one complex square matrix per party."""

    parts: tuple[np.ndarray, ...]

    def positive_parts(self) -> tuple[np.ndarray, ...]:
        return tuple(k.conj().T @ k for k in self.parts)


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    kind: str   # "bad-part-count" | "dim-mismatch" | "not-psd" | "zero-part" | "duplicate-product" | "no-operators"
    where: str  # e.g. "operators[2].parts[1]"
    detail: str

    def __str__(self):
        return f"{self.kind} at {self.where}: {self.detail}"


@dataclasses.dataclass(frozen=True)
class CompletenessCertificate:
    weights: np.ndarray
    residual: float
    note: str = "weights need not be unique; any strictly positive solution certifies completeness"


def default_party_names(P: int) -> tuple[str, ...]:
    letters = string.ascii_uppercase
    if P <= len(letters):
        return tuple(letters[:P])
    return tuple(f"P{i + 1}" for i in range(P))


class SeparableMeasurement:
    """Immutable container for the operators, labels, and Kraus groups."""

    __slots__ = ("P", "dims", "ops", "labels", "party_names", "kraus_groups",
                 "_stacks", "_columns", "_products", "_diagnostics")

    def __init__(self, ops, labels=None, party_names=None, kraus_groups=None):
        built = []
        for op in ops:
            if isinstance(op, ProductOperator):
                built.append(op)
            else:
                built.append(ProductOperator(tuple(
                    p if isinstance(p, HermitianOperator) else HermitianOperator(p)
                    for p in op)))
        if not built:
            raise InvalidOperatorError("a measurement needs at least one operator")
        P = len(built[0].parts)
        if P < 1 or any(len(op.parts) == 0 for op in built):
            raise InvalidOperatorError("every operator needs at least one party part")
        self.P = P
        self.dims = tuple(p.dim for p in built[0].parts)
        self.ops = tuple(built)
        self.labels = tuple(labels) if labels is not None else tuple(
            f"M{j + 1}" for j in range(len(built)))
        if len(self.labels) != len(self.ops):
            raise InvalidOperatorError("label count does not match operator count")
        self.party_names = tuple(party_names) if party_names is not None else default_party_names(P)
        if len(self.party_names) != P:
            raise DimMismatchError("party name count does not match party count")
        if kraus_groups is not None:
            kraus_groups = tuple(tuple(g) for g in kraus_groups)
            if len(kraus_groups) != len(self.ops):
                raise DimMismatchError("kraus group count does not match operator count")
        self.kraus_groups = kraus_groups
        self._stacks = [None] * P
        self._columns = [None] * P
        self._products = None
        self._diagnostics = {}     # tol -> the diagnostics `validate` found

    def __len__(self):
        return len(self.ops)

    def part(self, j: int, alpha: int) -> np.ndarray:
        return self.ops[j].parts[alpha].mat

    def party_parts(self, alpha: int) -> list[np.ndarray]:
        return [op.parts[alpha].mat for op in self.ops]

    def stack(self, alpha: int) -> np.ndarray:
        """Read-only (N, d, d) array whose matrix j is part(j, alpha).

        Built on first use, as are `columns` and `products`, so a
        measurement whose parts disagree in dimension can still be
        constructed and reported by validate.
        """
        s = self._stacks[alpha]
        if s is None:
            s = np.array(self.party_parts(alpha))
            s.flags.writeable = False
            self._stacks[alpha] = s
        return s

    def columns(self, alpha: int) -> np.ndarray:
        """Read-only (N, d*d) table whose row j is vectorize(part(j, alpha))."""
        table = self._columns[alpha]
        if table is None:
            table = vectorize(self.stack(alpha))
            table.flags.writeable = False
            self._columns[alpha] = table
        return table

    def products(self) -> np.ndarray:
        """Read-only (N, D, D) array whose matrix j is ops[j].product()."""
        if self._products is None:
            prods = tensor([self.stack(a) for a in range(self.P)])
            prods.flags.writeable = False
            self._products = prods
        return self._products

    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def identity(self) -> np.ndarray:
        return np.eye(self.total_dim(), dtype=complex)

    def __repr__(self):
        return f"SeparableMeasurement(P={self.P}, dims={self.dims}, N={len(self.ops)})"


def validate(m: SeparableMeasurement, tol: float = PSD_TOL) -> list[Diagnostic]:
    """All violated invariants as structured diagnostics; empty iff valid.

    Per party, the parts of the operators with P parts, each of its party's
    dimension, are tested at once: zero when max|part| <= tol, else PSD by
    `psd_mask`. Diagnostics follow operator order, then party order.
    Operator jp > j duplicates j when every part of jp is proportional to
    j's, `proportional(part(jp, a), part(j, a), tol)`. Only operators whose
    parts all passed are compared, so no part is zero at `tol` and one
    `same_ray_masks` per party answers every pair as `proportional` would.

    The diagnostics are found once per measurement and `tol`; each call
    returns a new list of them.
    """
    found = m._diagnostics.get(tol)
    if found is None:
        found = m._diagnostics[tol] = tuple(_diagnose(m, tol))
    return list(found)


def _diagnose(m: SeparableMeasurement, tol: float) -> list[Diagnostic]:
    N = len(m.ops)
    if N == 0:
        return [Diagnostic("no-operators", "operators", "empty operator list")]
    whole = [j for j, op in enumerate(m.ops) if len(op.parts) == m.P]
    # per party and operator: the zero and PSD verdicts of a well-shaped part
    zero = np.zeros((m.P, N), dtype=bool)
    psd = np.ones((m.P, N), dtype=bool)
    for a in range(m.P):
        # operator 0 sets P and the dims, so it is always among them
        fits = [j for j in whole if m.ops[j].parts[a].dim == m.dims[a]]
        g = np.array([m.part(j, a) for j in fits])
        zero[a, fits] = np.abs(g).max(axis=(1, 2), initial=0.0) <= tol
        if m.dims[a]:   # 0 x 0 parts are zero, with no eigenvalue to test
            psd[a, fits] = psd_mask(g, tol)
    zero, psd = zero.tolist(), psd.tolist()
    out: list[Diagnostic] = []
    idx = []    # the operators with no diagnostic, compared for duplicates
    for j, op in enumerate(m.ops):
        if len(op.parts) != m.P:
            out.append(Diagnostic("bad-part-count", f"operators[{j}]",
                                  f"expected {m.P} parts, found {len(op.parts)}"))
            continue
        before = len(out)
        for a, p in enumerate(op.parts):
            where = f"operators[{j}].parts[{a}]"
            if p.dim != m.dims[a]:
                out.append(Diagnostic("dim-mismatch", where,
                                      f"dim {p.dim} != party dim {m.dims[a]}"))
            elif zero[a][j]:
                out.append(Diagnostic("zero-part", where, "local part is numerically zero"))
            elif not psd[a][j]:
                out.append(Diagnostic("not-psd", where, "local part has a negative eigenvalue"))
        if len(out) == before:
            idx.append(j)
    same = [-1] * len(idx)
    for a in range(m.P):
        same = [s & t for s, t in zip(same, same_ray_masks([m.part(j, a) for j in idx], tol))]
    for k, j in enumerate(idx):
        for kp in range(k + 1, len(idx)):
            if same[k] >> kp & 1:
                out.append(Diagnostic("duplicate-product", f"operators[{idx[kp]}]",
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
    groups: list[list[int]] = []
    for i in range(len(entries)):
        for g in groups:
            rep = positives[g[0]]
            if all(proportional(positives[i][a], rep[a]) is not None for a in range(P)):
                g.append(i)
                break
        else:
            groups.append([i])

    ops = [tuple(HermitianOperator(p) for p in positives[g[0]]) for g in groups]
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
    """Convenience: build from [[party matrices] per operator] without wrapping."""
    ops = [tuple(HermitianOperator(asmat(p)) for p in parts) for parts in parts_lists]
    return SeparableMeasurement(ops, labels=labels, party_names=party_names,
                                kraus_groups=kraus_groups)
