"""The stacked front-end checks against per-part references.

The library tests hermiticity, positivity and zero parts once per party
stack (or cone), and forms all Kronecker products as one stacked product.
The references here apply the same formulas one matrix at a time, as the
checks were written before they were stacked, and must agree exactly:
verdicts, diagnostics, errors, and the bits of the products and residuals.
"""
import functools
import json

import numpy as np
import pytest

from loccforge.cones import Cone
from loccforge.errors import (
    DimMismatchError,
    InvalidOperatorError,
    ParseError,
    ZeroOperatorError,
)
from loccforge.hermitian import (
    HERM_TOL,
    LP_TOL,
    PSD_TOL,
    HermitianOperator,
    is_hermitian,
    is_psd,
    vectorize,
)
from loccforge.io import parse_document, parse_measurement
from loccforge.measurement import (
    SeparableMeasurement,
    completeness_certificate,
    measurement_from_parts,
    validate,
)
from loccforge.simplex import feasible_point
from loccforge.synthesis import synthesize
from loccforge.tree import align_weights

from conftest import random_hermitian, random_psd, random_valid_tree

P0 = np.diag([1.0, 0.0])
P1 = np.diag([0.0, 1.0])
I2 = np.eye(2)
TOLS = (1e-10, 1e-9, 1e-8, 1e-6)


def ref_is_hermitian(m, tol=HERM_TOL):
    scale = 1.0 + float(np.abs(m).max(initial=0.0))
    return float(np.abs(m - m.conj().T).max(initial=0.0)) <= tol * scale


def ref_is_psd(m, tol=PSD_TOL):
    w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    radius = max(abs(float(w[0])), abs(float(w[-1])))
    return float(w[0]) >= -tol * max(1.0, radius)


def ref_diagnostics(m, tol):
    """validate's diagnostics other than duplicates, part by part."""
    out = []
    for j in range(len(m)):
        for a in range(m.P):
            p = m.part(j, a)
            where = f"operators[{j}].parts[{a}]"
            if float(np.abs(p).max(initial=0.0)) <= tol:
                out.append(("zero-part", where, "local part is numerically zero"))
            elif not ref_is_psd(p, tol):
                out.append(("not-psd", where, "local part has a negative eigenvalue"))
    return out


def ref_construction_error(ops):
    """(type, message) the part-by-part measurement checks raise, or None:
    shapes first, then hermiticity, each in operator order."""
    P = len(ops[0])
    dims = [g.shape[0] if g.ndim == 2 and g.shape[0] == g.shape[1] else 0
            for g in ops[0]]
    for j, parts in enumerate(ops):
        if len(parts) != P:
            return DimMismatchError, f"operators[{j}]: expected {P} parts, found {len(parts)}"
        for a, g in enumerate(parts):
            if not dims[a]:
                return DimMismatchError, (f"operators[{j}].parts[{a}]: expected a square "
                                          f"matrix of dim >= 1, got shape {g.shape}")
            if g.shape != (dims[a], dims[a]):
                return DimMismatchError, (f"operators[{j}].parts[{a}]: expected a "
                                          f"{dims[a]} x {dims[a]} matrix, got shape {g.shape}")
    for j, parts in enumerate(ops):
        for a, g in enumerate(parts):
            if not ref_is_hermitian(g):
                return InvalidOperatorError, (f"operators[{j}].parts[{a}]: "
                                              "matrix is not Hermitian within tolerance")
    return None


def ref_cone_error(generators, tol):
    """(type, message) the cone of the one-party measurement holding the
    generators raises, or None: the constructor's shape and hermiticity
    errors, then the first generator validate flags at tol, as zero before
    as not PSD, each symmetrized as the constructor keeps it."""
    mats = [np.asarray(g, dtype=complex) for g in generators]
    error = ref_construction_error([[g] for g in mats])
    if error is not None:
        return error
    for j, g in enumerate(mats):
        sym = (g + g.conj().T) / 2.0
        where = f"operators[{j}].parts[0]"
        if float(np.abs(sym).max(initial=0.0)) <= tol:
            return ZeroOperatorError, f"{where}: local part is numerically zero"
        if not ref_is_psd(sym, tol):
            return InvalidOperatorError, f"{where}: local part has a negative eigenvalue"
    return None


def unitary(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


def edge_psd(rng, d, tol, radius, factor):
    """A Hermitian part whose smallest eigenvalue is -factor * tol * max(1,
    radius) and whose largest is radius, in a random basis."""
    if d == 1:
        return np.array([[-factor * tol]])
    w = np.concatenate([[-factor * tol * max(1.0, radius)],
                        rng.random(d - 2) * radius, [radius]])
    u = unitary(rng, d)
    return (u * w) @ u.conj().T


def edge_hermitian(rng, d, factor):
    """A part whose anti-Hermitian error is factor * HERM_TOL * (1 + max|M|)."""
    h = random_hermitian(rng, d) + 1j * 0.0
    for _ in range(3):  # the scale depends on the perturbation, slightly
        h[0, d - 1] = h[d - 1, 0].conj() + factor * HERM_TOL * (1.0 + np.abs(h).max())
    return h


def random_part(rng, d, tol):
    kind = rng.integers(6)
    if kind == 0:
        return random_psd(rng, d, rank=int(rng.integers(1, d + 1)))
    if kind == 1:   # at the zero threshold
        return tol * (1.0 + rng.choice([-1e-6, 0.0, 1e-6])) * np.diag(
            np.eye(d)[int(rng.integers(d))])
    if kind == 2:   # at the PSD threshold, radius below or above 1
        return edge_psd(rng, d, tol, rng.choice([0.25, 1.0, 3.0]),
                        1.0 + rng.choice([-1e-6, 1e-6]))
    if kind == 3:   # both zero and not PSD at tol
        return -tol * np.ones((d, d))
    if kind == 4:
        return random_hermitian(rng, d)
    return np.zeros((d, d))


def test_single_matrix_checks_match_the_references(rng):
    for _ in range(400):
        d = int(rng.integers(1, 5))
        tol = float(rng.choice(TOLS))
        m = edge_hermitian(rng, d, 1.0 + rng.choice([-1e-6, 1e-6])) if d > 1 \
            else random_hermitian(rng, 1)
        assert is_hermitian(m) == ref_is_hermitian(m)
        p = random_part(rng, d, tol)
        assert is_psd(p, tol) == ref_is_psd(p, tol)
        assert HermitianOperator(p).is_psd(tol) == ref_is_psd(p, tol)


def test_validate_matches_the_per_part_loop(rng):
    seen = set()
    for _ in range(300):
        tol = float(rng.choice(TOLS))
        P = int(rng.integers(1, 4))
        dims = [int(rng.integers(1, 4)) for _ in range(P)]
        ops = [[random_psd(rng, d) + np.eye(d) for d in dims]]
        for _ in range(int(rng.integers(1, 8))):
            ops.append([random_part(rng, d, tol) for d in dims])
        m = SeparableMeasurement(ops)
        diags = [(d.kind, d.where, d.detail) for d in validate(m, tol)]
        expected = ref_diagnostics(m, tol)
        assert diags[:len(expected)] == expected
        assert all(kind == "duplicate-product" for kind, _, _ in diags[len(expected):])
        seen.update(kind for kind, _, _ in expected)
    assert seen == {"zero-part", "not-psd"}


def test_validate_edges_of_both_tolerances():
    tol = 1e-9
    parts = [
        [I2, I2],
        [tol * P0, I2],                          # zero at tol
        [(1 + 1e-6) * tol * P0, I2],              # just not zero
        [np.diag([0.5, -(1 - 1e-6) * tol]), I2],  # radius below 1, inside
        [np.diag([0.5, -(1 + 1e-6) * tol]), I2],  # radius below 1, outside
        [np.diag([3.0, -(1 - 1e-6) * 3 * tol]), I2],
        [np.diag([3.0, -(1 + 1e-6) * 3 * tol]), I2],
        [I2, -tol * np.ones((2, 2))],            # zero and not PSD: zero wins
    ]
    m = measurement_from_parts(parts)
    diags = [(d.kind, d.where) for d in validate(m, tol)]
    assert diags[:4] == [("zero-part", "operators[1].parts[0]"),
                         ("not-psd", "operators[4].parts[0]"),
                         ("not-psd", "operators[6].parts[0]"),
                         ("zero-part", "operators[7].parts[1]")]
    assert [(d.kind, d.where, d.detail) for d in validate(m, tol)][:4] == \
        ref_diagnostics(m, tol)


def test_constructor_raises_what_the_part_loop_raises(rng):
    """Ragged, 0-dim and non-Hermitian library input: the error is the
    first the part-by-part checks find; clean input is the symmetrized parts."""
    raised = set()
    for _ in range(400):
        P = int(rng.integers(1, 4))
        dims = [int(rng.integers(1, 4)) for _ in range(P)]
        ops = []
        for _ in range(int(rng.integers(1, 6))):
            r = rng.random()
            if r < 0.05:    # a part too few or too many
                n = P - 1 if P > 1 and rng.random() < 0.5 else P + 1
                ops.append([random_psd(rng, 2) for _ in range(n)])
            elif r < 0.1:   # a part of another dimension, or of none
                ops.append([np.zeros((0, 0)) if rng.random() < 0.3 else
                            random_psd(rng, d + 1) for d in dims])
            else:
                ops.append([edge_hermitian(rng, d, 1.0 + rng.choice([-1e-6, 1e-6]))
                            if d > 1 and rng.random() < 0.1 else random_psd(rng, d)
                            for d in dims])
        expected = ref_construction_error(ops)
        if expected is None:
            m = SeparableMeasurement(ops)
            for j, parts in enumerate(ops):
                for a, p in enumerate(parts):
                    assert m.part(j, a).tobytes() == ((p + p.conj().T) / 2.0).tobytes()
            continue
        with pytest.raises(Exception) as e:
            SeparableMeasurement(ops)
        assert (type(e.value), str(e.value)) == expected
        raised.add(type(e.value))
    assert raised == {DimMismatchError, InvalidOperatorError}


def document(ops, dims):
    return json.dumps({
        "format": "loccforge.measurement/1",
        "parties": [{"name": f"P{a}", "dim": d} for a, d in enumerate(dims)],
        "operators": [{"label": f"M{j}", "parts": [
            [[[float(z.real), float(z.imag)] for z in row] for row in part]
            for part in parts]} for j, parts in enumerate(ops)]})


def test_parse_names_the_first_part_that_is_not_hermitian(rng):
    errors = 0
    for _ in range(200):
        P = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 4)) for _ in range(P)]
        ops = [[edge_hermitian(rng, d, 1.0 + rng.choice([-1e-6, 1e-6]))
                if rng.random() < 0.15 else random_psd(rng, d) for d in dims]
               for _ in range(int(rng.integers(1, 6)))]
        text = document(ops, dims)
        # the matrices as the document gives them back
        ops = [[np.array([[complex(*z) for z in row] for row in part])
                for part in op["parts"]] for op in json.loads(text)["operators"]]
        first = next(((j, a) for j, parts in enumerate(ops)
                      for a, p in enumerate(parts) if not ref_is_hermitian(p)), None)
        if first is None:
            m = parse_document(text)
            for j, parts in enumerate(ops):
                for a, p in enumerate(parts):
                    assert m.part(j, a).tobytes() == ((p + p.conj().T) / 2.0).tobytes()
                    assert not m.part(j, a).flags.writeable
            continue
        with pytest.raises(ParseError) as e:
            parse_document(text)
        assert str(e.value) == (f"operators[{first[0]}].parts[{first[1]}]: "
                                "matrix is not Hermitian within tolerance")
        assert e.value.kind == "shape"
        errors += 1
    assert errors > 20


def test_cone_raises_what_the_generator_loop_raises(rng):
    raised = set()
    for _ in range(400):
        tol = float(rng.choice(TOLS))
        d = int(rng.integers(2, 4))
        gens = []
        for _ in range(int(rng.integers(1, 6))):
            r = rng.random()
            if r < 0.08:
                gens.append(random_psd(rng, d + 1))
            elif r < 0.16:
                gens.append(edge_hermitian(rng, d, 1.0 + rng.choice([-1e-6, 1e-6])))
            elif r < 0.5:
                gens.append(random_part(rng, d, tol))
            else:
                gens.append(random_psd(rng, d))
        expected = ref_cone_error(gens, tol)
        if expected is None:
            c = Cone(gens, tol)
            sym = [(x + x.conj().T) / 2.0
                   for x in (np.asarray(g, dtype=complex) for g in gens)]
            assert all(g.tobytes() == x.tobytes() for g, x in zip(c.generators, sym))
            ref = np.column_stack([vectorize(x) for x in sym])
            assert c._vecs.flags.c_contiguous and c._vecs.tobytes() == ref.tobytes()
            continue
        with pytest.raises(Exception) as e:
            Cone(gens, tol)
        assert (type(e.value), str(e.value)) == expected
        detail = expected[1].split(": ", 1)[1]
        raised.add((expected[0], "shape" if detail.startswith("expected") else detail))
    assert {t for t, _ in raised} == {DimMismatchError, InvalidOperatorError,
                                      ZeroOperatorError}
    assert len(raised) == 4


def three_party_instances():
    """Seeded random LOCC trees of three parties, each with its measurement
    and assignment; seed 2 is the benchmark's tree02."""
    out = []
    for seed in range(12):
        t, m, x = random_valid_tree(np.random.default_rng(seed), max_parties=3,
                                    max_dim=3, depth=4)
        if m.P == 3 and not validate(m):
            out.append((seed, t, m, x))
    return out


def test_products_and_residuals_are_those_of_np_kron():
    instances = three_party_instances()
    assert 2 in [seed for seed, *_ in instances]
    for seed, t, m, x in instances:
        products = [functools.reduce(np.kron, [m.part(j, a) for a in range(m.P)])
                    for j in range(len(m))]
        assert m.products().tobytes() == np.array(products).tobytes()
        cols = np.column_stack([vectorize(k) for k in products])
        w = feasible_point(cols, vectorize(m.identity()), tol=LP_TOL, lower=1e-7)
        total = sum(float(wj) * k for wj, k in zip(w, products))
        cert = completeness_certificate(m)
        assert cert.weights.tobytes() == w.tobytes(), seed
        assert cert.residual.hex() == float(np.abs(total - m.identity()).max()).hex(), seed
        weights, residual = align_weights(t, m, x)
        total = sum(wj * k for wj, k in zip(weights, products))
        assert residual.hex() == float(np.abs(total - m.identity()).max()).hex(), seed


def test_validate_is_kept_per_tolerance():
    m = measurement_from_parts([[np.diag([1.0, -5e-9]), I2], [P1, I2]])
    assert validate(m, 1e-8) == []
    loose = validate(m, 1e-8)
    loose.append("junk")
    tight = validate(m, 1e-10)
    assert [(d.kind, d.where) for d in tight] == [("not-psd", "operators[0].parts[0]")]
    tight.clear()
    assert validate(m, 1e-8) == []
    assert [(d.kind, d.where) for d in validate(m, 1e-10)] == [
        ("not-psd", "operators[0].parts[0]")]
    assert validate(m, 1e-10) is not validate(m, 1e-10)
    # the other order, on a fresh measurement
    m = measurement_from_parts([[np.diag([1.0, -5e-9]), I2], [P1, I2]])
    assert len(validate(m, 1e-10)) == 1
    assert validate(m, 1e-8) == []


def test_synthesize_validates_a_parsed_measurement_once(monkeypatch):
    import loccforge.measurement as measurement

    calls = []
    diagnose = measurement._diagnose
    monkeypatch.setattr(measurement, "_diagnose",
                        lambda m, tol: calls.append(tol) or diagnose(m, tol))
    m = parse_measurement(document([[P0, I2], [P1, P0], [P1, P1]], (2, 2)))
    assert synthesize(m).kind == "Protocol"
    assert calls == [PSD_TOL]
