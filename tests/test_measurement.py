import numpy as np
import pytest

from loccforge.errors import (
    DimMismatchError,
    InfeasibleError,
    InvalidOperatorError,
    ZeroOperatorError,
)
from loccforge.hermitian import psd_sqrt, tensor, vectorize
from loccforge.measurement import (
    SeparableMeasurement,
    completeness_certificate,
    from_kraus,
    measurement_from_parts,
    validate,
)

from conftest import load_fixture, random_psd

P0 = np.diag([1.0, 0.0])
P1 = np.diag([0.0, 1.0])
I2 = np.eye(2)


def test_basic_construction_and_accessors():
    m = measurement_from_parts([[P0, I2], [P1, I2]], party_names=["A", "B"])
    assert m.P == 2 and m.dims == (2, 2) and len(m) == 2
    assert m.labels == ("M1", "M2")
    assert np.allclose(m.part(1, 0), P1)
    assert m.total_dim() == 4
    assert np.allclose(m.identity(), np.eye(4))


def test_party_columns_are_stacked_vectorizations(rng):
    m = measurement_from_parts([[random_psd(rng, 2), random_psd(rng, 3)]
                                for _ in range(4)])
    for a in range(m.P):
        table = m.columns(a)
        expected = np.array([vectorize(m.part(j, a)) for j in range(len(m))])
        assert table.shape == (4, m.dims[a] ** 2)
        assert table.tobytes() == expected.tobytes()
        assert m.columns(a) is table
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


def test_construction_rejects_empty_and_bad_labels():
    with pytest.raises(InvalidOperatorError):
        SeparableMeasurement([])
    with pytest.raises(InvalidOperatorError):
        measurement_from_parts([[P0, I2]], labels=["a", "b"])


def test_validate_clean_fixtures():
    for name in ["cascade5", "domino9", "productbasis4", "singularpair3",
                 "fourparty_aligned", "fourparty_mismatch", "krausdemo"]:
        assert validate(load_fixture(name)) == []


def test_validate_flags_not_psd():
    m = measurement_from_parts([[np.diag([1.0, -0.2]), I2], [I2, I2]])
    diags = validate(m)
    assert any(d.kind == "not-psd" and "operators[0]" in d.where for d in diags)


def test_validate_flags_duplicates():
    m = measurement_from_parts([[P0, P1], [2 * P0, 0.5 * P1], [P1, P0]])
    diags = validate(m)
    assert any(d.kind == "duplicate-product" for d in diags)


def test_validate_compares_tiny_parts_at_its_own_tolerance():
    # 5e-9 is above validate's zero-part tolerance and below proportional's
    # default one
    m = measurement_from_parts([[P0, (1 - 5e-9) * I2], [P0, 5e-9 * I2], [P1, I2]])
    assert [(d.kind, d.where) for d in validate(m)] == [
        ("duplicate-product", "operators[1]")]


def test_validate_flags_part_count_and_dims():
    m = SeparableMeasurement([[P0, I2], [P1, np.eye(3)]])
    kinds = {d.kind for d in validate(m)}
    assert "dim-mismatch" in kinds
    m = SeparableMeasurement([[P0, I2], [P1]])
    kinds = {d.kind for d in validate(m)}
    assert "bad-part-count" in kinds


def test_from_kraus_groups_duplicates():
    m = load_fixture("krausdemo")
    assert [len(g) for g in m.kraus_groups] == [2, 1, 1]
    # the stored operator is exactly the first entry's positive parts
    k0 = m.kraus_groups[0][0]
    for a, pos in enumerate(k0.positive_parts()):
        assert np.abs(m.part(0, a) - pos).max() < 1e-12


def test_from_kraus_rejects_zero_and_mismatched():
    with pytest.raises(ZeroOperatorError):
        from_kraus([(np.zeros((2, 2)), I2)])
    with pytest.raises(DimMismatchError):
        from_kraus([(P0, I2), (P0, np.eye(3))])


def test_from_kraus_regrouping_is_idempotent():
    m = load_fixture("krausdemo")
    flat = [kp for g in m.kraus_groups for kp in g]
    m2 = from_kraus(flat, party_names=m.party_names)
    assert [len(g) for g in m2.kraus_groups] == [len(g) for g in m.kraus_groups]
    for j in range(len(m)):
        for a in range(m.P):
            assert np.abs(m.part(j, a) - m2.part(j, a)).max() < 1e-12


def test_completeness_certificate_cascade5():
    m = load_fixture("cascade5")
    cert = completeness_certificate(m)
    assert (cert.weights > 0).all()
    total = sum(w * tensor([m.part(j, a) for a in range(m.P)])
                for j, w in enumerate(cert.weights))
    assert np.abs(total - m.identity()).max() <= 1e-8
    assert cert.residual <= 1e-8


def test_completeness_failure():
    m = load_fixture("fourparty_mismatch")
    with pytest.raises(InfeasibleError):
        completeness_certificate(m)


def test_completeness_random_povm(rng):
    # random POVMs (one-party splits of the identity) are complete by design
    for _ in range(20):
        d = int(rng.integers(2, 4))
        blocks = [random_psd(rng, d) + 0.1 * np.eye(d) for _ in range(3)]
        s = sum(blocks)
        w, u = np.linalg.eigh(s)
        s_isqrt = (u / np.sqrt(w)) @ u.conj().T
        ops = [[s_isqrt @ b @ s_isqrt, np.eye(2)] for b in blocks]
        completeness_certificate(measurement_from_parts(ops))


def affine_rank_report(m):
    """Rank structure of the stacked vectorized parts, per party and for full
    products: confirms a fixture carries no linear constraints beyond the
    intended ones."""
    return {
        "n_operators": len(m.ops),
        "party_ranks": [int(np.linalg.matrix_rank(m.columns(a), tol=1e-9))
                        for a in range(m.P)],
        "product_rank": int(np.linalg.matrix_rank(
            np.array([vectorize(op.product()) for op in m.ops]), tol=1e-9)),
    }


def test_affine_rank_report_cascade5():
    m = load_fixture("cascade5")
    rep = affine_rank_report(m)
    assert rep["n_operators"] == 5
    assert rep["party_ranks"] == [3, 2]


def test_krausdemo_is_complete_with_unit_weights():
    m = load_fixture("krausdemo")
    total = sum(tensor([m.part(j, a) for a in range(m.P)]) for j in range(3))
    assert np.abs(total - np.eye(4)).max() < 1e-12


def test_trivial_sqrt_groups_reconstruct():
    m = load_fixture("cascade5")
    ops = [[psd_sqrt(m.part(j, a)) for a in range(m.P)] for j in range(len(m))]
    m2 = from_kraus(ops, party_names=m.party_names)
    assert len(m2) == 5
    for j in range(5):
        for a in range(2):
            assert np.abs(m2.part(j, a) - m.part(j, a)).max() < 1e-9
