import functools

import numpy as np
import pytest

from loccforge.errors import (
    DimMismatchError,
    InfeasibleError,
    InvalidOperatorError,
    ZeroOperatorError,
)
from loccforge.hermitian import (
    HermitianOperator,
    proportional,
    psd_sqrt,
    tensor,
    vectorize,
)
from loccforge.measurement import (
    SeparableMeasurement,
    completeness_certificate,
    from_kraus,
    measurement_from_parts,
    validate,
)

from conftest import (
    load_fixture,
    product_basis,
    random_psd,
    random_valid_tree,
    random_witness_measurement,
)

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


def reference_duplicates(m, diags, tol):
    """The duplicate-product diagnostics of a pairwise `proportional` loop
    over the operators no other diagnostic names, in (j, jp) order."""
    named = {d.where.split("]")[0] + "]" for d in diags}
    usable = [f"operators[{j}]" not in named for j in range(len(m))]
    out = []
    for j in range(len(m)):
        for jp in range(j + 1, len(m)):
            if usable[j] and usable[jp] and all(
                    proportional(m.part(jp, a), m.part(j, a), tol) is not None
                    for a in range(m.P)):
                out.append(("duplicate-product", f"operators[{jp}]",
                            f"product proportional to operators[{j}]"))
    return out


def test_validate_duplicates_match_the_pairwise_loop():
    ms = [load_fixture(name) for name in
          ["cascade5", "domino9", "fourparty_aligned", "fourparty_mismatch",
           "krausdemo", "productbasis4", "singularpair3"]]
    ms += [random_valid_tree(np.random.default_rng(s))[1] for s in range(60)]
    rng = np.random.default_rng(7)
    ms += [random_witness_measurement(rng) for _ in range(20)]
    ms += [product_basis(3, 3), product_basis(2, 2, 2)]
    ms.append(measurement_from_parts(
        [[P0, (1 - 5e-9) * I2], [P0, 5e-9 * I2], [P1, I2]]))
    # duplicates beside parts that are not PSD at the tighter tolerances
    ms.append(measurement_from_parts(
        [[P0, P1], [2 * P0, 0.5 * P1], [np.diag([1.0, -5e-9]), P1],
         [P1, np.diag([1.0, -0.2])], [P1, P0], [3 * P1, P0], [P0, 2 * P1]]))
    dups = 0
    for m in ms:
        for tol in (1e-9, 1e-8, 1e-6):
            diags = validate(m, tol)
            rest = [d for d in diags if d.kind != "duplicate-product"]
            expected = reference_duplicates(m, rest, tol)
            assert [(d.kind, d.where, d.detail) for d in diags[len(rest):]] == expected
            dups += len(expected)
    assert dups > 0


def test_shape_errors_name_the_operator_or_part():
    """A ragged or 0-dim measurement cannot be built, so no later check
    meets one; the error names the first bad operator or part."""
    zero = np.zeros((0, 0))
    for parts, expected in [
        ([[P0, I2], [P1, np.eye(3)]],
         "operators[1].parts[1]: expected a 2 x 2 matrix, got shape (3, 3)"),
        ([[P0, I2], [P1]], "operators[1]: expected 2 parts, found 1"),
        ([[P0, I2], [P1, I2, I2]], "operators[1]: expected 2 parts, found 3"),
        ([[I2, zero], [I2, zero]],
         "operators[0].parts[1]: expected a square matrix of dim >= 1, got shape (0, 0)"),
        ([[np.ones((2, 3))], [I2]],
         "operators[0].parts[0]: expected a square matrix of dim >= 1, got shape (2, 3)"),
        ([[P0, I2], [P1, np.ones(2)]],
         "operators[1].parts[1]: expected a 2 x 2 matrix, got shape (2,)"),
    ]:
        with pytest.raises(DimMismatchError) as e:
            measurement_from_parts(parts)
        assert str(e.value) == expected


def test_non_hermitian_part_is_named():
    bad = np.array([[1.0, 1.0], [0.0, 1.0]])
    for build in (measurement_from_parts, SeparableMeasurement):
        with pytest.raises(InvalidOperatorError) as e:
            build([[P0, I2], [P1, bad], [bad, P0]])
        assert str(e.value) == ("operators[1].parts[1]: "
                                "matrix is not Hermitian within tolerance")


def test_parts_are_one_symmetrized_stack_per_party():
    """Raw arrays, HermitianOperators and another measurement's parts give
    the same measurement; every operator's part views its party's read-only
    stack."""
    rng = np.random.default_rng(3)
    raw = [[random_psd(rng, 2), random_psd(rng, 3)] for _ in range(4)]
    m = measurement_from_parts(raw)
    again = SeparableMeasurement([[HermitianOperator(p) for p in parts] for parts in raw])
    third = SeparableMeasurement([[m.part(j, a) for a in range(m.P)]
                                  for j in range(len(m))])
    for a in range(m.P):
        s = m.stack(a)
        assert not s.flags.writeable and s.shape == (4, m.dims[a], m.dims[a])
        assert again.stack(a).tobytes() == third.stack(a).tobytes() == s.tobytes()
        for j in range(len(m)):
            assert np.shares_memory(m.part(j, a), s)
            assert m.part(j, a).tobytes() == HermitianOperator(raw[j][a]).mat.tobytes()


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
    # a factor above the zero threshold whose positive part is below it
    with pytest.raises(ZeroOperatorError) as e:
        from_kraus([(P0, I2), (P1, I2), (1e-5 * I2, I2)])
    assert str(e.value) == "kraus[2].parts[0] has a numerically zero positive part"
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
        "n_operators": len(m),
        "party_ranks": [int(np.linalg.matrix_rank(m.columns(a), tol=1e-9))
                        for a in range(m.P)],
        "product_rank": int(np.linalg.matrix_rank(
            np.array([vectorize(functools.reduce(np.kron, [m.part(j, a) for a in range(m.P)]))
                      for j in range(len(m))]), tol=1e-9)),
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
