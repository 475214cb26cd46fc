"""Operator algebra and the p/r coordinate map."""

import numpy as np
import pytest

from mubwitness import pauli


def random_probs(rng, n):
    e = rng.exponential(1.0, size=(n, 8))
    return e / e.sum(axis=1, keepdims=True)


def test_pauli_matrix_identity():
    assert np.array_equal(pauli.pauli_matrix("III"), np.eye(8))


def test_pauli_matrix_zzi_diagonal():
    # Kronecker expansion by hand: signs of z1*z2 over the 8 basis states.
    expected = np.diag([1, 1, -1, -1, -1, -1, 1, 1]).astype(complex)
    assert np.array_equal(pauli.pauli_matrix("ZZI"), expected)


def test_pauli_matrix_xxx_antidiagonal():
    expected = np.fliplr(np.eye(8)).astype(complex)
    assert np.array_equal(pauli.pauli_matrix("XXX"), expected)


def test_pauli_matrix_rejects_bad_labels():
    with pytest.raises(ValueError):
        pauli.pauli_matrix("ABC")
    with pytest.raises(ValueError):
        pauli.pauli_matrix("XX")


def test_pauli_product_rejects_bad_labels():
    with pytest.raises(ValueError, match="invalid Pauli string 'X'"):
        pauli.pauli_product("XYZ", "X")  # zip would drop the last two labels
    with pytest.raises(ValueError, match="invalid Pauli string 'XQ'"):
        pauli.pauli_product("XQ", "XX")


def test_pauli_matrices_hermitian_unitary_traceless():
    rng = np.random.default_rng(0)
    labels = ["IXZ", "YYZ", "ZXY", "XII", "YZX"]
    for s in labels:
        m = pauli.pauli_matrix(s)
        assert np.allclose(m, m.conj().T)
        assert np.allclose(m @ m.conj().T, np.eye(8))
        assert abs(np.trace(m)) < 1e-14


def test_pauli_product_closure():
    rng = np.random.default_rng(1)
    labels = np.array(list("IXYZ"))
    for _ in range(50):
        a = "".join(rng.choice(labels, 3))
        b = "".join(rng.choice(labels, 3))
        phase, c = pauli.pauli_product(a, b)
        assert phase in (1, -1, 1j, -1j)
        assert np.allclose(
            pauli.pauli_matrix(a) @ pauli.pauli_matrix(b),
            phase * pauli.pauli_matrix(c),
        )


def test_ghz_basis_amplitudes():
    b = pauli.ghz_basis()
    s = 1 / np.sqrt(2)
    v1 = np.zeros(8, dtype=complex)
    v1[0] = v1[7] = s
    assert np.allclose(b[0], v1)
    v8 = np.zeros(8, dtype=complex)
    v8[3], v8[4] = s, -s
    assert np.allclose(b[7], v8)


def test_ghz_basis_orthonormal():
    b = pauli.ghz_basis()
    assert np.allclose(b.conj() @ b.T, np.eye(8), atol=1e-14)


def test_ghz_eigenvalue_patterns_match_character_table():
    # Each basis state is a +-1 eigenvector of the seven observables and the
    # sign pattern is the corresponding column of H.
    b = pauli.ghz_basis()
    for k, label in enumerate(pauli.R_OPERATORS, start=1):
        m = pauli.pauli_matrix(label)
        for i in range(8):
            expected = pauli.H_MATRIX[k, i]
            assert np.allclose(m @ b[i], expected * b[i], atol=1e-14)


def test_character_table_orthogonality_exact():
    hh = pauli.H_MATRIX @ pauli.H_MATRIX.T
    assert np.array_equal(hh, 8 * np.eye(8, dtype=np.int64))


def test_trace_orthogonality_of_operators():
    ops = [pauli.pauli_matrix("III")] + [pauli.pauli_matrix(s) for s in pauli.R_OPERATORS]
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            tr = np.trace(a @ b)
            assert np.isclose(tr, 8.0 if i == j else 0.0, atol=1e-13)


def test_r_from_p_uniform():
    assert np.allclose(pauli.r_from_p(np.ones(8) / 8), np.zeros(7), atol=1e-15)


def test_r_from_p_pure_ghz():
    p = np.zeros(8)
    p[0] = 1.0
    assert np.array_equal(pauli.r_from_p(p), [1, 1, 1, 1, -1, -1, -1])


def test_r_from_p_prototype_values():
    p = [0.043425, 0.15308, 0.016132, 0.19387, 0.059793, 0.24806, 0.18207, 0.10357]
    r = pauli.r_from_p(p)
    # Independent oracle: the signed sums written out longhand.
    r1 = (0.043425 + 0.15308 + 0.016132 + 0.19387
          - 0.059793 - 0.24806 - 0.18207 - 0.10357)
    r4 = (0.043425 - 0.15308 + 0.016132 - 0.19387
          + 0.059793 - 0.24806 + 0.18207 - 0.10357)
    assert abs(r[0] - r1) < 1e-15
    assert abs(r[3] - r4) < 1e-15
    assert abs(r[0] - (-0.186986)) < 1e-12
    assert abs(r[3] - (-0.397160)) < 1e-12


def test_p_from_r_examples():
    assert np.allclose(pauli.p_from_r(np.zeros(7)), np.ones(8) / 8)
    p = pauli.p_from_r([1, 1, 1, 1, -1, -1, -1])
    expected = np.zeros(8)
    expected[0] = 1.0
    assert np.allclose(p, expected, atol=1e-15)
    p2 = pauli.p_from_r([1, 1, 1, -1, 1, 1, 1])
    expected2 = np.zeros(8)
    expected2[1] = 1.0
    assert np.allclose(p2, expected2, atol=1e-15)


def test_p_from_r_rejects_off_simplex():
    with pytest.raises(ValueError):
        pauli.p_from_r(np.ones(7))


def test_p_r_round_trip():
    rng = np.random.default_rng(2)
    for p in random_probs(rng, 2000):
        r = pauli.r_from_p(p)
        assert np.max(np.abs(pauli.p_from_r(r) - p)) < 1e-14


def test_density_from_p_uniform_and_pure():
    assert np.allclose(pauli.density_from_p(np.ones(8) / 8), np.eye(8) / 8)
    p = np.zeros(8)
    p[0] = 1.0
    psi = pauli.ghz_basis()[0]
    assert np.allclose(pauli.density_from_p(p), np.outer(psi, psi.conj()))


def test_density_prototype_valid_state():
    p = [0.043425, 0.15308, 0.016132, 0.19387, 0.059793, 0.24806, 0.18207, 0.10357]
    rho = pauli.density_from_p(p)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-10


def test_density_constructions_agree():
    rng = np.random.default_rng(3)
    ps = random_probs(rng, 10_000)
    d1 = pauli.densities_from_p_batch(ps)
    # density_from_r via the operator expansion, batched by linearity
    ops = np.stack([pauli.pauli_matrix(s) for s in pauli.R_OPERATORS])
    rs = ps @ pauli.SIGNS.T
    d2 = (np.eye(8) + np.tensordot(rs, ops, axes=(1, 0))) / 8.0
    assert np.max(np.abs(d1 - d2)) < 1e-12


def test_probs_validation():
    with pytest.raises(ValueError):
        pauli.as_probs([0.5, 0.5])
    with pytest.raises(ValueError):
        pauli.as_probs([0.9, 0.2, 0, 0, 0, 0, 0, 0])  # sums to 1.1
    with pytest.raises(ValueError):
        pauli.as_probs([-0.1, 1.1, 0, 0, 0, 0, 0, 0])
