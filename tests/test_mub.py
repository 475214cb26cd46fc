"""Observable table, common eigenbases, unbiasedness, conversions."""

import numpy as np
import pytest

from mubwitness import mub, pauli


@pytest.fixture(scope="module")
def bases():
    return [mub.common_eigenbasis(row) for row in mub.mub_table()]


def test_table_shape_and_entries():
    rows = mub.mub_table()
    assert len(rows) == 9
    assert all(len(r.observables) == 7 for r in rows)
    assert rows[0].observables[0] == "XII"
    assert rows[5].observables == ("XYY", "YXY", "YYX", "XXX", "ZZI", "ZIZ", "IZZ")


def test_every_row_commutes():
    for row in mub.mub_table():
        assert mub.commuting_row(row), row.label


def test_every_row_closed_under_product():
    for row in mub.mub_table():
        assert mub.label_product_closed(row), row.label


def test_eigenbases_orthonormal(bases):
    for basis in bases:
        assert np.allclose(basis.conj() @ basis.T, np.eye(8), atol=1e-12)


def test_eigenbases_are_eigenvectors(bases):
    for row, basis in zip(mub.mub_table(), bases):
        for label in row.observables:
            m = pauli.pauli_matrix(label)
            for v in basis:
                mv = m @ v
                lam = v.conj() @ mv
                assert abs(abs(lam) - 1.0) < 1e-10
                assert np.max(np.abs(mv - lam * v)) < 1e-10


def test_row6_reproduces_ghz_basis(bases):
    ghz = pauli.ghz_basis()
    overlaps = np.abs(bases[5].conj() @ ghz.T)
    # permutation matrix of unit-modulus overlaps
    assert np.allclose(np.sort(overlaps.max(axis=1)), 1.0, atol=1e-10)
    assert int((overlaps > 0.5).sum()) == 8


def test_row6_eigenvalue_patterns_match_character_table(bases):
    # the eigenvalue pattern of each row-6 eigenvector under the seven
    # observables (ordered as the r coefficients) is a column of H
    columns = {tuple(pauli.H_MATRIX[1:, i]) for i in range(8)}
    seen = set()
    for v in bases[5]:
        pattern = []
        for label in pauli.R_OPERATORS:
            lam = float(np.real(v.conj() @ pauli.pauli_matrix(label) @ v))
            assert abs(abs(lam) - 1.0) < 1e-10
            pattern.append(int(round(lam)))
        assert tuple(pattern) in columns
        seen.add(tuple(pattern))
    assert len(seen) == 8


def test_row1_is_product_basis(bases):
    # |n_x n_y n_z>: eigenbasis of XII, IYI, IIZ
    x = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    y = np.array([[1, 1], [1j, -1j]]) / np.sqrt(2)
    z = np.eye(2)
    prods = []
    for cx in x.T:
        for cy in y.T:
            for cz in z.T:
                prods.append(np.kron(np.kron(cx, cy), cz))
    prods = np.array(prods)
    overlaps = np.abs(bases[0].conj() @ prods.conj().T)
    assert np.allclose(np.sort(overlaps.max(axis=1)), 1.0, atol=1e-10)


def test_all_36_pairs_unbiased(bases):
    for i in range(9):
        for j in range(i + 1, 9):
            assert mub.unbiasedness(bases[i], bases[j]), (i + 1, j + 1)


def test_unbiasedness_self_false(bases):
    assert not mub.unbiasedness(bases[5], bases[5])


def test_single_qubit_analogue():
    bz = np.eye(2)
    bx = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    overlaps = np.abs(bz.conj() @ bx.T)
    assert np.allclose(overlaps, 1 / np.sqrt(2), atol=1e-12)


def test_local_unitaries_swap_axes():
    cases = {
        "x<->z": ("X", "Z"),
        "y<->x": ("Y", "X"),
        "y<->z": ("Y", "Z"),
    }
    paulis = {c: pauli.PAULI_1Q[c] for c in "XYZ"}
    for kind, (a, b) in cases.items():
        u = mub.local_unitary(kind).u
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        conj_a = u @ paulis[a] @ u.conj().T
        conj_b = u @ paulis[b] @ u.conj().T
        assert np.allclose(conj_a, paulis[b], atol=1e-12) or np.allclose(
            conj_a, -paulis[b], atol=1e-12
        )
        assert np.allclose(conj_b, paulis[a], atol=1e-12) or np.allclose(
            conj_b, -paulis[a], atol=1e-12
        )


def test_transform_row6_to_row4_by_relabeling():
    rows = mub.mub_table()
    converted = mub.transform_row(rows[5], perm="z->x")
    assert mub.match_row(converted) == 3  # (xxx)_Gi


def test_transform_xzy_to_zzz_by_local_unitaries():
    rows = mub.mub_table()
    lus = (
        mub.local_unitary("x<->z"),
        mub.local_unitary("y<->x"),
        mub.local_unitary("y<->z"),
    )
    converted = mub.transform_row(rows[6], locals_=lus)
    assert mub.match_row(converted) == 5  # (zzz)_G
    # conversion preserves commutation of the signed set
    mats = [s * pauli.pauli_matrix(lbl) for s, lbl in converted]
    for i in range(7):
        for j in range(i + 1, 7):
            assert np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i])) < 1e-12


def test_transform_row_rejects_an_unknown_permutation():
    with pytest.raises(ValueError, match="'nope'.*z->x, z->y"):
        mub.transform_row(mub.mub_table()[5], perm="nope")


def test_transform_identity_is_noop():
    rows = mub.mub_table()
    out = mub.transform_row(rows[5])
    assert [lbl for _, lbl in out] == list(rows[5].observables)
    assert all(s == 1 for s, _ in out)


def test_conversion_preserves_unbiasedness(bases):
    # conjugating a whole basis by the local unitary keeps all overlaps flat
    lus = (
        mub.local_unitary("x<->z"),
        mub.local_unitary("y<->x"),
        mub.local_unitary("y<->z"),
    )
    full = np.kron(np.kron(lus[0].u, lus[1].u), lus[2].u)
    rotated = bases[6] @ full.conj().T
    for other in (0, 3, 5, 8):
        assert mub.unbiasedness(rotated, bases[other] @ full.conj().T)
