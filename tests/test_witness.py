"""Linear witness family, nonlinear envelope, and the product minimizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubwitness import pauli, ppt, witness
from mubwitness.classify import SEPARABLE_CONSTRUCTORS


def random_probs(rng, n):
    e = rng.exponential(1.0, size=(n, 8))
    return e / e.sum(axis=1, keepdims=True)


def ref_spec(psi):
    """The reference witness: outer minus on Z3, cosine pair (4,5)."""
    return witness.WitnessSpec(-1, 3, 1, ((4, 5), (6, 7)), psi)


# --- matrix form ------------------------------------------------------------


def test_witness_matrix_eq328_by_hand():
    psi = 0.7
    m = witness.witness_matrix(ref_spec(psi))
    hand = (
        pauli.pauli_matrix("III")
        - pauli.pauli_matrix("IZZ")
        + math.cos(psi) * (pauli.pauli_matrix("XXX") + pauli.pauli_matrix("XYY"))
        + math.sin(psi) * (pauli.pauli_matrix("YXY") + pauli.pauli_matrix("YYX"))
    )
    assert np.allclose(m, hand, atol=1e-15)


def test_witness_matrix_psi_zero_drops_sine_pair():
    w = witness.WitnessSpec(1, 1, 1, ((4, 5), (6, 7)), 0.0)
    hand = (
        pauli.pauli_matrix("III")
        + pauli.pauli_matrix("ZZI")
        + pauli.pauli_matrix("XXX")
        + pauli.pauli_matrix("XYY")
    )
    assert np.allclose(witness.witness_matrix(w), hand, atol=1e-15)


def test_all_specs_negative_eigenvalue_at_quarter_pi():
    for id_ in witness.all_family_ids():
        spec = id_.with_psi(math.pi / 4)
        assert witness.witness_eigenvalues(spec)[0] < -1e-8
        m = witness.witness_matrix(spec)
        assert np.allclose(m, m.conj().T)


def test_eigenvalue_table_matches_jacobi():
    rng = np.random.default_rng(0)
    for id_ in witness.all_family_ids()[::5]:
        spec = id_.with_psi(rng.uniform(0, 2 * math.pi))
        assert np.allclose(
            witness.witness_eigenvalues(spec),
            ppt.jacobi_eigenvalues(witness.witness_matrix(spec)),
            atol=1e-12,
        )


def test_family_id_count_and_labels():
    ids = witness.all_family_ids()
    assert len(ids) == 36
    assert len({id_.label for id_ in ids}) == 36
    assert witness.NonlinearFamilyId(1, 1, -1, ((4, 7), (5, 6))).label == "W+1,-(4,7),(5,6)"
    # partition canonicalization: sine pair listed first gets swapped
    flipped = witness.NonlinearFamilyId(1, 1, -1, ((5, 6), (4, 7)))
    assert flipped.partition == ((4, 7), (5, 6))


def test_bad_specs_rejected():
    with pytest.raises(ValueError):
        witness.NonlinearFamilyId(2, 1, 1, ((4, 5), (6, 7)))
    with pytest.raises(ValueError):
        witness.NonlinearFamilyId(1, 4, 1, ((4, 5), (6, 7)))
    with pytest.raises(ValueError):
        witness.NonlinearFamilyId(1, 1, 1, ((4, 4), (6, 7)))


@pytest.mark.parametrize("outer, z, partition", [
    (2, 1, ((4, 5), (6, 7))),
    (1, 9, ((4, 5), (6, 7))),
    (1, 1, ((4, 4), (6, 7))),
])
def test_witness_spec_checks_its_id_fields(outer, z, partition):
    with pytest.raises(ValueError):
        witness.WitnessSpec(outer, z, 1, partition, 0.3)


@pytest.mark.parametrize("psi", [math.nan, math.inf])
def test_witness_spec_rejects_a_non_finite_psi(psi):
    with pytest.raises(ValueError, match="psi must be a finite number"):
        witness.WitnessSpec(1, 1, 1, ((4, 5), (6, 7)), psi)
    with pytest.raises(ValueError, match="psi must be a finite number"):
        witness.all_family_ids()[0].with_psi(psi)


def test_witness_spec_is_its_id_plus_psi():
    spec = witness.WitnessSpec(-1, 3, -1, ((7, 4), (6, 5)), 0.25)
    assert isinstance(spec, witness.NonlinearFamilyId)
    assert spec.partition == ((4, 7), (5, 6))
    assert spec.label == "W-3,-(4,7),(5,6)@psi=0.25"


# --- expectations -----------------------------------------------------------


def test_expectation_uniform_is_one():
    for id_ in witness.all_family_ids()[:6]:
        assert abs(witness.expectation(id_.with_psi(0.3), np.ones(8) / 8) - 1.0) < 1e-14


def test_expectation_ghz_example():
    p = np.zeros(8)
    p[0] = 1.0
    w = witness.WitnessSpec(1, 1, 1, ((4, 5), (6, 7)), 0.0)
    # r = (1,1,1,1,-1,-1,-1): 1 + 1 + (r4 + r5) = 2
    assert abs(witness.expectation(w, p) - 2.0) < 1e-14


def test_expectation_matches_trace():
    rng = np.random.default_rng(1)
    ids = witness.all_family_ids()
    for p in random_probs(rng, 60):
        id_ = ids[rng.integers(36)]
        w = id_.with_psi(rng.uniform(0, 2 * math.pi))
        tr = float(np.real(np.trace(witness.witness_matrix(w) @ pauli.density_from_p(p))))
        assert abs(witness.expectation(w, p) - tr) < 1e-12


# --- optimal angle and envelope ---------------------------------------------


def test_optimal_psi_axis_cases():
    # engineered r with (a, b) = (1, 0): pair sums r4+r7 = 1, r5+r6 = 0
    id_ = witness.NonlinearFamilyId(1, 1, 1, ((4, 7), (5, 6)))
    r = np.array([0, 0, 0, 0.5, 0.3, -0.3, 0.5])
    assert abs(witness.optimal_psi(id_, r) - math.pi) < 1e-12
    r2 = np.array([0, 0, 0, 0.5, 0.5, 0.5, -0.5])  # (a, b) = (0, 1)
    assert abs(witness.optimal_psi(id_, r2) - 3 * math.pi / 2) < 1e-12


def test_optimal_psi_degenerate_convention():
    id_ = witness.NonlinearFamilyId(1, 1, 1, ((4, 7), (5, 6)))
    assert witness.optimal_psi(id_, np.zeros(7)) == 0.0


def test_envelope_attained_at_optimal_psi():
    rng = np.random.default_rng(2)
    ids = witness.all_family_ids()
    for p in random_probs(rng, 40):
        r = pauli.r_from_p(p)
        for id_ in ids[:: rng.integers(3, 7)]:
            psi = witness.optimal_psi(id_, r)
            val = witness.expectation(id_.with_psi(psi), p)
            assert abs(val - witness.nonlinear_value(id_, r)) < 1e-12


def test_nonlinear_value_examples():
    assert abs(witness.nonlinear_value(
        witness.NonlinearFamilyId(1, 1, 1, ((4, 5), (6, 7))), np.zeros(7)) - 1.0) < 1e-15
    # the category-1 worked instance
    r = pauli.r_from_p([0.2, 0, 0.2, 0, 0.2, 0.1, 0.18, 0.12])
    id_ = witness.NonlinearFamilyId(1, 1, -1, ((4, 7), (5, 6)))
    assert abs(witness.nonlinear_value(id_, r) - (0.8 - math.hypot(0.8, 0.08))) < 1e-14


def test_nonlinear_batch_matches_scalar():
    # np.hypot on the same parts: each table column is its id's value, bit for bit.
    rng = np.random.default_rng(3)
    ps = np.vstack([random_probs(rng, 30), np.full(8, 0.125), np.eye(8)]
                   + [fn(rng) for fn in SEPARABLE_CONSTRUCTORS.values() for _ in range(5)])
    rs = pauli.signed_sums(ps, pauli.SIGNS)
    table = witness.nonlinear_values_batch(rs)
    for row, r in enumerate(rs):
        got = [witness.nonlinear_value(id_, r) for id_ in witness.all_family_ids()]
        assert np.array_equal(np.array(got).view(np.int64), table[row].view(np.int64))


def test_envelope_equals_sampled_minimum():
    rng = np.random.default_rng(4)
    ps = random_probs(rng, 20)
    psis = np.linspace(0, 2 * math.pi, 4000, endpoint=False)
    for p in ps:
        r = pauli.r_from_p(p)
        for id_ in witness.all_family_ids()[::7]:
            vals = [witness.expectation(id_.with_psi(x), p) for x in psis[::40]]
            dense = min(
                witness.expectation(id_.with_psi(x), p) for x in psis
            )
            closed = witness.nonlinear_value(id_, r)
            assert dense >= closed - 1e-12
            assert dense - closed < 5e-6  # grid resolution bound


# --- product states ---------------------------------------------------------


def test_product_state_unit_norm():
    rng = np.random.default_rng(5)
    for _ in range(50):
        angles = rng.uniform(0, math.pi, 6)
        v = witness.product_state_vector(angles)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=6, max_size=6))
def test_product_state_vector_is_nested_kron_bit_for_bit(angles):
    q = [witness._qubit_state(angles[2 * k], angles[2 * k + 1]) for k in range(3)]
    want = np.kron(np.kron(q[0], q[1]), q[2])
    got = witness.product_state_vector(angles)
    assert got.shape == (8,) and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_product_expectation_matches_angular_form():
    # Closed angular expression for the reference family.  The sign of the
    # trigonometric product follows the matrix realization (phi1 enters as
    # psi + pi at the kernel); see the x/y observable expectations.
    rng = np.random.default_rng(6)
    for _ in range(300):
        psi = rng.uniform(0, 2 * math.pi)
        t1, t2, t3 = rng.uniform(0, math.pi, 3)
        f1, f2, f3 = rng.uniform(0, 2 * math.pi, 3)
        val = witness.product_expectation(ref_spec(psi), (t1, f1, t2, f2, t3, f3))
        angular = 1.0 - math.cos(t2) * math.cos(t3) + math.sin(t1) * math.sin(t2) * math.sin(t3) * (
            math.cos(psi) * math.cos(f1) * math.cos(f2 - f3)
            + math.sin(psi) * math.sin(f1) * math.sin(f2 + f3)
        )
        assert abs(val - angular) < 1e-12


def test_product_expectation_kernel_branch():
    # branch-(1) angles with theta2 = theta3 = pi/2 lie in the kernel
    # (phi1 = psi + pi under the matrix sign convention)
    psi = math.pi / 4
    angles = (math.pi / 2, psi + math.pi, math.pi / 2, math.pi / 4, math.pi / 2, math.pi / 4)
    assert abs(witness.product_expectation(ref_spec(psi), angles)) < 1e-12


def test_product_expectation_poles():
    for id_ in witness.all_family_ids()[:8]:
        w = id_.with_psi(0.9)
        val = witness.product_expectation(w, (0, 0, 0, 0, 0, 0))
        # <000| Z_i |000> = +1 for every i
        assert abs(val - (1.0 + w.outer_sign)) < 1e-12


def test_min_over_products_eq328_is_zero():
    for psi in (math.pi / 6, math.pi / 4, math.pi / 3, 2 * math.pi / 3):
        val, state = witness.min_over_products(ref_spec(psi))
        assert abs(val) < 1e-6
        assert abs(witness.product_expectation(ref_spec(psi), state) - val) < 1e-12


def test_min_over_products_scaled_family():
    # tripling the identity coefficient lifts the minimum to A0 - sqrt(A2^2+A3^2)
    psi = math.pi / 4
    m = (
        2.0 * pauli.pauli_matrix("III")
        - pauli.pauli_matrix("IZZ")
        + math.sqrt(2) * math.cos(psi) * (pauli.pauli_matrix("XXX") + pauli.pauli_matrix("XYY"))
        + math.sqrt(2) * math.sin(psi) * (pauli.pauli_matrix("YXY") + pauli.pauli_matrix("YYX"))
    )
    val, _ = witness.min_over_products(m)
    assert abs(val - (2.0 - math.sqrt(2.0))) < 1e-6


def test_raw_witness_matrix_is_checked_once_per_call(monkeypatch):
    with pytest.raises(ValueError, match="Hermitian"):
        witness.product_expectation(np.triu(np.ones((8, 8))), (0,) * 6)
    with pytest.raises(ValueError, match="finite"):
        witness.min_over_products(np.full((8, 8), np.nan))
    with pytest.raises(ValueError, match="8x8"):
        witness.min_over_products(np.eye(4))
    calls = []

    def counting_is_hermitian(m):
        calls.append(1)
        return pauli.is_hermitian(m)

    monkeypatch.setattr(witness, "is_hermitian", counting_is_hermitian)
    witness.min_over_products(witness.witness_matrix(ref_spec(0.3)))
    assert calls == [1]  # once for the call, not once per descent step


def test_min_over_products_all_ids_nonnegative():
    for id_ in witness.all_family_ids():
        for psi in (math.pi / 6, math.pi / 4, math.pi / 3):
            val, _ = witness.min_over_products(id_.with_psi(psi))
            assert val >= -1e-6


def test_separable_nonnegativity_random_products(validated_ids):
    # 1e5 random product states against every validated witness, vectorized
    rng = np.random.default_rng(7)
    n = 100_000
    thetas = rng.uniform(0, math.pi, size=(n, 3))
    phis = rng.uniform(0, 2 * math.pi, size=(n, 3))
    qs = []
    for k in range(3):
        qs.append(np.stack(
            [np.cos(thetas[:, k] / 2),
             np.exp(1j * phis[:, k]) * np.sin(thetas[:, k] / 2)], axis=1))
    vs = np.einsum("na,nb,nc->nabc", qs[0], qs[1], qs[2]).reshape(n, 8)
    worst = 0.0
    for id_ in validated_ids:
        m = witness.witness_matrix(id_.with_psi(math.pi / 4))
        vals = np.real(np.einsum("ni,ij,nj->n", vs.conj(), m, vs))
        worst = min(worst, float(vals.min()))
    assert worst >= -1e-10


def test_kernel_two_block_states():
    # |alpha>|00> + |beta>|11> has expectation -4 sin(psi) Im<beta|Y|alpha>;
    # it vanishes identically on the beta = alpha subfamily.
    rng = np.random.default_rng(8)
    y = np.array([[0, -1j], [1j, 0]])
    for _ in range(100):
        psi = rng.uniform(0.1, math.pi - 0.1)
        m = witness.witness_matrix(ref_spec(psi))
        alpha = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vec = np.zeros(8, dtype=complex)
        vec[0], vec[4] = alpha
        vec[3], vec[7] = beta
        norm2 = float(np.real(vec.conj() @ vec))
        got = float(np.real(vec.conj() @ m @ vec))
        predicted = -4.0 * math.sin(psi) * float(np.imag(beta.conj() @ y @ alpha))
        assert abs(got - predicted) < 1e-10
        vec_eq = np.zeros(8, dtype=complex)
        vec_eq[0], vec_eq[4] = alpha
        vec_eq[3], vec_eq[7] = alpha
        assert abs(np.real(vec_eq.conj() @ m @ vec_eq)) < 1e-10 * norm2


def test_scaling_covariance():
    rng = np.random.default_rng(9)
    spec = ref_spec(math.pi / 3)
    m = witness.witness_matrix(spec)
    for p in random_probs(rng, 20):
        base = float(np.real(np.trace(m @ pauli.density_from_p(p))))
        scaled = float(np.real(np.trace((2.5 * m) @ pauli.density_from_p(p))))
        assert abs(scaled - 2.5 * base) < 1e-12


# --- optimality -------------------------------------------------------------


def test_optimality_obstruction_ranks():
    assert witness.optimality_obstruction(math.pi / 4) == 4
    assert witness.optimality_obstruction(0.0) < 4
    assert witness.optimality_obstruction(math.pi) < 4
    for psi in (0.3, 1.0, 2.0, 2.8):
        assert witness.optimality_obstruction(psi) == 4


def test_optimality_obstruction_matches_numpy_rank():
    for psi in (0.0, math.pi / 5, math.pi / 2, math.pi, 4.0):
        e_m, e_p = np.exp(-1j * psi), np.exp(1j * psi)
        m = np.array(
            [[1, e_m, 1, e_m], [1, e_p, 1, e_p],
             [-1, e_m, 1, -e_m], [-1, e_p, 1, -e_p]]
        )
        assert witness.optimality_obstruction(psi) == np.linalg.matrix_rank(m, tol=1e-8)


def test_validate_ew():
    assert witness.validate_ew(ref_spec(math.pi / 4))
    # at psi = 0 the reference witness has no negative eigenvalue
    assert not witness.validate_ew(ref_spec(0.0))


def test_validated_ids_all_pass(validated_ids):
    assert len(validated_ids) == 36
