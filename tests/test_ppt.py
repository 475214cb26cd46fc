"""PPT inequalities, the eigenvalue oracle, exact LP, and region scans."""

import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubwitness import pauli, ppt
from mubwitness.classify import SEPARABLE_CONSTRUCTORS


def random_probs(rng, n):
    e = rng.exponential(1.0, size=(n, 8))
    return e / e.sum(axis=1, keepdims=True)


PROTOTYPE = np.array(
    [0.043425, 0.15308, 0.016132, 0.19387, 0.059793, 0.24806, 0.18207, 0.10357]
)


# --- partial transpose ------------------------------------------------------


def test_partial_transpose_identity_invariant():
    for q in (1, 2, 3):
        assert np.allclose(ppt.partial_transpose(np.eye(8) / 8, q), np.eye(8) / 8)


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = (a + a.conj().T) / 2
    for q in (1, 2, 3):
        t = ppt.partial_transpose(h, q)
        assert np.allclose(ppt.partial_transpose(t, q), h, atol=1e-15)
        assert np.isclose(np.trace(t), np.trace(h))


def test_partial_transpose_moves_ghz_coherence():
    # Index oracle: transposing qubit 3 maps the (000,111) coherence to (001,110).
    rho = pauli.density_from_p([0.6, 0.2, 0.1, 0.1, 0, 0, 0, 0])
    t3 = ppt.partial_transpose(rho, 3)
    assert np.isclose(t3[1, 6], rho[0, 7])
    assert np.isclose(t3[0, 7], rho[1, 6])


def test_partial_transpose_ghz_negative():
    p = np.zeros(8)
    p[0] = 1.0
    t = ppt.partial_transpose(pauli.density_from_p(p), 3)
    assert abs(ppt.min_eigenvalue(t) - (-0.5)) < 1e-10


def test_partial_transpose_bad_qubit():
    with pytest.raises(ValueError):
        ppt.partial_transpose(np.eye(8), 0)


# --- Jacobi eigenvalues -----------------------------------------------------


def test_min_eigenvalue_trivial():
    assert abs(ppt.min_eigenvalue(np.eye(8)) - 1.0) < 1e-12
    assert abs(ppt.min_eigenvalue(np.diag(np.arange(1.0, 9.0))) - 1.0) < 1e-12


def test_min_eigenvalue_rejects_non_hermitian():
    m = np.zeros((8, 8), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        ppt.min_eigenvalue(m)


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((300, 8, 8)) + 1j * rng.standard_normal((300, 8, 8))
    h = (a + a.conj().transpose(0, 2, 1)) / 2
    mine = ppt._jacobi_batch(h)
    ref = np.sort(np.linalg.eigvalsh(h), axis=1)
    assert np.max(np.abs(mine - ref)) < 1e-11


def test_jacobi_small_dimension():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((20, 4, 4)) + 1j * rng.standard_normal((20, 4, 4))
    h = (a + a.conj().transpose(0, 2, 1)) / 2
    assert np.max(np.abs(ppt._jacobi_batch(h) - np.sort(np.linalg.eigvalsh(h), 1))) < 1e-12


def _cyclic_jacobi_reference(mats, sweeps=14, tol=1e-14):
    """The pair-by-pair cyclic Jacobi loop, (0, 1), (0, 2), ..., (d-2, d-1)."""
    a = np.array(mats, dtype=complex)
    n, d, _ = a.shape
    scale = max(1.0, float(np.max(np.abs(a))))
    for _ in range(sweeps):
        off = np.max(np.abs(a - np.einsum("nij,ij->nij", a, np.eye(d))))
        if off <= tol * scale:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[:, p, q]
                aabs = np.abs(apq)
                active = aabs > tol * scale * 1e-2
                if not np.any(active):
                    continue
                safe = np.where(active, aabs, 1.0)
                phase = np.where(active, apq / safe, 1.0)
                app = a[:, p, p].real
                aqq = a[:, q, q].real
                tau = (aqq - app) / (2.0 * safe)
                t = np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                t = np.where(tau == 0.0, 1.0, t)
                t = np.where(active, t, 0.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, :, p].copy()
                col_q = a[:, :, q].copy()
                a[:, :, p] = c[:, None] * col_p - (s * np.conj(phase))[:, None] * col_q
                a[:, :, q] = (s * phase)[:, None] * col_p + c[:, None] * col_q
                row_p = a[:, p, :].copy()
                row_q = a[:, q, :].copy()
                a[:, p, :] = c[:, None] * row_p - (s * phase)[:, None] * row_q
                a[:, q, :] = (s * np.conj(phase))[:, None] * row_p + c[:, None] * row_q
    return np.sort(np.einsum("nii->ni", a).real, axis=1)


def _bits(x):
    """Raw float64 bits, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(x, dtype=float).view(np.int64).tolist()


@st.composite
def _oracle_states(draw):
    """A stack of states: every separable family, flat draws, pure GHZ states and I/8."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = [fn(rng) for fn in SEPARABLE_CONSTRUCTORS.values()]
    states += list(random_probs(rng, 4))
    states.append(np.eye(8)[draw(st.integers(0, 7))])
    states.append(np.full(8, 0.125))
    return np.array(states)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_oracle_states())
def test_round_robin_oracle_matches_cyclic_bit_for_bit(ps):
    for p in ps:
        rho = pauli.density_from_p(p)
        stack = np.stack([ppt.partial_transpose(rho, q) for q in (1, 2, 3)])
        ref = _cyclic_jacobi_reference(stack)
        assert _bits(ppt._jacobi_batch(stack)) == _bits(ref), p.tolist()
        assert _bits(ppt.pt_min_eigenvalues(p)) == _bits(ref[:, 0]), p.tolist()
    rhos = pauli.densities_from_p_batch(ps).reshape((len(ps),) + (2,) * 6)
    for k in range(3):
        axes = [0, 1, 2, 3, 4, 5, 6]
        axes[1 + k], axes[4 + k] = axes[4 + k], axes[1 + k]
        pts = rhos.transpose(axes).reshape(len(ps), 8, 8)
        ref = _cyclic_jacobi_reference(pts)[:, 0]
        assert _bits(ppt.pt_min_eigenvalues_batch(ps)[:, k]) == _bits(ref)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 16))
def test_round_robin_oracle_matches_cyclic_on_x_shaped_stacks(seed, n):
    # Random X-shaped Hermitian matrices, beyond the GHZ-diagonal ones: each
    # pair (i, 7 - i) has a complex entry, a zero entry, or an entry on tied
    # diagonals (the 45-degree rotation), so a round rotates some matrices
    # of the stack and not others.
    rng = np.random.default_rng(seed)
    a = np.zeros((n, 8, 8), dtype=complex)
    a[:, range(8), range(8)] = rng.standard_normal((n, 8)) * rng.choice([1e-3, 1.0, 30.0], (n, 1))
    for i in range(4):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        kind = rng.integers(3, size=n)
        z[kind == 0] = 0.0
        a[kind == 1, 7 - i, 7 - i] = a[kind == 1, i, i]
        a[:, i, 7 - i], a[:, 7 - i, i] = z, np.conj(z)
    assert _bits(ppt._jacobi_batch(a)) == _bits(_cyclic_jacobi_reference(a))


def test_partial_transpose_table_is_the_density_route_bit_for_bit():
    rng = np.random.default_rng(11)
    ps = np.vstack([fn(rng) for fn in SEPARABLE_CONSTRUCTORS.values() for _ in range(5)]
                   + [random_probs(rng, 40), np.eye(8), np.full((1, 8), 0.125)])
    for batch in (ps, ps[:1], ps[:0]):
        rhos = pauli.densities_from_p_batch(batch)
        pts = np.stack([ppt.partial_transpose(rhos, q) for q in (1, 2, 3)], axis=1)
        table = np.tensordot(batch, ppt._PT_PROJECTORS, axes=(1, 0))
        assert table.shape == pts.shape == (len(batch), 3, 8, 8)
        assert _bits(table.view(float)) == _bits(pts.view(float))
        ref = ppt._jacobi_batch(pts.reshape(-1, 8, 8))[:, 0].reshape(-1, 3)
        assert _bits(ppt.pt_min_eigenvalues_batch(batch)) == _bits(ref)
    assert not ppt._PT_PROJECTORS.flags.writeable


@pytest.mark.parametrize("d", range(1, 10))
def test_round_robin_schedule_visits_every_pair_once(d):
    rounds = [list(zip(p.tolist(), q.tolist())) for p, q in ppt._round_robin(d)]
    # d - 1 rounds for even d; odd d needs d rounds, each with one index idle.
    assert len(rounds) == (0 if d == 1 else d - 1 + d % 2)
    for pairs in rounds:
        assert len(pairs) == d // 2
        assert all(p < q for p, q in pairs)
        assert len({i for pair in pairs for i in pair}) == 2 * len(pairs)  # disjoint
    seen = sorted(pair for pairs in rounds for pair in pairs)
    assert seen == [(p, q) for p in range(d - 1) for q in range(p + 1, d)]
    if d == 8:  # the pairs that carry a GHZ-diagonal partial transpose
        assert rounds[0] == [(0, 7), (1, 6), (2, 5), (3, 4)]


@pytest.mark.parametrize("d", range(1, 10))
def test_jacobi_generic_hermitian_any_dimension(d):
    rng = np.random.default_rng(100 + d)
    a = rng.standard_normal((50, d, d)) + 1j * rng.standard_normal((50, d, d))
    h = (a + a.conj().transpose(0, 2, 1)) / 2
    err = np.max(np.abs(ppt._jacobi_batch(h) - np.linalg.eigvalsh(h)))
    assert err < (1e-12 if d <= 4 else 1e-11)


def test_jacobi_diagonal_and_degenerate():
    diag = np.diag([3.0, -1.0, 0.5, 2.0, -1.0, 0.0, 7.0])
    assert _bits(ppt._jacobi_batch(diag)[0]) == _bits(np.sort(np.diag(diag)))
    rng = np.random.default_rng(9)
    u, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    spectrum = np.array([-0.5, -0.5, 0.25, 0.25, 0.25, 1.0, 1.0, 2.0])
    h = (u * spectrum) @ u.conj().T
    assert np.max(np.abs(ppt._jacobi_batch(h)[0] - spectrum)) < 1e-11
    tie = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]])  # equal diagonal
    assert np.max(np.abs(ppt._jacobi_batch(tie)[0] - [0.5, 0.5, 2.0])) < 1e-12


def test_jacobi_empty_stack():
    assert ppt._jacobi_batch(np.empty((0, 5, 5))).shape == (0, 5)
    assert ppt.pt_min_eigenvalues_batch(np.empty((0, 8))).shape == (0, 3)


# --- 24 inequalities and the report -----------------------------------------


def test_inequalities_uniform():
    assert np.allclose(ppt.ppt_inequalities(np.ones(8) / 8), 0.25)


def test_inequalities_pure_ghz():
    p = np.zeros(8)
    p[0] = 1.0
    quads = ppt.ppt_inequalities(p)
    # group (p1,p2,p7,p8), row -a+b+c+d
    assert quads[1, 3] == -1.0


def test_inequalities_longhand_oracle():
    # Every one of the 24 values written out explicitly for one state.
    p = np.array([0.1, 0.05, 0.15, 0.0, 0.3, 0.15, 0.2, 0.05])
    quads = ppt.ppt_inequalities(p)
    expected = []
    for (a, b, c, d) in ppt.PPT_GROUPS:
        expected.append(
            [p[a] + p[b] + p[c] - p[d], p[a] + p[b] - p[c] + p[d],
             p[a] - p[b] + p[c] + p[d], -p[a] + p[b] + p[c] + p[d]]
        )
    assert np.allclose(quads, expected, atol=1e-15)


def _left_to_right(ps, signs):
    """signs @ p per row as the Python-float sum s_1 p_1 + s_2 p_2 + ... + s_8 p_8."""
    out = []
    for p in ps.tolist():
        row = []
        for s in signs.tolist():
            acc = s[0] * p[0]
            for sk, pk in zip(s[1:], p[1:]):
                acc += sk * pk
            row.append(acc)
        out.append(row)
    return np.array(out).reshape(len(ps), len(signs))


@pytest.mark.parametrize("n", [1, 2, 4096])
def test_r_and_inequalities_are_the_left_to_right_sums(n):
    rng = np.random.default_rng(n)
    ps = random_probs(rng, n)
    special = np.vstack([np.full(8, 0.125), np.eye(8), PROTOTYPE]
                        + [fn(rng) for fn in SEPARABLE_CONSTRUCTORS.values()])
    ps[: len(special)] = special[:n]
    want_r = _left_to_right(ps, pauli.SIGNS)
    want_ineq = _left_to_right(ps, ppt.inequality_matrix())
    assert np.array_equal(pauli.signed_sums(ps, pauli.SIGNS).view(np.int64),
                          want_r.view(np.int64))
    assert np.array_equal(ppt.ppt_inequalities_batch(ps).view(np.int64),
                          want_ineq.view(np.int64))
    for k in range(min(n, 40)):  # the scalar entry points round the same way
        assert np.array_equal(pauli.r_from_p(ps[k]).view(np.int64), want_r[k].view(np.int64))
        for quads in (ppt.ppt_inequalities(ps[k]), ppt.is_ppt(ps[k]).quadruples):
            assert quads.shape == (6, 4)
            assert np.array_equal(quads.ravel().view(np.int64), want_ineq[k].view(np.int64))


def test_r_and_inequalities_exact_on_dyadic_inputs():
    rng = np.random.default_rng(64)
    ps = rng.multinomial(64, np.full(8, 0.125), size=300) / 64.0
    a = ppt.inequality_matrix()
    assert np.array_equal(ppt.ppt_inequalities_batch(ps), np.array([a @ p for p in ps]))
    assert np.array_equal(pauli.signed_sums(ps, pauli.SIGNS),
                          np.array([pauli.SIGNS @ p for p in ps]))


def test_is_ppt_examples():
    assert ppt.is_ppt(np.ones(8) / 8).passed
    p = np.zeros(8)
    p[0] = 1.0
    assert not ppt.is_ppt(p).passed
    assert ppt.is_ppt([0.2, 0, 0.2, 0, 0.2, 0.1, 0.18, 0.12]).passed
    assert ppt.is_ppt(PROTOTYPE).passed


def test_is_ppt_cross_check_relation():
    rng = np.random.default_rng(3)
    for p in random_probs(rng, 50):
        rep = ppt.is_ppt(p)
        for q, groups in enumerate(ppt.GROUPS_BY_QUBIT):
            analytic = min(rep.quadruples[g].min() for g in groups) / 2.0
            assert abs(rep.min_eigs[q] - analytic) < 1e-12


def test_oracle_equivalence_bulk():
    rng = np.random.default_rng(4)
    ps = random_probs(rng, 10_000)
    ineq_min = ppt.ppt_inequalities_batch(ps).min(axis=1)
    eig_min = ppt.pt_min_eigenvalues_batch(ps).min(axis=1)
    assert np.max(np.abs(eig_min - ineq_min / 2.0)) < 1e-9
    assert np.array_equal(ineq_min >= -1e-9, eig_min >= -1e-9)


def test_ppt_convexity():
    rng = np.random.default_rng(5)
    ps = random_probs(rng, 4000)
    mask = ppt.ppt_inequalities_batch(ps).min(axis=1) >= 0
    good = ps[mask]
    assert len(good) >= 2
    for _ in range(200):
        i, j = rng.integers(len(good), size=2)
        lam = rng.uniform()
        mix = lam * good[i] + (1 - lam) * good[j]
        assert ppt.is_ppt(mix).passed


# --- exact LP ---------------------------------------------------------------


def test_lp_trivial_cases():
    # x <= 1 with x - s == 0 (x >= 0 with surplus s), then x >= 1 with x <= 0.
    assert ppt._Simplex([([1, 0], 1)], [([1, -1], 0)]).phase1()
    assert not ppt._Simplex([([1, 0], 0)], [([1, -1], 1)]).phase1()
    assert ppt._Simplex([], [([1, 1], 1), ([1, -1], 0)]).phase1()
    assert not ppt._Simplex([], [([1, 1], 1), ([1, 1], 2)]).phase1()


def test_lp_variables_are_nonnegative():
    # -x - s == 3 (x <= -3 with surplus s) holds only with a negative coordinate.
    assert not ppt._Simplex([], [([-1, -1], 3)]).phase1()


def test_lp_takes_integer_rows_with_one_artificial_per_equality():
    # The PPT system: 8 variables, 24 slacks, the artificial of sum p == 1, the rhs.
    assert ppt._Simplex(*ppt._PPT_SYSTEM).n_cols == 34
    for le_rows, eq_rows in (([([1, 2], -1)], []), ([([1, 2], 1)], [([1, 2, 3], 1)]),
                             ([([Fraction(1, 2), 1], 1)], []), ([], [([1, 1], 0.5)])):
        with pytest.raises(ValueError):
            ppt._Simplex(le_rows, eq_rows)


def test_lp_point_satisfies_constraints():
    # 2x + y <= 4, x + 3y - s == 3 (x + 3y >= 3 with surplus s), 2x - 2y == 1.
    lp = ppt._Simplex([([2, 1, 0], 4)], [([1, 3, -1], 3), ([2, -2, 0], 1)])
    assert lp.phase1()
    x, y, s = lp.point()
    assert 2 * x + y <= 4 and x + 3 * y >= 3 and x - y == Fraction(1, 2) and s >= 0


def _linprog_system(le_rows, eq_rows, n):
    """The same system as keyword arguments of scipy's linprog."""
    def split(rows):
        return [c for c, _ in rows] or None, [r for _, r in rows] or None

    (a_ub, b_ub), (a_eq, b_eq) = split(le_rows), split(eq_rows)
    return dict(A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * n)


def _random_rows(rng, n, m, le_share):
    """m rows, each "<=" with odds le_share, else "==": coefficients in -3..3, rhs in 0..3."""
    le_rows, eq_rows = [], []
    for is_le in rng.random(size=m) < le_share:
        row = (rng.integers(-3, 4, size=n).tolist(), int(rng.integers(0, 4)))
        (le_rows if is_le else eq_rows).append(row)
    return le_rows, eq_rows


def test_lp_matches_scipy_on_random_systems():
    from scipy.optimize import linprog

    rng = np.random.default_rng(6)
    agree, verdicts = 0, set()
    for _ in range(60):
        n = int(rng.integers(2, 5))
        le_rows, eq_rows = _random_rows(rng, n, int(rng.integers(2, 7)), 0.5)
        mine = ppt._Simplex(le_rows, eq_rows).phase1()
        res = linprog(np.zeros(n), method="highs", **_linprog_system(le_rows, eq_rows, n))
        # skip scipy borderline numerical cases; exact answers are authoritative
        if res.status in (0, 2):
            assert mine == (res.status == 0)
            agree += 1
            verdicts.add(mine)
    assert agree >= 50 and verdicts == {True, False}


def test_lp_maximise_matches_scipy_on_random_systems():
    from scipy.optimize import linprog

    rng = np.random.default_rng(8)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(80):
        n = int(rng.integers(2, 5))
        le_rows, eq_rows = _random_rows(rng, n, int(rng.integers(2, 6)), 0.75)
        if rng.integers(2):  # a box bounds every objective
            le_rows += [([s * int(k == j) for k in range(n)], 4) for j in range(n) for s in (1, -1)]
        if rng.integers(2):  # a redundant row: the same equality twice
            eq_rows += [(rng.integers(-2, 3, size=n).tolist(), int(rng.integers(0, 3)))] * 2
        system = _linprog_system(le_rows, eq_rows, n)
        lp = ppt._Simplex(le_rows, eq_rows)
        feasible = lp.phase1()
        if feasible:
            lp.drop_artificials()
        for _ in range(3):  # each objective starts from the last optimal basis
            c = rng.integers(-3, 4, size=n)
            res = linprog(-c, method="highs", **system)
            if not feasible:
                assert res.status == 2
                statuses["infeasible"] += 1
                break
            value = lp.maximise(c.tolist())
            cold = ppt._Simplex(le_rows, eq_rows)
            assert cold.phase1()
            cold.drop_artificials()
            assert cold.maximise(c.tolist()) == value
            if value is None:
                assert res.status == 3
                statuses["unbounded"] += 1
                continue
            assert res.status == 0 and abs(float(value) + res.fun) < 1e-9
            x = lp.point()
            assert sum(int(ci) * xi for ci, xi in zip(c, x)) == value
            for rows, holds in ((le_rows, operator.le), (eq_rows, operator.eq)):
                for coeffs, rhs in rows:
                    assert holds(sum(ci * xi for ci, xi in zip(coeffs, x)), rhs)
            assert min(x) >= 0
            statuses["optimal"] += 1
    assert min(statuses.values()) >= 10, statuses


def test_lp_maximise_after_negative_drive_out_pivot():
    # The feasible set is the point x = 0: 2x <= 2 and -2x - s == 0 (-2x >= 0
    # with surplus s), each twice.  Phase 1 leaves the equalities'
    # artificials basic at level 0 in rows whose other entries are all
    # negative, so they can only be pivoted out on a negative entry, and
    # every pivot must keep the common denominator positive.
    pivots = []

    class RecordingSimplex(ppt._Simplex):
        def _pivot(self, leave, enter, objectives):
            pivots.append(self.tab[leave][enter])
            super()._pivot(leave, enter, objectives)
            assert self.den > 0

    lp = RecordingSimplex([([2, 0], 2)] * 2, [([-2, -1], 0)] * 2)
    assert lp.phase1()
    n_phase1 = len(pivots)
    lp.drop_artificials()
    assert min(pivots[n_phase1:]) < 0  # the drive-out branch ran
    for c in ([1], [-1], [3]):
        assert lp.maximise(c) == 0
        assert lp.point() == [0, 0]


def test_lp_projection_example():
    le_rows, eq_rows = ppt._PPT_SYSTEM

    def pinned(d1, n1, d2, n2):  # the PPT system with d1 p1 == n1 and d2 p2 == n2
        pins = (([d1, 0, 0, 0, 0, 0, 0, 0], n1), ([0, d2, 0, 0, 0, 0, 0, 0], n2))
        return ppt._Simplex(le_rows, eq_rows + pins)

    assert pinned(10, 3, 10, 1).phase1()  # (p1, p2) = (3/10, 1/10)
    assert not pinned(10, 3, 1, 0).phase1()  # (p1, p2) = (3/10, 0)


# --- region projections -----------------------------------------------------


CLI_PLANES = ((0, 1), (0, 2), (2, 3), (1, 3), (4, 5), (6, 7))


def test_project_region_interval_equals_exhaustive():
    for plane in CLI_PLANES:
        fast = ppt.project_region(plane, 16)
        slow = ppt._lp_cells(plane, 16)
        assert fast == slow, plane


@pytest.mark.parametrize("a, b", [(a, b) for a in range(8) for b in range(a + 1, 8)])
def test_polygon_cells_equal_exhaustive_all_pairs(a, b):
    for plane, grid in (((a, b), 4), ((b, a), 6)):
        assert ppt.project_region(plane, grid) == ppt._lp_cells(plane, grid), (plane, grid)
        v = ppt.projection_polygon(plane)
        assert _strict_ccw(v), (plane, v)


def _strict_ccw(v) -> bool:
    turns = [(q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
             for p, q, r in zip(v, v[1:] + v[:1], v[2:] + v[:2])]
    return all(t > 0 for t in turns)  # CCW, no collinear points


def test_shadow_table_equals_lp_hull_on_all_ordered_planes():
    shapes = {}
    for a in range(8):
        for b in range(8):
            if a == b:
                continue
            table = ppt.projection_polygon((a, b))
            assert table == ppt._lp_projection_polygon((a, b)), (a, b)
            assert all(type(c) is Fraction for vertex in table for c in vertex)
            assert _strict_ccw(table) and table[0] == min(table), (a, b, table)
            shapes.setdefault(len(table), []).append((a, b))
    # Quadrilaterals exactly on the planes of one GHZ pair, triangles elsewhere.
    assert sorted(shapes) == [3, 4]
    assert all(a // 2 == b // 2 for a, b in shapes[4]) and len(shapes[4]) == 8
    assert all(a // 2 != b // 2 for a, b in shapes[3]) and len(shapes[3]) == 48


def test_projection_polygon_returns_a_copy_of_the_table():
    v = ppt.projection_polygon((0, 1))
    v.append((Fraction(1), Fraction(0)))
    assert ppt.projection_polygon((0, 1)) == ppt._lp_projection_polygon((0, 1))


def test_region_mask_is_the_per_cell_edge_test():
    # The int64 broadcast against the polygon's edges, one Python cell at a time.
    grid = 97
    for plane in CLI_PLANES:
        vertices = ppt.projection_polygon(plane)
        edges = [ppt._edge_inequality(u, v)
                 for u, v in zip(vertices, vertices[1:] + vertices[:1])]
        want = np.array([[all(nx * i + ny * j <= h * grid for nx, ny, h in edges)
                          for i in range(grid)] for j in range(grid)])
        mask = ppt.region_mask(plane, grid)
        assert mask.dtype == bool and np.array_equal(mask, want), plane
        j, i = np.nonzero(want)
        assert ppt.project_region(plane, grid) == set(zip(i.tolist(), j.tolist()))


def test_region_mask_derives_each_polygons_edges_once(monkeypatch):
    calls = []

    def counting(u, v):
        calls.append((u, v))
        return edge_inequality(u, v)

    edge_inequality = ppt._edge_inequality
    monkeypatch.setattr(ppt, "_edge_inequality", counting)
    ppt._polygon_edges.cache_clear()
    first = ppt.region_mask((0, 1), 16)
    assert len(calls) == 4  # the quadrilateral's edges
    calls.clear()
    for plane, grid in (((0, 1), 16), ((2, 3), 40), ((1, 0), 7)):  # same shape, any plane or grid
        ppt.region_mask(plane, grid)
    assert calls == []
    assert np.array_equal(ppt.region_mask((0, 1), 16), first)
    ppt.region_mask((0, 2), 16)
    assert len(calls) == 3  # a new shape: the triangle's edges, once


def test_projection_polygon_exact_vertices():
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    quad = ppt.projection_polygon((0, 1))
    assert quad == [(0, 0), (quarter, 0), (half, half), (0, quarter)]
    tri = ppt.projection_polygon((0, 2))
    assert tri == [(0, 0), (half, 0), (0, half)]
    assert all(type(c) is Fraction for vertex in quad + tri for c in vertex)


def test_project_region_p1p2_quadrilateral():
    grid = 40
    cells = ppt.project_region((0, 1), grid)
    expected = {
        (i, j)
        for j in range(grid)
        for i in range(grid)
        if 4 * i - 2 * j <= grid and 4 * j - 2 * i <= grid and i + j <= grid
    }
    assert cells == expected
    assert (grid // 2, grid // 2) in cells           # vertex (1/2, 1/2)
    assert (int(0.3 * grid), 0) not in cells         # 4*0.3 - 0 > 1


def test_project_region_p1p3_triangle():
    grid = 40
    cells = ppt.project_region((0, 2), grid)
    expected = {(i, j) for j in range(grid) for i in range(grid) if i + j <= grid // 2}
    assert cells == expected
    assert (12, 12) not in cells  # (0.3, 0.3) violates p1 + p3 <= 1/2


def test_project_region_cross_pair_triangle():
    grid = 24
    cells = ppt.project_region((1, 3), grid)
    expected = {(i, j) for j in range(grid) for i in range(grid) if i + j <= grid // 2}
    assert cells == expected


def test_project_region_same_pair_quadrilateral():
    grid = 24
    cells = ppt.project_region((4, 5), grid)
    expected = {
        (i, j)
        for j in range(grid)
        for i in range(grid)
        if 4 * i - 2 * j <= grid and 4 * j - 2 * i <= grid and i + j <= grid
    }
    assert cells == expected


def test_project_region_validation():
    with pytest.raises(ValueError):
        ppt.project_region((0, 0), 10)
    with pytest.raises(ValueError):
        ppt.project_region((0, 1), 1)
    with pytest.raises(ValueError):
        ppt.projection_polygon((3, 8))
    with pytest.raises(ValueError):
        ppt.projection_polygon((5, 5))
    with pytest.raises(ValueError):
        ppt._lp_projection_polygon((-1, 2))
    with pytest.raises(ValueError):
        ppt.region_mask((0, 1), 1)
    with pytest.raises(ValueError):
        ppt.region_mask((2, 2), 10)


# --- special family ---------------------------------------------------------


def test_special_family_examples():
    p = ppt.special_family(ppt.SpecialFamilyParams(0.0, 0.0, 0.125, 0.125))
    assert np.allclose(p, [0.25, 0, 0.25, 0, 0.125, 0.125, 0.125, 0.125])
    p2 = ppt.special_family(ppt.SpecialFamilyParams(-1.0, 0.125, 0.0, 0.0))
    assert np.allclose(p2, [0.375, 0.375, 0.125, 0.125, 0, 0, 0, 0])


def test_special_family_always_ppt_and_on_boundary():
    rng = np.random.default_rng(7)
    for _ in range(300):
        alpha = rng.uniform(-1.0, 0.5)
        p4 = rng.uniform(0.0, 1.0 / (4.0 * (1.0 - alpha)))
        s = (alpha - 1.0) * p4 + 0.25
        params = ppt.SpecialFamilyParams(
            alpha, p4, rng.uniform(0.0, s), rng.uniform(0.0, s)
        )
        p = ppt.special_family(params)
        assert ppt.is_ppt(p).passed
        assert abs(p[0] + p[2] - 0.5) < 1e-12
        # derived relations of the construction
        assert abs((p[2] - p[3]) - (p[0] - p[1])) < 1e-12
        assert abs((p[4] + p[5]) - (p[2] - p[3])) < 1e-12
        assert abs((p[6] + p[7]) - (p[2] - p[3])) < 1e-12


def test_special_family_validation():
    with pytest.raises(ValueError):
        ppt.special_family(ppt.SpecialFamilyParams(0.9, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        ppt.special_family(ppt.SpecialFamilyParams(0.0, 0.3, 0.0, 0.0))
    with pytest.raises(ValueError):
        ppt.special_family(ppt.SpecialFamilyParams(0.0, 0.0, 0.3, 0.0))
