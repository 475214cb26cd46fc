"""Verdict pipeline: categories, detection, and separable certificates."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubwitness import pauli, ppt, witness
from mubwitness.classify import (
    SEPARABLE_CONSTRUCTORS,
    VERDICT_BOUND,
    VERDICT_NPT,
    VERDICT_SEPARABLE,
    VERDICT_UNDECIDED,
    CATEGORY_RELATIONS,
    cat1_special,
    cat1_special_batch,
    category_of,
    certify_separable,
    classify,
    classify_batch,
    detect_bound,
    random_case2,
    random_cat1_branch,
    random_cat2_branch,
)

PROTOTYPE = np.array(
    [0.043425, 0.15308, 0.016132, 0.19387, 0.059793, 0.24806, 0.18207, 0.10357]
)
CAT1_STATE = np.array([0.2, 0, 0.2, 0, 0.2, 0.1, 0.18, 0.12])
CAT2_STATE = np.array([0.1, 0.05, 0.15, 0, 0.3, 0.15, 0.2, 0.05])


def random_probs(rng, n):
    e = rng.exponential(1.0, size=(n, 8))
    return e / e.sum(axis=1, keepdims=True)


# --- categories --------------------------------------------------------------


def test_relation_census():
    by_cat = {}
    for cat, *_ in CATEGORY_RELATIONS:
        by_cat[cat] = by_cat.get(cat, 0) + 1
    assert by_cat == {1: 12, 2: 48, 3: 12}
    assert len(set(CATEGORY_RELATIONS)) == 72


def test_category_of_worked_instance():
    hits = category_of(CAT1_STATE)
    assert any(h.category == 1 and h.equality == "1+r1 = r4-r7" for h in hits)
    r = pauli.r_from_p(CAT1_STATE)
    assert abs((1 + r[0]) - 0.8) < 1e-15
    assert abs((r[3] - r[6]) - 0.8) < 1e-15


def test_category_of_special_family():
    p = ppt.special_family(ppt.SpecialFamilyParams(-0.3, 0.1, 0.05, 0.11))
    hits = category_of(p)
    assert any(h.category == 3 and h.equality == "1-r1 = r4-r7" for h in hits)


def test_category_of_uniform_empty():
    assert category_of(np.ones(8) / 8) == []


def test_category_residuals_never_negative():
    # Impossibility guard |r_j +- r_k| <= 1 +- r_i: the same-block pairings
    # (category 1) hold on every state since a violation forces a negative
    # probability; the cross-block pairings additionally need PPT.
    rng = np.random.default_rng(0)
    ps = random_probs(rng, 3000)
    ppt_mask = ppt.ppt_inequalities_batch(ps).min(axis=1) >= 0
    for p, is_feasible in zip(ps, ppt_mask):
        r = pauli.r_from_p(p)
        for cat, s, i, (j, k), t in CATEGORY_RELATIONS:
            residual = (1.0 + s * r[i - 1]) - (r[j - 1] + t * r[k - 1])
            if cat == 1:
                assert residual >= -1e-12
            elif is_feasible:
                assert residual >= -1e-12


def test_pair_sum_identity_audit():
    # every pair-sum identity, checked longhand against probabilities
    rng = np.random.default_rng(1)
    ps = random_probs(rng, 10_000)
    rs = ps @ pauli.SIGNS.T
    p = ps.T
    cases = {
        ("r4+r5"): (rs[:, 3] + rs[:, 4], 2 * (p[2] - p[3] + p[4] - p[5])),
        ("r6+r7"): (rs[:, 5] + rs[:, 6], 2 * (-p[0] + p[1] + p[6] - p[7])),
        ("r4-r5"): (rs[:, 3] - rs[:, 4], 2 * (p[0] - p[1] + p[6] - p[7])),
        ("r6-r7"): (rs[:, 5] - rs[:, 6], 2 * (p[2] - p[3] - p[4] + p[5])),
        ("r4+r6"): (rs[:, 3] + rs[:, 5], 2 * (p[2] - p[3] + p[6] - p[7])),
        ("r5+r7"): (rs[:, 4] + rs[:, 6], 2 * (-p[0] + p[1] + p[4] - p[5])),
        ("r4-r6"): (rs[:, 3] - rs[:, 5], 2 * (p[0] - p[1] + p[4] - p[5])),
        ("r5-r7"): (rs[:, 4] - rs[:, 6], 2 * (p[2] - p[3] - p[6] + p[7])),
        ("r4+r7"): (rs[:, 3] + rs[:, 6], 2 * (p[4] - p[5] + p[6] - p[7])),
        ("r5+r6"): (rs[:, 4] + rs[:, 5], 2 * (-p[0] + p[1] + p[2] - p[3])),
        ("r4-r7"): (rs[:, 3] - rs[:, 6], 2 * (p[0] - p[1] + p[2] - p[3])),
        ("r5-r6"): (rs[:, 4] - rs[:, 5], 2 * (p[4] - p[5] - p[6] + p[7])),
        ("1+r1"): (1 + rs[:, 0], 2 * (p[0] + p[1] + p[2] + p[3])),
        ("1-r1"): (1 - rs[:, 0], 2 * (p[4] + p[5] + p[6] + p[7])),
        ("1+r2"): (1 + rs[:, 1], 2 * (p[0] + p[1] + p[4] + p[5])),
        ("1-r2"): (1 - rs[:, 1], 2 * (p[2] + p[3] + p[6] + p[7])),
        ("1+r3"): (1 + rs[:, 2], 2 * (p[0] + p[1] + p[6] + p[7])),
        ("1-r3"): (1 - rs[:, 2], 2 * (p[2] + p[3] + p[4] + p[5])),
    }
    for name, (lhs, rhs) in cases.items():
        assert np.max(np.abs(lhs - rhs)) < 1e-13, name


# --- detection ---------------------------------------------------------------


def test_detect_bound_worked_instances():
    id1, val1 = detect_bound(CAT1_STATE)
    assert id1.label == "W+1,-(4,7),(5,6)"
    assert abs(val1 - (0.8 - math.hypot(0.8, 0.08))) < 1e-12

    id2, val2 = detect_bound(CAT2_STATE)
    # three ids tie exactly at r5 = r6 = r7; accept any of them
    assert id2.label in {"W+1,+(4,5),(6,7)", "W+1,+(4,6),(5,7)", "W+1,+(4,7),(5,6)"}
    assert abs(val2 - (0.6 - math.sqrt(0.4))) < 1e-12


def test_detect_bound_uniform_absent():
    assert detect_bound(np.ones(8) / 8) is None


def test_detect_bound_rejects_npt():
    p = np.zeros(8)
    p[0] = 1.0
    with pytest.raises(ValueError):
        detect_bound(p)


def test_detect_bound_builds_no_certificate(monkeypatch):
    module = importlib.import_module("mubwitness.classify")
    real = module.certify_separable
    calls = []

    def counting_certify(p, *args, **kwargs):
        calls.append(1)
        return real(p, *args, **kwargs)

    monkeypatch.setattr(module, "certify_separable", counting_certify)
    rng = np.random.default_rng(34)
    states = [np.full(8, 0.125), CAT1_STATE, CAT2_STATE] + [random_case2(rng) for _ in range(4)]
    found = [detect_bound(p) for p in states]
    assert calls == []
    # classify still certifies through the full core, and agrees on detection.
    assert found == [classify(p).detection for p in states]
    assert len(calls) == 5 and found[0] is None and found[1] is not None


# --- certificates ------------------------------------------------------------


def test_certificate_case1_example():
    cert = certify_separable([0, 0, 0.15, 0.15, 0.2, 0.2, 0.15, 0.15])
    assert cert is not None and cert.construction == "one pair zero"
    assert np.allclose(sorted(cert.weights), [0.3, 0.3, 0.4])
    assert cert.reconstruction_error < 1e-12


def test_certificate_case2_branches():
    # eps1 <= p_lo branch
    cert = certify_separable([0.2, 0.1, 0.15, 0.15, 0.15, 0.15, 0.05, 0.05])
    assert cert is not None and cert.construction == "three pairs equal"
    assert cert.reconstruction_error < 1e-12
    # eps1 > p_lo branch (needs the complement term)
    cert2 = certify_separable([0.12, 0.04, 0.10, 0.10, 0.17, 0.17, 0.15, 0.15])
    assert cert2 is not None and cert2.construction == "three pairs equal"
    assert any("complement" in t.description for t in cert2.terms)
    assert cert2.reconstruction_error < 1e-12


def test_certificate_uniform_via_case2():
    cert = certify_separable(np.ones(8) / 8)
    assert cert is not None and cert.construction == "three pairs equal"
    assert np.allclose(cert.weights, [1.0])


def test_certificate_absent_on_detected_state():
    assert certify_separable(CAT1_STATE) is None


def test_certificate_rejects_npt_input():
    p = np.zeros(8)
    p[0] = 1.0
    with pytest.raises(ValueError):
        certify_separable(p)


def test_certificate_weights_and_terms_are_states():
    rng = np.random.default_rng(2)
    for name, fn in SEPARABLE_CONSTRUCTORS.items():
        for _ in range(40):
            p = fn(rng)
            cert = certify_separable(p)
            assert cert is not None, name
            assert cert.reconstruction_error < 1e-10
            assert abs(sum(cert.weights) - 1.0) < 1e-10
            for term in cert.terms:
                assert term.weight >= 0.0
                m = term.matrix
                assert np.allclose(m, m.conj().T, atol=1e-12)
                assert abs(np.trace(m).real - 1.0) < 1e-12
                assert np.linalg.eigvalsh(m).min() >= -1e-12


def test_certificate_terms_separable_ppt():
    # every building block must itself be PPT (necessary for separability)
    rng = np.random.default_rng(3)
    seen = {}
    for name, fn in SEPARABLE_CONSTRUCTORS.items():
        cert = certify_separable(fn(rng))
        seen[name] = cert
        for term in cert.terms:
            for q in (1, 2, 3):
                t = ppt.partial_transpose(term.matrix, q)
                assert np.linalg.eigvalsh(t).min() >= -1e-12, (name, term.description)
    assert set(seen) == set(SEPARABLE_CONSTRUCTORS)


# --- classify pipeline -------------------------------------------------------


def test_classify_npt():
    p = np.zeros(8)
    p[0] = 1.0
    assert classify(p).kind == VERDICT_NPT


def test_classify_prototype_detected():
    v = classify(PROTOTYPE)
    assert v.kind == VERDICT_BOUND
    assert v.detection is not None and v.detection[1] < -1e-9
    assert v.ppt.passed


def test_classify_uniform_separable():
    v = classify(np.ones(8) / 8)
    assert v.kind == VERDICT_SEPARABLE
    assert v.certificate is not None


def test_classify_undecided_exists():
    rng = np.random.default_rng(4)
    found = 0
    for p in random_probs(rng, 4000):
        if ppt.ppt_inequalities_batch(p[None, :]).min() < 0:
            continue
        v = classify(p)
        assert v.kind in (VERDICT_BOUND, VERDICT_UNDECIDED, VERDICT_SEPARABLE)
        if v.kind == VERDICT_UNDECIDED:
            found += 1
    assert found > 0


def test_classify_batch_agrees_with_scalar():
    rng = np.random.default_rng(5)
    ps = random_probs(rng, 400)
    verdicts, labels, values = classify_batch(ps)
    for i in range(0, 400, 17):
        v = classify(ps[i])
        assert v.kind == verdicts[i]
        if v.kind == VERDICT_BOUND:
            assert v.detection[0].label == labels[i]
            assert abs(v.detection[1] - values[i]) < 1e-12


def _bits(x) -> str:
    return float(x).hex()


def _assert_detection_equals_row(detection, label, value):
    assert detection is not None
    assert detection[0].label == label
    assert _bits(detection[1]) == _bits(value)


def test_classify_detect_bound_and_batch_name_one_witness_on_a_tie():
    # Three envelope ids tie in exact arithmetic on CAT2_STATE; every entry
    # point must break the tie the same way and report the same value bits.
    v = classify(CAT2_STATE)
    d = detect_bound(CAT2_STATE)
    assert v.kind == VERDICT_BOUND
    assert v.detection[0].label in {"W+1,+(4,5),(6,7)", "W+1,+(4,6),(5,7)",
                                    "W+1,+(4,7),(5,6)"}
    rng = np.random.default_rng(126)
    for n in (1, 2, 126):
        ps = np.vstack([CAT2_STATE, random_probs(rng, n - 1)])
        verdicts, labels, values = classify_batch(ps)
        assert verdicts[0] == VERDICT_BOUND
        _assert_detection_equals_row(v.detection, labels[0], values[0])
        _assert_detection_equals_row(d, labels[0], values[0])


def _boundary_tols(p):
    """Tolerances at which p's verdict turns, under two rounding orders.

    Minus the smallest inequality value and minus the best envelope value,
    each from the package's batch and from a BLAS matrix-vector product on
    the one state: where the two roundings differ, one of them sits just
    inside -tol and the other just outside.
    """
    blas_r = pauli.SIGNS @ p
    values = [ppt.ppt_inequalities_batch(p[None, :]).min(),
              (ppt.inequality_matrix() @ p).min(),
              classify_batch(p[None, :])[2][0],
              witness.nonlinear_values_batch(blas_r[None, :]).min()]
    return [-float(v) for v in values if v < -1e-9]  # no tighter than the default


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_scalar_entry_points_equal_their_batch_row(seed):
    rng = np.random.default_rng(seed)
    ps = np.vstack([random_probs(rng, 12), CAT2_STATE, PROTOTYPE]
                   + [fn(rng) for fn in SEPARABLE_CONSTRUCTORS.values()])
    tols = [1e-9] + _boundary_tols(ps[rng.integers(12)]) + _boundary_tols(ps[12])
    for tol in tols:
        verdicts, labels, values = classify_batch(ps, tol)
        for i, p in enumerate(ps):
            v = classify(p, tol)
            assert v.kind == verdicts[i], (tol, p.tolist())
            assert v.ppt.passed == (v.kind != VERDICT_NPT), (tol, p.tolist())
            if v.kind == VERDICT_NPT:
                with pytest.raises(ValueError):
                    detect_bound(p, tol)
                continue
            d = detect_bound(p, tol)
            if v.kind == VERDICT_BOUND:
                _assert_detection_equals_row(v.detection, labels[i], values[i])
                _assert_detection_equals_row(d, labels[i], values[i])
            else:
                assert v.detection is None and d is None


# --- the certificate pattern match -------------------------------------------
#
# Each snap maps a simplex draw q onto one certificate family's pattern
# (its equalities hold exactly in exact arithmetic); the result is a
# probability vector but need not be PPT or certifiable.


def _snap_case1(q, k):
    """Pair k zero, every other pair split evenly."""
    mass = q[0::2] + q[1::2]
    mass[k] = 0.0
    return np.repeat(mass / mass.sum() / 2.0, 2)


def _snap_case2(q, k):
    """Every pair but k split evenly."""
    p = np.repeat((q[0::2] + q[1::2]) / 2.0, 2)
    p[2 * k:2 * k + 2] = q[2 * k:2 * k + 2]
    return p


def _snap_cat1(q):
    """p2 = p4 = 0, p1 = p3, pairs 3 and 4 shifted by one gamma."""
    u = q[:4].sum() / 2.0
    a, b = q[4] + q[5], q[6] + q[7]
    g = min(max((q[4] - q[5] + q[6] - q[7]) / 4.0, -min(a, b) / 2.0), min(a, b) / 2.0)
    return np.array([u, 0.0, u, 0.0, a / 2 + g, a / 2 - g, b / 2 + g, b / 2 - g])


def _snap_cat2(q):
    """p4 = 0, p3 = p1 + p2, p7 = p3 + p8, p5 - p6 = p1 - p2 where it fits."""
    m = q[3:].sum()
    t = 1.0 / (3.0 * (q[0] + q[1]) + 2.0 * q[2] + m)
    p1, p2, p8, m = q[0] * t, q[1] * t, q[2] * t, m * t
    d = min(max(p1 - p2, -m), m)
    return np.array([p1, p2, p1 + p2, 0.0, (m + d) / 2, (m - d) / 2, p1 + p2 + p8, p8])


def _snap_cat3(q):
    """p1 + p3 = 1/2, four equal splits s, p5 = p7 and p6 = p8."""
    a = 0.5 * (q[0] + q[1]) / max(q[:4].sum(), 1e-300)
    s = min(a, 0.5 - a) * q[4:].sum()
    x = s * q[4] / max(q[4] + q[5], 1e-300)
    return np.array([a, a - s, 0.5 - a, 0.5 - a - s, x, s - x, x, s - x])


_SNAPS = ([lambda q, k=k: _snap_case1(q, k) for k in range(4)]
          + [lambda q, k=k: _snap_case2(q, k) for k in range(4)]
          + [_snap_cat1, _snap_cat2, _snap_cat3])

_simplex = st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8).filter(
    lambda w: sum(w) > 1e-3).map(lambda w: np.array(w) / sum(w))


@st.composite
def _states(draw):
    """A few states: separable-family draws, flat-simplex draws, and snaps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = [fn(rng) for fn in SEPARABLE_CONSTRUCTORS.values()]
    q = draw(_simplex)
    states.append(q)
    states += [snap(q) for snap in _SNAPS]
    return np.array(states)


def _match(*cols):
    return importlib.import_module("mubwitness.classify")._match_patterns(*cols)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_states())
def test_pattern_match_scalar_equals_batch_and_certifies(ps):
    batch = np.array(_match(*ps.T))  # (5, n): one row of flags per family
    verdicts, labels, values = classify_batch(ps)
    ineq_min = ppt.ppt_inequalities_batch(ps).min(axis=1)
    for i, p in enumerate(ps):
        scalar = _match(*p.tolist())
        assert all(type(flag) is bool for flag in scalar)
        assert list(scalar) == batch[:, i].tolist(), p.tolist()
        # A matched state is PPT and certified; an unmatched PPT state is not.
        certified = ineq_min[i] >= -1e-9 and certify_separable(p) is not None
        assert any(scalar) == certified, p.tolist()
        v = classify(p)
        assert v.kind == verdicts[i], p.tolist()
        if v.kind == VERDICT_BOUND:
            assert v.detection[0].label == labels[i]
            assert abs(v.detection[1] - values[i]) <= 1e-12
        else:
            assert labels[i] == "" and math.isnan(values[i])


def test_pattern_match_misses_flat_simplex():
    rng = np.random.default_rng(12)
    assert not np.any(_match(*random_probs(rng, 20_000).T))


def test_classify_batch_raises_on_detected_and_certified(monkeypatch):
    module = importlib.import_module("mubwitness.classify")

    def fake_certificate(p, tol=1e-9):
        return module.SeparableCertificate((), 0.0, "fake")

    def match_all(*cols):  # either form: eight floats or eight columns
        return (np.ones(np.shape(cols[0]), bool),)

    monkeypatch.setattr(module, "_match_patterns", match_all)
    monkeypatch.setattr(module, "certify_separable", fake_certificate)
    with pytest.raises(RuntimeError, match="both detected and certified"):
        classify_batch(PROTOTYPE[None, :])


def _mixed_batch(seed):
    """Every separable family, flat draws (mostly NPT), detected and pure states."""
    rng = np.random.default_rng(seed)
    states = [fn(rng) for fn in SEPARABLE_CONSTRUCTORS.values() for _ in range(6)]
    states += list(random_probs(rng, 60))
    states += [PROTOTYPE, CAT1_STATE, CAT2_STATE, np.eye(8)[3], np.full(8, 0.125)]
    return np.array(states)[rng.permutation(len(states))]


def test_pattern_match_sees_only_ppt_rows(monkeypatch):
    module = importlib.import_module("mubwitness.classify")
    real = module._match_patterns
    ps = _mixed_batch(31)
    ppt_rows = ppt.ppt_inequalities_batch(ps).min(axis=1) >= -1e-9
    assert 0 < ppt_rows.sum() < len(ps)
    seen = []

    def counting_match(*cols):
        if isinstance(cols[0], np.ndarray):  # the core's batch call, not certify_separable's
            seen.append(np.stack(cols, axis=1))
        return real(*cols)

    monkeypatch.setattr(module, "_match_patterns", counting_match)
    verdicts = classify_batch(ps)[0]
    assert len(seen) == 1 and np.array_equal(seen[0], ps[ppt_rows])
    # Reference verdicts with no batch match: every PPT row runs certify_separable.
    envelope = witness.nonlinear_values_batch(ps @ pauli.SIGNS.T).min(axis=1)
    for i, p in enumerate(ps):
        if not ppt_rows[i]:
            want = VERDICT_NPT
        elif certify_separable(p) is not None:
            want = VERDICT_SEPARABLE
        else:
            want = VERDICT_BOUND if envelope[i] < -1e-9 else VERDICT_UNDECIDED
        assert verdicts[i] == classify(p).kind == want, p.tolist()
    assert set(verdicts) == {VERDICT_NPT, VERDICT_BOUND, VERDICT_SEPARABLE, VERDICT_UNDECIDED}


def test_core_matches_one_ppt_row_as_floats_and_more_as_columns(monkeypatch):
    module = importlib.import_module("mubwitness.classify")
    real = module._match_patterns
    forms = []

    def spy(*args):
        floats = all(type(a) is float for a in args)
        forms.append("floats" if floats else f"columns of {np.shape(args[0])}")
        return real(*args)

    monkeypatch.setattr(module, "_match_patterns", spy)
    npt_rows = np.eye(8)[:3]
    mixed = _mixed_batch(34)
    n_ppt = int((ppt.ppt_inequalities_batch(mixed).min(axis=1) >= -1e-9).sum())
    cases = [  # (call, the form of the core's call, which comes first)
        (lambda: classify(CAT2_STATE), "floats"),
        (lambda: classify(np.full(8, 0.125)), "floats"),
        (lambda: classify_batch(CAT1_STATE[None, :]), "floats"),
        (lambda: classify_batch(np.vstack([npt_rows, PROTOTYPE])), "floats"),
        (lambda: classify_batch(np.vstack([npt_rows, PROTOTYPE, CAT2_STATE])), "columns of (2,)"),
        (lambda: classify_batch(mixed), f"columns of {(n_ppt,)}"),
    ]
    for call, want in cases:
        forms.clear()
        call()
        assert forms[0] == want
        assert set(forms[1:]) <= {"floats"}  # certify_separable's own match
    forms.clear()
    classify(np.eye(8)[0])  # NPT: no match at all
    assert forms == []


def test_a_batch_of_one_row_equals_that_row_in_a_mixed_batch():
    ps = _mixed_batch(35)  # six states of every separable family among the rest
    verdicts, labels, values = classify_batch(ps)
    assert set(verdicts) == {VERDICT_NPT, VERDICT_BOUND, VERDICT_SEPARABLE, VERDICT_UNDECIDED}
    for i, p in enumerate(ps):
        v1, l1, x1 = classify_batch(p[None, :])
        assert (v1[0], l1[0]) == (verdicts[i], labels[i]), p.tolist()
        assert _bits(x1[0]) == _bits(values[i]), p.tolist()


def test_pattern_match_skipped_on_all_npt_batch(monkeypatch):
    module = importlib.import_module("mubwitness.classify")

    def no_match(*cols):
        raise AssertionError("_match_patterns called on an NPT batch")

    monkeypatch.setattr(module, "_match_patterns", no_match)
    ps = random_probs(np.random.default_rng(32), 400)
    ps = ps[ppt.ppt_inequalities_batch(ps).min(axis=1) < -1e-9]
    assert set(classify_batch(ps)[0]) == {VERDICT_NPT}
    assert classify(ps[0]).kind == VERDICT_NPT


def test_no_envelope_table_without_a_ppt_row(monkeypatch):
    module = importlib.import_module("mubwitness.classify")
    calls = []
    real = module.nonlinear_values_batch
    monkeypatch.setattr(module, "nonlinear_values_batch",
                        lambda rs: calls.append(len(rs)) or real(rs))
    npt = np.array([0.6, 0.2, 0.1, 0.1, 0, 0, 0, 0])
    assert classify(npt).kind == VERDICT_NPT
    verdicts, labels, values = classify_batch(np.stack([npt, npt[::-1]]))
    assert set(verdicts) == {VERDICT_NPT} and set(labels) == {""} and np.isnan(values).all()
    assert calls == []
    assert classify(PROTOTYPE).kind == VERDICT_BOUND and calls == [1]


def test_classify_validates_once_outside_the_certificates(monkeypatch):
    real = pauli.as_probs
    calls = []

    def counting_as_probs(p):
        calls.append(1)
        return real(p)

    for mod in (pauli, ppt, importlib.import_module("mubwitness.classify")):
        if getattr(mod, "as_probs", None) is real:
            monkeypatch.setattr(mod, "as_probs", counting_as_probs)
    for p in _mixed_batch(33):
        calls.clear()
        v = classify(p)
        # certify_separable, being public, validates again the rows the match flags.
        matched = v.kind != VERDICT_NPT and any(_match(*p.tolist()))
        assert len(calls) == 1 + matched, p.tolist()
    with pytest.raises(ValueError, match="sum to"):
        classify([0.5, 0.5, 0.5, 0, 0, 0, 0, 0])


@pytest.mark.parametrize("row, message", [
    ([math.nan] * 8, "must be finite"),
    ([0.5, 0.5, 0.5, 0, 0, 0, 0, 0], "sum to"),
    ([1.2, -0.2, 0, 0, 0, 0, 0, 0], "outside"),
])
def test_classify_batch_rejects_what_classify_rejects(row, message):
    with pytest.raises(ValueError, match=message):
        classify(row)
    with pytest.raises(ValueError, match=message):
        classify_batch(np.array([np.full(8, 0.125), row, PROTOTYPE]))


def test_a_matched_certificate_with_a_negative_weight_raises(monkeypatch):
    module = importlib.import_module("mubwitness.classify")
    mixed = np.eye(8, dtype=complex) / 8.0

    def negative_weight(p):
        return "fake", [module.CertTerm(1.5, "mixed", mixed), module.CertTerm(-0.5, "mixed", mixed)]

    monkeypatch.setattr(module, "_BUILDERS", (negative_weight,) * 5)
    with pytest.raises(RuntimeError, match="certificate 'fake' has weights"):
        certify_separable(np.full(8, 0.125))


def test_classify_runs_the_oracle_cross_check_on_every_verdict(monkeypatch):
    states = [np.eye(8)[0], PROTOTYPE, np.full(8, 0.125)]
    assert [classify(p).kind for p in states] == [VERDICT_NPT, VERDICT_BOUND, VERDICT_SEPARABLE]
    real = ppt.pt_min_eigenvalues

    def off_by_1e_6_on_qubit_2(p):
        e1, e2, e3 = real(p)
        return e1, e2 + 1e-6, e3

    monkeypatch.setattr(ppt, "pt_min_eigenvalues", off_by_1e_6_on_qubit_2)
    for p in states:
        with pytest.raises(RuntimeError, match="disagreement on qubit 2"):
            classify(p)
    assert classify(states[1], tol=1e-5).kind == VERDICT_BOUND


def test_a_tol_finer_than_rounding_is_no_oracle_disagreement():
    # The two routes differ by a few 1e-17 on ordinary states: a tol finer
    # than the input resolution is rejected, and at the resolution itself
    # the gap bound still holds.
    rng = np.random.default_rng(0)
    states = [np.array([0.10749657005067323, 0.09450663936429698, 0.09700564932437437,
                        0.09603977967748333, 0.006800958742439573, 0.3547424117873048,
                        0.23262226359453772, 0.010785727458889945])]
    states += [fn(rng) for fn in SEPARABLE_CONSTRUCTORS.values()]
    for p in states:
        with pytest.raises(ValueError, match="tol must be"):
            ppt.is_ppt(p, tol=1e-17)
        report = ppt.is_ppt(p, tol=pauli.RESOLUTION)
        assert report.passed == (report.min_value >= -pauli.RESOLUTION)
    with pytest.raises(ValueError, match="tol must be"):
        classify(states[0], tol=1e-17)
    assert classify(states[0], tol=pauli.RESOLUTION).kind == VERDICT_NPT


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf, 1e-17])
def test_verdict_entry_points_reject_a_tol_that_is_not_finite_or_finer_than_resolution(tol):
    # The two branch states are separable, and judged at a nan or sub-resolution
    # tol they read as NPT.
    states = [random_cat1_branch(np.random.default_rng(0)),
              random_cat2_branch(np.random.default_rng(0)), PROTOTYPE, np.full(8, 0.125)]
    entry_points = (classify, detect_bound, certify_separable, ppt.is_ppt,
                    lambda p, tol: classify_batch(p[None, :], tol))
    for p in states:
        assert classify(p).kind != VERDICT_NPT
        for entry in entry_points:
            with pytest.raises(ValueError, match="tol must be"):
                entry(p, tol)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, -0.0, math.pi / 2, math.pi]))
def test_product_average_is_the_product_state_loop_bit_for_bit(seed, exact):
    module = importlib.import_module("mubwitness.classify")
    angle_sets = np.random.default_rng(seed).uniform(-7.0, 7.0, (8, 6))
    angle_sets[seed % 8, seed % 6] = exact
    angle_sets = [tuple(row) for row in angle_sets.tolist()]
    acc = np.zeros((8, 8), dtype=complex)
    for angles in angle_sets:
        v = witness.product_state_vector(angles)
        acc += np.outer(v, v.conj())
    ref = acc / len(angle_sets)
    assert module._product_average(angle_sets).view(np.int64).tolist() == \
        ref.view(np.int64).tolist()


# --- soundness and the category theorems --------------------------------------


def _per_id_envelope_table(rs):
    """The envelope table column by column: (7, 36) selections, 36 hypots, += 1, -= hypot."""
    ids = [witness.NonlinearFamilyId(outer, z, inner, part)
           for outer in (1, -1) for z in (1, 2, 3)
           for inner in (1, -1) for part in witness.PARTITIONS]
    assert tuple(ids) == witness.all_family_ids()
    z_sign, pair_a, pair_b = np.zeros((3, 7, 36))
    for col, id_ in enumerate(ids):
        (j, k), (l, m) = id_.partition
        z_sign[id_.z_index - 1, col] = id_.outer_sign
        pair_a[[j - 1, k - 1], col] = 1.0, id_.inner_sign
        pair_b[[l - 1, m - 1], col] = 1.0, id_.inner_sign
    hyp = np.hypot(rs @ pair_a, rs @ pair_b)
    out = rs @ z_sign
    out += 1.0
    out -= hyp
    return out


def _cat1_lattice(grid):
    j, i = np.divmod(np.arange((grid + 1) ** 2), grid + 1)
    coord = np.arange(grid + 1) / grid
    valid = coord[i] + coord[j] <= 1.0 + 1e-12
    return cat1_special_batch(coord[i][valid], coord[j][valid])


def test_envelope_table_is_the_per_id_table_bit_for_bit():
    module = importlib.import_module("mubwitness.classify")
    rng = np.random.default_rng(35)
    batches = {"flat": random_probs(rng, 4096), "grid7": _cat1_lattice(7),
               "grid100": _cat1_lattice(100),
               "special": np.vstack([CAT2_STATE, np.full(8, 0.125), np.eye(8)])}
    for name, fn in SEPARABLE_CONSTRUCTORS.items():
        batches[name] = np.array([fn(rng) for _ in range(100)])
    for name, ps in batches.items():
        rs = pauli.signed_sums(ps, pauli.SIGNS)
        want = _per_id_envelope_table(rs)
        got = witness.nonlinear_values_batch(rs)
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
        cols = module._classify_rows(ps, ppt.ppt_inequalities_batch(ps).min(axis=1), 1e-9)[1]
        assert np.array_equal(cols, np.argmin(want, axis=1)), name
    for p in batches["special"]:  # the scalar entry points' batch of one
        r = pauli.r_from_p(p)
        assert np.array_equal(witness.nonlinear_values_batch(r).view(np.int64),
                              _per_id_envelope_table(r[None, :]).view(np.int64))


def test_separable_constructors_never_detected():
    rng = np.random.default_rng(6)
    for name, fn in SEPARABLE_CONSTRUCTORS.items():
        ps = np.array([fn(rng) for _ in range(1500)])
        rs = ps @ pauli.SIGNS.T
        table = witness.nonlinear_values_batch(rs)
        assert table.min() >= -1e-9, name


def test_category1_theorem():
    # p2 = p4 = 0, p1 = p3, PPT: detected iff r5 != r6
    rng = np.random.default_rng(7)
    for _ in range(300):
        w = rng.dirichlet(np.ones(3))
        u, a, b = w[0] / 2, w[1] / 2, w[2] / 2
        if u > 2 * a or u > 2 * b:
            continue
        gmax = min(u, 2 * a, 2 * b) / 2
        g5 = rng.uniform(-gmax, gmax)
        g7 = rng.uniform(-gmax, gmax)
        p = np.array([u, 0, u, 0, a + g5, a - g5, b + g7, b - g7])
        if ppt.ppt_inequalities_batch(p[None, :]).min() < -1e-12:
            continue
        r = pauli.r_from_p(p)
        det = detect_bound(p)
        if abs(r[4] - r[5]) > 1e-9:
            assert det is not None
        elif det is not None:
            assert det[1] > -1e-7  # borderline numerical detections only


def test_category2_theorem():
    # p4 = 0, p3 = p1+p2, p7 = p3+p8: detected iff r5 + r7 != 0
    rng = np.random.default_rng(8)
    count_detected = 0
    for _ in range(300):
        y = rng.dirichlet(np.ones(5))
        t = 1.0 / (3 * (y[0] + y[1]) + 2 * y[2] + y[3] + y[4])
        p1, p2, p8 = y[0] * t, y[1] * t, y[2] * t
        p3 = p1 + p2
        p5, p6 = y[3] * t, y[4] * t
        if p5 + p6 < p3 or abs(p5 - p6) > min(p3, p1 + p2):
            continue
        p = np.array([p1, p2, p3, 0.0, p5, p6, p3 + p8, p8])
        if ppt.ppt_inequalities_batch(p[None, :]).min() < -1e-12:
            continue
        r = pauli.r_from_p(p)
        det = detect_bound(p)
        if abs(r[4] + r[6]) > 1e-9:
            assert det is not None
            count_detected += 1
        elif det is not None:
            assert det[1] > -1e-7
    assert count_detected > 10


def test_category3_theorem():
    # special family: detected iff r5 != r6
    rng = np.random.default_rng(9)
    for _ in range(200):
        alpha = rng.uniform(-1, 0.5)
        p4 = rng.uniform(0, 1 / (4 * (1 - alpha)))
        s = (alpha - 1) * p4 + 0.25
        if s <= 0:
            continue
        params = ppt.SpecialFamilyParams(alpha, p4, rng.uniform(0, s), rng.uniform(0, s))
        p = ppt.special_family(params)
        r = pauli.r_from_p(p)
        det = detect_bound(p)
        if abs(r[4] - r[5]) > 1e-9:
            assert det is not None
        elif det is not None:
            assert det[1] > -1e-7


def test_classify_never_both_detected_and_certified():
    rng = np.random.default_rng(10)
    for name, fn in SEPARABLE_CONSTRUCTORS.items():
        for _ in range(80):
            v = classify(fn(rng))
            assert v.kind == VERDICT_SEPARABLE, name


# --- the cat1 triangle --------------------------------------------------------


def test_cat1_special_values():
    p = cat1_special(0.25, 0.125)
    assert np.allclose(p, [0.25, 0.125, 0.625 / 3, 0, 0.625 / 3, 0, 0.625 / 3, 0])
    with pytest.raises(ValueError):
        cat1_special(0.7, 0.7)


def test_cat1_special_batch_guard_is_the_simplex_check():
    # Every accepted row passes as_probs (range and sum within 1e-12); the
    # guard rejects exactly where the clipped row would sum past 1 + 1e-12.
    edge = 1.0 + 1e-12                   # 1 + 1.0000889e-12 after rounding
    below = float(np.nextafter(edge, 0.0))  # 1 + 0.9998669e-12
    p1 = np.array([0.0, 0.25, 0.5, 1.0, below, 0.5 * below, 1.0 + 5e-13])
    p2 = np.array([0.0, 0.125, 0.5, 0.0, 0.0, 0.5 * below, 4e-13])
    rows = cat1_special_batch(p1, p2)
    assert rows.shape == (7, 8)
    for row in rows:
        pauli.as_probs(row)
    for bad in ((edge, 0.0), (0.5 * edge, 0.5 * edge), (-1e-300, 0.5),
                (0.5, np.nan), (np.nan, 0.0), (np.inf, 0.0)):
        with pytest.raises(ValueError):
            cat1_special_batch([0.25, bad[0]], [0.25, bad[1]])
        with pytest.raises(ValueError):
            cat1_special(*bad)


def test_cat1_triangle_classification():
    assert classify(cat1_special(0.25, 0.125)).kind == VERDICT_BOUND
    assert classify(cat1_special(0.5, 0.5)).kind == VERDICT_SEPARABLE
    assert classify(cat1_special(0.0, 0.0)).kind == VERDICT_NPT
    # separable thick edge: 4 p1 - 2 p2 = 1
    for p1 in (0.25, 0.3, 0.4, 0.45):
        p2 = 2 * p1 - 0.5
        assert classify(cat1_special(p1, p2)).kind == VERDICT_SEPARABLE
    # the other two edges stay detected (away from the shared vertices)
    assert classify(cat1_special(0.05, 0.2)).kind == VERDICT_BOUND  # edge p1+p2 = 1/4
    p1 = 0.3
    assert classify(cat1_special(p1, 2 * p1 * 0 + (1 + 2 * p1) / 4)).kind == VERDICT_BOUND
