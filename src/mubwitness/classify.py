"""End-to-end verdicts for GHZ-diagonal states.

A state is NPT, bound-entangled-detected (PPT but caught by an envelope
witness), separable-certified (an explicit convex decomposition into
manifestly separable pieces reconstructs it), or PPT-undecided.  The
certificate constructions cover: one pair of probabilities zero, three
pairs equal, and the three category separable branches together with the
separable edge of the category-1 triangle.  One function,
_match_patterns, is the pattern test of every family, and both the
scalar certify_separable and the batch core call it.  Each category
branch is stated once, in _branch_cat1/2/3: _match_patterns reads its
flag, and the one table-driven builder, _build_branch, reads its mass,
cos(2*phi0) numerator and basis-state weights.  classify and
classify_batch raise ValueError on a row that is not a probability vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .pauli import (GHZ_PROJECTORS, RESOLUTION, SIGNS, as_probs, check_simplex, check_tol,
                    densities_from_p_batch, r_from_p, signed_sums)
from .ppt import PptReport, SpecialFamilyParams, is_ppt, ppt_inequalities_batch, special_family
from .witness import NonlinearFamilyId, all_family_ids, nonlinear_values_batch

VERDICT_NPT = "NPT"
VERDICT_BOUND = "bound-detected"
VERDICT_SEPARABLE = "separable-certified"
VERDICT_UNDECIDED = "ppt-undecided"

# Partition conjugate to each z index: these pairs combine with 1 +- r_i
# into category-1/3 equalities; the remaining four pairs give category 2.
_CONJ_PARTITION = {1: ((4, 7), (5, 6)), 2: ((4, 6), (5, 7)), 3: ((4, 5), (6, 7))}


def _build_relations():
    relations = []
    for i in (1, 2, 3):
        pair_a, pair_b = _CONJ_PARTITION[i]  # pair_a contains index 4
        others = [p for part in _CONJ_PARTITION.values() if part != _CONJ_PARTITION[i]
                  for p in part]
        for s in (1, -1):
            relations.append((1, s, i, pair_b, s))
            relations.append((1, s, i, pair_a, -s))
            relations.append((3, s, i, pair_a, s))
            relations.append((3, s, i, pair_b, -s))
            for pair in others:
                for t in (1, -1):
                    relations.append((2, s, i, pair, t))
    return tuple(relations)


CATEGORY_RELATIONS = _build_relations()


@dataclass(frozen=True)
class CategoryHit:
    """One satisfied category equality, e.g. 1+r1 = r4-r7."""

    category: int
    lhs_sign: int
    z_index: int
    pair: tuple[int, int]
    inner_sign: int
    residual: float

    @property
    def equality(self) -> str:
        sl = "+" if self.lhs_sign > 0 else "-"
        si = "+" if self.inner_sign > 0 else "-"
        return f"1{sl}r{self.z_index} = r{self.pair[0]}{si}r{self.pair[1]}"


def category_of(p) -> list[CategoryHit]:
    """All category equalities satisfied by the state within 1e-9."""
    r = r_from_p(p)
    hits = []
    for cat, s, i, (j, k), t in CATEGORY_RELATIONS:
        residual = (1.0 + s * r[i - 1]) - (r[j - 1] + t * r[k - 1])
        if abs(residual) <= 1e-9:
            hits.append(CategoryHit(cat, s, i, (j, k), t, float(residual)))
    hits.sort(key=lambda h: (h.category, h.z_index, -h.lhs_sign))
    return hits


def detect_bound(p, tol: float = 1e-9):
    """Best (most negative) envelope witness, or None.

    Raises ValueError when called on a non-PPT state.
    """
    ps = as_probs(p)[None, :]
    ppt_mask, cols, values, detected = _detect_rows(
        ps, ppt_inequalities_batch(ps).min(axis=1), tol)
    if not ppt_mask[0]:
        raise ValueError("state is not PPT")
    return (_IDS[cols[0]], float(values[0])) if detected[0] else None


# ---------------------------------------------------------------------------
# Separable certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertTerm:
    weight: float
    description: str
    matrix: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class SeparableCertificate:
    terms: tuple[CertTerm, ...]
    reconstruction_error: float
    construction: str

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(t.weight for t in self.terms)


def _pair_mix(k: int) -> np.ndarray:
    """(|psi_{2k+1}><..| + |psi_{2k+2}><..|) / 2: a computational-pair mixture."""
    proj = GHZ_PROJECTORS
    return (proj[2 * k] + proj[2 * k + 1]) / 2.0


def _coherence_state(k: int, sign: int) -> np.ndarray:
    """(III + sign*(P_odd - P_even))/8: a phase-averaged product mixture."""
    proj = GHZ_PROJECTORS
    return (np.eye(8, dtype=complex) + sign * (proj[2 * k] - proj[2 * k + 1])) / 8.0


def _pair_complement(k: int) -> np.ndarray:
    """(III - P_odd - P_even)/6: the six remaining computational states."""
    proj = GHZ_PROJECTORS
    return (np.eye(8, dtype=complex) - proj[2 * k] - proj[2 * k + 1]) / 6.0


def _basis_projector(idx: int) -> np.ndarray:
    m = np.zeros((8, 8), dtype=complex)
    m[idx, idx] = 1.0
    return m


def _product_average(angle_sets) -> np.ndarray:
    """Equal-weight average of explicit product-state projectors.

    The product vectors are built as one array, with the entries, nesting
    order and roundings of witness.product_state_vector.
    """
    angles = np.array(angle_sets, dtype=float)
    half = angles[:, 0::2] / 2.0
    q = np.empty(half.shape + (2,), dtype=complex)  # (state, qubit, amplitude)
    q[..., 0] = np.cos(half)
    q[..., 1] = np.exp(1j * angles[:, 1::2]) * np.sin(half)
    vs = q[:, 0, :, None, None] * q[:, 1, None, :, None] * q[:, 2, None, None, :]
    vs = vs.reshape(len(angles), 8)
    projectors = vs[:, :, None] * vs.conj()[:, None, :]
    acc = np.zeros((8, 8), dtype=complex)
    for proj in projectors:
        acc += proj
    return acc / len(angles)


def _equatorial_mix(phi0: float, qubit: int, sign: int) -> np.ndarray:
    """Average of 8 equatorial products with phi_qubit = sign*phi1 (mod the pi branch).

    The third qubit's phase is 0, or pi on the pi branch, where phi_qubit
    is sign*(phi1 - pi).  qubit 2, sign -1 carries coherence +1/8 on the
    (000,111) and (001,110) pairs and cos(2*phi0)/8 on the other two;
    qubit 3, sign +1 carries +1/8 on (001,110) and (011,100) and
    cos(2*phi0)/8 on (000,111) and (010,101).  The diagonal is uniform.
    """
    half = math.pi / 2.0
    sets = []
    for phi in (phi0, -phi0, phi0 + math.pi, -phi0 + math.pi):
        for shift in (0.0, math.pi):
            phases = [phi, shift, shift]
            phases[qubit - 1] = sign * (phi - shift)
            sets.append((half, phases[0], half, phases[1], half, phases[2]))
    return _product_average(sets)


# Each category branch, stated once as a function of p1..p8 that takes
# eight floats or eight columns, as _match_patterns does.  It returns the
# branch's flag, the mass m of its equatorial mixture, the numerator c of
# cos(2*phi0) = c/m, and the weights of its two pairs of basis states.


def _branch_cat1(p1, p2, p3, p4, p5, p6, p7, p8):
    """p2 = p4 = 0, p1 = p3, r5 = r6: equal pair-3/pair-4 imbalance."""
    mt = RESOLUTION
    u = (p1 + p3) / 2.0
    gamma5, gamma7 = (p5 - p6) / 2.0, (p7 - p8) / 2.0
    w34, w78 = (p5 + p6) / 2.0 - u / 2.0, (p7 + p8) / 2.0 - u / 2.0
    flag = ((p2 <= mt) & (p4 <= mt) & (abs(p1 - p3) <= mt) & (abs(gamma5 - gamma7) <= mt)
            & (abs(gamma5 + gamma7) <= u + mt) & (w34 >= -mt) & (w78 >= -mt))
    # Twice the mean imbalance, not gamma5 + gamma7: halving a subnormal sum can round.
    return flag, u, 2.0 * ((gamma5 + gamma7) / 2.0), w34, w78


def _branch_cat2(p1, p2, p3, p4, p5, p6, p7, p8):
    """p4 = 0, p3 = p1 + p2, p7 = p3 + p8, r5 + r7 = 0: balanced cross pairs."""
    mt = RESOLUTION
    delta1, delta5 = p1 - p2, p5 - p6
    delta = (delta1 + delta5) / 2.0
    w34, w78 = (p5 + p6) / 2.0 - p3 / 2.0, (p7 + p8) / 2.0 - p3 / 2.0
    flag = ((p4 <= mt) & (abs(p3 - p1 - p2) <= mt) & (abs(p7 - p3 - p8) <= mt)
            & (abs(delta1 - delta5) <= mt) & (abs(delta) <= p3 + mt)
            & (w34 >= -mt) & (w78 >= -mt))
    return flag, p3, delta, w34, w78


def _branch_cat3(p1, p2, p3, p4, p5, p6, p7, p8):
    """p1 + p3 = 1/2, four equal splits s >= 0, p5 = p7, p6 = p8 (r5 = r6)."""
    mt = RESOLUTION
    splits = (p1 - p2, p3 - p4, p5 + p6, p7 + p8)
    s = (splits[0] + splits[1] + splits[2] + splits[3]) / 4.0
    w12, w34 = (p1 + p2 - s) / 2.0, (p3 + p4 - s) / 2.0
    flag = ((abs(p1 + p3 - 0.5) <= mt) & (abs(splits[0] - s) <= mt)
            & (abs(splits[1] - s) <= mt) & (abs(splits[2] - s) <= mt)
            & (abs(splits[3] - s) <= mt) & (s >= -mt)
            & (abs(p5 - p7) <= mt) & (abs(p6 - p8) <= mt) & (w12 >= -mt) & (w34 >= -mt))
    return flag, s, p5 - p6, w12, w34


def _match_patterns(p1, p2, p3, p4, p5, p6, p7, p8):
    """The one pattern test of every certificate family, within RESOLUTION.

    Returns five flags in the order of _BUILDERS: one pair zero, three
    pairs equal, and the category-1, -2 and -3 branches, whose flags come
    from _branch_cat1/2/3.  The body uses only arithmetic, abs,
    comparisons, & and |, so it takes either eight floats (one state, five
    bools) or eight (n,) columns (n states, five bool arrays), and a row
    gets the same flags alone as inside a batch.  A builder turns every
    state its flag accepts into a certificate.
    """
    mt = RESOLUTION
    pairs = ((p1, p2), (p3, p4), (p5, p6), (p7, p8))
    diffs = [abs(a - b) for a, b in pairs]
    equal = [d <= mt for d in diffs]
    # Three pairs equal and pair k the odd one out needs eps1 =
    # (s_m - |d_k|) / 2 >= 0 at every other pair m, s_m its sum: the PPT
    # condition of the pattern.
    room = [a + b + 2.0 * mt for a, b in pairs]
    case1 = case2 = False
    for k, (a, b) in enumerate(pairs):
        m1, m2, m3 = (m for m in range(4) if m != k)
        rest_equal = equal[m1] & equal[m2] & equal[m3]
        # Pair k zero; PPT then forces the other pairs equal.
        case1 = case1 | ((a <= mt) & (b <= mt) & rest_equal)
        case2 = case2 | (rest_equal & (diffs[k] <= room[m1]) & (diffs[k] <= room[m2])
                         & (diffs[k] <= room[m3]))
    p = (p1, p2, p3, p4, p5, p6, p7, p8)
    return case1, case2, _branch_cat1(*p)[0], _branch_cat2(*p)[0], _branch_cat3(*p)[0]


def _build_case1(p: np.ndarray):
    """One pair zero, taken as the lightest; PPT then forces the remaining pairs equal."""
    sums = p[0::2] + p[1::2]
    zero = int(np.argmin(sums))
    terms = [CertTerm(w, f"pair-{k + 1} computational mixture", _pair_mix(k))
             for k, w in enumerate(sums) if k != zero and w > 0.0]
    return "one pair zero", terms


def _build_case2(p: np.ndarray):
    """At most one unequal pair; epsilon bookkeeping with both branches."""
    diffs = np.abs(p[0::2] - p[1::2])
    u = int(np.argmax(diffs))
    hi, lo = (2 * u, 2 * u + 1) if p[2 * u] >= p[2 * u + 1] else (2 * u + 1, 2 * u)
    a, b = p[hi], p[lo]
    (q1, m1), (q2, m2), (q3, m3) = sorted(
        ((p[2 * k] + p[2 * k + 1]) / 2.0, k) for k in range(4) if k != u)
    eps1 = max((b + 2.0 * q1 - a) / 2.0, 0.0)
    sign = 1 if hi < lo else -1  # +: the odd (first) member carries the larger weight
    terms = []
    if eps1 <= b:
        if eps1 > 0.0:
            terms.append(CertTerm(8.0 * eps1, "maximally mixed", np.eye(8, dtype=complex) / 8.0))
        if b - eps1 > 0.0:
            terms.append(CertTerm(2.0 * (b - eps1),
                                  f"pair-{u + 1} computational mixture", _pair_mix(u)))
    else:
        if b > 0.0:
            terms.append(CertTerm(8.0 * b, "maximally mixed", np.eye(8, dtype=complex) / 8.0))
        terms.append(CertTerm(6.0 * (eps1 - b),
                              f"complement of pair {u + 1}", _pair_complement(u)))
    if q1 - eps1 > 0.0:
        terms.append(CertTerm(8.0 * (q1 - eps1),
                              f"pair-{u + 1} phase-averaged coherence",
                              _coherence_state(u, sign)))
    for q, k in ((q2, m2), (q3, m3)):
        if q - q1 > 0.0:
            terms.append(CertTerm(2.0 * (q - q1),
                                  f"pair-{k + 1} computational mixture", _pair_mix(k)))
    return "three pairs equal", terms


def _build_branch(branch, name, axis, mix, states, p: np.ndarray):
    """A category branch's certificate: its equatorial mixture, then its basis states.

    The weight of the i-th pair of basis states in `states` is the
    branch's i-th basis-state weight.
    """
    _, mass, cos_num, *weights = branch(*p)
    terms = []
    if mass > 0.0:
        t = min(1.0, max(-1.0, cos_num / mass))
        phi0 = math.acos(t) / 2.0
        terms.append(CertTerm(4.0 * mass, f"equatorial product average ({axis}, phi0={phi0:.6g})",
                              _equatorial_mix(phi0, *mix)))
    terms += [CertTerm(w, f"basis state |{idx:03b}>", _basis_projector(idx))
              for w, pair in zip(weights, states) for idx in pair if w > 0.0]
    return name, terms


# Per category branch: its function, certificate name, axis text, the
# (qubit, sign) of its equatorial mixture, and the basis states weighted
# by each of its two weights.  Category 3 has qubits 1, 2 z-aligned
# (theta2 = theta1); at theta = pi/2 that is category 1's mixture.
_BUILDERS = (
    _build_case1,
    _build_case2,
    partial(_build_branch, _branch_cat1, "category-1 branch (r5 = r6)", "z-antialigned 1-2",
            (2, -1), ((2, 5), (3, 4))),
    partial(_build_branch, _branch_cat2, "category-2 branch (r5 + r7 = 0)",
            "x-aligned qubit 2", (3, 1), ((2, 5), (3, 4))),
    partial(_build_branch, _branch_cat3, "category-3 branch (r5 = r6)", "z-aligned 1-2",
            (2, -1), ((0, 7), (1, 6))),
)


def certify_separable(p, tol: float = 1e-9):
    """Separable certificate of the first family the state matches, or None.

    The families are tried in a fixed order (pair-zero, three-pairs-equal,
    then the category branches), and _match_patterns is the only pattern
    test.  The certificate must reconstruct the state entrywise to 1e-10
    with nonnegative weights summing to one.  Since the constructions are
    exact on their patterns, a matched state that fails any of these checks
    raises RuntimeError: a matched state is certified, or a fault is raised.
    """
    check_tol(tol)
    arr = as_probs(p)
    if ppt_inequalities_batch(arr[None, :]).min() < -tol:
        raise ValueError("state is not PPT")
    family = next((k for k, hit in enumerate(_match_patterns(*arr.tolist())) if hit), None)
    if family is None:
        return None
    name, terms = _BUILDERS[family](arr)
    weights = np.array([t.weight for t in terms])
    if weights.size == 0 or weights.min() < -1e-11:
        raise RuntimeError(f"certificate '{name}' has weights {weights.tolist()}")
    if abs(weights.sum() - 1.0) > 1e-10:
        raise RuntimeError(f"certificate '{name}' weights sum to {weights.sum()}")
    rho = densities_from_p_batch(arr[None, :])[0]  # density_from_p without a second as_probs
    recon = sum(t.weight * t.matrix for t in terms)
    err = float(np.max(np.abs(recon - rho)))
    if err > 1e-10:
        raise RuntimeError(f"certificate '{name}' reconstruction error {err}")
    return SeparableCertificate(tuple(terms), err, name)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    kind: str
    ppt: PptReport
    detection: tuple[NonlinearFamilyId, float] | None = None
    certificate: SeparableCertificate | None = None


# The batch core works on verdict codes that index _VERDICTS.
_IDS = all_family_ids()
_LABELS = np.array([id_.label for id_ in _IDS], dtype=object)
_VERDICTS = np.array([VERDICT_NPT, VERDICT_BOUND, VERDICT_SEPARABLE, VERDICT_UNDECIDED],
                     dtype=object)
_NPT, _BOUND, _SEPARABLE, _UNDECIDED = range(4)


def classify(p, tol: float = 1e-9) -> Verdict:
    """NPT / bound-detected / separable-certified / ppt-undecided.

    The PPT report is is_ppt's, whose eigenvalues are the closed form; the
    verdict, witness and value come from the batch core on a batch of one,
    fed is_ppt's smallest inequality value, so they equal classify_batch's
    row for the same state bit for bit.
    """
    arr = np.asarray(p, dtype=float)
    report = is_ppt(arr, tol)  # validates arr
    codes, cols, values, certs = _classify_rows(arr[None, :], np.array([report.min_value]), tol)
    kind = _VERDICTS[codes[0]]
    detection = (_IDS[cols[0]], float(values[0])) if kind == VERDICT_BOUND else None
    return Verdict(kind, report, detection=detection, certificate=certs.get(0))


def classify_batch(ps: np.ndarray, tol: float = 1e-9):
    """Vectorized pipeline over many states.

    Returns (verdicts, witness_labels, witness_values): object/float arrays
    aligned with the input rows.  Raises ValueError, as classify does, when
    a row is not a probability vector (pauli.check_simplex).  PPT means
    the 24 inequalities here as in `classify`; neither runs the Jacobi
    oracle, which `mubw verify --suite oracle` cross-checks them against.
    """
    ps = np.asarray(ps, dtype=float)
    check_simplex(ps)
    codes, cols, values, _ = _classify_rows(ps, ppt_inequalities_batch(ps).min(axis=1), tol)
    detected = codes == _BOUND
    labels = np.where(detected, _LABELS[cols], "")
    return _VERDICTS[codes], labels, np.where(detected, values, np.nan)


def _detect_rows(ps: np.ndarray, ineq_min: np.ndarray, tol: float):
    """The classification core's detection step, all that detect_bound runs.

    ineq_min holds each row's smallest of the 24 inequality values, shape
    (n,); the caller evaluates them once and keeps only this minimum.
    Returns (ppt_mask, cols, values, detected): each PPT row's most
    negative envelope column and its value, and the PPT rows it detects.
    r and the 36-column table are built for the PPT rows only (about a
    tenth of a flat draw); an NPT row keeps col 0 and value NaN, which no
    caller reads.  Each row's r and table entries are the same alone as
    inside a batch, so the gather changes no bit.  When every row is PPT,
    as for a scalar classify's batch of one, the rows are used without a
    gather.
    """
    check_tol(tol)
    ppt_mask = ineq_min >= -tol
    n = len(ppt_mask)
    rows = np.flatnonzero(ppt_mask)
    if rows.size == n:
        table = nonlinear_values_batch(signed_sums(ps, SIGNS))
        cols = np.argmin(table, axis=1)
        values = table[np.arange(n), cols]
        return ppt_mask, cols, values, values < -tol
    cols = np.zeros(n, dtype=np.intp)
    values = np.full(n, np.nan)
    detected = np.zeros(n, dtype=bool)
    if rows.size:
        ppt_cols, ppt_values, ppt_detected = _detect_rows(ps[rows], ineq_min[rows], tol)[1:]
        cols[rows], values[rows], detected[rows] = ppt_cols, ppt_values, ppt_detected
    return ppt_mask, cols, values, detected


def _classify_rows(ps: np.ndarray, ineq_min: np.ndarray, tol: float):
    """The one classification core behind classify and classify_batch.

    ineq_min is each row's smallest inequality value, as for _detect_rows.
    Returns (codes, cols, values, certificates): verdict codes indexing
    _VERDICTS, _detect_rows' cols and values, and the certificate of every
    row certified separable, keyed by row.  _match_patterns runs once over
    the PPT rows' columns, or on the row's eight floats when only one row is
    PPT, and certify_separable only on the rows it flags, each of which it
    certifies.  The rows are not validated here: classify has is_ppt
    validate its state, and classify_batch runs check_simplex.
    """
    ppt_mask, cols, values, detected = _detect_rows(ps, ineq_min, tol)
    codes = np.where(ppt_mask, _UNDECIDED, _NPT)
    codes[detected] = _BOUND
    certs = {}
    cand = np.flatnonzero(ppt_mask)
    if cand.size == 1:  # eight floats: numpy calls on one-element columns cost ~20x more
        if not any(_match_patterns(*ps[cand[0]].tolist())):
            cand = cand[:0]
    elif cand.size:
        cand = cand[np.logical_or.reduce(_match_patterns(*ps[cand].T))]
    for i in cand:
        certs[int(i)] = certify_separable(ps[i], tol)
        if detected[i]:
            raise RuntimeError("state both detected and certified separable")
        codes[i] = _SEPARABLE
    return codes, cols, values, certs


# ---------------------------------------------------------------------------
# Families and constructors
# ---------------------------------------------------------------------------


def cat1_special(p1: float, p2: float) -> np.ndarray:
    """The triangular family (p1, p2, p, 0, p, 0, p, 0), p = (1-p1-p2)/3."""
    return cat1_special_batch([p1], [p2])[0]


def cat1_special_batch(p1, p2) -> np.ndarray:
    """cat1_special over arrays of (p1, p2): one (n, 8) array, checked in one pass.

    The guard is the simplex check: once it holds, the clipped rows lie in
    [0, 1] and sum to 1 within pauli.RESOLUTION.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if not (np.isfinite(p1).all() and np.isfinite(p2).all()) \
            or np.any(p1 < 0) or np.any(p2 < 0) or np.any(p1 + p2 - 1.0 > RESOLUTION):
        raise ValueError("parameters outside the simplex")
    p = (1.0 - p1 - p2) / 3.0
    zero = np.zeros_like(p)
    return np.clip(np.stack([p1, p2, p, zero, p, zero, p, zero], axis=1), 0.0, 1.0)


def random_case1(rng: np.random.Generator) -> np.ndarray:
    """One random pair zeroed, the others paired equal."""
    zero = int(rng.integers(4))
    q = rng.dirichlet(np.ones(3)) / 2.0
    p = np.zeros(8)
    ks = [k for k in range(4) if k != zero]
    for k, val in zip(ks, q):
        p[2 * k] = p[2 * k + 1] = val
    return p


def random_case2(rng: np.random.Generator) -> np.ndarray:
    """One unequal pair, three equal pairs, PPT by rejection."""
    while True:
        masses = rng.dirichlet(np.ones(4))
        u = int(rng.integers(4))
        beta = rng.uniform(0.5, 1.0)
        a, b = masses[u] * beta, masses[u] * (1.0 - beta)
        qs = [masses[k] / 2.0 for k in range(4) if k != u]
        if a - b <= 2.0 * min(qs) + 1e-15:
            p = np.zeros(8)
            ks = [k for k in range(4) if k != u]
            for k, val in zip(ks, qs):
                p[2 * k] = p[2 * k + 1] = val
            p[2 * u], p[2 * u + 1] = a, b
            return p


def random_cat1_branch(rng: np.random.Generator) -> np.ndarray:
    """p2 = p4 = 0, p1 = p3, r5 = r6; PPT by construction."""
    while True:
        w = rng.dirichlet(np.ones(3))
        u, a, b = w[0] / 2.0, w[1] / 2.0, w[2] / 2.0
        if u <= 2.0 * a and u <= 2.0 * b:
            gmax = min(u, 2.0 * a, 2.0 * b) / 2.0
            gamma = rng.uniform(-1.0, 1.0) * gmax
            return np.array([u, 0, u, 0, a + gamma, a - gamma, b + gamma, b - gamma])


def random_cat2_branch(rng: np.random.Generator) -> np.ndarray:
    """p4 = 0, p3 = p1+p2, p7 = p3+p8, r5 + r7 = 0; PPT by construction."""
    while True:
        y = rng.dirichlet(np.ones(4))
        t = 1.0 / (3.0 * (y[0] + y[1]) + 2.0 * y[2] + y[3])
        p1, p2, p8, m = y[0] * t, y[1] * t, y[2] * t, y[3] * t
        p3 = p1 + p2
        if m >= p3:
            delta = p1 - p2
            return np.array([p1, p2, p3, 0.0,
                             (m + delta) / 2.0, (m - delta) / 2.0, p3 + p8, p8])


def random_cat3_branch(rng: np.random.Generator) -> np.ndarray:
    """Special boundary family with split5 = split7 (so r5 = r6)."""
    alpha = rng.uniform(-1.0, 0.5)
    p4 = rng.uniform(0.0, 1.0 / (4.0 * (1.0 - alpha)))
    s = (alpha - 1.0) * p4 + 0.25
    split = rng.uniform(0.0, s) if s > 0 else 0.0
    return special_family(SpecialFamilyParams(alpha, p4, split, split))


def random_fig4_edge(rng: np.random.Generator) -> np.ndarray:
    """The separable edge of the category-1 triangle."""
    p2 = rng.uniform(0.0, 0.5)
    p = (1.0 - 2.0 * p2) / 4.0
    return np.array([p2 + p, p2, p, 0.0, p, 0.0, p, 0.0])


SEPARABLE_CONSTRUCTORS = {
    "case1": random_case1,
    "case2": random_case2,
    "cat1-branch": random_cat1_branch,
    "cat2-branch": random_cat2_branch,
    "cat3-branch": random_cat3_branch,
    "fig4-edge": random_fig4_edge,
}
