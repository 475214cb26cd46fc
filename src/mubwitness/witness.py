"""Linear and nonlinear entanglement witnesses for GHZ-diagonal states.

The linear family is III +- Z_i + cos(psi)(O_j +- O_k) + sin(psi)(O_l +- O_m)
where Z_i carries r_i, the O's are the four triple-X/Y observables, and the
inner sign applies to both parentheses.  Minimizing over psi collapses the
family to the closed-form envelope 1 +- r_i - sqrt(a^2 + b^2); the witness
is optimal because its product-state minimum is exactly zero.

The pair sums a and b depend only on the inner sign and the partition, so
the 36 envelope values are 6 signed sums 1 +- r_i minus 6 hypotenuses
(envelope_parts).  Each sum is the one rounded addition the per-id form
makes, so hypot and the final subtraction see the same operands and the
table is bit-identical to evaluating each id on its own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import H_MATRIX, as_probs, as_rvec, is_hermitian, pauli_matrix, r_from_p
from .ppt import jacobi_eigenvalues

# Observable carrying r_i for i = 1..3 and r_j for j = 4..7.
Z_OBSERVABLES = {1: "ZZI", 2: "ZIZ", 3: "IZZ"}
O_OBSERVABLES = {4: "XXX", 5: "XYY", 6: "YXY", 7: "YYX"}

# The three splits of {4,5,6,7}; the cosine pair is the one containing 4.
PARTITIONS = (((4, 5), (6, 7)), ((4, 6), (5, 7)), ((4, 7), (5, 6)))

# The 36 ids cross 6 signed sums 1 +- r_z, (outer sign, z), with 6 pairings,
# (inner sign, partition): id 6*u + v has signed sum u and pairing v.
_SIGNED_SUMS = tuple(itertools.product((1, -1), (1, 2, 3)))
_PAIRINGS = tuple(itertools.product((1, -1), PARTITIONS))


def _check_partition(partition) -> tuple[tuple[int, int], tuple[int, int]]:
    pairs = tuple(tuple(sorted(pair)) for pair in partition)
    if 4 not in pairs[0]:
        pairs = (pairs[1], pairs[0])
    if pairs not in PARTITIONS:
        raise ValueError(f"invalid partition {partition}")
    return pairs


@dataclass(frozen=True)
class NonlinearFamilyId:
    """Index data of one envelope witness (no angle): 36 distinct ids."""

    outer_sign: int
    z_index: int
    inner_sign: int
    partition: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        if self.outer_sign not in (1, -1) or self.inner_sign not in (1, -1):
            raise ValueError("signs must be +1 or -1")
        if self.z_index not in (1, 2, 3):
            raise ValueError("z_index must be 1, 2 or 3")
        object.__setattr__(self, "partition", _check_partition(self.partition))

    @property
    def label(self) -> str:
        (j, k), (l, m) = self.partition
        so = "+" if self.outer_sign > 0 else "-"
        si = "+" if self.inner_sign > 0 else "-"
        return f"W{so}{self.z_index},{si}({j},{k}),({l},{m})"

    def with_psi(self, psi: float) -> "WitnessSpec":
        return WitnessSpec(self.outer_sign, self.z_index, self.inner_sign,
                           self.partition, psi)


@dataclass(frozen=True)
class WitnessSpec(NonlinearFamilyId):
    """One member of the linear witness family: an id plus a finite angle psi.

    The id fields, and their checks, are inherited from NonlinearFamilyId.
    """

    psi: float

    def __post_init__(self):
        super().__post_init__()
        if not math.isfinite(self.psi):
            raise ValueError(f"psi must be a finite number, got {self.psi!r}")

    @property
    def label(self) -> str:
        return f"{super().label}@psi={self.psi:.6g}"


@lru_cache(maxsize=1)
def all_family_ids() -> tuple[NonlinearFamilyId, ...]:
    """All 36 envelope-witness ids in a fixed scan order."""
    return tuple(NonlinearFamilyId(outer, z, inner, part)
                 for outer, z in _SIGNED_SUMS for inner, part in _PAIRINGS)


def witness_matrix(w: WitnessSpec) -> np.ndarray:
    """Realize the witness as an 8x8 Hermitian matrix."""
    (j, k), (l, m) = w.partition
    mat = pauli_matrix("III") + w.outer_sign * pauli_matrix(Z_OBSERVABLES[w.z_index])
    mat = mat + math.cos(w.psi) * (
        pauli_matrix(O_OBSERVABLES[j]) + w.inner_sign * pauli_matrix(O_OBSERVABLES[k])
    )
    mat = mat + math.sin(w.psi) * (
        pauli_matrix(O_OBSERVABLES[l]) + w.inner_sign * pauli_matrix(O_OBSERVABLES[m])
    )
    return mat


def witness_eigenvalues(w: WitnessSpec) -> np.ndarray:
    """Exact eigenvalues from the common eigenbasis sign table."""
    (j, k), (l, m) = w.partition
    h = H_MATRIX
    vals = (
        1.0
        + w.outer_sign * h[w.z_index]
        + math.cos(w.psi) * (h[j] + w.inner_sign * h[k])
        + math.sin(w.psi) * (h[l] + w.inner_sign * h[m])
    )
    return np.sort(vals.astype(float))


def _pair_sums(id_: NonlinearFamilyId, r: np.ndarray) -> tuple[float, float]:
    (j, k), (l, m) = id_.partition
    a = r[j - 1] + id_.inner_sign * r[k - 1]
    b = r[l - 1] + id_.inner_sign * r[m - 1]
    return float(a), float(b)


def expectation(w: WitnessSpec, p) -> float:
    """Closed-form Tr[W rho(p)]: 1 +- r_i + a cos(psi) + b sin(psi)."""
    r = r_from_p(p)
    a, b = _pair_sums(w, r)
    return float(
        1.0 + w.outer_sign * r[w.z_index - 1]
        + a * math.cos(w.psi) + b * math.sin(w.psi)
    )


def optimal_psi(id_: NonlinearFamilyId, r) -> float:
    """Angle minimizing the linear expectation; 0 when both pair sums vanish."""
    a, b = _pair_sums(id_, as_rvec(r))
    if a == 0.0 and b == 0.0:
        return 0.0
    return (math.atan2(b, a) + math.pi) % (2.0 * math.pi)


def nonlinear_value(id_: NonlinearFamilyId, r) -> float:
    """Envelope value 1 +- r_i - sqrt(a^2 + b^2); the min over psi.

    np.hypot on the same parts as nonlinear_values_batch, so the value
    equals the table's column for this id bit for bit.
    """
    rv = as_rvec(r)
    a, b = _pair_sums(id_, rv)
    return float(1.0 + id_.outer_sign * rv[id_.z_index - 1] - np.hypot(a, b))


# r @ these (7, 6) selections gives +-r_z per signed sum and a, b per pairing.
# Each column has at most two nonzero entries, both +-1, so r @ matrix
# rounds once, exactly as the scalar r_j +- r_k does.
_E = np.eye(7)
_Z_SIGN = np.stack([outer * _E[z - 1] for outer, z in _SIGNED_SUMS], axis=1)
_PAIR_A = np.stack([_E[j - 1] + inner * _E[k - 1] for inner, ((j, k), _) in _PAIRINGS], axis=1)
_PAIR_B = np.stack([_E[l - 1] + inner * _E[m - 1] for inner, (_, (l, m)) in _PAIRINGS], axis=1)


def envelope_parts(rs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The envelope table's generators for rows of r: (x, a, b), each (n, 6).

    x = 1 +- r_z per signed sum and the pair sums a, b per pairing, so id
    6*u + v of all_family_ids() has the value x[:, u] - hypot(a[:, v], b[:, v]).
    """
    rs = np.atleast_2d(np.asarray(rs, dtype=float))
    return 1.0 + rs @ _Z_SIGN, rs @ _PAIR_A, rs @ _PAIR_B


def nonlinear_values_batch(rs: np.ndarray) -> np.ndarray:
    """Envelope values for all 36 ids, shape (n, 36); columns follow all_family_ids()."""
    x, a, b = envelope_parts(rs)
    return (x[:, :, None] - np.hypot(a, b)[:, None, :]).reshape(len(x), 36)


# ---------------------------------------------------------------------------
# Product states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductState:
    """Bloch angles (theta1, phi1, theta2, phi2, theta3, phi3)."""

    angles: tuple[float, float, float, float, float, float]


def _qubit_state(theta: float, phi: float) -> np.ndarray:
    return np.array(
        [math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)],
        dtype=complex,
    )


def product_state_vector(angles) -> np.ndarray:
    """Unit-norm threefold tensor product from six Bloch angles.

    The outer products form the same entries, in the same order and with the
    same roundings, as kron(kron(q1, q2), q3), at a fraction of its overhead.
    """
    t1, f1, t2, f2, t3, f3 = angles
    return np.multiply.outer(
        np.multiply.outer(_qubit_state(t1, f1), _qubit_state(t2, f2)), _qubit_state(t3, f3)
    ).ravel()


def _as_matrix(w) -> np.ndarray:
    """W as a matrix: built from a WitnessSpec, or a raw matrix checked once."""
    if isinstance(w, WitnessSpec):
        return witness_matrix(w)
    m = np.asarray(w, dtype=complex)
    if m.shape != (8, 8):
        raise ValueError(f"expected an 8x8 witness matrix, got shape {m.shape}")
    if not (np.isfinite(m).all() and is_hermitian(m)):
        raise ValueError("witness matrix must be finite and Hermitian within 1e-10")
    return m


def _expectation(m: np.ndarray, angles) -> float:
    v = product_state_vector(angles)
    return float(np.real(v.conj() @ m @ v))


def product_expectation(w, state) -> float:
    """<nu| W |nu> for a product state (WitnessSpec or raw Hermitian matrix)."""
    angles = state.angles if isinstance(state, ProductState) else tuple(state)
    return _expectation(_as_matrix(w), angles)


def _reduced_qubit_matrix(m6: np.ndarray, qubits: list[np.ndarray], k: int) -> np.ndarray:
    """2x2 matrix R with <nu|M|nu> = <q_k|R|q_k>, other qubits contracted."""
    q = qubits
    if k == 0:
        return np.einsum("b,c,abcxyz,y,z->ax", q[1].conj(), q[2].conj(), m6, q[1], q[2])
    if k == 1:
        return np.einsum("a,c,abcxyz,x,z->by", q[0].conj(), q[2].conj(), m6, q[0], q[2])
    return np.einsum("a,b,abcxyz,x,y->cz", q[0].conj(), q[1].conj(), m6, q[0], q[1])


def _start_points(n_starts: int, grid_points: int) -> list[list[float]]:
    """Deterministic low-discrepancy starts snapped to the coarse angle grid."""
    # Kronecker sequence on fractional parts of sqrt(prime).
    alphas = np.sqrt(np.array([2.0, 3.0, 5.0, 7.0, 11.0, 13.0])) % 1.0
    starts = [[math.pi / 2.0] * 6]
    for s in range(n_starts - 1):
        frac = ((s + 1) * alphas) % 1.0
        angles = []
        for c in range(6):
            if c % 2 == 0:  # theta coordinate
                angles.append(math.pi * round(frac[c] * (grid_points - 1)) / (grid_points - 1))
            else:
                angles.append(2.0 * math.pi * round(frac[c] * grid_points) / grid_points)
        starts.append(angles)
    return starts


def _canonical_angles(angles: list[float]) -> tuple[float, ...]:
    """Map to theta in [0, pi], phi in [0, 2*pi) without changing the state."""
    out = list(angles)
    for q in range(3):
        t = out[2 * q] % (2.0 * math.pi)
        f = out[2 * q + 1]
        if t > math.pi:
            t = 2.0 * math.pi - t
            f = f + math.pi
        out[2 * q] = t
        out[2 * q + 1] = f % (2.0 * math.pi)
    return tuple(out)


def min_over_products(w) -> tuple[float, ProductState]:
    """Global minimum of <nu|W|nu> over product states.

    Multistart coordinate descent: 48 starts are drawn from a coarse
    per-angle grid (24 points per angle, deterministic low-discrepancy
    selection); each coordinate update minimizes the exact single-harmonic
    restriction A + B cos(x) + C sin(x) obtained from a two-qubit
    contraction of W.
    """
    n_starts, grid_points, tol, budget = 48, 24, 1e-8, 100_000
    m = _as_matrix(w)
    m6 = m.reshape((2,) * 6)
    best_val = math.inf
    best_angles = None
    evals = 0
    for start in _start_points(n_starts, grid_points):
        angles = list(start)
        qubits = [_qubit_state(angles[2 * q], angles[2 * q + 1]) for q in range(3)]
        current = _expectation(m, angles)
        evals += 1
        while evals < budget:
            previous = current
            for c in range(6):
                q = c // 2
                red = _reduced_qubit_matrix(m6, qubits, q)
                r00 = red[0, 0].real
                r11 = red[1, 1].real
                r01 = red[0, 1]
                if c % 2 == 0:  # theta update, phi fixed
                    f = angles[2 * q + 1]
                    a0 = 0.5 * (r00 + r11)
                    bc = 0.5 * (r00 - r11)
                    cc = (r01 * np.exp(1j * f)).real
                else:  # phi update, theta fixed
                    t = angles[2 * q]
                    a0 = 0.5 * (r00 + r11) + math.cos(t) * 0.5 * (r00 - r11)
                    bc = math.sin(t) * r01.real
                    cc = -math.sin(t) * r01.imag
                if bc == 0.0 and cc == 0.0:
                    continue
                angles[c] = math.atan2(-cc, -bc)
                qubits[q] = _qubit_state(angles[2 * q], angles[2 * q + 1])
                current = a0 - math.hypot(bc, cc)
                evals += 2
            if previous - current < tol:
                break
        if current < best_val:
            best_val = current
            best_angles = _canonical_angles(angles)
    state = ProductState(best_angles)
    return _expectation(m, state.angles), state


# ---------------------------------------------------------------------------
# Optimality obstruction (kernel product states)
# ---------------------------------------------------------------------------


def optimality_obstruction(psi: float) -> int:
    """Rank of the 4x4 system of kernel-state orthogonality conditions.

    Rank 4 means only the trivial subtraction candidate exists, so the
    witness at this angle is optimal; the rank drops at psi = 0 and pi.
    """
    e_m = np.exp(-1j * psi)
    e_p = np.exp(1j * psi)
    m = np.array(
        [
            [1.0, e_m, 1.0, e_m],
            [1.0, e_p, 1.0, e_p],
            [-1.0, e_m, 1.0, -e_m],
            [-1.0, e_p, 1.0, -e_p],
        ]
    )
    sing_sq = jacobi_eigenvalues(m.conj().T @ m)
    cutoff = 1e-10 * max(1.0, float(sing_sq.max()))
    return int(np.sum(sing_sq > cutoff))


def validate_ew(w: WitnessSpec) -> bool:
    """True iff W is nonnegative on products (to -1e-6) and has an eigenvalue below -1e-8."""
    min_val, _ = min_over_products(w)
    if min_val < -1e-6:
        return False
    return bool(witness_eigenvalues(w)[0] < -1e-8)
