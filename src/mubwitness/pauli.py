"""Pauli-string algebra and the GHZ-diagonal state family for three qubits.

Eight GHZ basis states simultaneously diagonalize the seven commuting
observables ZZI, ZIZ, IZZ, XXX, XYY, YXY, YYX.  A state of the family is
described either by eight mixing probabilities p (over the GHZ basis) or
by seven correlation coefficients r (expectations of the observables);
the two coordinate systems are related by an exact +-1 linear map.

In floating point, r and the 24 PPT inequalities are signed sums of the
p_i, and every entry point evaluates them through `signed_sums`: one
fixed order of roundings, so a state gets the same bits alone or inside
any batch, whatever order a BLAS matrix product would choose.
"""

from __future__ import annotations

import math

import numpy as np

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

PAULI_LABELS = "IXYZ"

# Operator carrying r_k (k = 1..7) in the diagonal expansion of rho.
R_OPERATORS = ("ZZI", "ZIZ", "IZZ", "XXX", "XYY", "YXY", "YYX")

# r = SIGNS @ p, evaluated by signed_sums.  Row k holds the signs of
# p_1..p_8 in r_{k+1}.
SIGNS = np.array(
    [
        [+1, +1, +1, +1, -1, -1, -1, -1],
        [+1, +1, -1, -1, +1, +1, -1, -1],
        [+1, +1, -1, -1, -1, -1, +1, +1],
        [+1, -1, +1, -1, +1, -1, +1, -1],
        [-1, +1, +1, -1, +1, -1, -1, +1],
        [-1, +1, +1, -1, -1, +1, +1, -1],
        [-1, +1, -1, +1, +1, -1, +1, -1],
    ],
    dtype=np.int64,
)

# Character table of the family: first row all ones, then the sign rows.
# Satisfies H @ H.T == 8 * I exactly.
H_MATRIX = np.vstack([np.ones((1, 8), dtype=np.int64), SIGNS])

# Computational-basis index pairs (|abc>, |a~b~c~>) of the GHZ states; the
# basis index of |n1 n2 n3> is 4*n1 + 2*n2 + n3.
GHZ_PAIRS = ((0, 7), (1, 6), (2, 5), (3, 4))

_SQRT_HALF = 1.0 / np.sqrt(2.0)


def _check_pauli_string(labels: str) -> None:
    if len(labels) != 3 or any(c not in PAULI_LABELS for c in labels):
        raise ValueError(f"invalid Pauli string {labels!r}")


def pauli_matrix(labels: str) -> np.ndarray:
    """Kronecker product of three single-qubit Paulis, leftmost = qubit 1."""
    _check_pauli_string(labels)
    m = PAULI_1Q[labels[0]]
    for c in labels[1:]:
        m = np.kron(m, PAULI_1Q[c])
    return m


def pauli_product(a: str, b: str) -> tuple[complex, str]:
    """Label-wise product a*b, returned as (phase, string) with phase in {+-1, +-i}."""
    _check_pauli_string(a)
    _check_pauli_string(b)
    table = {
        ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
        ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
        ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
        ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
    }
    phase = 1.0 + 0.0j
    out = []
    for ca, cb in zip(a, b):
        ph, c = table[(ca, cb)]
        phase *= ph
        out.append(c)
    return phase, "".join(out)


def ghz_basis() -> np.ndarray:
    """The eight GHZ basis vectors as rows of an 8x8 array.

    Row i (0-based) is |psi_{i+1}>: the states come in +/- pairs on the
    computational pairs (0,7), (1,6), (2,5), (3,4).
    """
    basis = np.zeros((8, 8), dtype=complex)
    for k, (lo, hi) in enumerate(GHZ_PAIRS):
        basis[2 * k, lo] = _SQRT_HALF
        basis[2 * k, hi] = _SQRT_HALF
        basis[2 * k + 1, lo] = _SQRT_HALF
        basis[2 * k + 1, hi] = -_SQRT_HALF
    return basis


def ghz_projectors() -> np.ndarray:
    """Stack of the eight rank-1 GHZ projectors, shape (8, 8, 8)."""
    basis = ghz_basis()
    return np.einsum("ki,kj->kij", basis, basis.conj())


# Built once: every density and certificate term is a sum over these.
GHZ_PROJECTORS = ghz_projectors()
GHZ_PROJECTORS.setflags(write=False)


# The resolution of every input: how far a probability or correlation may
# stray outside its range, or a sum from 1, through rounding alone.  The
# simplex checks, the certificate patterns and the boundary-family guards
# read it, and a verdict tolerance finer than it would judge rounding noise.
RESOLUTION = 1e-12


def check_tol(tol) -> None:
    """Reject a verdict tolerance that is not finite or is finer than RESOLUTION."""
    if not (math.isfinite(tol) and tol >= RESOLUTION):
        raise ValueError(f"tol must be a finite number of at least {RESOLUTION:g}, got {tol!r}")


def check_simplex(ps: np.ndarray) -> None:
    """Raise ValueError unless every row of the (n, 8) array ps is a probability vector.

    Each entry must lie in [0, 1] and each row sum to 1, both within
    RESOLUTION.  The message names the first bad row.
    """
    if ps.ndim != 2 or ps.shape[1] != 8:
        raise ValueError(f"expected rows of 8 probabilities, got shape {ps.shape}")
    outside = (ps < -RESOLUTION) | (ps > 1.0 + RESOLUTION)
    if outside.any():
        raise ValueError(f"probabilities outside [0, 1]: {ps[outside.any(axis=1)][0]}")
    # Summed column by column, in the pairwise order numpy uses for 8 terms:
    # a reduction along rows this short costs about three times as much.
    c = ps.T
    totals = ((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7]))
    bad = ~(np.abs(totals - 1.0) <= RESOLUTION)
    if bad.any():
        total = totals[bad][0]
        if not math.isfinite(total):  # a NaN passes the range test
            raise ValueError("probabilities must be finite numbers")
        raise ValueError(f"probabilities sum to {total!r}, not 1")


def as_probs(p) -> np.ndarray:
    """Validate and return a probability vector over the GHZ basis."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (8,):
        raise ValueError(f"expected 8 probabilities, got shape {arr.shape}")
    check_simplex(arr[None, :])
    return arr


def as_rvec(r) -> np.ndarray:
    """Validate and return a correlation vector r_1..r_7."""
    arr = np.asarray(r, dtype=float)
    if arr.shape != (7,):
        raise ValueError(f"expected 7 correlation coefficients, got shape {arr.shape}")
    if np.any(np.abs(arr) > 1.0 + RESOLUTION):
        raise ValueError(f"correlation coefficients outside [-1, 1]: {arr}")
    if not math.isfinite(arr.sum()):  # a NaN passes the range test
        raise ValueError("correlation coefficients must be finite numbers")
    return arr


def signed_sums(ps, signs) -> np.ndarray:
    """signs @ p for each row p of the (n, 8) batch ps, shape (n, len(signs)).

    Each value is the left-to-right sum s_1 p_1 + s_2 p_2 + ... + s_8 p_8,
    one column at a time over the whole batch.  The signs are +-1 or 0, so
    each product is exact and each of the seven additions rounds once, in
    the same order for a row alone as for a row inside a batch.
    """
    coef = np.asarray(signs, dtype=float).T[:, :, None]  # (8, m, 1)
    cols = np.ascontiguousarray(np.asarray(ps, dtype=float).T)  # (8, n)
    acc = coef[0] * cols[0]
    for k in range(1, 8):
        acc += coef[k] * cols[k]
    return acc.T


def r_from_p(p) -> np.ndarray:
    """The seven signed sums taking mixing probabilities to correlations."""
    return signed_sums(as_probs(p)[None, :], SIGNS)[0]


def p_from_r(r) -> np.ndarray:
    """Invert r back to probabilities via p = H^T (1, r) / 8.

    Rejects r outside the image of the probability simplex (some p_i < 0).
    """
    arr = as_rvec(r)
    v = np.concatenate(([1.0], arr))
    p = (H_MATRIX.T @ v) / 8.0
    if np.any(p < -RESOLUTION):
        raise ValueError(f"r vector leaves the simplex: min p = {p.min()}")
    return np.clip(p, 0.0, 1.0)


def density_from_p(p) -> np.ndarray:
    """Density matrix sum_i p_i |psi_i><psi_i| in the computational basis."""
    return densities_from_p_batch(as_probs(p)[None, :])[0]


def density_from_r(r) -> np.ndarray:
    """Density matrix (1/8)[III + sum_k r_k O_k] with O_k from R_OPERATORS."""
    arr = as_rvec(r)
    rho = np.eye(8, dtype=complex)
    for rk, label in zip(arr, R_OPERATORS):
        rho += rk * pauli_matrix(label)
    return rho / 8.0


def densities_from_p_batch(ps: np.ndarray) -> np.ndarray:
    """Densities for a batch of probability vectors, shape (n, 8, 8)."""
    ps = np.asarray(ps, dtype=float)
    return np.tensordot(ps, GHZ_PROJECTORS, axes=(1, 0))


def is_hermitian(m: np.ndarray) -> bool:
    """True iff m equals its conjugate transpose within 1e-10, entrywise."""
    return bool(np.max(np.abs(m - m.conj().T)) <= 1e-10)
