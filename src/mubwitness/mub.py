"""The nine maximally-commuting observable sets and their common eigenbases.

Each row of the table holds seven pairwise-commuting three-qubit Pauli
strings; the nine common eigenbases are pairwise mutually unbiased (every
cross-basis overlap has modulus 1/sqrt(8)).  Rows convert into each other
by qubit-local unitaries and by Pauli-label permutations, up to signs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import pauli_matrix, pauli_product

MUB_TABLE_ROWS = (
    ("(xyz)_pi", ("XII", "IYI", "IIZ", "XYZ", "XYI", "XIZ", "IYZ")),
    ("(yzx)_pi", ("YII", "IZI", "IIX", "YZX", "YZI", "YIX", "IZX")),
    ("(zxy)_pi", ("ZII", "IXI", "IIY", "ZXY", "ZXI", "ZIY", "IXY")),
    ("(xxx)_Gi", ("YZZ", "ZYZ", "ZZY", "YYY", "XXI", "XIX", "IXX")),
    ("(yyy)_G", ("ZXX", "XZX", "XXZ", "ZZZ", "YYI", "YIY", "IYY")),
    ("(zzz)_G", ("XYY", "YXY", "YYX", "XXX", "ZZI", "ZIZ", "IZZ")),
    ("(xzy)_G", ("ZXZ", "YXX", "YYZ", "ZYX", "XZI", "XIY", "IZY")),
    ("(yxz)_G", ("XYX", "ZYY", "ZZX", "XZY", "YXI", "YIZ", "IXZ")),
    ("(zyx)_G", ("YZY", "XZZ", "XXY", "YXZ", "ZYI", "ZIX", "IYX")),
)


@dataclass(frozen=True)
class MubRow:
    label: str
    observables: tuple[str, ...]

    def matrices(self) -> list[np.ndarray]:
        return [pauli_matrix(s) for s in self.observables]


@dataclass(frozen=True)
class LocalUnitary:
    """A single-qubit basis change swapping two Pauli axes under conjugation."""

    kind: str
    u: np.ndarray


def local_unitary(kind: str) -> LocalUnitary:
    s = 1.0 / np.sqrt(2.0)
    mats = {
        "x<->z": s * np.array([[1, 1], [1, -1]], dtype=complex),
        "y<->x": np.array([[np.exp(1j * np.pi / 4), 0], [0, np.exp(-1j * np.pi / 4)]]),
        "y<->z": s * np.array([[1, 1j], [1j, 1]], dtype=complex),
    }
    if kind not in mats:
        raise ValueError(f"unknown local unitary kind {kind!r}")
    return LocalUnitary(kind, mats[kind])


def mub_table() -> tuple[MubRow, ...]:
    """The nine rows, index 0..8 = lines 1..9 of the table."""
    return tuple(MubRow(label, obs) for label, obs in MUB_TABLE_ROWS)


def commuting_row(row: MubRow) -> bool:
    """True iff the row's observables commute pairwise, entrywise within 1e-12."""
    mats = row.matrices()
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i])) > 1e-12:
                return False
    return True


def common_eigenbasis(row: MubRow) -> np.ndarray:
    """Eight orthonormal simultaneous eigenvectors (rows of the result).

    Sequential eigenspace refinement: each observable splits the current
    invariant subspaces by eigenvalue sign.  Raises if the refinement does
    not end in one-dimensional spaces (non-maximal commuting set).
    Phase convention: first nonzero amplitude real positive.
    """
    blocks = [np.eye(8, dtype=complex)]
    for label in row.observables:
        m = pauli_matrix(label)
        new_blocks = []
        for basis in blocks:
            if basis.shape[1] == 1:
                new_blocks.append(basis)
                continue
            sub = basis.conj().T @ m @ basis
            vals, vecs = np.linalg.eigh(sub)
            for target in (-1.0, 1.0):
                sel = np.abs(vals - target) < 1e-8
                if np.any(sel):
                    new_blocks.append(basis @ vecs[:, sel])
        blocks = new_blocks
    if any(b.shape[1] != 1 for b in blocks) or len(blocks) != 8:
        raise RuntimeError(f"eigenspace refinement failed for {row.label}")
    vecs = np.hstack(blocks).T
    out = []
    for v in vecs:
        idx = int(np.argmax(np.abs(v) > 1e-9))
        phase = v[idx] / abs(v[idx])
        out.append(v / phase)
    return np.array(out)


def unbiasedness(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff every overlap between the two orthonormal bases is 1/sqrt(8) within 1e-10."""
    overlaps = np.abs(np.asarray(a).conj() @ np.asarray(b).T)
    return bool(np.max(np.abs(overlaps - 1.0 / np.sqrt(8.0))) <= 1e-10)


_PERM_ALIASES = {
    # cyclic relabeling y -> z -> x -> y (maps a z-type row onto an x-type row)
    "z->x": {"I": "I", "X": "Y", "Y": "Z", "Z": "X"},
    # the inverse cycle y -> x -> z -> y
    "z->y": {"I": "I", "X": "Z", "Y": "X", "Z": "Y"},
}


def transform_row(
    row: MubRow,
    locals_: tuple[LocalUnitary | None, LocalUnitary | None, LocalUnitary | None] = (None, None, None),
    perm: str | None = None,
) -> list[tuple[int, str]]:
    """Conjugate a row's observables by qubit-local unitaries and/or relabel.

    `perm` names a Pauli-label relabeling applied to every qubit, one of
    the _PERM_ALIASES keys ("z->x", "z->y"), or is None for no relabeling;
    any other name raises ValueError.  Returns [(sign, pauli_string)]
    since conjugation maps a Pauli string onto +- another Pauli string.
    """
    if perm not in (None, *_PERM_ALIASES):
        raise ValueError(f"unknown label permutation {perm!r}; "
                         f"expected one of {', '.join(_PERM_ALIASES)} or None")
    relabel = _PERM_ALIASES.get(perm)
    us = [lu.u if lu is not None else np.eye(2) for lu in locals_]
    full = np.kron(np.kron(us[0], us[1]), us[2])
    out = []
    for obs in row.observables:
        string = "".join(relabel[c] for c in obs) if relabel else obs
        conj = full @ pauli_matrix(string) @ full.conj().T
        out.append(_match_pauli(conj))
    return out


def _match_pauli(m: np.ndarray) -> tuple[int, str]:
    """Identify +-(one Pauli string) from its matrix; raises if no match."""
    for a in "IXYZ":
        for b in "IXYZ":
            for c in "IXYZ":
                s = a + b + c
                pm = pauli_matrix(s)
                for sign in (1, -1):
                    if np.max(np.abs(m - sign * pm)) < 1e-10:
                        return sign, s
    raise ValueError("matrix is not a signed Pauli string")


def match_row(signed_observables) -> int | None:
    """Index of the table row matching a signed observable set, mod signs."""
    names = sorted(s for _, s in signed_observables)
    for idx, (_, obs) in enumerate(MUB_TABLE_ROWS):
        if sorted(obs) == names:
            return idx
    return None


def label_product_closed(row: MubRow) -> bool:
    """Observables plus III close under multiplication up to sign."""
    members = set(row.observables) | {"III"}
    for a in members:
        for b in members:
            _, prod = pauli_product(a, b)
            if prod not in members:
                return False
    return True
