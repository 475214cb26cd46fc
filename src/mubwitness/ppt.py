"""PPT polytope for GHZ-diagonal states: analytic inequalities and oracles.

Positivity of the three partial transposes is equivalent, on this family,
to 24 linear inequalities in the mixing probabilities, grouped as six
quadruples.  Both routes are implemented and cross-checked: the signed
sums (pauli.signed_sums, so a state's values have the same bits in the
scalar report and in any batch), and a similarity-rotation (Jacobi)
eigenvalue solver applied to the partially transposed density matrix.
The solver is generic: each sweep visits every off-diagonal pair once, in
round-robin rounds of disjoint pairs that are rotated together, and it
stops at the end of any round after which the off-diagonal part is within
tolerance.  A GHZ-diagonal partial transpose is X-shaped, so only the
round of pairs (i, 7 - i) ever rotates, each pair on its own 2x2 block:
the solver stops after that one round, and the eigenvalues equal those of
a cyclic pair-by-pair sweep bit for bit.  The three partial transposes of
a batch come from one contraction with _PT_PROJECTORS, the partially
transposed GHZ projectors.

The polytope's shadow on a coordinate plane (p_a, p_b) is one of two
fixed rational polygons, read from a table by whether a and b index the
same GHZ pair.  A private exact simplex over nonnegative variables solves
one system, _PPT_SYSTEM (the 24 inequalities and sum p = 1 over the eight
probabilities), for two cross-checks: support-function hull refinement
derives the polygons, and one phase 1 per grid cell, with p_a and p_b
pinned, gives the region cells.  Its input is the integer "<=" and "=="
rows those two build, each with rhs >= 0, so only an equality carries an
artificial.  `mubw verify --suite region` and the tests run them; a
region scan never does.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .pauli import GHZ_PROJECTORS, RESOLUTION, as_probs, check_tol, is_hermitian, signed_sums

# Quadruples (0-based indices into p) in the fixed report order; the four
# rows of each quadruple (a, b, c, d) are a+b+c-d, a+b-c+d, a-b+c+d, -a+b+c+d.
PPT_GROUPS = (
    (2, 3, 4, 5),
    (0, 1, 6, 7),
    (0, 1, 4, 5),
    (2, 3, 6, 7),
    (0, 1, 2, 3),
    (4, 5, 6, 7),
)
_QUAD_SIGNS = np.array(
    [[1, 1, 1, -1], [1, 1, -1, 1], [1, -1, 1, 1], [-1, 1, 1, 1]], dtype=np.int64
)

# Groups produced by transposing each qubit: qubit 1 -> groups 0, 1; etc.
GROUPS_BY_QUBIT = ((0, 1), (2, 3), (4, 5))
_QUBIT_GROUPS = np.array(GROUPS_BY_QUBIT)


def inequality_matrix() -> np.ndarray:
    """The 24x8 integer matrix A with A @ p giving all inequality values."""
    a = np.zeros((24, 8), dtype=np.int64)
    row = 0
    for group in PPT_GROUPS:
        for signs in _QUAD_SIGNS:
            for s, idx in zip(signs, group):
                a[row, idx] = s
            row += 1
    return a


_INEQ_MATRIX = inequality_matrix()


@dataclass
class PptReport:
    """Outcome of the PPT test: 6x4 inequality values plus the eigen oracle."""

    quadruples: np.ndarray          # shape (6, 4), report order
    min_eigs: tuple[float, float, float]
    passed: bool
    tol: float

    @property
    def min_value(self) -> float:
        return float(self.quadruples.min())


def ppt_inequalities(p) -> np.ndarray:
    """All 24 inequality left-hand sides, shape (6, 4)."""
    return ppt_inequalities_batch(as_probs(p)[None, :]).reshape(6, 4)


def ppt_inequalities_batch(ps: np.ndarray) -> np.ndarray:
    """Inequality values for a batch of probability vectors, shape (n, 24)."""
    return signed_sums(ps, _INEQ_MATRIX)


def partial_transpose(rho: np.ndarray, qubit: int) -> np.ndarray:
    """Transpose the chosen qubit's indices (qubit in {1, 2, 3}) of each 8x8 matrix.

    rho has shape (..., 8, 8); the result has the same shape.
    """
    if qubit not in (1, 2, 3):
        raise ValueError(f"qubit must be 1, 2 or 3, got {qubit}")
    rho = np.asarray(rho)
    lead = rho.shape[:-2]
    t = rho.reshape(lead + (2,) * 6)
    axes = list(range(t.ndim))
    k = len(lead) + qubit - 1
    axes[k], axes[k + 3] = axes[k + 3], axes[k]
    return t.transpose(axes).reshape(rho.shape)


# The partially transposed GHZ projectors, [k, q - 1] = P_k^{T_q}: (8, 3, 8, 8).
_PT_PROJECTORS = np.stack([partial_transpose(GHZ_PROJECTORS, q) for q in (1, 2, 3)], axis=1)
_PT_PROJECTORS.setflags(write=False)


@functools.lru_cache(maxsize=None)
def _round_robin(d: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """One Jacobi sweep over a d x d matrix as rounds of disjoint (p, q) pairs.

    The circle method: seat 0 stays fixed while the other seats rotate by
    one place per round, and the seats facing each other form the round's
    pairs, written p < q.  Every pair comes up exactly once per sweep: in
    d - 1 rounds of d / 2 pairs for even d, and for odd d in d rounds of
    (d - 1) / 2 pairs, where the index facing a phantom seat d sits the
    round out.  The first round of d = 8 is (0, 7), (1, 6), (2, 5), (3, 4).
    Returns the (P, Q) index arrays of each round.
    """
    m = d + d % 2
    ring = list(range(1, m))
    rounds = []
    for _ in range(m - 1):
        seats = [0] + ring
        pairs = sorted((min(a, b), max(a, b)) for a, b in zip(seats[: m // 2], seats[::-1])
                       if max(a, b) < d)
        if pairs:
            pq = np.array(list(zip(*pairs)))  # row 0: p, row 1: q
            pq.setflags(write=False)  # shared by every caller through the cache
            rounds.append((pq[0], pq[1]))
        ring = ring[-1:] + ring[:-1]
    return tuple(rounds)


def _jacobi_batch(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of Hermitian matrices by round-robin Jacobi rotations.

    Each sweep annihilates every off-diagonal pair once, in the rounds of
    _round_robin: the pairs of a round are disjoint, so their rotations are
    applied together, each with the same per-element formula, and a round
    whose pairs are all zero is skipped.  The iteration stops at the end of
    any round after which every off-diagonal entry is within tol * scale,
    mid-sweep if need be.  Convergence is quadratic and 8x8 inputs settle
    well before the cap of 14 sweeps.  Returns the sorted eigenvalues,
    shape (n, d).

    A GHZ-diagonal partial transpose is X-shaped: its only off-diagonal
    entries sit on the disjoint pairs (i, 7 - i), which form the first
    round.  Each rotation then works on its own 2x2 block with the same
    operations as a cyclic pair-by-pair sweep, and every other entry stays
    0, so the eigenvalues are bit for bit those of the cyclic order, and
    the iteration stops after that first round.
    """
    sweeps, tol = 14, 1e-14
    a = np.array(mats, dtype=complex)
    if a.ndim == 2:
        a = a[None, :, :]
    n, d, _ = a.shape
    if a.size == 0:
        return np.empty((n, d))
    scale = max(1.0, float(np.abs(a).max()))
    # The off-diagonal entries as a view: drop each row's diagonal by
    # reading the flattened matrix in strides of d + 1 after the first entry.
    offdiag = a.reshape(n, d * d)[:, 1:].reshape(n, d - 1, d + 1)[:, :, :d]

    def settled() -> bool:
        return np.abs(offdiag).max(initial=0.0) <= tol * scale

    for p, q in () if settled() else _round_robin(d) * sweeps:
        apq = a[:, p, q]
        aabs = np.abs(apq)
        active = aabs > tol * scale * 1e-2
        if not active.any():
            continue
        safe = np.where(active, aabs, 1.0)
        phase = np.where(active, apq / safe, 1.0)
        app = a[:, p, p].real
        aqq = a[:, q, q].real
        tau = (aqq - app) / (2.0 * safe)
        t = np.sign(tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
        t = np.where(tau == 0.0, 1.0, t)  # 45-degree rotation when diagonal ties
        t = np.where(active, t, 0.0)
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c
        sp, sq = s * phase, s * np.conj(phase)
        col_p = a[:, :, p]  # fancy indexing copies
        col_q = a[:, :, q]
        a[:, :, p] = c[:, None] * col_p - sq[:, None] * col_q
        a[:, :, q] = sp[:, None] * col_p + c[:, None] * col_q
        row_p = a[:, p, :]
        row_q = a[:, q, :]
        a[:, p, :] = c[:, :, None] * row_p - sp[:, :, None] * row_q
        a[:, q, :] = sq[:, :, None] * row_p + c[:, :, None] * row_q
        if settled():
            break
    return np.sort(np.einsum("nii->ni", a).real, axis=1)


def jacobi_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of one Hermitian matrix via the Jacobi iteration."""
    if not is_hermitian(np.asarray(h)):
        raise ValueError("matrix is not Hermitian within 1e-10")
    return _jacobi_batch(np.asarray(h, dtype=complex))[0]


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (Jacobi rotations)."""
    return float(jacobi_eigenvalues(h)[0])


def pt_min_eigenvalues(p) -> tuple[float, float, float]:
    """Minimal eigenvalue of rho^{T_q} for each qubit q."""
    return tuple(pt_min_eigenvalues_batch(as_probs(p)[None, :])[0].tolist())


def pt_min_eigenvalues_batch(ps: np.ndarray) -> np.ndarray:
    """Batch oracle: min eigenvalue per qubit, shape (n, 3), from one Jacobi call.

    rho^{T_q} = sum_k p_k P_k^{T_q}, so one contraction with _PT_PROJECTORS
    gives every partial transpose of the batch, shape (n, 3, 8, 8).
    """
    pts = np.tensordot(np.asarray(ps, dtype=float), _PT_PROJECTORS, axes=(1, 0))
    return _jacobi_batch(pts.reshape(-1, 8, 8))[:, 0].reshape(-1, 3)


def is_ppt(p, tol: float = 1e-9) -> PptReport:
    """Run the 24-inequality test and the eigenvalue oracle, cross-checked.

    Each qubit's min partial-transpose eigenvalue equals exactly half the
    minimum over that qubit's eight inequality values; a disagreement
    beyond tol signals an implementation bug and raises.  pauli.check_tol
    keeps tol at or above the input resolution, 1e-12, so the two routes'
    rounding (a few 1e-17 on ordinary states) never reads as a
    disagreement.
    """
    check_tol(tol)
    min_eigs = pt_min_eigenvalues(p)  # validates p, once for the whole report
    quads = ppt_inequalities_batch(np.asarray(p, dtype=float)[None, :]).reshape(6, 4)
    analytic = quads[_QUBIT_GROUPS].reshape(3, 8).min(axis=1) / 2.0
    gaps = np.abs(np.subtract(min_eigs, analytic))
    if gaps.max() > tol:
        q = int(np.argmax(gaps > tol))
        raise RuntimeError(
            f"PPT oracle disagreement on qubit {q + 1}: "
            f"eigenvalue {min_eigs[q]} vs inequalities {analytic[q]}"
        )
    passed = bool(quads.min() >= -tol)
    return PptReport(quadruples=quads, min_eigs=min_eigs, passed=passed, tol=tol)


# ---------------------------------------------------------------------------
# Exact linear programming (two-phase simplex, integer pivoting)
# ---------------------------------------------------------------------------

# The PPT polytope {p >= 0, A p >= 0, sum p = 1} over p_1..p_8 as the
# (le_rows, eq_rows) both cross-checks solve; p >= 0 is the bound every
# _Simplex variable has.  A p >= 0 is written -A p <= 0, so every slack
# starts basic at level 0 and phase 1 only removes the artificial of sum p == 1.
_PPT_SYSTEM = (tuple(((-row).tolist(), 0) for row in _INEQ_MATRIX), (([1] * 8, 1),))


class _Simplex:
    """Exact two-phase simplex over nonnegative variables (fraction-free pivots).

    Row i holds den * B^-1 [A | b] for the current basis B, so every entry
    stays an exact integer (Bareiss), the basic column of row i is den * e_i
    and that variable's value is tab[i][-1] / den, with den > 0.  An
    objective row r encodes den * f = r[-1] - sum_j r[j] * x_j over the
    nonbasic x_j for an f being minimised, so a column with r[j] > 0
    improves it.  Bland's rule (lowest improving column; ratio ties to the
    lowest basic column) prevents cycling.  Phase 1 and every phase-2
    objective share `_optimise` and `_pivot`; a phase-2 call starts from the
    basis the previous call left optimal.
    """

    def __init__(self, le_rows, eq_rows):
        """The phase-1 tableau of "<=" rows and "==" rows, each (coefficients, rhs).

        Every coefficient and rhs is a Python int, and every rhs is >= 0.
        Columns: the variables, one slack per "<=" row, one artificial per
        "==" row, the rhs.  Each row starts basic on its own slack or
        artificial, at level rhs.
        """
        rows = [*le_rows, *eq_rows]
        n_vars, n_rows = len(rows[0][0]), len(rows)
        self.n_struct, self.n_cols, self.den = n_vars, n_vars + n_rows + 1, 1
        self.basis = list(range(n_vars, n_vars + n_rows))  # row i's slack or artificial
        self.art_cols, self.tab = self.basis[n_rows - len(eq_rows):], []
        for i, (coeffs, rhs) in enumerate(rows):
            if len(coeffs) != n_vars or not all(type(v) is int for v in (*coeffs, rhs)) or rhs < 0:
                raise ValueError(f"row {i} is not {n_vars} ints and an int rhs >= 0")
            self.tab.append([*coeffs, *(int(k == i) for k in range(n_rows)), rhs])

    def _pivot(self, leave: int, enter: int, objectives) -> None:
        row_l = self.tab[leave]
        piv = row_l[enter]
        if piv < 0:  # only a drive-out pivot can be negative; keep den > 0
            row_l = self.tab[leave] = [-v for v in row_l]
            piv = -piv
        den = self.den
        for row in (*self.tab, *objectives):
            if row is not row_l:
                f = row[enter]
                row[:] = [(piv * v - f * w) // den for v, w in zip(row, row_l)]
        self.basis[leave] = enter
        self.den = piv

    def _optimise(self, obj) -> bool:
        """Pivot until no column improves obj; False if obj is unbounded."""
        tab, basis = self.tab, self.basis
        while True:
            enter = next((j for j in range(self.n_cols - 1) if obj[j] > 0), -1)
            if enter < 0:
                return True
            leave = -1
            best_num = best_den = None
            for i, row in enumerate(tab):
                a = row[enter]
                if a > 0:
                    num = row[-1]
                    if leave < 0 or num * best_den < best_num * a or (
                        num * best_den == best_num * a and basis[i] < basis[leave]
                    ):
                        leave, best_num, best_den = i, num, a
            if leave < 0:
                return False
            self._pivot(leave, enter, (obj,))

    def phase1(self) -> bool:
        """Minimise the artificial sum; True iff the constraints are feasible."""
        art = set(self.art_cols)
        obj = [0] * self.n_cols
        for row, col in zip(self.tab, self.basis):
            if col in art:
                obj = [o + v for o, v in zip(obj, row)]
        for col in art:
            obj[col] -= 1
        if not self._optimise(obj):
            raise RuntimeError("phase-1 objective unbounded (cannot happen)")
        return obj[-1] == 0  # den-scaled artificial sum at the optimum

    def drop_artificials(self) -> None:
        """After a feasible phase 1, leave a basis and tableau without artificials.

        Each artificial still basic sits at level 0, so pivoting it out on
        any nonzero structural or slack entry of its row moves no value; a
        row with no such entry is a redundant equality and is deleted.
        """
        n_keep = self.n_cols - 1 - len(self.art_cols)  # artificials follow the slacks
        for i in reversed(range(len(self.tab))):
            if self.basis[i] < n_keep:
                continue
            enter = next((j for j in range(n_keep) if self.tab[i][j]), -1)
            if enter < 0:
                del self.tab[i], self.basis[i]
            else:
                self._pivot(i, enter, ())
        self.tab = [row[:n_keep] + row[-1:] for row in self.tab]
        self.art_cols, self.n_cols = [], n_keep + 1

    def maximise(self, c):
        """Max of c . x (integer c) from the current basis, or None if unbounded.

        Needs a feasible basis free of artificials (`phase1`, then
        `drop_artificials`); the optimal basis is kept for the next call.
        """
        cost = [operator.index(v) for v in c]
        cost += [0] * (self.n_cols - len(cost))  # slacks and the rhs column
        obj = [self.den * v for v in cost]  # f = -c . x, in the den-scaled form
        for row, col in zip(self.tab, self.basis):
            if cost[col]:
                obj = [o - cost[col] * v for o, v in zip(obj, row)]
        if not self._optimise(obj):
            return None
        return Fraction(-obj[-1], self.den)

    def point(self) -> list[Fraction]:
        """The current basic solution: nonbasic variables are 0."""
        x = [Fraction(0)] * self.n_struct
        for row, col in zip(self.tab, self.basis):
            if col < self.n_struct:
                x[col] = Fraction(row[-1], self.den)
        return x


# ---------------------------------------------------------------------------
# Feasible-region projections
# ---------------------------------------------------------------------------


def _check_plane(plane) -> tuple[int, int]:
    a, b = plane
    if not (0 <= a < 8 and 0 <= b < 8 and a != b):
        raise ValueError(f"invalid plane {plane}")
    return a, b


def _edge_inequality(u, v) -> tuple[int, int, int]:
    """The CCW edge u -> v as nx*x + ny*y <= h in lowest integer terms."""
    nx, ny = v[1] - u[1], u[0] - v[0]  # outward normal
    terms = (nx, ny, nx * u[0] + ny * u[1])
    scale = math.lcm(*(t.denominator for t in terms))
    ints = [int(t * scale) for t in terms]
    g = math.gcd(*ints)
    return tuple(t // g for t in ints)


# The PPT polytope's shadow on (p_a, p_b) as exact CCW vertices, from the
# lowest (x, y) vertex.  It depends only on whether a and b index the same
# GHZ pair (a // 2 == b // 2): a quadrilateral on those 8 ordered planes and
# a triangle on the other 48.  `_lp_projection_polygon` derives both, and
# `mubw verify --suite region` and the tests compare them on all 56 planes.
_SHADOWS = {
    True: ((Fraction(0), Fraction(0)), (Fraction(1, 4), Fraction(0)),
           (Fraction(1, 2), Fraction(1, 2)), (Fraction(0), Fraction(1, 4))),
    False: ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0)),
            (Fraction(0), Fraction(1, 2))),
}


def projection_polygon(plane: tuple[int, int]) -> list[tuple[Fraction, Fraction]]:
    """Exact CCW vertices of the PPT polytope's shadow on (p_a, p_b).

    A lookup of the two shapes in _SHADOWS by the pair rule
    a // 2 == b // 2; no LP runs.  `_lp_projection_polygon` is the
    derivation it is checked against.
    """
    a, b = _check_plane(plane)
    return list(_SHADOWS[a // 2 == b // 2])


def _lp_projection_polygon(plane: tuple[int, int]) -> list[tuple[Fraction, Fraction]]:
    """The shadow on (p_a, p_b) derived by exact LPs: the cross-check of the table.

    Support-function hull refinement (Lassez & Lassez 1992): phase 1 runs
    once on {p >= 0, A p >= 0, sum p = 1}, and each support query
    max n . (p_a, p_b) is a phase-2 objective started from the previous
    optimal basis.  The support points in +x, +y, -x, -y seed the hull
    in CCW order; an edge u -> v is then queried along its outward normal
    n.  If the maximum is n . u the edge lies on the shadow's boundary,
    otherwise the maximiser is a new vertex between u and v.  A plane takes
    8 (triangles) to 10 (quadrilaterals) support queries after phase 1.
    """
    a, b = _check_plane(plane)
    lp = _Simplex(*_PPT_SYSTEM)  # phase 1 removes one artificial: 2 pivots
    if not lp.phase1():
        raise RuntimeError("PPT polytope is empty (cannot happen)")
    lp.drop_artificials()

    def support(nx: int, ny: int):
        c = [0] * 8
        c[a], c[b] = nx, ny
        value = lp.maximise(c)  # bounded: the probability simplex is compact
        x = lp.point()
        return value, (x[a], x[b])

    hull = []
    for direction in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        point = support(*direction)[1]
        if point not in hull:  # support points of CCW directions are in CCW order
            hull.append(point)
    k = 0
    while k < len(hull):  # the shadow is 2-D: it holds a disc around p = 1/8
        u, v = hull[k], hull[(k + 1) % len(hull)]
        nx, ny, h = _edge_inequality(u, v)
        value, point = support(nx, ny)
        if value == h:
            k += 1
        else:
            hull.insert(k + 1, point)
    k = hull.index(min(hull))  # start from the lowest (x, y) vertex
    return hull[k:] + hull[:k]


def _lp_cells(plane: tuple[int, int], grid: int) -> set[tuple[int, int]]:
    """The cells of `project_region` by one exact LP per cell: the cross-check of the mask.

    Cell (i, j) is feasible when _PPT_SYSTEM over all eight probabilities,
    plus the equalities p_a == i/grid and p_b == j/grid, passes phase 1.
    Each pin row is written in lowest integer terms, d p_c == n for
    i/grid = n/d.  No scan runs it: `mubw verify --suite region` and the
    tests compare it with the mask.
    """
    a, b = _check_plane(plane)
    le_rows, eq_rows = _PPT_SYSTEM
    cells = set()
    for j in range(grid):
        for i in range(min(grid, grid - j + 1)):  # the corners with i + j <= grid
            pin = tuple(([f.denominator * (k == c) for k in range(8)], f.numerator)
                        for c, f in ((a, Fraction(i, grid)), (b, Fraction(j, grid))))
            if _Simplex(le_rows, eq_rows + pin).phase1():
                cells.add((i, j))
    return cells


@functools.cache
def _polygon_edges(vertices: tuple) -> tuple[tuple[int, int, int], ...]:
    """The edge inequalities of a CCW vertex tuple, derived once per polygon.

    Keyed by the vertices themselves, not the plane, so a changed table or
    projection_polygon moves the region cells with it.
    """
    return tuple(_edge_inequality(u, v) for u, v in zip(vertices, vertices[1:] + vertices[:1]))


def region_mask(plane: tuple[int, int], grid: int) -> np.ndarray:
    """Feasible grid cells as a (grid, grid) boolean array indexed [j, i].

    The projection is read as an exact polygon (`projection_polygon`, a
    table lookup), and every corner (i/grid, j/grid) is tested against
    each edge inequality in the integer form nx*i <= h*grid - ny*j: an
    int64 row against an int64 column per edge, so the only (grid, grid)
    arrays are booleans.  The edge coefficients are small integers, so
    the test is exact.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    mask = np.ones((grid, grid), dtype=bool)  # first: a grid too large fails before any work
    k = np.arange(grid, dtype=np.int64)
    for nx, ny, h in _polygon_edges(tuple(projection_polygon(plane))):
        mask &= nx * k <= (h * grid - ny * k)[:, None]
    return mask


def project_region(plane: tuple[int, int], grid: int):
    """Feasible grid cells of the PPT region projected onto two coordinates.

    A cell (i, j), 0 <= i, j < grid, is feasible when its lower-left corner
    (i/grid, j/grid) lies in the projection.  The set is read off
    `region_mask`, so the classification is exact; `_lp_cells` is the
    per-cell LP oracle it is checked against.
    """
    j, i = np.nonzero(region_mask(plane, grid))
    return set(zip(i.tolist(), j.tolist()))


# ---------------------------------------------------------------------------
# The special boundary family p1 + p3 = 1/2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecialFamilyParams:
    """Parameters of the boundary family: p3 = alpha*p4 + 1/4 on p1+p3 = 1/2."""

    alpha: float
    p4: float
    split5: float
    split7: float

    def validate(self) -> None:
        tol = RESOLUTION
        if not -1.0 - tol <= self.alpha <= 0.5 + tol:
            raise ValueError(f"alpha {self.alpha} outside [-1, 1/2]")
        cap = 1.0 / (4.0 * (1.0 - self.alpha))
        if not -tol <= self.p4 <= cap + tol:
            raise ValueError(f"p4 {self.p4} outside [0, {cap}]")
        s = self.pair_sum
        for name, val in (("split5", self.split5), ("split7", self.split7)):
            if not -tol <= val <= s + tol:
                raise ValueError(f"{name} {val} outside [0, {s}]")

    @property
    def pair_sum(self) -> float:
        """Common value of p5 + p6 and p7 + p8."""
        return (self.alpha - 1.0) * self.p4 + 0.25


def special_family(params: SpecialFamilyParams) -> np.ndarray:
    """Probability vector of the special boundary family.

    Construction: p3 = alpha*p4 + 1/4, p1 = -alpha*p4 + 1/4,
    p2 = (1 - 2*alpha)*p4, and the remaining mass S = (alpha-1)*p4 + 1/4
    split as (split5, S - split5) and (split7, S - split7).
    """
    params.validate()
    alpha, p4 = params.alpha, params.p4
    s = params.pair_sum
    p = np.array(
        [
            -alpha * p4 + 0.25,
            (1.0 - 2.0 * alpha) * p4,
            alpha * p4 + 0.25,
            p4,
            params.split5,
            s - params.split5,
            params.split7,
            s - params.split7,
        ]
    )
    return as_probs(np.clip(p, 0.0, 1.0))
