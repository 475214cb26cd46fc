"""Inputs, operations and independent output checks of the four workloads.

Every check is computed apart from the program: density matrices come
from this file's own GHZ vectors, PPT from `numpy.linalg.eigvalsh` of the
three partial transposes, envelope values from this file's own
correlations r_k = Tr(rho O_k), and region and triangle cell sets from
their closed forms.  A check returns a list of problems; empty means the
operation's output is correct.
"""

from __future__ import annotations

import csv
import importlib
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import bench_plan

NPT = "NPT"
BOUND = "bound-detected"
SEPARABLE = "separable-certified"
UNDECIDED = "ppt-undecided"
VERDICTS = (NPT, BOUND, SEPARABLE, UNDECIDED)

TOL = 1e-9             # the CLI's default --tol
EIG_MARGIN = 1e-8      # |min eigenvalue| below this is on the PPT boundary: either verdict
VALUE_TOL = 1e-12      # envelope value recomputed here vs. the program's
SAMPLE_SUBSAMPLE = 256  # seeded CSV rows per sample operation checked by eigvalsh

# ---------------------------------------------------------------------------
# Reference physics, written from the definitions
# ---------------------------------------------------------------------------

# GHZ state 2k+1 (2k+2) is (|lo> + (-) |hi>)/sqrt(2) on computational pair k.
_GHZ_PAIRS = ((0, 7), (1, 6), (2, 5), (3, 4))


def _ghz_vectors() -> np.ndarray:
    v = np.zeros((8, 8))
    s = 1.0 / math.sqrt(2.0)
    for k, (lo, hi) in enumerate(_GHZ_PAIRS):
        v[2 * k, lo] = v[2 * k, hi] = s
        v[2 * k + 1, lo], v[2 * k + 1, hi] = s, -s
    return v


GHZ = _ghz_vectors()

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# Observable whose expectation is r_k, k = 1..7.
_OBSERVABLES = np.stack([
    np.kron(np.kron(_PAULI[s[0]], _PAULI[s[1]]), _PAULI[s[2]])
    for s in ("ZZI", "ZIZ", "IZZ", "XXX", "XYY", "YXY", "YYX")
])

_PARTITIONS = (((4, 5), (6, 7)), ((4, 6), (5, 7)), ((4, 7), (5, 6)))
# (outer sign, z index, inner sign, partition) of the 36 envelope witnesses.
WITNESS_IDS = tuple((o, z, t, part) for o in (1, -1) for z in (1, 2, 3)
                    for t in (1, -1) for part in _PARTITIONS)


def witness_label(o: int, z: int, t: int, part) -> str:
    """The CLI's label of an envelope witness, e.g. W+1,-(4,7),(5,6)."""
    (j, k), (l, m) = part
    return f"W{'+' if o > 0 else '-'}{z},{'+' if t > 0 else '-'}({j},{k}),({l},{m})"


LABEL_COLUMN = {witness_label(*w): c for c, w in enumerate(WITNESS_IDS)}


def densities(ps: np.ndarray) -> np.ndarray:
    """rho = sum_k p_k |GHZ_k><GHZ_k|, shape (n, 8, 8), real."""
    return np.einsum("nk,ki,kj->nij", np.atleast_2d(ps), GHZ, GHZ)


def partial_transposes(rhos: np.ndarray) -> np.ndarray:
    """The three single-qubit partial transposes, shape (n, 3, 8, 8)."""
    n = rhos.shape[0]
    t = rhos.reshape((n,) + (2,) * 6)
    out = []
    for q in range(3):
        axes = list(range(7))
        axes[1 + q], axes[4 + q] = axes[4 + q], axes[1 + q]
        out.append(t.transpose(axes).reshape(n, 8, 8))
    return np.stack(out, axis=1)


def min_pt_eigenvalues(ps: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue over the three partial transposes, per state."""
    return np.linalg.eigvalsh(partial_transposes(densities(ps)))[..., 0].min(axis=1)


def correlations(ps: np.ndarray) -> np.ndarray:
    """r_k = Tr(rho O_k), shape (n, 7)."""
    return np.einsum("nij,kji->nk", densities(ps), _OBSERVABLES).real


def envelopes(rs: np.ndarray) -> np.ndarray:
    """1 + o r_z - sqrt((r_j + t r_k)^2 + (r_l + t r_m)^2) for all 36 ids."""
    cols = []
    for o, z, t, ((j, k), (l, m)) in WITNESS_IDS:
        a = rs[:, j - 1] + t * rs[:, k - 1]
        b = rs[:, l - 1] + t * rs[:, m - 1]
        cols.append(1.0 + o * rs[:, z - 1] - np.hypot(a, b))
    return np.stack(cols, axis=1)


def references(ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min PT eigenvalue and the 36 envelope values of each state."""
    return min_pt_eigenvalues(ps), envelopes(correlations(ps))


def check_states(ps, verdicts, labels, values, refs=None) -> list[str]:
    """Verdicts, witness labels and values of states against the references."""
    ps = np.atleast_2d(np.asarray(ps, dtype=float))
    if ps.size == 0:
        return []
    problems = []
    eig, env = references(ps) if refs is None else refs
    for n, (verdict, label, value) in enumerate(zip(verdicts, labels, values)):
        tag = f"state {ps[n].tolist()}"
        if verdict not in VERDICTS:
            problems.append(f"{tag}: unknown verdict {verdict!r}")
            continue
        if eig[n] < -EIG_MARGIN and verdict != NPT:
            problems.append(f"{tag}: min PT eigenvalue {eig[n]:.3e} but verdict {verdict}")
        if eig[n] > EIG_MARGIN and verdict == NPT:
            problems.append(f"{tag}: PPT (min PT eigenvalue {eig[n]:.3e}) but verdict NPT")
        if verdict == BOUND:
            col = LABEL_COLUMN.get(label)
            if col is None or not value < 0.0:
                problems.append(f"{tag}: detected with witness {label!r} value {value}")
            elif (abs(env[n, col] - value) > VALUE_TOL
                  or value > env[n].min() + VALUE_TOL):
                problems.append(f"{tag}: witness {label} value {value!r}, envelope "
                                f"{env[n, col]!r}, minimum {env[n].min()!r}")
        elif verdict in (UNDECIDED, SEPARABLE) and env[n].min() < -TOL - VALUE_TOL:
            problems.append(f"{tag}: {verdict} but envelope minimum {env[n].min():.3e}")
    return problems


def check_certificate(p: np.ndarray, cert) -> list[str]:
    """Weights form a distribution, every term is a PPT density matrix, and the
    terms rebuild this file's own rho entrywise to 1e-10."""
    if cert is None:
        return ["no certificate"]
    if not cert.reconstruction_error <= 1e-10:
        return [f"reconstruction_error {cert.reconstruction_error}"]
    weights = np.array([t.weight for t in cert.terms])
    mats = np.stack([np.asarray(t.matrix, dtype=complex) for t in cert.terms])
    problems = []
    if weights.min() < -1e-11 or abs(weights.sum() - 1.0) > 1e-10:
        problems.append(f"weights {weights.tolist()}")
    recon = np.einsum("t,tij->ij", weights, mats)
    err = float(np.max(np.abs(recon - densities(p)[0])))
    if err > 1e-10:
        problems.append(f"terms rebuild rho to {err:.3e}")
    traces = np.einsum("tii->t", mats)
    spectra = np.linalg.eigvalsh(np.concatenate([mats[:, None], partial_transposes(mats)], axis=1))
    if np.max(np.abs(traces - 1.0)) > 1e-12 or spectra.min() < -1e-12:
        problems.append("a term is not a unit-trace PPT density matrix")
    return problems


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One timed call into the program and the check of its output."""

    call: Callable[[], object]
    items: int
    check: Callable[[object], list[str]]


@dataclass
class Workload:
    name: str
    ops: list[Op]          # one pass; every run repeats whole passes
    csv_path: Path | None = None


def _cli_op(argv, items, check) -> Op:
    return Op(lambda: bench_plan.run_cli(argv), items, check)


def _read_rows(path: Path, header: str):
    """CSV rows as lists of fields, with each witness label as one field.

    The CLI writes labels such as W+1,-(4,7),(5,6) without quoting, so an
    unquoted label spans five fields; a quoted one is read as one.
    """
    names = header.split(",")
    width = len(names)
    col = names.index("witness") if "witness" in names else -1
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != names:
            raise ValueError("unexpected header")
        for row in reader:
            if col >= 0 and len(row) == width + 4:
                row = row[:col] + [",".join(row[col:col + 5])] + row[col + 5:]
            if len(row) != width:
                raise ValueError(f"row of {len(row)} fields: {row}")
            yield row


# -- sample ------------------------------------------------------------------

SAMPLE_HEADER = "index,p1,p2,p3,p4,p5,p6,p7,p8,verdict,witness,witness_value"
_REPORT_COUNT = re.compile(r"^(samples|ppt|bound detected|separable certified|undecided): (\d+)")


def parse_sample_report(stdout: str) -> tuple[dict, dict]:
    counts, tallies = {}, {}
    in_tallies = False
    for line in stdout.splitlines():
        m = _REPORT_COUNT.match(line)
        if m:
            counts[m.group(1)] = int(m.group(2))
        elif line == "witness tallies:":
            in_tallies = True
        elif in_tallies and line.startswith("  "):
            label, _, count = line.strip().rpartition(": ")
            tallies[label] = int(count)
    return counts, tallies


def check_sample(output, path: Path, n: int, seed: int) -> list[str]:
    code, stdout = output
    if code != 0:
        return [f"exit code {code}"]
    rng = np.random.default_rng([seed, 2])
    pick = set(rng.choice(n, min(n, SAMPLE_SUBSAMPLE), replace=False).tolist())
    counts = dict.fromkeys(VERDICTS, 0)
    tallies: dict[str, int] = {}
    chosen = []
    rows = -1
    try:
        for rows, f in enumerate(_read_rows(path, SAMPLE_HEADER)):
            if int(f[0]) != rows:
                return [f"row {rows} has index {f[0]}"]
            verdict = f[9]
            counts[verdict] += 1
            if verdict == BOUND:
                tallies[f[10]] = tallies.get(f[10], 0) + 1
            elif f[10] or f[11]:
                return [f"row {rows}: witness on a {verdict} row"]
            if verdict == BOUND or rows in pick:
                chosen.append(f)
        rows += 1
    except (csv.Error, KeyError, ValueError) as exc:
        return [f"unreadable CSV: {exc!r}"]
    problems = []
    report, report_tallies = parse_sample_report(stdout)
    expect = {"samples": n, "ppt": n - counts[NPT], "bound detected": counts[BOUND],
              "separable certified": counts[SEPARABLE], "undecided": counts[UNDECIDED]}
    if rows != n:
        problems.append(f"{rows} CSV rows for n = {n}")
    if report != expect or report_tallies != tallies:
        problems.append(f"stdout counts {report} {report_tallies} vs CSV {expect} {tallies}")
    ps = np.array([[float(x) for x in f[1:9]] for f in chosen]).reshape(-1, 8)
    values = [float(f[11]) if f[11] else math.nan for f in chosen]
    if len(ps) and np.max(np.abs(ps.sum(axis=1) - 1.0)) > 1e-12:
        problems.append("a CSV state does not sum to 1")
    problems += check_states(ps, [f[9] for f in chosen], [f[10] for f in chosen], values)
    return problems


def sample_workload(seed: int, workdir: Path) -> Workload:
    path = workdir / "sample.csv"
    (argv,) = bench_plan.pass_argvs("sample", seed, str(path))
    op = _cli_op(argv, bench_plan.SAMPLE_N,
                 lambda out: check_sample(out, path, bench_plan.SAMPLE_N, seed))
    return Workload("sample", [op], csv_path=path)


# -- triangle ----------------------------------------------------------------

TRIANGLE_HEADER = "i,j,p1,p2,status,witness,value"


def triangle_status(i: int, j: int, g: int) -> str:
    """Closed form of the category-1 triangle scan at lattice point (i/g, j/g).

    With p = (1 - x - y)/3 the state is PPT iff |x - y| <= p and x + y >= p,
    i.e. 4i - 2j <= g, 4j - 2i <= g and 4(i + j) >= g; the edge 4i - 2j = g
    is separable and the rest of the PPT hull is bound entangled.
    """
    if i + j > g:
        return "invalid"
    if 4 * i - 2 * j > g or 4 * j - 2 * i > g or 4 * (i + j) < g:
        return NPT
    return SEPARABLE if 4 * i - 2 * j == g else BOUND


def triangle_state(x: float, y: float) -> list[float]:
    p = (1.0 - x - y) / 3.0
    return [x, y, p, 0.0, p, 0.0, p, 0.0]


def check_triangle(output, path: Path, g: int) -> list[str]:
    code, _ = output
    if code != 0:
        return [f"exit code {code}"]
    problems = []
    bound = []
    rows = -1
    try:
        for rows, f in enumerate(_read_rows(path, TRIANGLE_HEADER)):
            i, j = int(f[0]), int(f[1])
            if (i, j) != (rows % (g + 1), rows // (g + 1)) or float(f[2]) != i / g:
                return [f"row {rows} out of order: {f}"]
            want = triangle_status(i, j, g)
            if f[4] != want:
                problems.append(f"({i}, {j}): {f[4]}, closed form {want}")
            elif want == BOUND:
                bound.append((i / g, j / g, f[5], float(f[6])))
        rows += 1
    except (csv.Error, ValueError) as exc:
        return [f"unreadable CSV: {exc!r}"]
    if rows != (g + 1) ** 2:
        problems.append(f"{rows} rows for grid {g}")
    if bound:
        ps = np.array([triangle_state(x, y) for x, y, _, _ in bound])
        problems += check_states(ps, [BOUND] * len(bound), [b[2] for b in bound],
                                 [b[3] for b in bound])
    return problems[:20]


def triangle_workload(seed: int, workdir: Path) -> Workload:
    path = workdir / "triangle.csv"
    g = bench_plan.TRIANGLE_GRID
    (argv,) = bench_plan.pass_argvs("triangle", seed, str(path))
    valid = (g + 1) * (g + 2) // 2
    return Workload("triangle", [_cli_op(argv, valid, lambda out: check_triangle(out, path, g))])


# -- region ------------------------------------------------------------------

REGION_HEADER = "i,j,x,y,feasible"


def region_cells(plane: str, g: int) -> set[tuple[int, int]]:
    """Closed form of the PPT region projected on a coordinate plane."""
    cells = set()
    for j in range(g):
        for i in range(g):
            if plane in ("p1p3", "p2p4"):
                inside = 2 * (i + j) <= g
            else:
                inside = 4 * i - 2 * j <= g and 4 * j - 2 * i <= g and i + j <= g
            if inside:
                cells.add((i, j))
    return cells


def check_region(output, path: Path, plane: str, g: int) -> list[str]:
    code, _ = output
    if code != 0:
        return [f"exit code {code}"]
    cells = set()
    rows = -1
    try:
        for rows, f in enumerate(_read_rows(path, REGION_HEADER)):
            i, j = int(f[0]), int(f[1])
            if (i, j) != (rows % g, rows // g) or float(f[2]) != i / g:
                return [f"row {rows} out of order: {f}"]
            if f[4] == "1":
                cells.add((i, j))
            elif f[4] != "0":
                return [f"row {rows}: feasible = {f[4]!r}"]
        rows += 1
    except (csv.Error, ValueError) as exc:
        return [f"unreadable CSV: {exc!r}"]
    want = region_cells(plane, g)
    problems = [] if rows == g * g else [f"{rows} rows for grid {g}"]
    if cells != want:
        problems.append(f"{plane}: extra cells {sorted(cells - want)[:5]}, "
                        f"missing {sorted(want - cells)[:5]}")
    return problems


def region_workload(seed: int, workdir: Path) -> Workload:
    path = workdir / "region.csv"
    g = bench_plan.REGION_GRID
    ops = []
    for argv in bench_plan.pass_argvs("region", seed, str(path)):
        plane = argv[argv.index("--plane") + 1]
        ops.append(_cli_op(argv, g * g,
                           lambda out, plane=plane: check_region(out, path, plane, g)))
    return Workload("region", ops)


# -- classify ----------------------------------------------------------------

CLASSIFY_NPT_DRAWS = 60    # flat-simplex draws that are NPT
CLASSIFY_PPT_DRAWS = 20    # flat-simplex draws that are PPT (mostly undecided)
CLASSIFY_PER_FAMILY = 8    # states from each separable family
CLASSIFY_TRIANGLE = 15     # interior points of the category-1 triangle


def _case1(rng):
    """One pair zero, each other pair split equally."""
    p = np.zeros(8)
    zero = int(rng.integers(4))
    for k, q in zip([k for k in range(4) if k != zero], rng.dirichlet(np.ones(3)) / 2.0):
        p[2 * k] = p[2 * k + 1] = q
    return p


def _case2(rng):
    """Three equally split pairs and one unequal pair a > b with a - b < 2 min q."""
    while True:
        mass = rng.dirichlet(np.ones(4))
        u = int(rng.integers(4))
        beta = rng.uniform(0.5, 1.0)
        a, b = mass[u] * beta, mass[u] * (1.0 - beta)
        others = [k for k in range(4) if k != u]
        if a - b < min(mass[k] for k in others):
            p = np.zeros(8)
            for k in others:
                p[2 * k] = p[2 * k + 1] = mass[k] / 2.0
            p[2 * u], p[2 * u + 1] = a, b
            return p


def _cat1_branch(rng):
    """p2 = p4 = 0, p1 = p3 = u, pairs 3 and 4 shifted by the same gamma."""
    while True:
        u, a, b = rng.dirichlet(np.ones(3)) / 2.0
        if u <= 2.0 * a and u <= 2.0 * b:
            g = rng.uniform(-1.0, 1.0) * min(u, 2.0 * a, 2.0 * b) / 2.0
            return np.array([u, 0.0, u, 0.0, a + g, a - g, b + g, b - g])


def _cat2_branch(rng):
    """p4 = 0, p3 = p1 + p2, p7 = p3 + p8 and p5 - p6 = p1 - p2."""
    while True:
        y = rng.dirichlet(np.ones(4))
        scale = 1.0 / (3.0 * (y[0] + y[1]) + 2.0 * y[2] + y[3])
        p1, p2, p8, m = y * scale
        p3 = p1 + p2
        if m >= p3:
            d = p1 - p2
            return np.array([p1, p2, p3, 0.0, (m + d) / 2.0, (m - d) / 2.0, p3 + p8, p8])


def _cat3_branch(rng):
    """Boundary family p1 + p3 = 1/2 with p5 = p7 and p6 = p8."""
    alpha = rng.uniform(-1.0, 0.5)
    p4 = rng.uniform(0.0, 1.0 / (4.0 * (1.0 - alpha)))
    s = max((alpha - 1.0) * p4 + 0.25, 0.0)
    split = rng.uniform(0.0, s)
    return np.array([0.25 - alpha * p4, (1.0 - 2.0 * alpha) * p4, 0.25 + alpha * p4, p4,
                     split, s - split, split, s - split])


def _triangle_edge(rng):
    """The separable edge 4 p1 - 2 p2 = 1 of the category-1 triangle."""
    p2 = rng.uniform(0.0, 0.5)
    p = (1.0 - 2.0 * p2) / 4.0
    return np.array([p2 + p, p2, p, 0.0, p, 0.0, p, 0.0])


SEPARABLE_FAMILIES = (_case1, _case2, _cat1_branch, _cat2_branch, _cat3_branch, _triangle_edge)


def classify_inputs(seed: int) -> list[tuple[str, np.ndarray]]:
    """The seeded mix of one classify pass: a list of (kind, p)."""
    rng = np.random.default_rng([seed, 1])
    mix = []
    npt = ppt = 0
    while npt < CLASSIFY_NPT_DRAWS or ppt < CLASSIFY_PPT_DRAWS:
        e = rng.exponential(1.0, 8)
        p = e / e.sum()
        eig = min_pt_eigenvalues(p)[0]
        if eig < -1e-6 and npt < CLASSIFY_NPT_DRAWS:
            mix.append(("npt", p))
            npt += 1
        elif eig > 1e-6 and ppt < CLASSIFY_PPT_DRAWS:
            mix.append(("ppt", p))
            ppt += 1
    for family in SEPARABLE_FAMILIES:
        mix += [("separable", family(rng)) for _ in range(CLASSIFY_PER_FAMILY)]
    mix.append(("detected", np.array([float(v) for v in bench_plan.PROTOTYPE.split(",")])))
    inside = 0
    while inside < CLASSIFY_TRIANGLE:
        x, y = rng.uniform(0.0, 1.0, 2)
        if 4 * x - 2 * y < 0.95 and 4 * y - 2 * x < 0.95 and 4 * (x + y) > 1.05 and x + y < 1:
            mix.append(("detected", np.array(triangle_state(x, y))))
            inside += 1
    return [mix[k] for k in rng.permutation(len(mix))]


def check_verdict(kind: str, p: np.ndarray, verdict, refs) -> list[str]:
    """One classify verdict against the state's kind and its references."""
    tag = f"{kind} state {p.tolist()}"
    want = {"npt": NPT, "separable": SEPARABLE, "detected": BOUND}.get(kind)
    if want is not None and verdict.kind != want:
        return [f"{tag}: verdict {verdict.kind}, expected {want}"]
    label, value = (verdict.detection[0].label, verdict.detection[1]) \
        if verdict.detection else ("", math.nan)
    problems = check_states(p, [verdict.kind], [label], [value], refs)
    if abs(min(verdict.ppt.min_eigs) - refs[0][0]) > TOL:
        problems.append(f"{tag}: Jacobi min eigenvalue {min(verdict.ppt.min_eigs)!r}"
                        f" vs eigvalsh {refs[0][0]!r}")
    if verdict.kind == SEPARABLE:
        problems += [f"{tag}: {msg}" for msg in check_certificate(p, verdict.certificate)]
    return problems


def classify_workload(seed: int, workdir: Path) -> Workload:
    module = importlib.import_module("mubwitness.classify")
    mix = classify_inputs(seed)
    eig, env = references(np.array([p for _, p in mix]))
    ops = []
    for n, (kind, p) in enumerate(mix):
        refs = (eig[n:n + 1], env[n:n + 1])
        ops.append(Op(lambda p=p: module.classify(p), 1,
                      lambda v, kind=kind, p=p, refs=refs: check_verdict(kind, p, v, refs)))
    return Workload("classify", ops)


_MAKERS = {
    "sample": sample_workload,
    "triangle": triangle_workload,
    "region": region_workload,
    "classify": classify_workload,
}


def make(name: str, seed: int, workdir: Path) -> Workload:
    return _MAKERS[name](seed, workdir)
