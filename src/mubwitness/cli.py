"""Command-line interface: classify states, scan regions, sample, verify.

All randomness flows from a single seed through a documented split: state
index space is cut into fixed blocks of 4096 and block b draws from
numpy's default_rng seeded with SeedSequence((seed, b)), which mixes the
pair into an independent stream per block.  `sample` generates,
classifies and writes one block at a time in index order, so its memory
is O(block) whatever n is, and outputs are byte-identical for a given
(command, flags, seed).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import mub, pauli, ppt, witness
from .classify import (
    VERDICT_BOUND,
    VERDICT_NPT,
    VERDICT_SEPARABLE,
    VERDICT_UNDECIDED,
    cat1_special_batch,
    classify as classify_state,
    classify_batch,
)

BLOCK_SIZE = 4096

_PLANES = {
    "p1p2": (0, 1),
    "p1p3": (0, 2),
    "p3p4": (2, 3),
    "p2p4": (1, 3),
    "p5p6": (4, 5),
    "p7p8": (6, 7),
}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_text(s: str) -> str:
    """RFC 4180 minimal quoting: witness labels such as W+1,-(4,7),(5,6) hold commas."""
    if "," in s or '"' in s or "\n" in s or "\r" in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def _error(message: object) -> int:
    """Report a bad input or an unusable file on one stderr line; returns exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _tolerance(text: str) -> float:
    try:
        value = float(text)
        pauli.check_tol(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a finite number of at least {pauli.RESOLUTION:g}, got {text!r}") from None
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def sample_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform points on the probability simplex (normalized exponentials)."""
    e = rng.exponential(1.0, size=(n, 8))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _parse_state(args) -> np.ndarray:
    if args.state_file is not None:
        with open(args.state_file) as fh:
            text = fh.read().strip()
        values = [float(v) for v in text.split(",")]
        return pauli.as_probs(values)
    if args.p is not None:
        values = [float(v) for v in args.p.split(",")]
        return pauli.as_probs(values)
    values = [float(v) for v in args.r.split(",")]
    return pauli.p_from_r(pauli.as_rvec(values))


def cmd_classify(args) -> int:
    try:
        p = _parse_state(args)
    except (ValueError, OSError) as exc:
        return _error(exc)
    verdict = classify_state(p, tol=args.tol)
    record = {
        "verdict": verdict.kind,
        "p": list(map(float, p)),
        "r": list(map(float, pauli.r_from_p(p))),
        "ppt_pass": verdict.ppt.passed,
        "inequalities": [[float(v) for v in row] for row in verdict.ppt.quadruples],
        "min_eigenvalues": list(verdict.ppt.min_eigs),
        "witness": verdict.detection[0].label if verdict.detection else None,
        "witness_value": verdict.detection[1] if verdict.detection else None,
        "certificate": None,
    }
    if verdict.certificate is not None:
        record["certificate"] = {
            "construction": verdict.certificate.construction,
            "reconstruction_error": verdict.certificate.reconstruction_error,
            "terms": [
                {"weight": t.weight, "description": t.description}
                for t in verdict.certificate.terms
            ],
        }
    if args.json:
        print(json.dumps(record, allow_nan=False))
        return 0
    print(f"verdict: {verdict.kind}")
    print(f"ppt: {'pass' if verdict.ppt.passed else 'fail'}  "
          f"min inequality = {_fmt(verdict.ppt.min_value)}  "
          f"min eigenvalues = ({', '.join(_fmt(e) for e in verdict.ppt.min_eigs)})")
    print("inequality values:")
    for group, row in zip(ppt.PPT_GROUPS, verdict.ppt.quadruples):
        name = ",".join(f"p{k + 1}" for k in group)
        print(f"  ({name}): " + "  ".join(_fmt(v) for v in row))
    if verdict.detection:
        print(f"witness: {verdict.detection[0].label}  value = {_fmt(verdict.detection[1])}")
    else:
        print("witness: none negative")
    if verdict.certificate:
        c = verdict.certificate
        print(f"certificate: {c.construction} (reconstruction error {c.reconstruction_error:.3e})")
        for t in c.terms:
            print(f"  weight {_fmt(t.weight)}  {t.description}")
    else:
        print("certificate: none")
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


@dataclass
class SampleReport:
    n_total: int
    n_ppt: int
    n_detected: int
    n_certified_separable: int
    n_undecided: int
    fraction_detected_of_ppt: float
    seed: int
    witness_tallies: dict = field(default_factory=dict)

    def lines(self) -> list[str]:
        out = [
            f"samples: {self.n_total}  seed: {self.seed}",
            f"ppt: {self.n_ppt} ({100.0 * self.n_ppt / max(1, self.n_total):.4f}% of samples)",
            f"bound detected: {self.n_detected}"
            f" ({100.0 * self.fraction_detected_of_ppt:.4f}% of ppt)",
            f"separable certified: {self.n_certified_separable}",
            f"undecided: {self.n_undecided}",
        ]
        if self.witness_tallies:
            out.append("witness tallies:")
            for label in sorted(self.witness_tallies):
                out.append(f"  {label}: {self.witness_tallies[label]}")
        return out


_SAMPLE_HEADER = "index,p1,p2,p3,p4,p5,p6,p7,p8,verdict,witness,witness_value\n"
_SAMPLE_ROW = "%d," + "%.17g," * 8 + "%s,%s,%s\n"


def _sample_csv(start: int, ps, verdicts, labels, values, detected) -> str:
    """One block's CSV rows as a single string."""
    witness = [""] * len(ps)
    value = [""] * len(ps)
    for i in np.flatnonzero(detected):
        witness[i] = _csv_text(labels[i])
        value[i] = _fmt(values[i])
    return "".join([
        _SAMPLE_ROW % (k, *p, v, w, x)
        for k, p, v, w, x in zip(range(start, start + len(ps)), ps.tolist(),
                                 verdicts.tolist(), witness, value)
    ])


def run_sample(n: int, seed: int, tol: float = 1e-9, csv_path: str | None = None):
    """Classify n uniform-simplex states; returns the aggregate report."""
    n_ppt = n_det = n_sep = n_und = 0
    tallies: Counter[str] = Counter()
    with open(csv_path, "w", newline="\n") if csv_path else nullcontext() as handle:
        if handle:
            handle.write(_SAMPLE_HEADER)
        for block, start in enumerate(range(0, n, BLOCK_SIZE)):
            rng = np.random.default_rng(np.random.SeedSequence((seed, block)))
            ps = sample_simplex(rng, min(BLOCK_SIZE, n - start))
            verdicts, labels, values = classify_batch(ps, tol=tol)
            detected = verdicts == VERDICT_BOUND
            n_ppt += int(np.count_nonzero(verdicts != VERDICT_NPT))
            n_det += int(np.count_nonzero(detected))
            n_sep += int(np.count_nonzero(verdicts == VERDICT_SEPARABLE))
            n_und += int(np.count_nonzero(verdicts == VERDICT_UNDECIDED))
            tallies.update(labels[detected].tolist())
            if handle:
                handle.write(_sample_csv(start, ps, verdicts, labels, values, detected))
    return SampleReport(
        n_total=n,
        n_ppt=n_ppt,
        n_detected=n_det,
        n_certified_separable=n_sep,
        n_undecided=n_und,
        fraction_detected_of_ppt=(n_det / n_ppt) if n_ppt else 0.0,
        seed=seed,
        witness_tallies=dict(tallies),
    )


def cmd_sample(args) -> int:
    if args.n < 1:
        return _error("--n must be at least 1")
    try:
        report = run_sample(args.n, args.seed, tol=args.tol, csv_path=args.out)
    except OSError as exc:
        return _error(exc)
    for line in report.lines():
        print(line)
    print("note: flat-Dirichlet sampling measure; detection fraction is"
          " measure dependent (reference value in the literature: about 2.7%).")
    return 0


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------


def _lattice(n: int):
    """Column (i) and row (j) indices of an n x n lattice, j major."""
    j, i = np.divmod(np.arange(n * n), n)
    return i, j


def _region_plane(plane, grid, samples, seed, tol):
    """The PPT region on a coordinate plane as columns over the grid x grid cells.

    Columns i, j, feasible (0 or 1) and status ("feasible" or "infeasible");
    with samples, also "tally": each cell's (NPT, bound, separable,
    undecided) counts of `samples` seeded states, zero off the region.
    """
    i, j = _lattice(grid)
    feasible = ppt.region_mask(plane, grid).ravel().astype(np.int64)
    columns = {"i": i, "j": j, "feasible": feasible,
               "status": np.where(feasible == 1, "feasible", "infeasible")}
    if samples:
        tally = np.zeros((grid * grid, 4), dtype=np.int64)
        for k in np.flatnonzero(feasible).tolist():
            tally[k] = _cell_tally(plane, grid, k % grid, k // grid, samples, seed, tol)
        columns["tally"] = tally
    return columns


def _cell_tally(plane, grid, i, j, samples, seed, tol):
    a, b = plane
    rng = np.random.default_rng(np.random.SeedSequence((seed, i * grid + j + 1)))
    x, y = i / grid, j / grid
    rest = 1.0 - x - y
    free = [k for k in range(8) if k not in (a, b)]
    ps = np.zeros((samples, 8))
    w = rng.exponential(1.0, size=(samples, 6))
    w = w / w.sum(axis=1, keepdims=True) * rest
    ps[:, free] = w
    ps[:, a] = x
    ps[:, b] = y
    verdicts, _, _ = classify_batch(ps, tol=tol)
    return [np.count_nonzero(verdicts == v)
            for v in (VERDICT_NPT, VERDICT_BOUND, VERDICT_SEPARABLE, VERDICT_UNDECIDED)]


def region_cat1_triangle(grid: int, tol: float = 1e-9):
    """Classify the triangular family over the (p1, p2) lattice in one batch.

    Columns over the (grid + 1)^2 points (i/grid, j/grid), j major: i, j,
    p1, p2, status (a verdict, or "invalid" where p1 + p2 > 1), witness
    (label, "" unless detected) and value (NaN unless detected).
    """
    i, j = _lattice(grid + 1)
    coord = np.arange(grid + 1) / grid
    p1, p2 = coord[i], coord[j]
    valid = p1 + p2 <= 1.0 + pauli.RESOLUTION
    status = np.full(i.shape, "invalid", dtype=object)
    labels = np.full(i.shape, "", dtype=object)
    values = np.full(i.shape, np.nan)
    status[valid], labels[valid], values[valid] = classify_batch(
        cat1_special_batch(p1[valid], p2[valid]), tol=tol)
    return {"i": i, "j": j, "p1": p1, "p2": p2,
            "status": status, "witness": labels, "value": values}


def _cells(columns, grid: int):
    """(i, j, i/grid, j/grid) per cell; each coordinate is formatted once per lattice index."""
    coords = [_fmt(k / grid) for k in range(grid + 1)]
    i, j = columns["i"].tolist(), columns["j"].tolist()
    return zip(i, j, [coords[k] for k in i], [coords[k] for k in j])


_SVG_COLORS = {
    "feasible": "#4477aa", "infeasible": "#eeeeee",
    VERDICT_NPT: "#eeeeee", VERDICT_BOUND: "#cc3311",
    VERDICT_SEPARABLE: "#228833", VERDICT_UNDECIDED: "#4477aa",
    "invalid": "#ffffff",
}


def write_region_svg(path: str, columns, grid: int) -> None:
    """Minimal vector-graphic rendering of a region scan (one rect per cell)."""
    size = 800
    cell = size / grid
    xs = [f"{k * cell:.2f}" for k in range(grid + 1)]
    ys = [f"{size - (k + 1) * cell:.2f}" for k in range(grid + 1)]
    side = f"{cell:.2f}"
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">']
    for i, j, status in zip(columns["i"].tolist(), columns["j"].tolist(), columns["status"]):
        color = _SVG_COLORS.get(status, "#000000")
        if color not in ("#eeeeee", "#ffffff"):
            parts.append(f'<rect x="{xs[i]}" y="{ys[j]}" width="{side}" '
                         f'height="{side}" fill="{color}"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_region(args) -> int:
    if args.grid < 2:
        return _error("--grid must be at least 2")
    if args.samples < 0:
        return _error("--samples must be at least 0")
    triangle = args.plane == "cat1-triangle"
    if triangle and args.samples:
        return _error("--samples applies to the coordinate planes, not cat1-triangle")
    try:
        columns = (region_cat1_triangle(args.grid, tol=args.tol) if triangle else
                   _region_plane(_PLANES[args.plane], args.grid, args.samples, args.seed, args.tol))
    except MemoryError as exc:  # numpy refuses a grid whose arrays cannot fit at once
        return _error(f"--grid {args.grid} is too large: {exc}")
    cells = _cells(columns, args.grid)
    if triangle:
        header = "i,j,p1,p2,status,witness,value\n"
        rows = [f"{i},{j},{x},{y},{s},{_csv_text(w)},{_fmt(v)}\n" if s == VERDICT_BOUND
                else f"{i},{j},{x},{y},{s},,\n"
                for (i, j, x, y), s, w, v in zip(cells, columns["status"],
                                                 columns["witness"], columns["value"].tolist())]
    elif args.samples:
        header = "i,j,x,y,feasible,n_npt,n_bound,n_separable,n_undecided\n"
        rows = [f"{i},{j},{x},{y},1,{t[0]},{t[1]},{t[2]},{t[3]}\n" if f
                else f"{i},{j},{x},{y},0,,,,\n"
                for (i, j, x, y), f, t in zip(cells, columns["feasible"].tolist(),
                                              columns["tally"].tolist())]
    else:
        header = "i,j,x,y,feasible\n"
        rows = [f"{i},{j},{x},{y},{f}\n"
                for (i, j, x, y), f in zip(cells, columns["feasible"].tolist())]
    try:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(header + "".join(rows))
        if args.svg:
            write_region_svg(args.svg, columns, args.grid)
    except OSError as exc:
        return _error(exc)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def suite_oracle(n: int, seed: int, inject_bug: bool):
    """Inequality verdicts against the rotation-eigenvalue oracle."""
    rng = np.random.default_rng(seed)
    ps = sample_simplex(rng, n)
    ineq = ppt.ppt_inequalities_batch(ps)
    if inject_bug:
        ineq = ineq.copy()
        ineq[:, 0] = -ineq[:, 0]  # negative control: corrupt one inequality
    ineq_min = ineq.min(axis=1)
    eig_min = ppt.pt_min_eigenvalues_batch(ps).min(axis=1)
    tol = 1e-9
    verdict_match = np.all((ineq_min >= -tol) == (eig_min >= -tol))
    value_match = float(np.max(np.abs(eig_min - ineq_min / 2.0)))
    ok = bool(verdict_match and value_match <= tol)
    return ok, f"n={n} verdict_agree={bool(verdict_match)} max|eig-ineq/2|={value_match:.3e}"


def _envelope_gap(rs: np.ndarray, psis: np.ndarray) -> float:
    """Largest |sampled-psi minimum - closed form| over the rows and the 36 ids.

    a cos(psi) + b sin(psi) depends only on the pairing, so it is sampled
    on the 6 (a, b) columns and broadcast to the 36 ids, as in the table.
    """
    x, a, b = witness.envelope_parts(rs)
    cosv, sinv = np.cos(psis), np.sin(psis)
    sampled = np.stack([(np.outer(av, cosv) + np.outer(bv, sinv)).min(axis=1)
                        for av, bv in zip(a.T, b.T)], axis=1)
    grid_min = (x[:, :, None] + sampled[:, None, :]).reshape(len(x), 36)
    return float(np.max(np.abs(grid_min - witness.nonlinear_values_batch(rs))))


def suite_envelope(seed: int):
    """Sampled-psi minimum of the linear family against the closed form."""
    n_states, n_psi = 100, 10000
    rng = np.random.default_rng(seed)
    rs = pauli.signed_sums(sample_simplex(rng, n_states), pauli.SIGNS)
    worst = _envelope_gap(rs, np.linspace(0.0, 2.0 * math.pi, n_psi, endpoint=False))
    return worst <= 1e-6, f"states={n_states} ids=36 psi_grid={n_psi} max_gap={worst:.3e}"


def suite_identities(seed: int):
    """Pair-sum identities, character-table orthogonality, state equivalence."""
    n = 10000
    rng = np.random.default_rng(seed)
    ps = sample_simplex(rng, n)
    rs = pauli.signed_sums(ps, pauli.SIGNS)
    checks = []
    pair_forms = {
        (4, 5, 1): ps[:, 2] - ps[:, 3] + ps[:, 4] - ps[:, 5],
        (6, 7, 1): -ps[:, 0] + ps[:, 1] + ps[:, 6] - ps[:, 7],
        (4, 5, -1): ps[:, 0] - ps[:, 1] + ps[:, 6] - ps[:, 7],
        (6, 7, -1): ps[:, 2] - ps[:, 3] - ps[:, 4] + ps[:, 5],
        (4, 6, 1): ps[:, 2] - ps[:, 3] + ps[:, 6] - ps[:, 7],
        (5, 7, 1): -ps[:, 0] + ps[:, 1] + ps[:, 4] - ps[:, 5],
        (4, 6, -1): ps[:, 0] - ps[:, 1] + ps[:, 4] - ps[:, 5],
        (5, 7, -1): ps[:, 2] - ps[:, 3] - ps[:, 6] + ps[:, 7],
        (4, 7, 1): ps[:, 4] - ps[:, 5] + ps[:, 6] - ps[:, 7],
        (5, 6, 1): -ps[:, 0] + ps[:, 1] + ps[:, 2] - ps[:, 3],
        (4, 7, -1): ps[:, 0] - ps[:, 1] + ps[:, 2] - ps[:, 3],
        (5, 6, -1): ps[:, 4] - ps[:, 5] - ps[:, 6] + ps[:, 7],
    }
    for (j, k, t), rhs in pair_forms.items():
        lhs = rs[:, j - 1] + t * rs[:, k - 1]
        checks.append(np.max(np.abs(lhs - 2.0 * rhs)))
    sums = {
        (1, 1): ps[:, 0] + ps[:, 1] + ps[:, 2] + ps[:, 3],
        (1, -1): ps[:, 4] + ps[:, 5] + ps[:, 6] + ps[:, 7],
        (2, 1): ps[:, 0] + ps[:, 1] + ps[:, 4] + ps[:, 5],
        (2, -1): ps[:, 2] + ps[:, 3] + ps[:, 6] + ps[:, 7],
        (3, 1): ps[:, 0] + ps[:, 1] + ps[:, 6] + ps[:, 7],
        (3, -1): ps[:, 2] + ps[:, 3] + ps[:, 4] + ps[:, 5],
    }
    for (i, s), rhs in sums.items():
        checks.append(np.max(np.abs((1.0 + s * rs[:, i - 1]) - 2.0 * rhs)))
    worst = float(max(checks))
    hh = pauli.H_MATRIX @ pauli.H_MATRIX.T
    ortho = bool(np.array_equal(hh, 8 * np.eye(8, dtype=np.int64)))
    sub = ps[:2000]
    d1 = pauli.densities_from_p_batch(sub)
    d2 = np.stack([pauli.density_from_r(pauli.r_from_p(p)) for p in sub])
    equiv = float(np.max(np.abs(d1 - d2)))
    ok = worst <= 1e-13 and ortho and equiv <= 1e-12
    return ok, (f"n={n} identity_max={worst:.3e} H_orthogonal={ortho} "
                f"construction_gap={equiv:.3e}")


def suite_witnesses():
    """witness.validate_ew on all 36 ids at one probe angle."""
    psi = math.pi / 3
    n_valid = sum(witness.validate_ew(id_.with_psi(psi)) for id_ in witness.all_family_ids())
    return n_valid == 36, (f"psi={psi:.4f} validated {n_valid}/36"
                           " (min product >= -1e-6, negative eigenvalue)")


def suite_region(grid: int = 8):
    """The shadow table against its LP derivation, and region cells against the cell oracle.

    Every ordered plane's `ppt.projection_polygon` must equal
    `ppt._lp_projection_polygon` vertex for vertex, and on the six CLI
    planes the cells read off the table must equal `ppt._lp_cells`.
    """
    ordered = [(a, b) for a in range(8) for b in range(8) if a != b]
    table_mismatched = [f"p{a + 1}p{b + 1}" for a, b in ordered
                        if ppt.projection_polygon((a, b)) != ppt._lp_projection_polygon((a, b))]
    mismatched = []
    cells = 0
    for name, plane in _PLANES.items():
        fast = ppt.project_region(plane, grid)
        cells += len(fast)
        if fast != ppt._lp_cells(plane, grid):
            mismatched.append(name)
    return not (mismatched or table_mismatched), (
        f"planes={len(_PLANES)} grid={grid} feasible_cells={cells} "
        f"mismatched={','.join(mismatched) or 'none'} table_planes={len(ordered)} "
        f"table_mismatched={','.join(table_mismatched) or 'none'}")


def suite_mub():
    """Unbiasedness of all row pairs plus the stated conversions."""
    rows = mub.mub_table()
    bases = [mub.common_eigenbasis(r) for r in rows]
    pair_fail = 0
    for i in range(9):
        for j in range(i + 1, 9):
            if not mub.unbiasedness(bases[i], bases[j]):
                pair_fail += 1
    ghz = pauli.ghz_basis()
    overlaps = np.abs(bases[5].conj() @ ghz.T)
    ghz_match = bool(np.allclose(np.sort(overlaps.max(axis=1)), 1.0, atol=1e-10)
                     and np.allclose((overlaps > 0.5).sum(axis=1), 1))
    converted = mub.transform_row(rows[5], perm="z->x")
    row4 = mub.match_row(converted) == 3
    ok = pair_fail == 0 and ghz_match and row4
    return ok, f"unbiased_pairs=36-{pair_fail} row6_ghz={ghz_match} row6->row4={row4}"


# Each suite as a function of the parsed `verify` arguments, in the order `all` runs them.
_SUITES = {
    "oracle": lambda args: suite_oracle(n=args.n, seed=args.seed,
                                        inject_bug=args.inject_bug == "oracle"),
    "envelope": lambda args: suite_envelope(seed=args.seed),
    "identities": lambda args: suite_identities(seed=args.seed),
    "witnesses": lambda args: suite_witnesses(),
    "mub": lambda args: suite_mub(),
    "region": lambda args: suite_region(),
}


def cmd_verify(args) -> int:
    if args.n < 1:
        return _error("--n must be at least 1")
    failures = 0
    for name in list(_SUITES) if args.suite == "all" else [args.suite]:
        ok, detail = _SUITES[name](args)
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failures += 0 if ok else 1
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The mubw parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="mubw",
        description="Classify three-qubit GHZ-diagonal states, scan PPT regions, "
                    "and evaluate envelope entanglement witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify one state")
    g = c.add_mutually_exclusive_group(required=True)
    g.add_argument("--p", help="8 comma-separated probabilities")
    g.add_argument("--r", help="7 comma-separated correlation coefficients")
    g.add_argument("--state-file", help="file with one line of 8 comma-separated values")
    c.add_argument("--tol", type=_tolerance, default=1e-9)
    c.add_argument("--json", action="store_true", help="emit one JSON record")
    c.set_defaults(func=cmd_classify)

    s = sub.add_parser("sample", help="seeded Monte Carlo classification")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--tol", type=_tolerance, default=1e-9)
    s.add_argument("--out", help="per-state CSV path")
    s.set_defaults(func=cmd_sample)

    r = sub.add_parser("region", help="feasible-region scan")
    r.add_argument("--plane", required=True,
                   choices=sorted(_PLANES) + ["cat1-triangle"])
    r.add_argument("--grid", type=int, required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--svg", help="optional SVG rendering path")
    r.add_argument("--samples", type=int, default=0,
                   help="classification samples per feasible cell")
    r.add_argument("--seed", type=_seed, default=0)
    r.add_argument("--tol", type=_tolerance, default=1e-9)
    r.set_defaults(func=cmd_region)

    v = sub.add_parser("verify", help="cross-module property suites")
    v.add_argument("--suite", default="all", choices=["all"] + sorted(_SUITES))
    v.add_argument("--n", type=int, default=20000)
    v.add_argument("--seed", type=_seed, default=0)
    v.add_argument("--inject-bug", default="none", choices=["none", "oracle"],
                   help="negative control: corrupt the named suite's data")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
