"""Command-line interface: classify states, scan regions, sample, verify.

All randomness flows from a single seed through a documented split: state
index space is cut into fixed blocks of 4096 and block b draws from
numpy's default_rng seeded with SeedSequence((seed, b)), which mixes the
pair into an independent stream per block.  `sample` generates,
classifies and writes one block at a time in index order, so its memory
is O(block) whatever n is, and outputs are byte-identical for a given
(command, flags, seed).  It turns each block's verdicts into status codes
once (`_status_codes`); one np.bincount counts them, and the row writer's
status and witness fields (`_verdict_fields`) read the same codes.

Every CSV is written by one row writer (`_write_rows`).  Each field is a
uint8 column with zero padding; _CHUNK_ROWS rows at a time, the fields
are laid out side by side in one byte matrix and bytes.translate deletes
the padding, so the writer's memory depends on the chunk, not on the
number of rows.  The sample CSV carries each probability as `'%.17g' % p`: the
bytes come from an exact integer kernel on numpy columns (`_g17_fields`),
and Python formats only the values outside its range [1e-9, 1) and the
detected rows' witness labels and values.  A region scan formats each
lattice index's integer and coordinate once and gathers them by index; a
plane scan keeps only its boolean mask and derives each chunk's i, j and
feasible columns from the chunk's row range.  Every output file is opened
by `_rewrite`: written in place, without truncation, and cut at the end.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext, suppress
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


# Rows are written as bytes (`_write_rows`): each field is a uint8 column
# with 0 as padding, and one mask drops the padding.  A float field is 32
# bytes: `%.17g` needs at most 24, and byte 31 is always padding, so the
# eight probabilities of a sample row form one block with the commas there.
_FIELD = 32
_CHUNK_ROWS = 512
_U = np.uint64
_POW5 = np.array([5 ** s for s in range(27)], dtype=np.uint64)
_E16 = _U(10 ** 16)


def _table(texts, width: int = 0) -> np.ndarray:
    """ASCII strings as the rows of a uint8 matrix, zero-padded to width or the longest."""
    a = np.array(texts, dtype=f"S{width}" if width else bytes)
    return a.view(np.uint8).reshape(len(a), a.itemsize)


def _four_digit_groups() -> np.ndarray:
    """0000..9999 as one 4-byte word each, then the same with trailing zeros as padding."""
    g = np.arange(10 ** 4, dtype=np.uint16)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8)
    digits += 48
    stripped = digits * np.logical_or.accumulate(digits[:, ::-1] != 48, axis=1)[:, ::-1]
    return np.concatenate([digits, stripped]).view(np.uint32).ravel()


_GROUPS = _four_digit_groups()
# The first significant digit d with what precedes or follows it, by
# index: for 10^X <= x < 10^(X + 1), the fixed form (X >= -4) is "0.",
# -1 - X zeros and d at 10 (-1 - X) + d; the exponent form is d at 40 + d,
# or d and "." at 50 + d when more digits follow.
_HEADS = _table([f"0.{'0' * z}{d}" for z in range(4) for d in range(10)]
                + [f"{d}{dot}" for dot in ("", ".") for d in range(10)], 8).view(np.uint64).ravel()
# The exponent suffix by -X, none for the fixed form; X = -10 is a
# fallback row's missed decade.
_EXPONENTS = _table(["" if k <= 4 else f"e-{k:02d}" for k in range(11)], 8).view(np.uint64).ravel()


def _g17_fields(x: np.ndarray) -> np.ndarray:
    """`'%.17g' % v` for each float v of x as a row of _FIELD bytes, 0-padded.

    For 1e-9 <= v < 1 the digits are exact integer arithmetic on whole
    columns.  With v = m 2^q (m the 53-bit significand), X = floor(log10 v)
    and s = 16 - X, the 17 significant digits are round(m 5^s / 2^t) with
    t = -(q + s), rounded half to even: the correctly rounded decimal that
    `%.17g` prints.  m 5^s < 2^114 is formed from 32-bit limbs in two
    uint64 words; t lies in 35..58.  X comes from np.log10 and can be one
    off near a power of ten: the unrounded quotient then falls outside
    [10^16, 10^17), and the row takes the fallback.  So does a quotient
    that rounds up to 10^17 (no double in the range does).  Every other
    value (0, 1, anything below 1e-9, subnormal, negative or not finite)
    and every fallback row is formatted by Python.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    ok = (x >= 1e-9) & (x < 1.0)
    xc = np.where(ok, x, 0.5)
    X = np.floor(np.log10(xc)).astype(np.int64)
    s = 16 - X
    bits = xc.view(np.uint64)
    m = (bits & _U(2 ** 52 - 1)) | _U(2 ** 52)
    u = (1074 - (bits >> _U(52)).astype(np.int64) - s).astype(np.uint64)   # t - 1
    c = _POW5[s]
    m0, m1 = m & _U(2 ** 32 - 1), m >> _U(32)
    c0, c1 = c & _U(2 ** 32 - 1), c >> _U(32)
    mid = m0 * c1 + m1 * c0
    hi = m1 * c1 + (mid >> _U(32))
    mid <<= _U(32)
    lo = m0 * c0 + mid
    hi += (lo < mid).astype(np.uint64)
    q2 = (lo >> u) | (hi << (_U(64) - u))      # floor(m 5^s / 2^(t - 1))
    sticky = ((lo & ((_U(1) << u) - _U(1))) != _U(0)).astype(np.uint64)
    q = q2 >> _U(1)
    q += q2 & (sticky | q) & _U(1)             # round bit, and sticky or odd
    ok &= ((hi >> u) == _U(0)) & (q2 >= _U(2 * 10 ** 16)) & (q < _U(10 ** 17))
    q = np.where(ok, q, _E16).view(np.int64)   # below 10^17: the digits are split in int64

    lead = q // 10 ** 16
    rest = q - lead * 10 ** 16
    head = np.where(X >= -4, -10 * (X + 1), 40 + 10 * (rest != 0)) + lead
    groups = np.empty((len(x), 4), dtype=np.int64)
    for j, unit in enumerate((10 ** 12, 10 ** 8, 10 ** 4, 1)):
        groups[:, j] = rest // unit
        rest -= groups[:, j] * unit
        groups[:, j] += (rest == 0) * 10 ** 4   # last nonzero group
    words = np.empty((len(x), _FIELD // 8), dtype=np.uint64)
    words[:, 0] = _HEADS[head]
    words[:, 1:3] = _GROUPS[groups].view(np.uint64)
    words[:, 3] = _EXPONENTS[-X]
    fields = words.view(np.uint8)

    bad = np.flatnonzero(~ok)
    if len(bad):
        fields[bad] = _table(["%.17g" % v for v in x[bad].tolist()], _FIELD)
    return fields


def _digits(k: np.ndarray, width: int) -> np.ndarray:
    """Non-negative integers as right-aligned ASCII digits, leading zeros as padding."""
    digits = np.empty((len(k), width), dtype=np.uint8)
    for pos in range(width):
        lead = k // 10 ** (width - 1 - pos)
        digits[:, pos] = lead % 10 + 48
        if pos < width - 1:
            digits[:, pos] *= lead != 0
    return digits


# The commas between a sample row's eight probability fields, in byte 31 of each.
_COMMAS = np.zeros(8 * _FIELD - 1, dtype=np.uint8)
_COMMAS[_FIELD - 1::_FIELD] = ord(",")


# Row statuses by code.
_STATUSES = (VERDICT_NPT, VERDICT_BOUND, VERDICT_SEPARABLE, VERDICT_UNDECIDED, "invalid")
_STATUS_TEXT = _table(_STATUSES)
_DETECTED = _STATUSES.index(VERDICT_BOUND)


def _status_codes(statuses) -> np.ndarray:
    """Each status's index in _STATUSES.

    One comparison per status is the cheapest read of an object column.
    """
    codes = np.zeros(len(statuses), dtype=np.intp)
    for code, status in enumerate(_STATUSES[1:], 1):
        codes[statuses == status] = code
    return codes


def _verdict_fields(codes, labels, values) -> list[np.ndarray]:
    """The status field of each code, then "witness,value": "," unless the row was detected."""
    detected = np.flatnonzero(codes == _DETECTED)
    tails = _table([f"{_csv_text(labels[k])},{_fmt(values[k])}" for k in detected.tolist()])
    fields = np.zeros((len(codes), tails.shape[1]), dtype=np.uint8)
    fields[:, 0] = ord(",")
    fields[detected] = tails
    return [_STATUS_TEXT[codes], fields]


def _write_rows(handle, n: int, fields) -> None:
    """Write n CSV rows to a binary file, _CHUNK_ROWS at a time.

    fields(rows) gives a slice of rows' fields in column order, each a
    (rows, width) uint8 column with 0 as padding (all zero: an empty field).
    """
    for lo in range(0, n, _CHUNK_ROWS):
        columns = fields(slice(lo, min(n, lo + _CHUNK_ROWS)))
        comma = np.full((len(columns[0]), 1), ord(","), dtype=np.uint8)
        matrix = np.concatenate([part for column in columns for part in (column, comma)], axis=1)
        matrix[:, -1] = ord("\n")
        handle.write(matrix.tobytes().translate(None, b"\0"))


@contextmanager
def _rewrite(path: str, mode: str = "wb"):
    """Open path for writing in place, without O_TRUNC, which blocks while the
    old contents are still being written back; on leaving, even by an exception,
    cut a written regular file where writing stopped.  An unwritten file keeps its
    contents.  A SIGKILL mid-write leaves a longer old file's tail after the new bytes.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), mode) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) and fh.tell():
                fh.truncate()


def run_sample(n: int, seed: int, tol: float = 1e-9, csv_path: str | None = None):
    """Classify n uniform-simplex states; returns the aggregate report."""
    counts = np.zeros(len(_STATUSES), dtype=np.int64)
    tallies: Counter[str] = Counter()
    with _rewrite(csv_path) if csv_path is not None else nullcontext() as handle:
        if handle:
            handle.write(b"index,p1,p2,p3,p4,p5,p6,p7,p8,verdict,witness,witness_value\n")
        for block, start in enumerate(range(0, n, BLOCK_SIZE)):
            rng = np.random.default_rng(np.random.SeedSequence((seed, block)))
            ps = sample_simplex(rng, min(BLOCK_SIZE, n - start))
            verdicts, labels, values = classify_batch(ps, tol=tol)
            codes = _status_codes(verdicts)
            counts += np.bincount(codes, minlength=len(_STATUSES))
            tallies.update(labels[codes == _DETECTED].tolist())
            if handle:   # the probabilities' kernel runs a chunk at a time, in cache
                index = _digits(np.arange(start, start + len(ps)), len(str(n)))
                status, tail = _verdict_fields(codes, labels, values)
                _write_rows(handle, len(ps), lambda c: [
                    index[c], _g17_fields(ps[c].ravel()).reshape(-1, 8 * _FIELD)[:, :-1] | _COMMAS,
                    status[c], tail[c]])
    n_det, n_sep, n_und = counts[1:4].tolist()
    n_ppt = n_det + n_sep + n_und
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
    """The PPT region on a coordinate plane: its (grid, grid) mask and, with samples, tallies.

    The mask is `ppt.region_mask`, indexed [j, i].  The tallies are each
    feasible cell's (NPT, bound, separable, undecided) counts of `samples`
    seeded states, one row per cell in `np.flatnonzero(mask)` order, so
    cells off the region take no memory; None without samples.  The
    feasible cells are classified in blocks of whole cells holding at
    least BLOCK_SIZE states.
    """
    mask = ppt.region_mask(plane, grid)
    if not samples:
        return mask, None
    cells = np.flatnonzero(mask)
    per_block = -(-BLOCK_SIZE // samples)
    tally = np.empty((len(cells), 4), dtype=np.int64)
    for lo in range(0, len(cells), per_block):
        tally[lo:lo + per_block] = _cell_tallies(plane, grid, cells[lo:lo + per_block], samples,
                                                 seed, tol)
    return mask, tally


def _cell_tallies(plane, grid, cells, samples, seed, tol):
    """Each cell's verdict counts, shape (len(cells), 4), from one classify_batch.

    Cell j * grid + i pins p_a = i / grid and p_b = j / grid and spreads the
    rest over the six other probabilities as normalised exponentials from
    its own stream, SeedSequence((seed, i * grid + j + 1)), so its states
    do not depend on the cells that share its block.
    """
    a, b = plane
    j, i = np.divmod(cells, grid)
    w = np.concatenate([
        np.random.default_rng(np.random.SeedSequence((seed, stream))).exponential(
            1.0, size=(samples, 6)) for stream in (i * grid + j + 1).tolist()])
    x, y = np.repeat(i / grid, samples), np.repeat(j / grid, samples)
    ps = np.empty((len(w), 8))
    ps[:, [k for k in range(8) if k not in plane]] = (
        w / w.sum(axis=1, keepdims=True) * (1.0 - x - y)[:, None])
    ps[:, a], ps[:, b] = x, y
    verdicts = classify_batch(ps, tol=tol)[0].reshape(-1, samples)
    return np.stack([np.count_nonzero(verdicts == v, axis=1)
                     for v in (VERDICT_NPT, VERDICT_BOUND, VERDICT_SEPARABLE, VERDICT_UNDECIDED)],
                    axis=1)


def region_cat1_triangle(grid: int, tol: float = 1e-9):
    """Classify the triangular family over the (p1, p2) lattice, BLOCK_SIZE points at a time.

    Columns over the (grid + 1)^2 points (i/grid, j/grid), j major: i, j,
    p1, p2, status (a verdict, or "invalid" where p1 + p2 > 1), witness
    (label, "" unless detected) and value (NaN unless detected).  Only the
    columns grow with the lattice; the states and the classifier's
    workspace are one block's.
    """
    i, j = _lattice(grid + 1)
    coord = np.arange(grid + 1) / grid
    p1, p2 = coord[i], coord[j]
    valid = np.flatnonzero(p1 + p2 <= 1.0 + pauli.RESOLUTION)
    status = np.empty(i.shape, dtype=object)
    status.fill("invalid")  # one shared str; np.full would make one per point
    labels = np.full(i.shape, "", dtype=object)
    values = np.full(i.shape, np.nan)
    for lo in range(0, len(valid), BLOCK_SIZE):
        k = valid[lo:lo + BLOCK_SIZE]
        status[k], labels[k], values[k] = classify_batch(cat1_special_batch(p1[k], p2[k]), tol=tol)
    return {"i": i, "j": j, "p1": p1, "p2": p2,
            "status": status, "witness": labels, "value": values}


# The fill of a triangle point by status, or of a plane cell whose feasible
# flag is 1; other cells are left blank.
_SVG_COLORS = {VERDICT_BOUND: "#cc3311", VERDICT_SEPARABLE: "#228833",
               VERDICT_UNDECIDED: "#4477aa", 1: "#4477aa"}


def write_region_svg(fh, fills, grid: int) -> None:
    """Write a region scan to the text file fh as a minimal SVG: a rect per (i, j, fill)."""
    size = 800
    cell = size / grid
    xs = [f"{k * cell:.2f}" for k in range(grid + 1)]
    ys = [f"{size - (k + 1) * cell:.2f}" for k in range(grid + 1)]
    side = f"{cell:.2f}"
    fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">\n')
    fh.writelines(f'<rect x="{xs[i]}" y="{ys[j]}" width="{side}" height="{side}" fill="{fill}"/>\n'
                  for i, j, fill in fills)
    fh.write("</svg>\n")


def cmd_region(args) -> int:
    if args.grid < 2:
        return _error("--grid must be at least 2")
    if args.samples < 0:
        return _error("--samples must be at least 0")
    grid, triangle = args.grid, args.plane == "cat1-triangle"
    if triangle and args.samples:
        return _error("--samples applies to the coordinate planes, not cat1-triangle")
    try:  # every array is built before any file is opened
        if triangle:
            columns = region_cat1_triangle(grid, tol=args.tol)
        else:
            mask, tally = _region_plane(_PLANES[args.plane], grid, args.samples, args.seed,
                                        args.tol)
    except MemoryError as exc:  # numpy refuses a grid whose arrays cannot fit at once
        return _error(f"--grid {grid} is too large: {exc}")
    # Each lattice index's integer and coordinate, formatted once; a
    # feasible flag (0 or 1) is its own index's integer.
    ints = _table([str(k) for k in range(grid + 1)])
    coords = _table([_fmt(k / grid) for k in range(grid + 1)])
    side = grid + 1 if triangle else grid  # lattice points per row, j major
    if not triangle and tally is not None:
        tallied = np.flatnonzero(mask)  # the lattice index of each tally row

    def fields(c):
        j, i = np.divmod(np.arange(c.start, c.stop), side)
        cells = [ints[i], ints[j], coords[i], coords[j]]
        if triangle:
            return cells + _verdict_fields(_status_codes(columns["status"][c]),
                                           columns["witness"][c], columns["value"][c])
        feasible = mask.ravel()[c]
        cells.append(ints[feasible.astype(np.intp)])
        if tally is not None:   # tallies are empty off the region
            lo, hi = np.searchsorted(tallied, (c.start, c.stop))
            counts = np.zeros((len(feasible), 4), dtype=np.int64)
            counts[feasible] = tally[lo:hi]
            cells += [_digits(t, len(str(args.samples))) * feasible[:, None] for t in counts.T]
        return cells

    if triangle:
        header = b"i,j,p1,p2,status,witness,value\n"
        fills = ((i, j, _SVG_COLORS[s]) for i, j, s in
                 zip(columns["i"].tolist(), columns["j"].tolist(), columns["status"])
                 if s in _SVG_COLORS)
    else:
        header = (b"i,j,x,y,feasible,n_npt,n_bound,n_separable,n_undecided\n" if args.samples
                  else b"i,j,x,y,feasible\n")
        fills = ((i, j, _SVG_COLORS[1]) for j, row in enumerate(mask)
                 for i in np.flatnonzero(row).tolist())
    made = [p for p in (args.svg, args.out) if p is not None and not os.path.lexists(p)]
    try:
        with (_rewrite(args.svg, "w") if args.svg is not None else nullcontext()) as svg, \
                _rewrite(args.out) as fh:
            fh.write(header)
            _write_rows(fh, side * side, fields)
            if svg:
                write_region_svg(svg, fills, grid)
    except OSError as exc:
        for p in made:  # a failed scan leaves no file it created
            with suppress(OSError):
                os.remove(p)
        return _error(exc)
    print(f"wrote {side * side} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def suite_oracle(n: int, seed: int, inject_bug: bool):
    """Inequality verdicts against the rotation-eigenvalue oracle.

    The n states are drawn BLOCK_SIZE at a time, in order, from the one
    generator, which gives the same states as one draw of n; both routes
    run on one block at a time, so memory does not grow with n.
    """
    rng = np.random.default_rng(seed)
    tol = 1e-9
    verdict_match, gaps = True, []
    for lo in range(0, n, BLOCK_SIZE):
        block = sample_simplex(rng, min(BLOCK_SIZE, n - lo))
        ineq = ppt.ppt_inequalities_batch(block)
        if inject_bug:
            ineq[:, 0] = -ineq[:, 0]  # negative control: corrupt one inequality
        ineq_min = ineq.min(axis=1)
        eig_min = ppt.pt_min_eigenvalues_batch(block).min(axis=1)
        verdict_match &= bool(np.all((ineq_min >= -tol) == (eig_min >= -tol)))
        gaps.append(np.max(np.abs(eig_min - ineq_min / 2.0)))
    value_match = float(np.max(gaps))
    ok = verdict_match and value_match <= tol
    return ok, f"n={n} verdict_agree={verdict_match} max|eig-ineq/2|={value_match:.3e}"


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


def suite_region():
    """The shadow table against its LP derivation, and region cells against the cell oracle.

    Every ordered plane's `ppt.projection_polygon` must equal
    `ppt._lp_projection_polygon` vertex for vertex, and on the six CLI
    planes the cells read off the table at grid 8 must equal `ppt._lp_cells`.
    """
    grid = 8
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


# The oracle suite's memory does not grow with --n, but its time does:
# 10^9 states take about 10 hours on a 2-core host.
_MAX_VERIFY_N = 10 ** 9


def cmd_verify(args) -> int:
    if args.n < 1:
        return _error("--n must be at least 1")
    if args.n > _MAX_VERIFY_N:
        return _error(f"--n {args.n} is too large: at most {_MAX_VERIFY_N}")
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
