"""CLI behavior: flags, exit codes, determinism, CSV round trips."""

import csv
import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubwitness import cli, pauli, ppt, witness
from mubwitness.classify import (
    VERDICT_BOUND,
    VERDICT_NPT,
    VERDICT_SEPARABLE,
    cat1_special,
    cat1_special_batch,
    classify_batch,
)

PROTO = "0.043425,0.15308,0.016132,0.19387,0.059793,0.24806,0.18207,0.10357"


def run_cli(args, python_flags=()):
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "mubwitness.cli", *args],
        capture_output=True, text=True,
    )


def test_classify_prototype_detected():
    res = run_cli(["classify", "--p", PROTO])
    assert res.returncode == 0
    assert "verdict: bound-detected" in res.stdout
    assert "witness: W" in res.stdout


def test_classify_uniform_separable_json():
    res = run_cli(["classify", "--p", ",".join(["0.125"] * 8), "--json"])
    assert res.returncode == 0
    record = json.loads(res.stdout)
    assert record["verdict"] == "separable-certified"
    assert record["certificate"]["reconstruction_error"] < 1e-10
    assert len(record["inequalities"]) == 6


def test_classify_pure_ghz_npt():
    res = run_cli(["classify", "--p", "1,0,0,0,0,0,0,0"])
    assert res.returncode == 0
    assert "verdict: NPT" in res.stdout


def test_classify_r_input():
    res = run_cli(["classify", "--r", "0,0,0,0,0,0,0", "--json"])
    assert res.returncode == 0
    assert json.loads(res.stdout)["verdict"] == "separable-certified"


# --tol is minus this NPT state's smallest inequality value as a BLAS
# matrix-vector product rounds it; summed left to right, the value rounds
# slightly lower, below -tol.
BOUNDARY_P = ("0.10749657005067323,0.09450663936429698,0.09700564932437437,"
              "0.09603977967748333,0.006800958742439573,0.3547424117873048,"
              "0.23262226359453772,0.010785727458889945")


def test_classify_verdict_and_ppt_line_agree_at_the_rounding_boundary():
    res = run_cli(["classify", "--tol", "0.1548960240430075", "--p", BOUNDARY_P])
    assert res.returncode == 0
    verdict, ppt_line = res.stdout.splitlines()[:2]
    assert verdict.startswith("verdict: ") and ppt_line.startswith("ppt: ")
    assert (verdict == "verdict: NPT") == ppt_line.startswith("ppt: fail")
    res = run_cli(["classify", "--tol", "0.1548960240430075", "--p", BOUNDARY_P, "--json"])
    record = json.loads(res.stdout)
    assert record["ppt_pass"] == (record["verdict"] != VERDICT_NPT)
    assert record["ppt_pass"] == (min(map(min, record["inequalities"])) >= -0.1548960240430075)


def test_sample_csv_rows_equal_classify_output(tmp_path, capsys):
    # The same state prints the same verdict, label and value digits from
    # `mubw sample --out` and `mubw classify`.
    out = tmp_path / "s.csv"
    assert cli.main(["sample", "--n", "4096", "--seed", "3", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    picked = [row for row in rows if row["verdict"] == VERDICT_BOUND]
    assert len(picked) >= 4
    picked += rows[:20]
    capsys.readouterr()
    for row in picked:
        state = ",".join(row[f"p{k}"] for k in range(1, 9))
        assert cli.main(["classify", "--p", state, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["verdict"] == row["verdict"]
        assert (record["witness"] or "") == row["witness"]
        value = record["witness_value"]
        assert ("" if value is None else cli._fmt(value)) == row["witness_value"]


def test_classify_state_file(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text(PROTO + "\n")
    res = run_cli(["classify", "--state-file", str(path)],
                  python_flags=("-W", "error::ResourceWarning"))
    assert res.returncode == 0
    assert "bound-detected" in res.stdout
    assert "ResourceWarning" not in res.stderr


def test_classify_malformed_inputs_exit_2():
    for bad in ["1,2", "0.9,0.2,0,0,0,0,0,0", "-0.1,1.1,0,0,0,0,0,0", "a,b,c,d,e,f,g,h"]:
        res = run_cli(["classify", "--p", bad])
        assert res.returncode == 2, bad
        assert "error" in res.stderr


@pytest.mark.parametrize("flag, value", [("--p", "nan,0.2,0.1,0.1,0.1,0.1,0.1,0.1"),
                                         ("--r", "inf,0,0,0,0,0,0")])
def test_classify_non_finite_input_exit_2(flag, value):
    res = run_cli(["classify", flag, value, "--json"])
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr


@pytest.mark.parametrize("flag", ["--p", "--r", "--state-file"])
def test_classify_empty_input_exit_2(flag):
    res = run_cli(["classify", flag, ""])
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr


@pytest.mark.parametrize("command", [
    ["sample", "--n", "5"],
    ["region", "--plane", "p1p2", "--grid", "4", "--samples", "2", "--out"],
    ["verify", "--suite", "oracle"],
])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_exit_2(tmp_path, command, seed):
    out = tmp_path / "out.csv"
    if command[-1] == "--out":
        command = command + [str(out)]
    res = run_cli(command + ["--seed", seed])
    assert res.returncode == 2
    assert res.stdout == "" and "Traceback" not in res.stderr
    errors = [line for line in res.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and "argument --seed" in errors[0], res.stderr
    assert not out.exists()


def test_main_reuses_one_parser_across_commands(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    commands = [
        ["classify", "--p", PROTO, "--json"],
        ["region", "--plane", "cat1-triangle", "--grid", "6", "--out", str(tmp_path / "a.csv")],
        ["sample", "--n", "50", "--seed", "3"],
        ["classify", "--r", "0,0,0,0,0,0,0"],
        ["region", "--plane", "p3p4", "--grid", "5", "--samples", "2",
         "--out", str(tmp_path / "b.csv")],
    ]
    in_process = []
    for command in commands:
        assert cli.main(command) == 0
        in_process.append(capsys.readouterr().out)
    tables = [(tmp_path / name).read_bytes() for name in ("a.csv", "b.csv")]
    for command, out in zip(commands, in_process):
        res = run_cli(command)
        assert res.returncode == 0
        assert res.stdout == out
    assert tables == [(tmp_path / name).read_bytes() for name in ("a.csv", "b.csv")]


@pytest.mark.parametrize("command", [
    ["classify", "--p", PROTO],
    ["sample", "--n", "10", "--out"],
    ["region", "--plane", "cat1-triangle", "--grid", "4", "--out"],
])
@pytest.mark.parametrize("tol", ["0", "-1e-9", "nan", "inf", "1e-17"])
def test_bad_tolerance_exit_2(tmp_path, command, tol):
    out = tmp_path / "out.csv"
    if command[-1] == "--out":
        command = command + [str(out)]
    res = run_cli(command + [f"--tol={tol}"])
    assert res.returncode == 2
    assert "argument --tol" in res.stderr and "Traceback" not in res.stderr
    assert not out.exists()


def test_verify_n_zero_exit_2():
    res = run_cli(["verify", "--suite", "oracle", "--n", "0"])
    assert res.returncode == 2
    assert res.stderr.strip() == "error: --n must be at least 1"


def test_sample_report_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    r1 = run_cli(["sample", "--n", "3000", "--seed", "42", "--out", str(out1)])
    r2 = run_cli(["sample", "--n", "3000", "--seed", "42", "--out", str(out2)])
    assert r1.returncode == 0 and r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert r1.stdout.splitlines()[:6] == r2.stdout.splitlines()[:6]
    r3 = run_cli(["sample", "--n", "3000", "--seed", "43"])
    assert r3.stdout != r1.stdout


def test_sample_counts_consistent():
    report = cli.run_sample(2000, seed=7)
    assert report.n_total == 2000
    n_npt = report.n_total - report.n_ppt
    assert report.n_ppt == report.n_detected + report.n_certified_separable + report.n_undecided
    assert 0 <= report.fraction_detected_of_ppt <= 1
    assert sum(report.witness_tallies.values()) == report.n_detected
    assert n_npt > 0


def test_sample_single_state():
    report = cli.run_sample(1, seed=0)
    assert report.n_total == 1


def test_sample_csv_round_trip(tmp_path):
    out = tmp_path / "states.csv"
    cli.run_sample(500, seed=3, csv_path=str(out))
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 500
    for row in rows[::37]:
        p = np.array([float(row[f"p{i}"]) for i in range(1, 9)])
        assert abs(p.sum() - 1.0) < 1e-12
        assert row["verdict"] in ("NPT", "bound-detected", "separable-certified",
                                  "ppt-undecided")
        if row["verdict"] == "bound-detected":
            assert row["witness"].startswith("W")
            float(row["witness_value"])


def _check_quoted_labels(path, n_rows, value_column):
    labels = {id_.label for id_ in witness.all_family_ids()}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert len(rows) == n_rows
    bound = [row for row in rows if "bound-detected" in row.values()]
    assert bound
    for row in rows:
        assert None not in row and None not in row.values()
    for row in bound:
        assert row["witness"] in labels
        assert float(row[value_column]) < 0.0


def test_csv_witness_labels_quoted(tmp_path):
    sample = tmp_path / "sample.csv"
    cli.run_sample(3000, seed=5, csv_path=str(sample))
    _check_quoted_labels(sample, 3000, "witness_value")
    triangle = tmp_path / "triangle.csv"
    res = run_cli(["region", "--plane", "cat1-triangle", "--grid", "16",
                   "--out", str(triangle)])
    assert res.returncode == 0
    _check_quoted_labels(triangle, 17 * 17, "value")


def _traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_sample_memory_bounded_in_n(tmp_path):
    def peak(n):
        return _traced_peak(lambda: cli.run_sample(n, seed=1, csv_path=str(tmp_path / "mem.csv")))

    small = peak(2 * cli.BLOCK_SIZE)
    large = peak(16 * cli.BLOCK_SIZE)
    assert large <= 1.5 * small, (small, large)


def test_verify_oracle_memory_bounded_in_n():
    # The states are drawn a block at a time and both routes run on one
    # block, so 14 more blocks add less than one block of states (64 B each).
    def peak(n):
        return _traced_peak(lambda: cli.suite_oracle(n, seed=1, inject_bug=True))

    small = peak(2 * cli.BLOCK_SIZE)
    large = peak(16 * cli.BLOCK_SIZE)
    assert large - small <= 64 * cli.BLOCK_SIZE, (small, large)


def test_region_cat1_triangle_memory_is_the_columns():
    # At grid 800 (641 601 points) the returned columns hold about 34 MB;
    # the states and the classifier's workspace are one block's on top.
    scan = {}
    peak = _traced_peak(lambda: scan.update(cli.region_cat1_triangle(800)))
    columns = sum(column.nbytes for column in scan.values())
    assert peak <= 3 * columns, (peak, columns)


def test_region_cat1_triangle_invalid_status_is_one_object():
    # The "invalid" status is one shared str, so what the scan keeps is its
    # columns: at grid 300 one str per invalid point would add half again.
    cli.region_cat1_triangle(4)  # first-call imports and caches are not the scan's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scan = cli.region_cat1_triangle(300)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    invalid = scan["status"][scan["status"] == "invalid"]
    assert len(invalid) > 40_000 and len({id(s) for s in invalid}) == 1
    columns = sum(column.nbytes for column in scan.values())
    assert retained <= 1.1 * columns, (retained, columns)


def test_sampler_marginals_uniform():
    # each coordinate of a flat-simplex sample has mean 1/8
    rng = np.random.default_rng(11)
    ps = cli.sample_simplex(rng, 1_000_000)
    se = np.sqrt(ps.var(axis=0) / len(ps))
    assert np.all(np.abs(ps.mean(axis=0) - 0.125) < 3.5 * se)


def test_region_plane_csv(tmp_path):
    out = tmp_path / "region.csv"
    res = run_cli(["region", "--plane", "p1p2", "--grid", "16", "--out", str(out)])
    assert res.returncode == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16 * 16
    feasible = {(int(r["i"]), int(r["j"])) for r in rows if r["feasible"] == "1"}
    expected = {(i, j) for j in range(16) for i in range(16)
                if 4 * i - 2 * j <= 16 and 4 * j - 2 * i <= 16 and i + j <= 16}
    assert feasible == expected


@pytest.mark.parametrize("grid", [3, 7, 16, 37])
def test_region_cat1_triangle_columns_match_per_point_reference(grid):
    # The family's formula per point in Python floats, then one classify_batch;
    # the scalar constructor must give the same bits at every point.
    ij = [(i, j) for j in range(grid + 1) for i in range(grid + 1)]
    valid = [i / grid + j / grid <= 1.0 + 1e-12 for i, j in ij]
    states = []
    for (i, j), ok in zip(ij, valid):
        if ok:
            x, y = i / grid, j / grid
            p = (1.0 - x - y) / 3.0
            state = np.clip([x, y, p, 0.0, p, 0.0, p, 0.0], 0.0, 1.0)
            assert cat1_special(x, y).tobytes() == state.tobytes()
            states.append(state)
    states = np.array(states)
    verdicts, labels, values = classify_batch(states)
    status = np.full(len(ij), "invalid", dtype=object)
    witness_ = np.full(len(ij), "", dtype=object)
    value = np.full(len(ij), np.nan)
    status[valid], witness_[valid], value[valid] = verdicts, labels, values

    scan = cli.region_cat1_triangle(grid)
    assert scan["i"].tolist() == [i for i, _ in ij]
    assert scan["j"].tolist() == [j for _, j in ij]
    assert scan["p1"].tolist() == [i / grid for i, _ in ij]
    assert scan["p2"].tolist() == [j / grid for _, j in ij]
    assert scan["status"].tolist() == status.tolist()
    assert scan["witness"].tolist() == witness_.tolist()
    assert scan["value"].tobytes() == value.tobytes()
    assert VERDICT_BOUND in status
    assert (VERDICT_SEPARABLE in status) == (grid % 2 == 0)  # edge 4 p1 - 2 p2 = 1


def test_region_cat1_triangle_hypotenuse_rounding():
    # On the edge p1 + p2 = 1 the residual 1 - p1 - p2 rounds to a tiny
    # nonzero number: positive at grid 7, negative (and clipped to 0) at 37.
    for grid, sign in ((7, 1.0), (37, -1.0)):
        scan = cli.region_cat1_triangle(grid)
        edge = scan["i"] + scan["j"] == grid
        residual = 1.0 - scan["p1"][edge] - scan["p2"][edge]
        assert np.any(sign * residual > 0.0)
        states = cat1_special_batch(scan["p1"][edge], scan["p2"][edge])
        assert states[:, 2].tolist() == np.maximum(residual / 3.0, 0.0).tolist()
        assert all(s == VERDICT_NPT for s in scan["status"][edge])


GOLDEN = Path(__file__).parent / "data" / "region"


@pytest.mark.parametrize("name, args", [
    ("cat1-triangle-7", ["--plane", "cat1-triangle", "--grid", "7"]),
    ("cat1-triangle-8", ["--plane", "cat1-triangle", "--grid", "8"]),
    ("p1p2-6", ["--plane", "p1p2", "--grid", "6"]),
    ("p1p2-6-samples", ["--plane", "p1p2", "--grid", "6", "--samples", "8", "--seed", "5"]),
    ("p1p3-6", ["--plane", "p1p3", "--grid", "6"]),
])
def test_region_outputs_match_golden_files(tmp_path, name, args):
    # Reference outputs of `mubw region`: any byte that changes changes the format.
    out, svg = tmp_path / "out.csv", tmp_path / "out.svg"
    assert cli.main(["region", *args, "--out", str(out), "--svg", str(svg)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    if (GOLDEN / f"{name}.svg").exists():
        assert svg.read_bytes() == (GOLDEN / f"{name}.svg").read_bytes()


@pytest.mark.parametrize("name, args", [
    ("p1p2-400", ["--plane", "p1p2", "--grid", "400"]),
    ("p1p3-400", ["--plane", "p1p3", "--grid", "400"]),
    ("cat1-triangle-40", ["--plane", "cat1-triangle", "--grid", "40"]),
    ("cat1-triangle-100", ["--plane", "cat1-triangle", "--grid", "100"]),
    ("p1p2-40-samples", ["--plane", "p1p2", "--grid", "40", "--samples", "4", "--seed", "3"]),
    # 231 feasible cells of 50 states: three classify_batch blocks of whole cells.
    ("p1p3-40-samples50", ["--plane", "p1p3", "--grid", "40", "--samples", "50", "--seed", "7"]),
])
def test_region_outputs_match_golden_digests(tmp_path, name, args):
    # Scans of 1 600 to 160 000 rows, which cross many of the CSV writer's
    # 512-row chunks: the CSV's SHA-256 in `sha256sum -c` form.
    out = tmp_path / "region.csv"
    assert cli.main(["region", *args, "--out", str(out)]) == 0
    digest, file_name = (GOLDEN / f"{name}.sha256").read_text().split()
    assert file_name == out.name
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_region_csv_memory_bounded_by_the_chunk(tmp_path):
    # The CSV is written one chunk of rows at a time: at grid 800 (640 000
    # rows) writing it adds at most a few MB to the peak of building the columns.
    build = _traced_peak(lambda: cli._region_plane(cli._PLANES["p1p2"], 800, 0, 0, 1e-9))
    scan = _traced_peak(lambda: cli.main(["region", "--plane", "p1p2", "--grid", "800",
                                          "--out", str(tmp_path / "mem.csv")]))
    assert scan <= build + 4 * 2 ** 20, (build, scan)


def test_region_plane_scan_memory_is_the_mask(tmp_path):
    # A plane scan keeps only its (grid, grid) bool mask, 1 MB at grid 1000;
    # each chunk's i, j and feasible columns are derived from its row range.
    peak = _traced_peak(lambda: cli.main(["region", "--plane", "p1p2", "--grid", "1000",
                                          "--out", str(tmp_path / "mem.csv")]))
    assert peak < 6 * 2 ** 20, peak


def test_region_plane_tallies_only_the_feasible_cells(monkeypatch):
    # --samples keeps one int64 tally row per feasible cell: at grid 1000,
    # 125 501 cells of 1 000 000, 4.0 MB instead of 32 MB for the whole
    # lattice.  Classification is stubbed out (18 s under tracemalloc for
    # one state per cell): its workspace is one block's, whatever the grid.
    monkeypatch.setattr(cli, "_cell_tallies",
                        lambda plane, grid, cells, *rest: np.ones((len(cells), 4), np.int64))
    peak = _traced_peak(lambda: cli._region_plane((0, 1), 1000, 1, 0, 1e-9))
    assert peak < 12 * 2 ** 20, peak


CLASSIFY_GOLDEN = Path(__file__).parent / "data" / "classify"


@pytest.mark.parametrize("name", sorted(p.stem for p in CLASSIFY_GOLDEN.glob("*.p")))
def test_classify_outputs_match_golden_files(capsys, name):
    # Reference outputs of `mubw classify` on the state in <name>.p: the
    # prototype, I/8, CAT2_STATE, one state of each separable family, an NPT
    # and an undecided draw.  --json prints the eigenvalues in full: each is
    # half of that qubit's smallest printed inequality value.
    state = CLASSIFY_GOLDEN / f"{name}.p"
    for flags, suffix in (([], "txt"), (["--json"], "json")):
        assert cli.main(["classify", "--state-file", str(state), *flags]) == 0
        out = capsys.readouterr().out.encode()
        assert out == (CLASSIFY_GOLDEN / f"{name}.{suffix}").read_bytes()


SAMPLE_GOLDEN = Path(__file__).parent / "data" / "sample"


@pytest.mark.parametrize("name", ["n10000-seed42", "n4097-seed1", "n1-seed0"])
def test_sample_outputs_match_golden_digests(tmp_path, capsys, name):
    # Reference outputs of `mubw sample --n N --seed S --out sample.csv` for
    # <name> = nN-seedS: the exact stdout, and the CSV's SHA-256 in
    # `sha256sum -c` form.  n = 4097 ends on a one-row block.
    n, seed = re.fullmatch(r"n(\d+)-seed(\d+)", name).groups()
    out = tmp_path / "sample.csv"
    assert cli.main(["sample", "--n", n, "--seed", seed, "--out", str(out)]) == 0
    assert capsys.readouterr().out.encode() == (SAMPLE_GOLDEN / f"{name}.stdout").read_bytes()
    digest, file_name = (SAMPLE_GOLDEN / f"{name}.sha256").read_text().split()
    assert file_name == out.name
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_sample_million_stdout_matches_golden(capsys):
    # `mubw sample --n 1000000 --seed 42`: 94 055 PPT states, 2 037 detected.
    assert cli.main(["sample", "--n", "1000000", "--seed", "42"]) == 0
    want = (SAMPLE_GOLDEN / "n1000000-seed42.stdout").read_bytes()
    assert capsys.readouterr().out.encode() == want


def test_region_cat1_triangle_csv(tmp_path):
    out = tmp_path / "cat1.csv"
    svg = tmp_path / "cat1.svg"
    res = run_cli(["region", "--plane", "cat1-triangle", "--grid", "16",
                   "--out", str(out), "--svg", str(svg)])
    assert res.returncode == 0
    with open(out) as fh:
        rows = {(int(r["i"]), int(r["j"])): r for r in csv.DictReader(fh)}
    assert rows[(8, 8)]["status"] == "separable-certified"   # (1/2, 1/2)
    assert rows[(4, 2)]["status"] == "bound-detected"        # interior
    assert rows[(0, 0)]["status"] == "NPT"
    assert rows[(16, 16)]["status"] == "invalid"             # p1 + p2 = 2
    assert svg.read_text().startswith("<svg")


def test_region_samples_tally(tmp_path):
    out = tmp_path / "tally.csv"
    res = run_cli(["region", "--plane", "p1p2", "--grid", "6", "--out", str(out),
                   "--samples", "8", "--seed", "5"])
    assert res.returncode == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if row["feasible"] == "1":
            total = sum(int(row[k]) for k in
                        ("n_npt", "n_bound", "n_separable", "n_undecided"))
            assert total == 8


def test_region_bad_plane_exit_2(tmp_path):
    res = run_cli(["region", "--plane", "p1p2", "--grid", "1",
                   "--out", str(tmp_path / "x.csv")])
    assert res.returncode == 2


@pytest.mark.parametrize("command", [
    ["region", "--plane", "p1p2", "--grid", "4", "--out", "{missing}"],
    ["region", "--plane", "p1p2", "--grid", "4", "--out", "{ok}", "--svg", "{missing}"],
    ["region", "--plane", "p1p2", "--grid", "4", "--out", "{ok}", "--svg", ""],
    ["region", "--plane", "p1p2", "--grid", "4", "--out", "{missing}", "--svg", "{svg}"],
    ["sample", "--n", "10", "--out", "{missing}"],
    ["sample", "--n", "10", "--out", ""],
])
def test_unwritable_output_exit_2(tmp_path, command):
    paths = {"missing": str(tmp_path / "no-such-dir" / "x"), "ok": str(tmp_path / "ok.csv"),
             "svg": str(tmp_path / "ok.svg")}
    res = run_cli([arg.format(**paths) for arg in command])
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr
    assert not (tmp_path / "ok.csv").exists()  # an unusable --svg leaves no CSV behind
    assert not (tmp_path / "ok.svg").exists()  # an unusable --out leaves no SVG behind


@pytest.mark.parametrize("kept,flag,other", [("ok.svg", "--svg", "--out"),
                                             ("ok.csv", "--out", "--svg")])
def test_unwritable_region_output_keeps_the_other_file(tmp_path, kept, flag, other):
    # Both paths must open before either is truncated, so an existing file
    # survives a failed scan byte for byte.
    (tmp_path / kept).write_text("old contents\n")
    res = run_cli(["region", "--plane", "p1p2", "--grid", "4", flag, str(tmp_path / kept),
                   other, str(tmp_path / "no-such-dir" / "x")])
    assert res.returncode == 2
    assert (tmp_path / kept).read_text() == "old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [kept]


def test_region_negative_samples_exit_2(tmp_path):
    res = run_cli(["region", "--plane", "p1p2", "--grid", "4", "--samples", "-3",
                   "--out", str(tmp_path / "x.csv")])
    assert res.returncode == 2
    assert res.stderr.strip() == "error: --samples must be at least 0"


@pytest.mark.parametrize("plane", ["p1p2", "cat1-triangle"])
def test_region_grid_too_large_for_memory_exit_2(tmp_path, plane):
    # 10^16 cells: numpy refuses the first lattice array at once, allocating nothing.
    res = run_cli(["region", "--plane", plane, "--grid", "100000000",
                   "--out", str(tmp_path / "x.csv")])
    assert res.returncode == 2 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1, res.stderr
    assert lines[0].startswith("error: --grid 100000000 is too large"), res.stderr
    assert not (tmp_path / "x.csv").exists()


def test_verify_n_too_large_for_memory_exit_2():
    # The oracle suite draws a block at a time, so no --n exhausts memory;
    # an --n above 10^9 (about 10 hours of oracle checks) is refused.
    res = run_cli(["verify", "--suite", "oracle", "--n", "100000000000"])
    assert res.returncode == 2 and res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1, res.stderr
    assert lines[0].startswith("error: --n 100000000000 is too large"), res.stderr


def test_region_samples_on_the_triangle_exit_2(tmp_path):
    res = run_cli(["region", "--plane", "cat1-triangle", "--grid", "4", "--samples", "3",
                   "--out", str(tmp_path / "x.csv")])
    assert res.returncode == 2
    assert res.stderr.strip() == (
        "error: --samples applies to the coordinate planes, not cat1-triangle")
    assert not (tmp_path / "x.csv").exists()


def test_verify_region_suite_catches_wrong_polygon(monkeypatch):
    assert cli.suite_region()[0]
    triangle = [(0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2))]
    monkeypatch.setattr(ppt, "projection_polygon", lambda plane: triangle)
    ok, detail = cli.suite_region()
    assert not ok
    assert "mismatched=p1p2,p3p4,p5p6,p7p8" in detail


def test_verify_region_suite_catches_wrong_table(monkeypatch):
    ok, detail = cli.suite_region()
    assert ok and "table_planes=56 table_mismatched=none" in detail
    quad, tri = ppt._SHADOWS[True], ppt._SHADOWS[False]
    wrong = ((0, 0), (Fraction(1, 2), 0), (0, Fraction(2, 5)))  # a cross-pair edge off by 1/10
    monkeypatch.setattr(ppt, "_SHADOWS", {True: quad, False: wrong})
    ok, detail = cli.suite_region()
    assert not ok
    names = detail.split("table_mismatched=")[1].split(",")
    assert len(names) == 48 and "p1p3" in names and "p3p1" in names and "p1p2" not in names
    assert "mismatched=p1p3,p2p4 " in detail  # the cells of those CLI planes move too
    monkeypatch.setattr(ppt, "_SHADOWS", {True: tri, False: tri})
    ok, detail = cli.suite_region()
    assert not ok and detail.endswith(
        "table_mismatched=p1p2,p2p1,p3p4,p4p3,p5p6,p6p5,p7p8,p8p7")


@pytest.mark.parametrize("plane", sorted(cli._PLANES))
def test_region_scan_runs_no_lp(tmp_path, monkeypatch, plane):
    constructions = []

    class CountingSimplex(ppt._Simplex):
        def __init__(self, *args, **kwargs):
            constructions.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ppt, "_Simplex", CountingSimplex)
    ppt._lp_cells((0, 1), 2)
    assert constructions == [1] * 4  # the wrapper sees the module's own LPs, one per cell
    constructions.clear()
    out, svg = tmp_path / "out.csv", tmp_path / "out.svg"
    assert cli.main(["region", "--plane", plane, "--grid", "16",
                     "--out", str(out), "--svg", str(svg)]) == 0
    assert constructions == []


def _per_id_envelope_gap(rs, psis):
    """The envelope suite's gap, computed id by id from each id's signs."""
    cosv, sinv = np.cos(psis), np.sin(psis)
    closed = witness.nonlinear_values_batch(rs)
    worst = 0.0
    for col, id_ in enumerate(witness.all_family_ids()):
        (j, k), (l, m) = id_.partition
        a = rs[:, j - 1] + id_.inner_sign * rs[:, k - 1]
        b = rs[:, l - 1] + id_.inner_sign * rs[:, m - 1]
        base = 1.0 + id_.outer_sign * rs[:, id_.z_index - 1]
        grid_min = base + (np.outer(a, cosv) + np.outer(b, sinv)).min(axis=1)
        worst = max(worst, float(np.max(np.abs(grid_min - closed[:, col]))))
    return worst


@pytest.mark.parametrize("seed", [1, 7])
def test_envelope_suite_gap_matches_per_id_reference(seed):
    rs = cli.sample_simplex(np.random.default_rng(seed), 100) @ pauli.SIGNS.T
    psis = np.linspace(0.0, 2.0 * math.pi, 10000, endpoint=False)
    want = _per_id_envelope_gap(rs, psis)
    got = cli._envelope_gap(rs, psis)
    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
    ok, detail = cli.suite_envelope(seed=seed)
    assert ok and detail == f"states=100 ids=36 psi_grid=10000 max_gap={want:.3e}"


def test_verify_all_passes():
    res = run_cli(["verify", "--n", "4000"])
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.count("[PASS]") == 6
    assert "[PASS] region:" in res.stdout
    assert "[FAIL]" not in res.stdout


def test_verify_single_suite():
    res = run_cli(["verify", "--suite", "identities"])
    assert res.returncode == 0
    assert res.stdout.count("[PASS]") == 1


def test_verify_injected_bug_fails():
    res = run_cli(["verify", "--suite", "oracle", "--n", "2000",
                   "--inject-bug", "oracle"])
    assert res.returncode == 1
    assert "[FAIL] oracle" in res.stdout


def _g17_text(x):
    """The kernel's fields for x as lines of text: byte 31 is padding, so it takes the newline."""
    fields = cli._g17_fields(np.asarray(x, dtype=float))
    assert not fields[:, -1].any()
    fields[:, -1] = ord("\n")
    return fields[fields != 0].tobytes().decode()


def _assert_g17_exact(x):
    expected = "".join(["%.17g\n" % v for v in np.asarray(x, dtype=float).tolist()])
    got = _g17_text(x)
    if got != expected:
        pairs = zip(np.asarray(x).tolist(), got.splitlines(), expected.splitlines())
        raise AssertionError(next((v, g, e) for v, g, e in pairs if g != e))


def test_g17_fields_equal_percent_17g_on_a_million_values():
    # The CSV writer's float kernel against Python's `%.17g`, byte for byte:
    # flat-simplex draws and random bit patterns across [1e-12, 1].
    rng = np.random.default_rng(2024)
    draws = cli.sample_simplex(rng, 65_536).ravel()
    low, high = np.array([1e-12, 1.0]).view(np.uint64)
    bits = rng.integers(low, high, size=500_000, dtype=np.uint64, endpoint=True)
    _assert_g17_exact(np.concatenate([draws, bits.view(np.float64)]))


def test_g17_fields_equal_percent_17g_on_edge_values():
    # Doubles below 10^-k whose 17 digits round up into the next decade
    # (1e-14, 1e-70, ...): none lies in the kernel's range [1e-9, 1).
    carries = [float(Fraction(1, 10 ** k)) for k in range(1, 324)]
    carries = [x for k, x in enumerate(carries, 1)
               if Fraction(x) < Fraction(1, 10 ** k) and "%.17g" % x == f"1e-{k:02d}"]
    assert len(carries) >= 10
    powers = [10.0 ** -k for k in range(1, 13)]   # 1e-9 is the kernel's lower bound
    near = [np.nextafter(v, d) for v in powers for d in (0.0, 1.0)]
    edges = ([0.0, 1.0, 5e-324, 2.2250738585072014e-308, np.nextafter(1.0, 0.0)]
             + powers + near + [2.0 ** -k for k in range(1, 61)] + carries)
    _assert_g17_exact(edges)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64))
def test_g17_fields_equal_percent_17g_property(values):
    _assert_g17_exact(values)
