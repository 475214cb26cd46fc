"""Fast tests of the benchmark: every workload's checks at toy size, with
negative controls showing that a corrupted output is a failed operation."""

import dataclasses
import importlib

import numpy as np
import pytest

import bench_plan

bench_plan.use_source_tree()

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
import run  # noqa: E402


def _rewrite(path, old, new):
    lines = path.read_text().splitlines()
    k = next(n for n, line in enumerate(lines) if old in line)
    lines[k] = lines[k].replace(old, new, 1)
    path.write_text("\n".join(lines) + "\n")


def test_sample_checks_and_negative_controls(tmp_path):
    path = tmp_path / "sample.csv"
    out = bench_plan.run_cli(["sample", "--n", "3000", "--seed", "5", "--out", str(path)])
    assert bw.check_sample(out, path, 3000, 5) == []
    good = path.read_text()
    _rewrite(path, ",NPT,", ",ppt-undecided,")           # one flipped verdict
    assert bw.check_sample(out, path, 3000, 5)
    path.write_text(good)
    bound = next(line for line in good.splitlines() if ",bound-detected," in line)
    value = bound.rsplit(",", 1)[1]
    _rewrite(path, bound, bound[: -len(value)] + repr(float(value) * 0.5))
    assert bw.check_sample(out, path, 3000, 5)            # one wrong witness value


def test_triangle_checks_and_negative_control(tmp_path):
    path = tmp_path / "triangle.csv"
    out = bench_plan.run_cli(["region", "--plane", "cat1-triangle", "--grid", "16",
                              "--out", str(path)])
    assert bw.check_triangle(out, path, 16) == []
    _rewrite(path, "4,2,0.25,0.125,bound-detected", "4,2,0.25,0.125,ppt-undecided")
    assert bw.check_triangle(out, path, 16)


@pytest.mark.parametrize("plane", bench_plan.REGION_PLANES)
def test_region_checks(tmp_path, plane):
    path = tmp_path / "region.csv"
    out = bench_plan.run_cli(["region", "--plane", plane, "--grid", "8", "--out", str(path)])
    assert bw.check_region(out, path, plane, 8) == []


def test_region_negative_control(tmp_path):
    path = tmp_path / "region.csv"
    out = bench_plan.run_cli(["region", "--plane", "p1p2", "--grid", "8", "--out", str(path)])
    _rewrite(path, "1,1,0.125,0.125,1", "1,1,0.125,0.125,0")    # one dropped cell
    assert bw.check_region(out, path, "p1p2", 8)


def test_classify_checks_and_negative_controls(tmp_path):
    wl = bw.make("classify", 3, tmp_path)
    kinds = {}
    for op in wl.ops:
        verdict = op.call()
        assert op.check(verdict) == []
        kinds.setdefault(verdict.kind, (op, verdict))
    assert set(kinds) >= {bw.NPT, bw.BOUND, bw.SEPARABLE, bw.UNDECIDED}
    op, verdict = kinds[bw.BOUND]
    assert op.check(dataclasses.replace(verdict, kind=bw.UNDECIDED, detection=None))
    op, verdict = kinds[bw.SEPARABLE]
    term = verdict.certificate.terms[0]
    bad = dataclasses.replace(verdict.certificate, terms=(
        dataclasses.replace(term, matrix=term.matrix * 1.01),) + verdict.certificate.terms[1:])
    assert op.check(dataclasses.replace(verdict, certificate=bad))


def test_classify_inputs_are_seeded_with_a_fixed_mix():
    a, b, c = bw.classify_inputs(7), bw.classify_inputs(7), bw.classify_inputs(8)
    assert all(np.array_equal(p, q) for (_, p), (_, q) in zip(a, b))
    assert not all(np.array_equal(p, q) for (_, p), (_, q) in zip(a, c))
    assert sorted(k for k, _ in a) == sorted(k for k, _ in c)


def test_failed_operations_are_counted():
    def boom():
        raise RuntimeError("program fault")

    wl = bw.Workload("toy", [bw.Op(lambda: 1, 3, lambda out: []),
                             bw.Op(lambda: 2, 3, lambda out: ["wrong output"]),
                             bw.Op(boom, 3, lambda out: [])])
    tally, window = run.Tally(), run.Window()
    run.run_pass(wl, tally, window)
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 2, 1)
    assert (window.items, window.passes) == (6, 1)


def test_tracer_records_nested_spans_and_uninstalls():
    from mubwitness import classify as package_classify

    module = importlib.import_module("mubwitness.classify")
    original = module.classify
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        assert module.classify is not original
        module.classify(np.full(8, 0.125))
    finally:
        tracer.uninstall()
    assert module.classify is original and package_classify is original
    spans = tracer.spans()
    names = [bench_trace.NAMES[k] for k in spans["name"]]
    top = spans["sid"][names.index("classify.classify")]
    is_ppt = names.index("ppt.is_ppt")
    assert spans["parent"][is_ppt] == top
    cert = [k for k, n in enumerate(names) if n == "classify.certify_separable"]
    assert spans["hit"][cert].tolist() == [1]


def test_self_time_subtracts_the_union_of_children():
    name = bench_trace.NAMES.index
    spans = {
        "sid": np.array([0, 1, 2, 3]),
        "name": np.array([name("cli.run_sample"), name("cli.sample_simplex"),
                          name("classify.classify_batch"), name("cli.sample_simplex")]),
        "start": np.array([0.0, 1.0, 2.0, 8.0]),
        "end": np.array([10.0, 4.0, 5.0, 9.0]),     # children overlap across threads
        "parent": np.array([-1, 0, 0, 0]),
        "segment": np.zeros(4, int), "hit": np.zeros(4, int),
    }
    scope = bench_trace.Scope(spans, np.ones(4, bool))
    assert scope.self_mean("cli.run_sample") == pytest.approx(10.0 - 4.0 - 1.0)
