"""Spans around mubwitness's public functions, and the per-layer metrics.

`Tracer.install()` replaces each traced function by a wrapper in every
mubwitness module namespace that holds it, which is where the consuming
module looks it up (for example `mubwitness.classify.is_ppt` or
`mubwitness.cli.classify_batch`).  Each call becomes a span: id, name,
start, end, parent span, thread, the benchmark segment it ran in, and
whether it returned something other than None (a certificate hit).
Spans are kept in per-thread arrays and written out when the run ends.
`uninstall()` puts the original functions back, so untraced runs carry
no wrappers at all.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array

import numpy as np

# (module, function, span name)
TARGETS = (
    ("mubwitness.pauli", "as_probs", "pauli.as_probs"),
    ("mubwitness.pauli", "as_rvec", "pauli.as_rvec"),
    ("mubwitness.ppt", "ppt_inequalities_batch", "ppt.ppt_inequalities_batch"),
    ("mubwitness.ppt", "is_ppt", "ppt.is_ppt"),
    ("mubwitness.ppt", "pt_min_eigenvalues", "ppt.pt_min_eigenvalues"),
    ("mubwitness.ppt", "lp_feasible", "ppt.lp_feasible"),
    ("mubwitness.ppt", "lp_feasible_point", "ppt.lp_feasible_point"),
    ("mubwitness.ppt", "project_region", "ppt.project_region"),
    ("mubwitness.witness", "validated_ids", "witness.validated_ids"),
    ("mubwitness.witness", "min_over_products", "witness.min_over_products"),
    ("mubwitness.witness", "nonlinear_values_batch", "witness.nonlinear_values_batch"),
    ("mubwitness.witness", "nonlinear_value", "witness.nonlinear_value"),
    ("mubwitness.classify", "classify", "classify.classify"),
    ("mubwitness.classify", "classify_batch", "classify.classify_batch"),
    ("mubwitness.classify", "certify_separable", "classify.certify_separable"),
    ("mubwitness.classify", "detect_bound", "classify.detect_bound"),
    ("mubwitness.classify", "cat1_special", "classify.cat1_special"),
    ("mubwitness.cli", "main", "cli.main"),
    ("mubwitness.cli", "run_sample", "cli.run_sample"),
    ("mubwitness.cli", "sample_simplex", "cli.sample_simplex"),
    ("mubwitness.cli", "region_cat1_triangle", "cli.region_cat1_triangle"),
)
NAMES = tuple(t[2] for t in TARGETS)


class _Buffer:
    """Spans finished on one thread, plus that thread's open-span stack."""

    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[int] = []
        self.sid = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.segment = array("H")
        self.hit = array("B")


class Tracer:
    def __init__(self):
        self.segments: list[str] = ["setup"]
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._main_buf: _Buffer | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def begin_segment(self, label: str) -> None:
        self.segments.append(label)

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
            if threading.current_thread() is self._main:
                self._main_buf = buf
        return buf

    def _wrap(self, fn, name_idx: int):
        clock = time.perf_counter
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                # A pool thread's span belongs to the main thread's open span.
                main = self._main_buf
                parent = main.stack[-1] if main is not None and main.stack else -1
            sid = next(ids)
            stack.append(sid)
            hit = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                hit = result is not None
                return result
            finally:
                t1 = clock()
                stack.pop()
                buf.sid.append(sid)
                buf.name.append(name_idx)
                buf.start.append(t0)
                buf.end.append(t1)
                buf.parent.append(parent)
                buf.segment.append(len(self.segments) - 1)
                buf.hit.append(hit)

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a mubwitness module holds it."""
        if self._patches:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mubwitness" or n.startswith("mubwitness."))]
        for idx, (mod_name, attr, _) in enumerate(TARGETS):
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue  # a function the program no longer has: its metrics read 0
            wrapper = self._wrap(original, idx)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    # -- reading --------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All finished spans as parallel arrays."""
        bufs = list(self._buffers)
        cols = (("sid", np.int32), ("name", np.uint8), ("start", np.float64),
                ("end", np.float64), ("parent", np.int32), ("segment", np.uint8),
                ("hit", np.uint8))
        out = {key: np.concatenate([np.asarray(getattr(b, key), dtype=dtype) for b in bufs]
                                   + [np.zeros(0, dtype)])
               for key, dtype in cols}
        out["thread"] = np.concatenate([np.full(len(b.sid), b.thread, np.uint8) for b in bufs]
                                       + [np.zeros(0, np.uint8)])
        return out


class Scope:
    """Span statistics of one part of a traced run (a segment, or all of it)."""

    def __init__(self, spans: dict[str, np.ndarray], mask: np.ndarray, items: int = 0,
                 csv_bytes: int = 0):
        self.all = spans
        self.mask = mask
        self.items = items
        self.csv_bytes = csv_bytes

    def _sel(self, name: str, parent: str | None = None) -> np.ndarray:
        sel = self.mask & (self.all["name"] == NAMES.index(name))
        if parent is not None:
            parents = self.all["sid"][self.all["name"] == NAMES.index(parent)]
            sel &= np.isin(self.all["parent"], parents)
        return sel

    def count(self, name: str) -> int:
        return int(self._sel(name).sum())

    def durations(self, name: str, parent: str | None = None) -> np.ndarray:
        sel = self._sel(name, parent)
        return self.all["end"][sel] - self.all["start"][sel]

    def mean(self, name: str, parent: str | None = None) -> float:
        d = self.durations(name, parent)
        return float(d.mean()) if d.size else 0.0

    def hits(self, name: str) -> int:
        return int(self.all["hit"][self._sel(name)].sum())

    def self_mean(self, name: str) -> float:
        """Mean of duration minus the time covered by the span's children."""
        sel = self._sel(name)
        if not sel.any():
            return 0.0
        sids = self.all["sid"][sel]
        dur = self.all["end"][sel] - self.all["start"][sel]
        child = np.isin(self.all["parent"], sids)
        order = np.lexsort((self.all["start"][child], self.all["parent"][child]))
        parents = self.all["parent"][child][order]
        starts = self.all["start"][child][order]
        ends = self.all["end"][child][order]
        covered = dict.fromkeys(sids.tolist(), 0.0)
        last_parent, reach = None, 0.0
        for p, s, e in zip(parents.tolist(), starts.tolist(), ends.tolist()):
            if p != last_parent:
                last_parent, reach = p, s
            if e > reach:
                covered[p] += e - max(s, reach)
                reach = e
        return float(np.mean(dur - np.array([covered[s] for s in sids.tolist()])))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name, unit, workloads whose run measures it ("*": the whole traced run),
# function of a Scope.
METRICS = (
    ("pauli.as_probs.calls_per_item", "count", ("classify",),
     lambda s: _ratio(s.count("pauli.as_probs"), s.items)),
    ("pauli.as_rvec.calls_per_item", "count", ("classify",),
     lambda s: _ratio(s.count("pauli.as_rvec"), s.items)),
    ("ppt.ppt_inequalities_batch.ms_per_block", "ms", ("sample",),
     lambda s: 1e3 * s.mean("ppt.ppt_inequalities_batch", parent="classify.classify_batch")),
    ("ppt.is_ppt.ms_per_call", "ms", ("classify",),
     lambda s: 1e3 * s.mean("ppt.is_ppt")),
    ("ppt.pt_min_eigenvalues.ms_per_call", "ms", ("classify",),
     lambda s: 1e3 * s.mean("ppt.pt_min_eigenvalues")),
    ("ppt.lp.calls_per_scan", "count", ("region",),
     lambda s: _ratio(s.count("ppt.lp_feasible") + s.count("ppt.lp_feasible_point"),
                      s.count("ppt.project_region"))),
    ("ppt.lp.ms_per_call", "ms", ("region",),
     lambda s: 1e3 * _ratio(s.durations("ppt.lp_feasible").sum()
                            + s.durations("ppt.lp_feasible_point").sum(),
                            s.count("ppt.lp_feasible") + s.count("ppt.lp_feasible_point"))),
    ("ppt.project_region.s_per_scan", "s", ("region",),
     lambda s: s.mean("ppt.project_region")),
    ("witness.validated_ids.s", "s", ("*",),
     lambda s: float(s.durations("witness.validated_ids").max(initial=0.0))),
    ("witness.min_over_products.calls", "count", ("*",),
     lambda s: s.count("witness.min_over_products")),
    ("witness.min_over_products.ms_per_call", "ms", ("*",),
     lambda s: 1e3 * s.mean("witness.min_over_products")),
    ("witness.nonlinear_values_batch.ms_per_block", "ms", ("sample", "triangle"),
     lambda s: 1e3 * s.mean("witness.nonlinear_values_batch")),
    ("witness.nonlinear_value.calls_per_item", "count", ("classify",),
     lambda s: _ratio(s.count("witness.nonlinear_value"), s.items)),
    ("classify.classify_batch.self_ms_per_block", "ms", ("sample", "triangle"),
     lambda s: 1e3 * s.self_mean("classify.classify_batch")),
    ("classify.certify_separable.calls_per_item", "count", ("sample", "triangle", "classify"),
     lambda s: _ratio(s.count("classify.certify_separable"), s.items)),
    ("classify.certify_separable.hit_ratio", "ratio", ("sample", "triangle", "classify"),
     lambda s: _ratio(s.hits("classify.certify_separable"),
                      s.count("classify.certify_separable"))),
    ("classify.certify_separable.ms_per_call", "ms", ("sample", "triangle", "classify"),
     lambda s: 1e3 * s.mean("classify.certify_separable")),
    ("classify.detect_bound.ms_per_call", "ms", ("classify",),
     lambda s: 1e3 * s.mean("classify.detect_bound")),
    ("classify.cat1_special.us_per_call", "us", ("triangle",),
     lambda s: 1e6 * s.mean("classify.cat1_special")),
    ("cli.run_sample.self_s_per_op", "s", ("sample",),
     lambda s: s.self_mean("cli.run_sample")),
    ("cli.sample_simplex.ms_per_block", "ms", ("sample",),
     lambda s: 1e3 * s.mean("cli.sample_simplex")),
    ("cli.region_cat1_triangle.self_s_per_op", "s", ("triangle",),
     lambda s: s.self_mean("cli.region_cat1_triangle")),
    ("cli.region.write_s_per_op", "s", ("region", "triangle"),
     lambda s: s.self_mean("cli.main")),
    ("cli.csv_bytes_per_item", "B", ("sample",),
     lambda s: _ratio(s.csv_bytes, s.items)),
)


def coverage_workloads(workload: str) -> list[str]:
    """Workloads to trace for one pass so that every metric is measured."""
    need = []
    for _, _, homes, _ in METRICS:
        if homes != ("*",) and workload not in homes and homes[0] not in need:
            need.append(homes[0])
    return need


def layer_metrics(spans, workload: str, segments: dict[str, dict]) -> dict[str, dict]:
    """Every per-layer metric of a traced run of `workload`.

    `segments` maps a segment label to its index and item counters; the
    timed window of `workload` is labelled "window", and one-pass traces of
    other workloads carry their workload's name.
    """
    whole = Scope(spans, np.ones(len(spans["sid"]), bool))
    out = {}
    for name, unit, homes, fn in METRICS:
        if homes == ("*",):
            scope = whole
        else:
            label = "window" if workload in homes else homes[0]
            seg = segments[label]
            scope = Scope(spans, spans["segment"] == seg["index"], seg["items"],
                          seg.get("csv_bytes", 0))
        out[name] = {"value": float(fn(scope)), "unit": unit}
    return out
