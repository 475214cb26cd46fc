"""Fixed plan of the mubwitness benchmark: sizes, seeds, commands, cold start.

This module uses the standard library only, so a fresh interpreter can
import it and still time `import mubwitness` (and numpy with it) as part
of set-up.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("sample", "triangle", "region", "classify")

SAMPLE_N = 24_576           # states per `mubw sample` operation
TRIANGLE_GRID = 100         # `mubw region --plane cat1-triangle --grid 100`
REGION_GRID = 16            # grid of each coordinate-plane scan
REGION_PLANES = ("p1p2", "p1p3", "p3p4", "p2p4", "p5p6", "p7p8")
SETUP_REPEATS = 3           # cold starts per run; setup_s is their median

# The published prototype bound-entangled state; the classify cold start.
PROTOTYPE = "0.043425,0.15308,0.016132,0.19387,0.059793,0.24806,0.18207,0.10357"


def pin_threads(env=None) -> dict:
    """One BLAS thread and at most two (never more than nproc) sampling workers."""
    env = os.environ if env is None else env
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["MUBW_THREADS"] = str(min(2, os.cpu_count() or 1))
    return env


def use_source_tree() -> None:
    """Import mubwitness from this checkout's src/, or stop with exit code 2."""
    if not (SRC / "mubwitness" / "__init__.py").is_file():
        print(f"error: no mubwitness sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def region_planes(seed: int) -> list[str]:
    """The six planes in a seed-dependent order (the scan work is the same)."""
    planes = list(REGION_PLANES)
    random.Random(seed).shuffle(planes)
    return planes


def pass_argvs(workload: str, seed: int, out_path: str) -> list[list[str]]:
    """CLI argument lists of one pass of a CLI workload."""
    if workload == "sample":
        return [["sample", "--n", str(SAMPLE_N), "--seed", str(seed), "--out", out_path]]
    if workload == "triangle":
        return [["region", "--plane", "cat1-triangle", "--grid", str(TRIANGLE_GRID),
                 "--out", out_path]]
    if workload == "region":
        return [["region", "--plane", plane, "--grid", str(REGION_GRID), "--out", out_path]
                for plane in region_planes(seed)]
    raise ValueError(f"{workload} is not a CLI workload")


def warmup_argv(workload: str, seed: int, out_path: str) -> list[str]:
    """The untimed first operation that ends set-up."""
    if workload == "classify":
        return ["classify", "--p", PROTOTYPE]
    return pass_argvs(workload, seed, out_path)[0]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`mubwitness.cli.main(argv)` with stdout captured; returns (code, stdout)."""
    from mubwitness import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cold_start(workload: str, seed: int, out_path: str, after_import=None) -> float:
    """Seconds from before `import mubwitness` to the end of the warm-up operation.

    `after_import` runs between the import and the warm-up (the traced run,
    which reports no set-up time, installs its wrappers there).
    """
    t0 = time.perf_counter()
    import mubwitness.cli  # noqa: F401

    if after_import is not None:
        after_import()
    code, _ = run_cli(warmup_argv(workload, seed, out_path))
    if code != 0:
        raise RuntimeError(f"warm-up of {workload} exited with {code}")
    return time.perf_counter() - t0
