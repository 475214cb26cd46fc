"""One cold start in a fresh interpreter; prints {"setup_s": ...}.

Usage: python3 perfbench/bench_cold.py <workload> <seed> <out_path>
"""

import json
import sys

import bench_plan


def main(argv: list[str]) -> int:
    workload, seed, out_path = argv[0], int(argv[1]), argv[2]
    bench_plan.use_source_tree()
    seconds = bench_plan.cold_start(workload, seed, out_path)
    print(json.dumps({"setup_s": seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
