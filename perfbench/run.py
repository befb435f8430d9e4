"""sphereopt benchmark: seeded workloads driven through ``sphereopt.cli``.

Usage:
    python3 perfbench/run.py --workload deep-n3 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  The
line before it is the full report, with the environment.  README.md in
this directory explains the workloads and what each metric should move.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# BLAS threads per workload, fixed before numpy loads.  The level-19 solve
# of deep-n3 runs 2.3x faster on two threads than on one.  The matrices of
# the other workloads are small, and on them a second thread made solves
# 1.7x slower on a 2-core machine.
BLAS_THREADS = {
    "deep-n3": len(os.sched_getaffinity(0)),
    "wide-lowlevel": 1,
    "cli-cold": 1,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(BLAS_THREADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sphereopt", "cli.py")):
        sys.stderr.write(f"perfbench: no sphereopt sources under {SRC}\n")
        return 2
    if args.workload != "all":
        threads = str(BLAS_THREADS[args.workload])
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = threads

    import bench
    if args.workload == "all":
        return bench.run_all(args)
    try:
        report, result = bench.run_workload(args)
    except (bench.BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
