"""Time-to-certificate benchmark of bmadmm.

    python3 perfbench/run.py --workload maxcut --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  The BLAS thread count is pinned before numpy loads.
The last line of standard output is the JSON result.
"""

import os
import sys

# One BLAS thread (at most nproc): the library's dense work is batched
# small matrices and its sparse products are single threaded, and one
# thread keeps timings steady on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "bmadmm", "__init__.py")):
        print(f"error: no bmadmm sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import logging

    # solver warnings (e.g. the prox-admm descent condition at mu = rho)
    # would repeat once per operation
    logging.getLogger("bmadmm").setLevel(logging.ERROR)
    import bench

    return bench.main(sys.argv[1:], root=ROOT, blas_threads=BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
