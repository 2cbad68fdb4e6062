"""Time set-up of one workload in this fresh process.

    python3 perfbench/probe_setup.py WORKLOAD

Prints the wall time in seconds of ``import scorefdr`` plus constructing
the workload's procedures and configuration; input generation is not
included.
"""

import sys
import time


def main() -> int:
    start = time.perf_counter()
    import scorefdr  # noqa: F401  (the import is what is measured)
    import workloads

    workload = workloads.WORKLOADS[sys.argv[1]](workloads.DEFAULT_SEED, workloads.FULL, ".")
    workload.setup()
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
