"""Set-up time of one workload, measured in a fresh interpreter.

Times ``import ncresidue`` (with numpy and the CLI module) and then the
workload's constructors and config parsing.  The benchmark's own input
generation runs between the two timed parts and is not counted.  Prints
one JSON line with ``import_s``, ``construct_s`` and their sum ``setup_s``.

Usage, from the root of a checkout:

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import json
import os
import sys
import time


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    t0 = time.perf_counter()
    import ncresidue as nc
    import ncresidue.cli  # noqa: F401  (the CLI module is part of the package users load)

    import_s = time.perf_counter() - t0

    import inputs
    import workloads

    inp = inputs.generate(workload, seed)
    t1 = time.perf_counter()
    workloads.WORKLOADS[workload].setup(nc, inp, workdir)
    construct_s = time.perf_counter() - t1
    print(json.dumps({"import_s": import_s, "construct_s": construct_s, "setup_s": import_s + construct_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
