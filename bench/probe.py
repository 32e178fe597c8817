"""One fresh-process set-up sample: `import blockforge`, then the workload's
field_create calls and input generation.  Prints one JSON line with
import_s, setup_s (import included) and modules_loaded.

    python3 bench/probe.py <src dir> <workload> <seed>
"""

import sys
import time


def main():
    src, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    before = len(sys.modules)
    t0 = time.perf_counter()
    import blockforge as bf
    import_s = time.perf_counter() - t0
    modules = len(sys.modules) - before

    import json
    import os
    import workloads
    wls = workloads.load(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                      "workloads.json"))
    t1 = time.perf_counter()
    wls[name].setup(bf, seed)
    setup_s = import_s + time.perf_counter() - t1
    print(json.dumps({"import_s": import_s, "setup_s": setup_s, "modules_loaded": modules}))


if __name__ == "__main__":
    main()
