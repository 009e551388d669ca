"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <inputs.npz> <meta.json> \
        <module>...

Set-up is the cold import of the named tjdiv modules (numpy included,
as every CLI invocation pays it) and the workload's construction calls
into tjdiv. Loading the benchmark's own inputs from disk is not timed.
Prints the set-up seconds.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)


def main(name, arrays_path, meta_path, *modules):
    from importlib import import_module
    t0 = time.perf_counter()
    for module in modules:
        import_module(module)
    t1 = time.perf_counter()

    import json
    import numpy as np
    from workloads import WORKLOADS
    with open(meta_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    with np.load(arrays_path) as arrays:
        inputs.update({k: arrays[k] for k in arrays.files})
    workload = WORKLOADS[name]

    t2 = time.perf_counter()
    workload.construct(inputs)
    t3 = time.perf_counter()
    print(repr((t1 - t0) + (t3 - t2)))


if __name__ == "__main__":
    main(*sys.argv[1:])
