"""Store the program's outcome digests in ``perfbench/expected.json``.

    python3 perfbench/record_digests.py

Run it on the commit that later runs are compared against.  For each workload
it makes one pass per seed 0 .. ``SEEDS`` - 1 (one pass in all for workloads
whose outcomes do not depend on the seed) and records the pass digest and an
8-hex-digit hash per cell, in pass order, so that a later mismatch can name
its cells.
"""

from __future__ import annotations

import json
import os
import sys

import run

#: seed-dependent workloads are recorded for seeds 0 .. SEEDS - 1
SEEDS = 32


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = run.BLAS_THREADS
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    path = run.HERE / "expected.json"
    with open(path) as fh:
        expected = json.load(fh)
    offo = run.fresh_offo()
    digests = {}
    for name, workload in WORKLOADS.items():
        seeds = range(SEEDS) if workload.digest_varies_with_seed else [0]
        table = {}
        for seed in seeds:
            result = run.one_pass(workload, offo, workload.inputs(offo, seed))
            if result.error or result.failed:
                print(f"{name} seed {seed}: pass failed, nothing recorded", file=sys.stderr)
                return 1
            key = str(seed) if workload.digest_varies_with_seed else "any"
            table[key] = {"digest": result.digest,
                          "cells": "".join(d.hex()[:8] for d in result.cell_digests)}
            print(f"{name} {key} {result.digest}", flush=True)
        digests[name] = table
    expected["digests"] = digests
    with open(path, "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
