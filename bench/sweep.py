"""Scaling sweep of the expand-prio shape, for comparison with the
"Measured baseline" table in ROADMAP.md. Not a gated workload.

    python3 bench/sweep.py

Uses that table's corpus: synthesize(attach=3, noise_ratio=1.0, seed=1) with
the default edge weights 2 to 4, prio mode, alpha=0.01, one seed entity. One
untraced sample per size, each a fresh process like the benchmark's own.
"""

from __future__ import annotations

import os
import shutil
import sys

import run as bench
import workloads


NODES = (100, 300, 600)
SEED = 1


def main() -> int:
    workloads.use_checkout_source()
    workload = workloads.WORKLOADS["expand-prio"]
    print("| nodes | snippets | requests | wall time | wall, reference s | recall |")
    print("| ---: | ---: | ---: | ---: | ---: | ---: |")
    for nodes in NODES:
        base = os.path.join(bench.OUT, f"sweep-{nodes}")
        shutil.rmtree(base, ignore_errors=True)
        inputs, out = os.path.join(base, "inputs"), os.path.join(base, "out")
        workloads.make_inputs(workload, SEED, inputs, nodes=nodes)
        with open(os.path.join(inputs, workloads.CORPUS), encoding="utf-8") as fh:
            snippets = sum(1 for line in fh if line.strip())
        truth = bench.read_pairs(os.path.join(inputs, workloads.TRUTH))
        result = bench.run_child(workload.name, inputs, out, trace=False)
        _digest, recall, _precision, _hit = bench.check_sample(
            workload, out, truth, None, result, traced=False
        )
        print(f"| {nodes} | {snippets:,} | {result['requests']} | "
              f"{result['raw_wall_s']:.1f} s | {result['wall_s']:.1f} | {recall:.2f} |",
              flush=True)
        shutil.rmtree(base)
    return 0


if __name__ == "__main__":
    sys.exit(main())
