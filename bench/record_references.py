"""Record the output digests that every benchmark sample is checked against.

    python3 bench/record_references.py --seeds 0-127

Runs each workload once per seed, untraced, checks truth recovery on the
workloads that must recover the planted graph exactly, and merges the
digests into bench/references.json. Run it only on a commit whose outputs
are the accepted ones; a change that alters a graph, trace or pattern output
on purpose must say so where it records new references.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import run as bench
import workloads

# Samples recorded at once, one per core of a 2-core machine; the digests do
# not depend on it.
POOL_SIZE = 2


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(name: str, seed: int) -> str:
    base = os.path.join(bench.OUT, "record", f"{name}-{seed}")
    shutil.rmtree(base, ignore_errors=True)
    inputs, out = os.path.join(base, "inputs"), os.path.join(base, "out")
    workload = workloads.WORKLOADS[name]
    workloads.make_inputs(workload, seed, inputs)
    truth = bench.read_pairs(os.path.join(inputs, workloads.TRUTH))
    result = bench.run_child(name, inputs, out, trace=False)
    digest = bench.check_sample(workload, out, truth, None, result, traced=False)[0]
    shutil.rmtree(base)
    return digest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="N or LO-HI")
    args = parser.parse_args(argv)

    workloads.use_checkout_source()
    jobs = [(name, seed) for name in workloads.WORKLOADS for seed in parse_seeds(args.seeds)]
    with ThreadPoolExecutor(max_workers=POOL_SIZE) as pool:
        digests = list(pool.map(lambda job: record(*job), jobs))

    refs = bench.load_references()
    for (name, seed), digest in zip(jobs, digests):
        refs.setdefault(name, {})[str(seed)] = digest
    for name in refs:
        refs[name] = dict(sorted(refs[name].items(), key=lambda kv: int(kv[0])))
    with open(bench.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(jobs)} digests in {bench.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
