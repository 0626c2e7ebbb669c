"""One benchmark sample: set up one workload from its input files, run it
once, write its outputs and print one JSON line of measurements.

    python3 bench/child.py --workload NAME --inputs DIR --out DIR [--trace]

Each sample is a fresh single-threaded process, so no memo, compiled
pattern or cache in memory carries over from one sample to the next. With
--trace the layers are wrapped before set-up and the spans are written to
DIR/spans.jsonl; without it nothing in the program is wrapped.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import sys
import time
from contextlib import nullcontext

import spans
import workloads

SETUP_FLOOR_S = 0.2

# The speed of a shared machine drifts by a third over tens of seconds, and
# the program's wall time with it. Each sample therefore times a fixed
# calibration kernel before set-up, between set-up and run, and after the
# run, and reports each phase in reference seconds: measured seconds scaled
# by REFERENCE_KERNEL_S / (mean of the two kernel times around the phase).
# REFERENCE_KERNEL_S is about the kernel's median on the 2-vCPU Xeon
# (2.1 GHz) where the benchmark was defined, so there reference and
# measured seconds agree on average.
REFERENCE_KERNEL_S = 0.05
_KERNEL_RX = re.compile(
    r"(?<![^\W_])alda\s+ashford(?![^\W_])|(?<![^\W_])borin\s+birkvald(?![^\W_])",
    re.IGNORECASE,
)
_KERNEL_TEXT = "the evening gala crowd saw Alda Ashford and Borin Birkvald on stage " * 3


def kernel_seconds() -> float:
    """Time one fixed pure-Python kernel of regex scans and dict updates,
    the same mix the program's hot paths run."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(4000):
        counts[i % 97] = counts.get(i % 97, 0) + len(_KERNEL_RX.findall(_KERNEL_TEXT))
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workloads.use_checkout_source()
    import snipgraph.analysis  # noqa: F401  (binds layer functions by name)
    import snipgraph.engine  # noqa: F401

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.run_id = "setup"
        spans.install(tracer)

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    # An untraced sample sets up repeatedly, each time from scratch, until
    # SETUP_FLOOR_S has passed, and reports the median: one set-up of a few
    # milliseconds is too noisy to compare alone. The last one is run.
    kernels = [kernel_seconds()]
    setup_times: list[float] = []
    while True:
        scratch = os.path.join(args.out, f"setup-{len(setup_times)}")
        run = None  # so only one set-up is alive at a time, for peak_rss_mb
        t0 = time.perf_counter()
        run, setup_requests = workloads.setup(workload, args.inputs, scratch, tracer)
        setup_times.append(time.perf_counter() - t0)
        if tracer or sum(setup_times) >= SETUP_FLOOR_S:
            break
    kernels.append(kernel_seconds())
    t1 = time.perf_counter()
    if tracer:
        tracer.run_id = "run"
    with span("engine.run"):
        graph, report, patterns = run()
    with span("output.write"):
        workloads.write_outputs(args.out, graph, report, patterns)
    t2 = time.perf_counter()
    kernels.append(kernel_seconds())
    setup_scale, run_scale = (
        REFERENCE_KERNEL_S / ((a + b) / 2) for a, b in zip(kernels, kernels[1:])
    )

    if tracer:
        tracer.dump(os.path.join(args.out, workloads.SPANS))
    print(
        json.dumps(
            {
                "setup_s": statistics.median(setup_times) * setup_scale,
                "wall_s": (t2 - t1) * run_scale,
                "raw_wall_s": t2 - t1,
                "scale": run_scale,
                "setups": len(setup_times),
                # rerun-cached charges its requests in set-up (the cold fill)
                "requests": setup_requests + report.requests_used,
                "run_requests": report.requests_used,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "wrapped": len(spans.wrapped_attributes()),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
