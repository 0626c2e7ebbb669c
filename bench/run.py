"""snipgraph benchmark: replay workloads measured from outside the program.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then runs samples one after
another (a closed loop with one caller), each a fresh process running
bench/child.py, until S seconds have passed and at least MIN_SAMPLES have
run. Every sample's outputs are checked. The last line of standard output is
one JSON object: `correct`, `attempted` (samples), `failed` (samples that
raised or failed the check) and `metrics`. With --trace 0 the metrics are
the end-to-end ones, medians over the samples. With --trace 1 untraced and
traced samples alternate, and the metrics are the per-layer ones, medians
over the traced samples, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(workloads.ROOT, ".bench_out")
REFERENCES = os.path.join(HERE, "references.json")
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "requests": "count",
    "requests_per_edge": "requests/edge",
    "recall": "ratio",
    "precision": "ratio",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


# --- output check -----------------------------------------------------------

def output_digest(directory: str) -> str:
    """Digest of a run's outputs: the edge list, the mined patterns (when
    written) and the step trace without its `requests` column, so that a
    run spending fewer requests on the same graph still matches."""
    h = hashlib.sha256()
    for name in (workloads.EDGES, workloads.PATTERNS):
        path = os.path.join(directory, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    with open(os.path.join(directory, workloads.TRACE), encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("requests") if rows and "requests" in rows[0] else None
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([v for i, v in enumerate(row) if i != drop])
    h.update(workloads.TRACE.encode() + b"\0" + buf.getvalue().encode())
    return h.hexdigest()[:16]


def read_pairs(path: str) -> set[tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return {
            tuple(sorted(line.rstrip("\n").split("\t")[:2]))
            for line in fh
            if line.strip()
        }


def load_references() -> dict[str, dict[str, str]]:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


# --- samples ----------------------------------------------------------------

class SampleFailed(Exception):
    pass


def run_child(workload: str, inputs: str, out: str, trace: bool) -> dict:
    """Run one sample; returns its JSON line, or raises SampleFailed."""
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--inputs", inputs, "--out", out,
    ]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(
            cmd, cwd=workloads.ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleFailed(f"timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise SampleFailed(f"exit code {proc.returncode}: {tail}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise SampleFailed(f"no result line: {proc.stdout[-200:]!r}") from exc


def check_sample(
    workload: workloads.Workload,
    out: str,
    truth: set[tuple[str, str]],
    expected: str | None,
    result: dict,
    traced: bool,
) -> tuple[str, float, float, int]:
    """Check one sample's outputs; returns (digest, recall, precision,
    recovered truth edges) or raises SampleFailed."""
    if not traced and result["wrapped"]:
        raise SampleFailed(f"untraced sample had {result['wrapped']} wrapped attributes")
    digest = output_digest(out)
    if expected is not None and digest != expected:
        raise SampleFailed(f"output digest {digest} != expected {expected}")
    found = read_pairs(os.path.join(out, workloads.EDGES))
    hit = len(found & truth)
    if not hit:
        raise SampleFailed("no truth edge recovered")
    recall = hit / len(truth)
    precision = hit / len(found) if found else 0.0
    if workload.exact_truth and (recall != 1.0 or precision != 1.0):
        raise SampleFailed(f"recall {recall} precision {precision}, expected 1 and 1")
    return digest, recall, precision, hit


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, str]:
    """Run one workload for `seconds`; returns the result object and a
    one-line summary."""
    workload = workloads.WORKLOADS[name]
    base = os.path.join(OUT, f"{name}-{seed}")
    shutil.rmtree(base, ignore_errors=True)
    inputs = os.path.join(base, "inputs")
    workloads.make_inputs(workload, seed, inputs)
    truth = read_pairs(os.path.join(inputs, workloads.TRUTH))
    reference = load_references().get(name, {}).get(str(seed))
    if reference is None:
        print(f"{name}: no reference digest for seed {seed}; "
              "checking that samples agree with each other", file=sys.stderr)

    samples: list[dict] = []  # untraced samples
    layers: list[dict[str, float]] = []  # traced samples
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or attempted < MIN_SAMPLES:
        traced = trace and attempted % 2 == 1
        out = os.path.join(base, f"sample-{attempted}")
        attempted += 1
        try:
            result = run_child(name, inputs, out, traced)
            digest, recall, precision, hit = check_sample(
                workload, out, truth, reference, result, traced
            )
            if reference is None:
                reference = digest
        except SampleFailed as exc:
            failed += 1
            print(f"{name} seed {seed} sample {attempted - 1} FAILED: {exc}", file=sys.stderr)
            continue
        result.update(recall=recall, precision=precision,
                      requests_per_edge=result["requests"] / hit)
        if traced:
            metrics = spans.layer_metrics(spans.load_spans(os.path.join(out, workloads.SPANS)))
            metrics["engine.run.requests"] = result["run_requests"]
            metrics["wall_s"] = result["wall_s"]
            layers.append(metrics)
        else:
            samples.append(result)
        shutil.rmtree(out)
    shutil.rmtree(base, ignore_errors=True)

    if not samples or (trace and not layers):
        raise SystemExit(f"{name}: every sample failed")
    median = statistics.median
    if trace:
        names = [n for n in layers[0] if n != "wall_s"]
        metrics = {n: {"value": median(m[n] for m in layers), "unit": layer_unit(n)} for n in names}
        overhead = median(m["wall_s"] for m in layers) / median(s["wall_s"] for s in samples) - 1
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    else:
        metrics = {
            n: {"value": median(s[n] for s in samples), "unit": unit}
            for n, unit in END_TO_END_UNITS.items()
            if n != "ok_ratio"
        }
        metrics["ok_ratio"] = {"value": (attempted - failed) / attempted, "unit": "ratio"}
    note = (
        f"{name} seed {seed}: {attempted} samples, {failed} failed, {len(samples)} untraced; "
        f"untraced medians: raw wall {median(s['raw_wall_s'] for s in samples):.4f} s, "
        f"speed scale {median(s['scale'] for s in samples):.4f}"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, note


def report(result: dict, note: str) -> None:
    print(note)
    for metric, m in result["metrics"].items():
        print(f"  {metric:52s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads.use_checkout_source()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        report(*measure(name, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
