"""Tests of the benchmark's own logic: span arithmetic, the output digest,
repeat counting, wrapping only traced processes, and BENCHMARK.json naming
exactly the metrics the benchmark prints."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import child
import run as bench
import spans
import workloads
from spans import Span


def test_self_time_subtracts_direct_children_only():
    tree = [
        Span("root", 0.0, 10.0, None, "run"),
        Span("a", 1.0, 4.0, 0, "run"),
        Span("a.inner", 2.0, 3.0, 1, "run"),
        Span("b", 5.0, 7.0, 0, "run"),
    ]
    assert spans.self_times(tree) == [5.0, 2.0, 1.0, 2.0]


def test_tracer_records_parents_and_run_ids():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    tracer.run_id = "setup"
    with tracer.span("outer"):
        tracer.run_id = "run"
        tracer.wrap(lambda x: x, "inner", lambda a, k, r: {"value": r})(7)
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert (outer.run_id, inner.run_id) == ("setup", "run")
    assert inner.attrs == {"value": 7}
    assert (outer.start, inner.start, inner.end, outer.end) == (0.0, 1.0, 2.0, 3.0)


def test_repeat_ratio_counts_queries_issued_earlier():
    assert spans.repeat_ratio([]) == 0.0
    assert spans.repeat_ratio(["a", "b", "c"]) == 0.0
    assert spans.repeat_ratio(["a", "b", "a", "a"]) == 0.5


def test_layer_metrics_split_gateway_calls_by_kind_and_phase():
    def search(start, kind, query, run_id="run"):
        return Span("search.gateway.search", start, start + 1.0, None, run_id,
                    {"kind": kind, "query": query, "snippets_out": 2})

    trace = [
        search(0.0, "connectivity", '"A" and'),
        search(2.0, "pair", '"A" "B"'),
        Span("search.replay.fetch", 2.2, 2.8, 1, "run", {"records_out": 2}),
        search(4.0, "pair", '"A" "B"'),
        search(6.0, "pair", '"A" "B"', run_id="setup"),
    ]
    m = spans.layer_metrics(trace)
    assert m["search.gateway.search.calls"] == 3
    assert m["search.gateway.search.pair.calls"] == 2
    assert m["search.gateway.search.pages"] == 1
    assert m["search.gateway.search.self_s"] == pytest.approx(3.0 - 0.6)
    assert m["search.gateway.search.repeat_ratio"] == pytest.approx(1 / 3)


def _write_outputs(directory, edges, requests):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, workloads.EDGES), "w") as fh:
        for a, b, w in edges:
            fh.write(f"{a}\t{b}\t{w}\n")
    with open(os.path.join(directory, workloads.TRACE), "w") as fh:
        fh.write("step,entity,snippets,new_nodes,new_edges,nodes,edges,requests\n")
        fh.write(f"1,A,4,2,2,3,2,{requests}\n")


def test_digest_trips_on_one_edge_change_but_not_on_requests(tmp_path):
    edges = [("A", "B", 4), ("A", "C", 2)]
    _write_outputs(tmp_path / "ref", edges, requests=3)
    _write_outputs(tmp_path / "fewer_requests", edges, requests=1)
    _write_outputs(tmp_path / "one_edge", [("A", "B", 4), ("A", "C", 3)], requests=3)
    ref = bench.output_digest(str(tmp_path / "ref"))
    assert bench.output_digest(str(tmp_path / "fewer_requests")) == ref
    assert bench.output_digest(str(tmp_path / "one_edge")) != ref


def test_check_sample_rejects_a_digest_mismatch(tmp_path):
    _write_outputs(tmp_path, [("A", "B", 4)], requests=1)
    truth = {("A", "B")}
    result = {"wrapped": 0}
    good = bench.output_digest(str(tmp_path))
    wl = workloads.WORKLOADS["expand-prio"]
    assert bench.check_sample(wl, str(tmp_path), truth, good, result, False)[0] == good
    with pytest.raises(bench.SampleFailed):
        bench.check_sample(wl, str(tmp_path), truth, "0" * 16, result, False)
    with pytest.raises(bench.SampleFailed):
        bench.check_sample(wl, str(tmp_path), truth, good, {"wrapped": 3}, False)


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("inputs"))
    workloads.make_inputs(workloads.WORKLOADS["expand-prio"], 3, directory, nodes=12)
    return directory


def test_untraced_child_leaves_program_unwrapped(tiny_inputs, tmp_path, capsys):
    assert child.main(
        ["--workload", "expand-prio", "--inputs", tiny_inputs, "--out", str(tmp_path)]
    ) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["wrapped"] == 0
    assert spans.wrapped_attributes() == []
    assert not os.path.exists(tmp_path / workloads.SPANS)


def test_install_wraps_every_binding_and_restores():
    import snipgraph.analysis  # noqa: F401
    import snipgraph.engine  # noqa: F401
    from snipgraph import catalog, extract

    original = catalog.find_entity_matches
    restore = spans.install(spans.Tracer())
    try:
        wrapped = spans.wrapped_attributes()
        assert "snipgraph.extract.find_entity_matches" in wrapped
        assert "snipgraph.analysis.find_entity_matches" in wrapped
        assert "snipgraph.search.ReplayBackend" in wrapped
        assert extract.find_entity_matches.__wrapped__ is original
    finally:
        restore()
    assert spans.wrapped_attributes() == []
    assert extract.find_entity_matches is original


def test_traced_child_writes_spans_that_nest(tiny_inputs, tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(bench.HERE, "child.py"), "--workload",
         "expand-prio", "--inputs", tiny_inputs, "--out", str(tmp_path), "--trace"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["wrapped"] > 0
    m = spans.layer_metrics(spans.load_spans(str(tmp_path / workloads.SPANS)))
    assert m["catalog.find_entity_matches.calls"] == m["extract.extract_edges.snippets_in"]
    assert m["search.gateway.search.connectivity.calls"] == m["search.gateway.search.calls"]
    assert 0 < m["extract.extract_edges.self_s"] < m["extract.extract_edges.s"]
    assert m["engine.run.s"] >= m["search.gateway.search.s"] + m["extract.extract_edges.s"]


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    layer_names = [*spans.layer_metrics([]), "engine.run.requests", "trace.overhead_ratio"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: bench.layer_unit(n) for n in layer_names
    }
