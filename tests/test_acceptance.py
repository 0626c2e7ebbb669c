"""Acceptance gate: one test per shipped guarantee, each printing a verdict.

Every test emits one `ACCEPTANCE <n> <name>: PASS|FAIL` line on the real
stdout so the gate is readable even under captured pytest output.
"""

import io
import math
import random
import time
from fractions import Fraction

import pytest

from snipgraph.analysis import baseline_pairwise, summarize, summarize_values
from snipgraph.catalog import EntityCatalog
from snipgraph.cli import main
from snipgraph.corpus import make_names, synthesize, synthesize_from_edges
from snipgraph.engine import (
    BUDGET,
    FIXED_POINT,
    MODE_BF,
    MODE_PATTERN_ITER,
    MODE_PRIO,
    RunConfig,
    expand_static,
    expand_with_pattern_mining,
)
from snipgraph.extract import candidate_score, extract_edges
from snipgraph.frontier import (
    PRIORITY,
    Frontier,
    FrontierEntry,
    compute_priority,
)
from snipgraph.graph import SocialGraph, read_edge_list, read_text_input, write_edge_list
from snipgraph.search import ReplayBackend, SearchGateway, save_corpus_file

from conftest import CorpusBuilder, load_demo_module


@pytest.fixture
def verdict(capfd):
    """Reports one criterion outside captured output, then enforces it."""

    def report(num, name, ok, detail=""):
        line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
        if detail and not ok:
            line += f" ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, detail or name

    return report


def build_catalog(names):
    catalog = EntityCatalog()
    for name in names:
        catalog.add(name)
    return catalog


def write_lines(path, lines):
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return str(path)


# --- shared 200-entity corpus ----------------------------------------------

@pytest.fixture(scope="module")
def big_corpus(tmp_path_factory):
    """200 entities, 300 planted edges, no noise.

    Entities 0..179 form one connected component (spanning tree plus 90
    extra edges); entities 180..199 form a separate island the seed cannot
    reach, so reachability genuinely restricts the expected edge set.
    """
    rng = random.Random(20260823)
    names = make_names(200)
    mainland, island = names[:180], names[180:]
    edges = {}

    def plant(a, b):
        key = tuple(sorted((a, b)))
        if key in edges:
            return False
        edges[key] = rng.randint(2, 4)
        return True

    for i in range(1, 180):
        plant(mainland[rng.randrange(i)], mainland[i])
    for part, extra in ((mainland, 90), (island, 12)):
        if part is island:
            for i in range(1, 20):
                plant(island[rng.randrange(i)], island[i])
        added = 0
        while added < extra:
            if plant(*rng.sample(part, 2)):
                added += 1
    assert len(edges) == 300
    edge_list = [(a, b, w) for (a, b), w in sorted(edges.items())]
    corpus = synthesize_from_edges(edge_list, names, seed=rng.randrange(1 << 30))

    root = tmp_path_factory.mktemp("acceptance")
    save_corpus_file(corpus.records, str(root / "corpus.tsv"))
    write_lines(root / "names.txt", names)
    write_lines(root / "seeds.txt", [names[0]])
    return {
        "records": corpus.records,
        "names": names,
        "seed": names[0],
        "root": root,
    }


def oracle_edge_set(records, names, seed):
    """Scan the whole corpus, keep pairs meeting the evidence threshold,
    then restrict to the component the seed can reach."""
    evidence = extract_edges(records, build_catalog(names), ["and"])
    surviving = {pair for pair, count in evidence.items() if count >= 2}
    adjacency = {}
    for a, b in surviving:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    reachable = {seed}
    stack = [seed]
    while stack:
        for nxt in adjacency.get(stack.pop(), ()):
            if nxt not in reachable:
                reachable.add(nxt)
                stack.append(nxt)
    return {pair for pair in surviving if pair[0] in reachable}


def test_01_oracle_equivalence(big_corpus, verdict):
    root = big_corpus["root"]
    prefix = str(root / "bf_run")
    started = time.perf_counter()
    rc = main([
        "extract", "--mode", "bf",
        "--seeds", str(root / "seeds.txt"),
        "--catalog", str(root / "names.txt"),
        "--corpus", str(root / "corpus.tsv"),
        "--output-prefix", prefix,
    ])
    elapsed = time.perf_counter() - started
    expected = oracle_edge_set(
        big_corpus["records"], big_corpus["names"], big_corpus["seed"]
    )
    got = {
        (a, b) for a, b, _w in read_text_input(prefix + ".edges", read_edge_list).edges()
    }
    failures = []
    if rc != 0:
        failures.append(f"exit status {rc}")
    if got != expected:
        failures.append(
            f"{len(got ^ expected)} differing edges "
            f"(got {len(got)}, expected {len(expected)})"
        )
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s")
    verdict(1, "oracle-equivalence", not failures, "; ".join(failures))


def test_02_threshold_boundary(verdict):
    failures = []
    for trial in range(100):
        rng = random.Random(trial)
        names = make_names(9)
        roles = list(names)
        rng.shuffle(roles)
        hub, spokes = roles[0], roles[1:]
        kept, dropped = spokes[:4], spokes[4:]
        edges = [(hub, s, 2) for s in kept] + [(hub, s, 1) for s in dropped]
        rng.shuffle(edges)
        corpus = synthesize_from_edges(edges, names, seed=rng.randrange(1 << 30))
        gateway = SearchGateway(ReplayBackend(corpus.records))
        graph, _report = expand_static(
            RunConfig(seeds=(hub,)), gateway, build_catalog(names)
        )
        found = {(a, b) for a, b, _w in graph.edges()}
        for s in kept:
            if tuple(sorted((hub, s))) not in found:
                failures.append(f"trial {trial}: 2-snippet pair missing")
        for s in dropped:
            if tuple(sorted((hub, s))) in found:
                failures.append(f"trial {trial}: 1-snippet pair appeared")
        if failures:
            break
    verdict(2, "threshold-boundary", not failures, "; ".join(failures[:3]))


class DegreeStub:
    def __init__(self, degrees):
        self.degrees = degrees

    def degree(self, name):
        return self.degrees.get(name, 0)


def test_03_priority_formula(verdict):
    failures = []
    rng = random.Random(3)
    for _ in range(1000):
        rho = rng.randint(0, 10**6)
        alpha = rng.random() * 5.0
        waited = rng.randint(0, 10**4)
        entry = FrontierEntry("x", inserted_at_step=0)
        got = compute_priority(entry, DegreeStub({"x": rho}), waited, alpha)
        want = rho * math.exp(-alpha * waited)
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0):
            failures.append(f"score {got!r} != {want!r}")
            break

    # alpha=0 pops in descending-degree order
    for shuffle_seed in range(20):
        order_rng = random.Random(shuffle_seed)
        degrees = order_rng.sample(range(1, 100), 10)
        names = [f"n{i}" for i in range(10)]
        stub = DegreeStub(dict(zip(names, degrees)))
        frontier = Frontier(PRIORITY, 0.0)
        for step, name in enumerate(names):
            frontier.push(name, step)
        popped = [
            stub.degree(frontier.pop_next(stub, 10).name) for _ in range(10)
        ]
        if popped != sorted(degrees, reverse=True):
            failures.append(f"alpha=0 order {popped}")
            break

    # equal degrees, alpha>0: most recently inserted pops first
    for shuffle_seed in range(20):
        order_rng = random.Random(100 + shuffle_seed)
        names = [f"n{i}" for i in range(10)]
        order_rng.shuffle(names)
        stub = DegreeStub({name: 7 for name in names})
        frontier = Frontier(PRIORITY, 0.3)
        for step, name in enumerate(names):
            frontier.push(name, step)
        popped = [frontier.pop_next(stub, 10).name for _ in range(10)]
        if popped != list(reversed(names)):
            failures.append("equal-degree decay order wrong")
            break
    verdict(3, "priority-formula", not failures, "; ".join(failures[:3]))


def test_04_budget_accounting(big_corpus, verdict):
    failures = []
    backend = ReplayBackend(big_corpus["records"])
    catalog = build_catalog(big_corpus["names"])
    overshoot_bound = 1 * math.ceil(200 / 50)
    for cap in (1, 5, 50, 500):
        config = RunConfig(seeds=(big_corpus["seed"],), max_requests=cap)
        _graph, run = expand_static(config, SearchGateway(backend), catalog)
        for step in run.steps[:-1]:
            if step.requests_used >= cap:
                failures.append(f"B={cap}: step {step.step} already at cap")
                break
        if run.stopped_reason == BUDGET and run.steps[-1].requests_used < cap:
            failures.append(f"B={cap}: budget stop below cap")
        if run.requests_used - cap >= overshoot_bound:
            failures.append(
                f"B={cap}: overshoot {run.requests_used - cap}"
            )
    verdict(4, "budget-accounting", not failures, "; ".join(failures[:3]))


def test_05_cache_transparency(tmp_path, verdict):
    corpus = synthesize(n_nodes=30, attach=2, seed=7)
    save_corpus_file(corpus.records, str(tmp_path / "corpus.tsv"))
    write_lines(tmp_path / "names.txt", corpus.names)
    write_lines(tmp_path / "seeds.txt", [corpus.names[0]])
    args = [
        "extract",
        "--seeds", str(tmp_path / "seeds.txt"),
        "--catalog", str(tmp_path / "names.txt"),
        "--corpus", str(tmp_path / "corpus.tsv"),
        "--cache-dir", str(tmp_path / "cache"),
        "--output-prefix", str(tmp_path / "run"),
    ]
    failures = []
    if main(args) != 0:
        failures.append("cold run failed")
    cold_edges = (tmp_path / "run.edges").read_bytes()

    if main(args) != 0:
        failures.append("first warm run failed")
    warm_edges = (tmp_path / "run.edges").read_bytes()
    warm_trace = (tmp_path / "run.trace.csv").read_bytes()
    warm_summary = (tmp_path / "run.summary.txt").read_text()
    if "requests: 0\n" not in warm_summary:
        failures.append("warm run spent requests")
    if warm_edges != cold_edges:
        failures.append("warm graph differs from cold graph")

    if main(args) != 0:
        failures.append("second warm run failed")
    if (tmp_path / "run.edges").read_bytes() != warm_edges:
        failures.append("warm graphs differ between runs")
    if (tmp_path / "run.trace.csv").read_bytes() != warm_trace:
        failures.append("warm traces differ between runs")
    if "requests: 0\n" not in (tmp_path / "run.summary.txt").read_text():
        failures.append("second warm run spent requests")
    verdict(5, "cache-transparency", not failures, "; ".join(failures))


def test_06_pattern_mining(verdict):
    names = ("Ada Veil", "Bo Quist", "Cy Marsh", "Dee Falk")
    a, b, c, d = names
    builder = CorpusBuilder()
    for left, right in ((a, b), (b, c), (c, d)):
        builder.pair(left, right, times=2)
    # three genuine connectors spread over several domains, one spam phrase
    # stuck on a single pair and domain
    meets = [(a, b, "m0"), (a, b, "m1"), (b, c, "m1"), (b, c, "m2"),
             (c, d, "m2"), (c, d, "m0")]
    for left, right, dom in meets:
        builder.pair(left, right, phrase="meets with", domain=f"{dom}.example")
    performs = [(a, b, "p0"), (b, c, "p1"), (c, d, "p0")]
    for left, right, dom in performs:
        builder.pair(left, right, phrase="performs beside", domain=f"{dom}.example")
    speaks = [(a, b, "q0"), (a, b, "q1"), (b, c, "q0"), (b, c, "q1")]
    for left, right, dom in speaks:
        builder.pair(left, right, phrase="speaks alongside", domain=f"{dom}.example")
    builder.pair(a, b, phrase="signs autographs near", times=2, domain="s0.example")

    config = RunConfig(seeds=(a,), mode=MODE_PATTERN_ITER)
    _graph, run, _patterns = expand_with_pattern_mining(
        config, builder.gateway(), build_catalog(names)
    )

    failures = []
    admitted = [p for it in run.iterations for p in it.admitted]
    if admitted != ["meets with", "performs beside", "speaks alongside"]:
        failures.append(f"admitted {admitted}")
    if len(run.iterations) != 2 or run.stopped_reason != FIXED_POINT:
        failures.append(
            f"{len(run.iterations)} iterations, stopped {run.stopped_reason}"
        )
    stats = {c.phrase: c for c in run.iterations[0].candidates}
    expected_stats = {
        "meets with": (6, 3, 3, 162),
        "performs beside": (3, 3, 2, 36),
        "speaks alongside": (4, 2, 2, 32),
        "signs autographs near": (2, 1, 1, 2),
    }
    for phrase, (n, m, dcount, score) in expected_stats.items():
        cand = stats.get(phrase)
        if cand is None:
            failures.append(f"{phrase!r} not among candidates")
        elif (cand.n, cand.m, cand.d, cand.score) != (n, m, dcount, score):
            failures.append(
                f"{phrase!r} stats ({cand.n}, {cand.m}, {cand.d}, {cand.score})"
            )
        elif cand.score != n * m * dcount * dcount:
            failures.append(f"{phrase!r} score rule mismatch")
    if "signs autographs near" in admitted:
        failures.append("spam phrase admitted")
    if candidate_score(4230, 94, 91) != 3_292_691_220:
        failures.append("reference arithmetic wrong")
    verdict(6, "pattern-mining", not failures, "; ".join(failures[:4]))


# --- shared hub corpus runs ------------------------------------------------

def hub_corpus(seed):
    """10 ring-linked hubs of degree 30 with 200 leaves.

    80 leaves bridge hub i to hub i+2: they bump a hub two ring steps
    ahead while the crowd between is still queued, so degree scheduling
    can leapfrog breadth-first order. The other 120 leaves hang off a
    single hub each.
    """
    rng = random.Random(seed)
    names = make_names(210)
    roles = list(names)
    rng.shuffle(roles)
    hubs, leaves = roles[:10], roles[10:]
    edges = [
        (hubs[i], hubs[(i + 1) % 10], rng.randint(2, 3)) for i in range(10)
    ]
    for b in range(80):
        i = b // 8
        for hub in (hubs[i], hubs[(i + 2) % 10]):
            edges.append((leaves[b], hub, rng.randint(2, 3)))
    for j in range(120):
        edges.append((leaves[80 + j], hubs[j // 12], rng.randint(2, 3)))
    corpus = synthesize_from_edges(edges, names, seed=rng.randrange(1 << 30))
    return corpus, hubs[0]


@pytest.fixture(scope="module")
def hub_runs():
    rows = []
    for seed in range(10):
        corpus, start = hub_corpus(seed)
        catalog = build_catalog(corpus.names)
        backend = ReplayBackend(corpus.records)

        def run(mode, alpha=0.0):
            config = RunConfig(
                seeds=(start,), mode=mode, alpha=alpha, max_requests=100
            )
            return expand_static(config, SearchGateway(backend), catalog)

        bf_graph, _ = run(MODE_BF)
        prio_graph, _ = run(MODE_PRIO)
        decay_graph, _ = run(MODE_PRIO, alpha=0.01)
        base_graph, _ = baseline_pairwise(
            (start,), SearchGateway(backend), catalog, max_requests=100
        )
        rows.append({
            "bf_edges": bf_graph.edge_count,
            "prio_edges": prio_graph.edge_count,
            "prio_nodes": prio_graph.node_count,
            "decay_nodes": decay_graph.node_count,
            "baseline_edges": base_graph.edge_count,
        })
    return rows


def test_07_scheduling_trend(hub_runs, verdict):
    hits = sum(
        row["prio_edges"] > row["bf_edges"]
        and row["decay_nodes"] >= row["prio_nodes"]
        for row in hub_runs
    )
    detail = (
        f"{hits}/10 seeds; "
        + "; ".join(
            f"bf={r['bf_edges']} prio={r['prio_edges']} "
            f"nodes {r['prio_nodes']}->{r['decay_nodes']}"
            for r in hub_runs[:3]
        )
    )
    verdict(7, "scheduling-trend", hits >= 9, detail)


def test_08_baseline_comparison(hub_runs, verdict):
    misses = [
        r for r in hub_runs if r["baseline_edges"] >= r["bf_edges"]
    ]
    detail = "; ".join(
        f"baseline={r['baseline_edges']} bf={r['bf_edges']}" for r in misses[:3]
    )
    verdict(8, "baseline-comparison", not misses, detail)


def test_09_distribution_summaries(verdict):
    failures = []
    fixtures = [
        ([2, 3, 5, 7, 11, 13], Fraction(41, 6), math.sqrt(581) / 6, 6.0),
        ([4, 4, 6, 6, 10, 12], Fraction(7), 3.0, 6.0),
    ]
    for values, mean, sd, median in fixtures:
        summary = summarize_values(values)
        if abs(summary.mean - float(mean)) > 1e-9:
            failures.append(f"mean({values})")
        if abs(summary.standard_deviation - float(sd)) > 1e-9:
            failures.append(f"sd({values})")
        if abs(summary.median - median) > 1e-9:
            failures.append(f"median({values})")

    for seed in range(10):
        corpus = synthesize(n_nodes=15 + seed, attach=1 + seed % 3, seed=seed)
        graph = corpus.truth_graph()
        degrees, weights = summarize(graph)
        if degrees.population != graph.node_count:
            failures.append(f"degree histogram total (seed {seed})")
        if weights.population != graph.edge_count:
            failures.append(f"weight histogram total (seed {seed})")
    verdict(9, "distribution-summaries", not failures, "; ".join(failures[:3]))


def test_10_mutual_information(verdict):
    terms = load_demo_module("terms")
    TermCategoryTable, mutual_information = terms.TermCategoryTable, terms.mutual_information

    def square(scale=1):
        table = TermCategoryTable()
        table.add("alpha", "c1", 8 * scale)
        table.add("alpha", "c2", 2 * scale)
        table.add("beta", "c1", 2 * scale)
        table.add("beta", "c2", 8 * scale)
        return table

    failures = []
    smoothed = {(t, c): s for t, c, s in mutual_information(square(), smoothing=1.0)}
    for cell, want in {
        ("alpha", "c1"): math.log(1.5),
        ("beta", "c1"): math.log(0.5),
        ("beta", "c2"): math.log(1.5),
        ("alpha", "c2"): math.log(0.5),
    }.items():
        got = smoothed[cell]
        if abs(got - want) > 1e-9:
            failures.append(f"smoothed {cell}")
        if (got > 0) != (want > 0):
            failures.append(f"sign {cell}")

    plain = {(t, c): s for t, c, s in mutual_information(square(), smoothing=0.0)}
    if abs(plain["alpha", "c1"] - math.log(1.6)) > 1e-9:
        failures.append("unsmoothed diagonal")
    if abs(plain["alpha", "c2"] - math.log(0.4)) > 1e-9:
        failures.append("unsmoothed off-diagonal")

    scaled = {(t, c): s for t, c, s in mutual_information(square(7), smoothing=0.0)}
    for cell, score in plain.items():
        if abs(scaled[cell] - score) > 1e-9:
            failures.append(f"scaling changed {cell}")
    verdict(10, "mutual-information", not failures, "; ".join(failures[:3]))


def test_11_round_trips(tmp_path, verdict):
    failures = []
    rng = random.Random(2026)
    pool = make_names(60)
    for trial in range(100):
        graph = SocialGraph()
        for _ in range(rng.randint(1, 40)):
            a, b = rng.sample(pool, 2)
            graph.add_edge(a, b, rng.randint(1, 9))
        buf = io.StringIO()
        write_edge_list(graph, buf)
        back = read_edge_list(io.StringIO(buf.getvalue()))
        if sorted(back.edges()) != sorted(graph.edges()):
            failures.append(f"trial {trial}: edges changed")
            break
        if sorted(back.nodes()) != sorted(graph.nodes()):
            failures.append(f"trial {trial}: nodes changed")
            break

    first = tmp_path / "one.tsv"
    second = tmp_path / "two.tsv"
    save_corpus_file(synthesize(n_nodes=25, seed=42).records, str(first))
    save_corpus_file(synthesize(n_nodes=25, seed=42).records, str(second))
    if first.read_bytes() != second.read_bytes():
        failures.append("same-seed corpus bytes differ")
    save_corpus_file(synthesize(n_nodes=25, seed=43).records, str(second))
    if first.read_bytes() == second.read_bytes():
        failures.append("different seeds produced identical bytes")
    verdict(11, "round-trips", not failures, "; ".join(failures[:3]))
