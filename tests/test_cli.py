"""End-to-end CLI runs, config resolution, and error-path exit codes."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import snipgraph.cli as cli
from snipgraph.cli import (
    CONFIG_KEYS,
    ConfigError,
    _parse_pattern_args,
    build_parser,
    load_config_file,
    main,
)
from snipgraph.extract import load_patterns_file
from snipgraph.graph import read_edge_list_file
from snipgraph.search import (
    LiveBackend,
    SearchGateway,
    TransportError,
    save_corpus_file,
)

from conftest import NAMES, CorpusBuilder

A, B, C = NAMES[:3]


def write_lines(path, lines):
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return str(path)


def chain_builder():
    builder = CorpusBuilder()
    builder.pair(A, B, times=2)
    builder.pair(B, C, times=2)
    return builder


@pytest.fixture
def workspace(tmp_path):
    """corpus.tsv + names.txt + seeds.txt for the standard chain corpus."""
    save_corpus_file(chain_builder().records, str(tmp_path / "corpus.tsv"))
    write_lines(tmp_path / "names.txt", NAMES)
    write_lines(tmp_path / "seeds.txt", [A])
    return tmp_path


def base_args(ws, command="extract", prefix="out/run"):
    return [
        command,
        "--seeds", str(ws / "seeds.txt"),
        "--catalog", str(ws / "names.txt"),
        "--corpus", str(ws / "corpus.tsv"),
        "--output-prefix", str(ws / prefix),
    ]


class TestExtractCommand:
    def test_bf_end_to_end(self, workspace, capsys):
        assert main(base_args(workspace)) == 0
        out = capsys.readouterr().out
        prefix = str(workspace / "out/run")
        assert f"wrote {prefix}.edges (2 edges, 3 nodes)" in out
        assert f"wrote {prefix}.trace.csv (3 steps)" in out
        graph = read_edge_list_file(prefix + ".edges")
        assert sorted(graph.edges()) == [(A, B, 4), (B, C, 4)]
        assert (workspace / "out/run.summary.txt").read_text() == (
            "status: complete\n"
            "stopped: frontier-empty\n"
            "mode: bf\n"
            "seeds: 1\n"
            "nodes: 3\n"
            "edges: 2\n"
            "requests: 3\n"
            "queries: 3\n"
            "patterns: 10\n"
        )
        trace = (workspace / "out/run.trace.csv").read_text().splitlines()
        assert trace[0] == "step,entity,snippets,new_nodes,new_edges,nodes,edges,requests"
        assert len(trace) == 4

    def test_warm_cache_rerun_is_free_and_identical(self, workspace):
        args = base_args(workspace) + ["--cache-dir", str(workspace / "cache")]
        assert main(args) == 0
        cold_edges = (workspace / "out/run.edges").read_bytes()
        # the cold trace records spending; warm runs must agree with each
        # other byte for byte and spend nothing
        assert main(args) == 0
        warm_edges = (workspace / "out/run.edges").read_bytes()
        warm_trace = (workspace / "out/run.trace.csv").read_bytes()
        summary = (workspace / "out/run.summary.txt").read_text()
        assert warm_edges == cold_edges
        assert "requests: 0\n" in summary
        assert main(args) == 0
        assert (workspace / "out/run.edges").read_bytes() == warm_edges
        assert (workspace / "out/run.trace.csv").read_bytes() == warm_trace

    def test_custom_query_patterns_file(self, workspace, capsys):
        builder = CorpusBuilder()
        builder.pair(A, B, phrase="duets with", times=2)
        save_corpus_file(builder.records, str(workspace / "corpus.tsv"))
        write_lines(workspace / "patterns.txt", ["duets with"])
        args = base_args(workspace) + ["--patterns", str(workspace / "patterns.txt")]
        assert main(args) == 0
        graph = read_edge_list_file(str(workspace / "out/run.edges"))
        assert sorted(graph.edges()) == [(A, B, 4)]

    def test_empty_patterns_file(self, workspace, capsys):
        write_lines(workspace / "patterns.txt", ["# nothing"])
        args = base_args(workspace) + ["--patterns", str(workspace / "patterns.txt")]
        assert main(args) == 1
        assert "pattern file is empty" in capsys.readouterr().err


class TestMinePatterns:
    @pytest.fixture
    def mining_workspace(self, workspace):
        builder = CorpusBuilder()
        builder.pair(A, B, times=2)
        builder.pair(A, B, phrase="beside", times=6)
        save_corpus_file(builder.records, str(workspace / "corpus.tsv"))
        return workspace

    def test_writes_pattern_file(self, mining_workspace, capsys):
        ws = mining_workspace
        assert main(base_args(ws, command="mine-patterns")) == 0
        patterns = load_patterns_file(str(ws / "out/run.patterns.txt"))
        assert "beside" in patterns
        summary = (ws / "out/run.summary.txt").read_text()
        assert "mode: pattern-iter\n" in summary
        assert "iterations: 2\n" in summary
        assert "patterns admitted: 1\n" in summary
        assert "run.patterns.txt" in capsys.readouterr().out

    def test_query_log_accounts_for_every_request(self, mining_workspace, capsys):
        ws = mining_workspace
        assert main(base_args(ws, command="mine-patterns")) == 0
        header, *rows = [
            line.split("\t")
            for line in (ws / "out/run.queries.tsv").read_text().splitlines()
        ]
        assert header == ["query", "kind", "requests", "retries", "cached", "snippets"]
        summary = (ws / "out/run.summary.txt").read_text()
        assert f"requests: {sum(int(r[2]) for r in rows)}\n" in summary
        assert f"queries: {sum(r[4] == '0' for r in rows)}\n" in summary
        pair = f'"{A}" "{B}"'
        # two mining passes pair-query the one edge; the second is a memo hit
        assert [r[2:5] for r in rows if r[0] == pair] == [["1", "0", "0"], ["0", "0", "1"]]
        cached = sum(r[4] == "1" for r in rows)
        assert f"run.queries.tsv ({len(rows)} rows, {cached} cached)" in capsys.readouterr().out

    def test_reruns_write_identical_files(self, mining_workspace):
        ws = mining_workspace
        suffixes = (".edges", ".trace.csv", ".summary.txt", ".patterns.txt", ".queries.tsv")

        def run(*extra):
            assert main(base_args(ws, command="mine-patterns") + list(extra)) == 0
            return {s: (ws / f"out/run{s}").read_bytes() for s in suffixes}

        assert run() == run()
        cache = ["--cache-dir", str(ws / "cache")]
        run(*cache)
        assert run(*cache) == run(*cache)

    def test_rejects_non_mining_mode(self, mining_workspace, capsys):
        args = base_args(mining_workspace, command="mine-patterns") + ["--mode", "bf"]
        assert main(args) == 1
        assert "mine-patterns requires mode pattern-iter" in capsys.readouterr().err

    def test_extract_in_pattern_iter_mode_also_mines(self, mining_workspace):
        ws = mining_workspace
        args = base_args(ws) + ["--mode", "pattern-iter"]
        assert main(args) == 0
        assert (ws / "out/run.patterns.txt").exists()


class TestBaselineCommand:
    def test_end_to_end(self, workspace):
        builder = CorpusBuilder()
        builder.add(f"{A} with {B} tonight")
        builder.add(f"{A} with {B} again")
        save_corpus_file(builder.records, str(workspace / "corpus.tsv"))
        assert main(base_args(workspace, command="baseline")) == 0
        graph = read_edge_list_file(str(workspace / "out/run.edges"))
        assert sorted(graph.edges()) == [(A, B, 2)]
        summary = (workspace / "out/run.summary.txt").read_text()
        assert "mode: baseline\n" in summary
        assert "status: complete\n" in summary

    @pytest.fixture
    def corpus_args(self, tmp_path):
        prefix = str(tmp_path / "c")
        args = ["make-corpus", "--output-prefix", prefix, "--nodes", "30", "--rng-seed", "5"]
        assert main(args) == 0
        names = (tmp_path / "c.names.txt").read_text(encoding="utf-8").splitlines()
        write_lines(tmp_path / "seeds.txt", names[:1])
        return [
            "baseline",
            "--seeds", str(tmp_path / "seeds.txt"),
            "--catalog", prefix + ".names.txt",
            "--corpus", prefix + ".corpus.tsv",
            "--output-prefix", str(tmp_path / "run"),
        ]

    @pytest.mark.parametrize(
        "threshold, edges, nodes", [("0.1", 56, 30), ("0.9", 0, 1)]
    )
    def test_threshold_flag(self, corpus_args, capsys, threshold, edges, nodes):
        assert main(corpus_args + ["--threshold", threshold]) == 0
        assert f"({edges} edges, {nodes} nodes)" in capsys.readouterr().out

    def test_threshold_config_key(self, corpus_args, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("threshold = 0.9\n", encoding="utf-8")
        assert main(corpus_args + ["--config", str(config)]) == 0
        assert "(0 edges, 1 nodes)" in capsys.readouterr().out


class TestMakeCorpus:
    def test_generates_matching_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "c" / "c1")
        args = [
            "make-corpus", "--output-prefix", prefix,
            "--nodes", "8", "--rng-seed", "3",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "snippets)" in out and "names)" in out and "edges)" in out
        names = (tmp_path / "c/c1.names.txt").read_text().splitlines()
        assert len(names) == 8
        truth = read_edge_list_file(prefix + ".truth.edges")
        assert truth.edge_count > 0

    def test_generated_corpus_feeds_extract(self, tmp_path):
        prefix = str(tmp_path / "c1")
        assert main(["make-corpus", "--output-prefix", prefix, "--nodes", "6"]) == 0
        names = (tmp_path / "c1.names.txt").read_text().splitlines()
        write_lines(tmp_path / "seeds.txt", [names[0]])
        rc = main([
            "extract",
            "--seeds", str(tmp_path / "seeds.txt"),
            "--catalog", prefix + ".names.txt",
            "--corpus", prefix + ".corpus.tsv",
            "--output-prefix", str(tmp_path / "run"),
        ])
        assert rc == 0
        graph = read_edge_list_file(str(tmp_path / "run.edges"))
        truth = read_edge_list_file(prefix + ".truth.edges")
        assert sorted((a, b) for a, b, _w in graph.edges()) == sorted(
            (a, b) for a, b, _w in truth.edges()
        )

    def test_explicit_edges_file(self, tmp_path):
        edges_path = tmp_path / "truth.edges"
        edges_path.write_text(f"{A}\t{B}\t2\n{B}\t{C}\t3\n", encoding="utf-8")
        prefix = str(tmp_path / "c2")
        args = ["make-corpus", "--output-prefix", prefix, "--edges-file", str(edges_path)]
        assert main(args) == 0
        truth = read_edge_list_file(prefix + ".truth.edges")
        assert sorted(truth.edges()) == [(A, B, 2), (B, C, 3)]
        names = (tmp_path / "c2.names.txt").read_text().splitlines()
        assert names == sorted([A, B, C])

    @pytest.mark.parametrize("bad", [f"{A}\t{B}\t0", f"{C}\t{C}\t2", f"\t{C}\t1"])
    def test_edges_file_rejects_malformed_line(self, tmp_path, capsys, bad):
        edges_path = tmp_path / "truth.edges"
        edges_path.write_text(f"{B}\t{C}\t3\n{bad}\n", encoding="utf-8")
        prefix = str(tmp_path / "c3")
        args = ["make-corpus", "--output-prefix", prefix, "--edges-file", str(edges_path)]
        assert main(args) == 1
        assert "error: line 2: need two distinct names" in capsys.readouterr().err
        assert not (tmp_path / "c3.truth.edges").exists()

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--noise-ratio", "inf"], "noise_ratio must be >= 0"),
            (["--noise-ratio", "nan"], "noise_ratio must be >= 0"),
            (["--exponent", "nan"], "exponent must be >= 0"),
            (["--exponent", "inf"], "exponent must be >= 0"),
            (["--pattern", "and=" + "9" * 400], "pattern weight must be > 0"),
            (
                ["--pattern", "and=" + "9" * 308, "--pattern", "and=" + "9" * 308],
                "pattern weights must be > 0",
            ),
            (
                ["--pattern", "and=" + "9" * 308, "--pattern", "y=" + "9" * 308],
                "pattern weights must be > 0",
            ),
        ],
    )
    def test_non_finite_input_rejected(self, tmp_path, capsys, flags, message):
        args = ["make-corpus", "--output-prefix", str(tmp_path / "c" / "x"), *flags]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("exponent", ["1000", "1023.9"])
    def test_exponent_overflow_rejected(self, tmp_path, capsys, exponent):
        args = [
            "make-corpus", "--output-prefix", str(tmp_path / "c" / "x"),
            "--nodes", "8", "--exponent", exponent,
        ]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and f"exponent {exponent} is too large" in err
        assert "Traceback" not in err
        assert not (tmp_path / "c").exists()

    def test_bad_pattern_weight(self, tmp_path, capsys):
        args = [
            "make-corpus", "--output-prefix", str(tmp_path / "x"),
            "--pattern", "and=0",
        ]
        assert main(args) == 1
        assert "pattern weight must be > 0" in capsys.readouterr().err


class TestAnalyzeCommand:
    @pytest.fixture
    def graph_file(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(f"{A}\t{B}\t3\n{B}\t{C}\t5\n", encoding="utf-8")
        return path

    def test_dist_report_default_prefix(self, graph_file, capsys):
        assert main(["analyze", "--graph", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "degree: n=3 mean=1.3333 sd=0.4714 median=1" in out
        assert "weight: n=2 mean=4.0000 sd=1.0000 median=4" in out
        base = str(graph_file)[: -len(".edges")]
        degree_rows = Path(base + ".degree_hist.csv").read_text()
        assert degree_rows == '"degree","count"\n"1","2"\n"2","1"\n'
        weight_rows = Path(base + ".weight_hist.csv").read_text()
        assert weight_rows == '"weight","count"\n"3","1"\n"5","1"\n'

    def test_top_report(self, graph_file, tmp_path, capsys):
        prefix = str(tmp_path / "report")
        args = [
            "analyze", "--graph", str(graph_file),
            "--report", "top", "--top", "1",
            "--output-prefix", prefix,
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert f"{B} -- {C} (5)" in out
        assert Path(prefix + ".relations.csv").read_text() == (
            '"entity_a","entity_b","weight"\n'
            f'"{B}","{C}","5"\n'
        )

    def test_dist_report_of_empty_graph(self, tmp_path, capsys):
        path = tmp_path / "empty.edges"
        path.write_text("", encoding="utf-8")
        assert main(["analyze", "--graph", str(path)]) == 0
        out = capsys.readouterr().out
        assert "degree: empty\n" in out and "weight: empty\n" in out
        base = str(tmp_path / "empty")
        assert Path(base + ".degree_hist.csv").read_text() == '"degree","count"\n'
        assert Path(base + ".weight_hist.csv").read_text() == '"weight","count"\n'

    @pytest.mark.parametrize("report", ["dist", "top"])
    def test_rejects_self_loop(self, tmp_path, capsys, report):
        path = tmp_path / "loop.edges"
        path.write_text(f"{A}\t{B}\t2\n{A}\t{A}\t3\n", encoding="utf-8")
        assert main(["analyze", "--graph", str(path), "--report", report]) == 1
        captured = capsys.readouterr()
        assert "error: line 2: need two distinct names" in captured.err
        assert captured.out == ""

    def test_missing_graph(self, tmp_path, capsys):
        assert main(["analyze", "--graph", str(tmp_path / "nope.edges")]) == 1
        assert "cannot read graph:" in capsys.readouterr().err


class TestConfigResolution:
    def test_flag_overrides_config(self, workspace, capsys):
        config = workspace / "run.cfg"
        config.write_text("mode = prio\ntau = 3\n", encoding="utf-8")
        args = base_args(workspace) + ["--config", str(config), "--mode", "bf"]
        assert main(args) == 0
        summary = (workspace / "out/run.summary.txt").read_text()
        assert "mode: bf\n" in summary
        # tau=3 still came from the config: 2-snippet pairs stay out
        assert "edges: 0\n" in summary

    def test_config_applies_without_flag(self, workspace):
        config = workspace / "run.cfg"
        config.write_text("mode = prio\n", encoding="utf-8")
        assert main(base_args(workspace) + ["--config", str(config)]) == 0
        summary = (workspace / "out/run.summary.txt").read_text()
        assert "mode: prio\n" in summary

    def test_unknown_key(self, workspace, capsys):
        config = workspace / "run.cfg"
        config.write_text("bogus = 1\n", encoding="utf-8")
        assert main(base_args(workspace) + ["--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"{config}:1: unknown key 'bogus'" in err

    def test_bad_value(self, workspace, capsys):
        config = workspace / "run.cfg"
        config.write_text("tau = many\n", encoding="utf-8")
        assert main(base_args(workspace) + ["--config", str(config)]) == 1
        assert "config tau: bad value 'many'" in capsys.readouterr().err

    def test_flag_beats_malformed_config_value(self, workspace):
        config = workspace / "run.cfg"
        config.write_text("tau = many\n", encoding="utf-8")
        args = base_args(workspace) + ["--config", str(config), "--tau", "2"]
        assert main(args) == 0

    @pytest.mark.parametrize(
        "command, keys",
        [
            ("extract", "threshold = abc\nmax_entities = zz\n"),
            ("baseline", "mode = fast\ntau = x\n"),
        ],
        ids=["extract", "baseline"],
    )
    def test_keys_of_other_commands_are_not_read(self, workspace, command, keys):
        assert main(base_args(workspace, command=command, prefix="plain/run")) == 0
        config = workspace / "run.cfg"
        config.write_text(keys, encoding="utf-8")
        args = base_args(workspace, command=command) + ["--config", str(config)]
        assert main(args) == 0
        for suffix in (".edges", ".trace.csv", ".summary.txt", ".queries.tsv"):
            with_keys = (workspace / f"out/run{suffix}").read_bytes()
            assert with_keys == (workspace / f"plain/run{suffix}").read_bytes()

    def test_empty_backend_value(self, workspace, capsys):
        config = workspace / "run.cfg"
        config.write_text("backend =\n", encoding="utf-8")
        assert main(base_args(workspace) + ["--config", str(config)]) == 1
        assert "backend must be replay or live, not ''" in capsys.readouterr().err

    def test_missing_equals(self, workspace, capsys):
        config = workspace / "run.cfg"
        config.write_text("tau 3\n", encoding="utf-8")
        assert main(base_args(workspace) + ["--config", str(config)]) == 1
        assert f"{config}:1: expected key=value" in capsys.readouterr().err

    def test_config_keys_match_run_flags(self):
        parser = build_parser()
        dests = set()
        for command in ("extract", "mine-patterns", "baseline"):
            dests |= vars(parser.parse_args([command])).keys()
        dests -= {"command", "func", "config", "live"}
        assert dests == {key.removesuffix("_file") for key in CONFIG_KEYS}

    def test_load_config_file_parses_and_trims(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# comment\n\n tau = 3 \nmode=prio\nalpha = 0.5\n", encoding="utf-8"
        )
        assert load_config_file(str(config)) == {
            "tau": "3",
            "mode": "prio",
            "alpha": "0.5",
        }

    def test_load_config_file_missing(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config_file(str(tmp_path / "nope.cfg"))


class TestErrorPaths:
    def test_missing_seeds_flag(self, workspace, capsys):
        args = base_args(workspace)
        del args[1:3]
        assert main(args) == 1
        assert "--seeds is required" in capsys.readouterr().err

    def test_missing_output_prefix(self, workspace, capsys):
        args = base_args(workspace)[:-2]
        assert main(args) == 1
        assert "--output-prefix is required" in capsys.readouterr().err

    def test_missing_catalog_file(self, workspace, capsys):
        args = base_args(workspace)
        args[4] = str(workspace / "absent.txt")
        assert main(args) == 1
        assert "cannot read catalog:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, kind",
        [
            ("--seeds", "seeds file"),
            ("--patterns", "--patterns file"),
            ("--match-patterns", "--match-patterns file"),
            ("--corpus", "corpus"),
        ],
    )
    def test_unreadable_input_file(self, workspace, capsys, flag, kind):
        args = base_args(workspace) + [flag, str(workspace / "absent.txt")]
        assert main(args) == 1
        assert f"cannot read {kind}:" in capsys.readouterr().err
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize(
        "command, flag, kind",
        [
            ("extract", "--seeds", "seeds file"),
            ("extract", "--catalog", "catalog"),
            ("extract", "--patterns", "--patterns file"),
            ("extract", "--match-patterns", "--match-patterns file"),
            ("extract", "--corpus", "corpus"),
            ("extract", "--config", "config file"),
            ("analyze", "--graph", "graph"),
            ("make-corpus", "--edges-file", "edges file"),
        ],
    )
    def test_bad_byte_is_reported_at_its_file_offset(
        self, workspace, capsys, command, flag, kind
    ):
        # past the text reader's first 8 KiB chunk, from which it counts;
        # every one of these formats skips blank lines
        bad = workspace / "bad.txt"
        bad.write_bytes(b"\n" * 9000 + b"Ada \xffVeil\n")
        if command == "extract":
            args = base_args(workspace)
        else:
            args = [command, "--output-prefix", str(workspace / "out/run")]
        assert main(args + [flag, str(bad)]) == 1
        err = capsys.readouterr().err
        assert kind in err
        assert re.search(r"\b9004\b", err)
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("sep", ["\u2028", "\x0c"])
    def test_seeds_and_catalog_split_lines_alike(self, workspace, sep):
        # neither reader ends a line at a separator that is not "\n" or "\r"
        names = write_lines(workspace / "names.txt", [f"Ada{sep}Veil", B, C])
        args = base_args(workspace)
        args[2] = args[4] = names
        assert main(args) == 0
        assert "seeds: 3\n" in (workspace / "out/run.summary.txt").read_text()

    def test_empty_catalog(self, workspace, capsys):
        (workspace / "names.txt").write_text("\n\n", encoding="utf-8")
        assert main(base_args(workspace)) == 1
        assert "catalog is empty:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["extract", "mine-patterns", "baseline"])
    def test_catalog_name_with_tab_sends_no_request(self, workspace, capsys, command):
        # no edge list can hold the name, so the run must stop before it spends
        write_lines(workspace / "names.txt", [B, "Ada\tVeil", C])
        assert main(base_args(workspace, command)) == 1
        assert "line 2: entity name contains tab or newline: 'Ada\\tVeil'" in capsys.readouterr().err
        assert not (workspace / "out").exists()

    def test_empty_seeds_file(self, workspace, capsys):
        write_lines(workspace / "seeds.txt", [])
        assert main(base_args(workspace)) == 1
        assert "seeds file is empty" in capsys.readouterr().err

    def test_seed_not_in_catalog(self, workspace, capsys):
        write_lines(workspace / "seeds.txt", ["Zo Nobody"])
        assert main(base_args(workspace)) == 1
        assert "seed entity not in catalog" in capsys.readouterr().err

    def test_bad_tau_flag(self, workspace, capsys):
        assert main(base_args(workspace) + ["--tau", "0"]) == 1
        assert "tau must be >= 1" in capsys.readouterr().err

    def test_bad_mode_in_config(self, workspace, capsys):
        config = workspace / "run.cfg"
        config.write_text("mode = fast\n", encoding="utf-8")
        assert main(base_args(workspace) + ["--config", str(config)]) == 1
        assert "mode must be bf, prio, or pattern-iter" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_in_config(self, workspace, capsys, alpha):
        config = workspace / "run.cfg"
        config.write_text(f"mode = prio\nalpha = {alpha}\n", encoding="utf-8")
        assert main(base_args(workspace) + ["--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "alpha must be >= 0" in err
        assert not (workspace / "out").exists()

    def test_unknown_flag(self, workspace, capsys):
        assert main(base_args(workspace) + ["--frobnicate"]) == 1

    def test_bad_backend_name(self, workspace, capsys):
        config = workspace / "run.cfg"
        config.write_text("backend = tape\n", encoding="utf-8")
        assert main(base_args(workspace) + ["--config", str(config)]) == 1
        assert "backend must be replay or live, not 'tape'" in capsys.readouterr().err


class TestReadmeQuickStart:
    README = Path(__file__).resolve().parent.parent / "README.md"

    def quick_start(self):
        """The Quick start block of README.md as (command, output lines) pairs."""
        text = self.README.read_text(encoding="utf-8")
        block = text.split("## Quick start", 1)[1].split("```\n", 2)[1]
        steps = []
        for line in block.replace("\\\n", "").splitlines():
            if line.startswith("$ "):
                steps.append((shlex.split(line[2:]), []))
            elif line:
                steps[-1][1].append(line)
        return steps

    def test_commands_print_what_the_readme_shows(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        steps = self.quick_start()
        assert [argv[0] for argv, _ in steps] == ["snipgraph", "head", "snipgraph", "snipgraph"]
        for argv, expected in steps:
            if argv[0] == "head":
                assert argv[1:] == ["-1", "demo.names.txt", ">", "seeds.txt"]
                first = Path("demo.names.txt").read_text(encoding="utf-8").splitlines()[0]
                write_lines(tmp_path / "seeds.txt", [first])
                continue
            assert main(argv[1:]) == 0
            assert capsys.readouterr().out.splitlines() == expected


class TestLiveGuards:
    def test_live_backend_needs_flag(self, workspace, capsys):
        assert main(base_args(workspace) + ["--backend", "live"]) == 1
        assert "live backend requires the --live flag" in capsys.readouterr().err

    def test_live_flag_needs_api_key(self, workspace, capsys, monkeypatch):
        monkeypatch.delenv(cli.API_KEY_ENV, raising=False)
        args = base_args(workspace) + ["--backend", "live", "--live"]
        assert main(args) == 1
        assert "SEARCH_API_KEY is not set" in capsys.readouterr().err


class FailingBackend:
    def fetch(self, raw_query, offset, count):
        raise TransportError("socket down")


class TestTransportAbort:
    def test_partial_outputs_and_exit_2(self, workspace, capsys, monkeypatch):
        def sleepless_gateway(backend, cache=None):
            return SearchGateway(FailingBackend(), cache=cache, sleep=lambda _s: None)

        monkeypatch.setattr(cli, "SearchGateway", sleepless_gateway)
        assert main(base_args(workspace)) == 2
        captured = capsys.readouterr()
        assert "run aborted (transport-error); partial outputs retained" in captured.err
        summary = (workspace / "out/run.summary.txt").read_text()
        assert "status: aborted\n" in summary
        assert "stopped: transport-error\n" in summary
        assert (workspace / "out/run.edges").exists()

    def test_malformed_live_page_is_charged_then_aborts(
        self, workspace, capsys, monkeypatch
    ):
        def malformed_backend(api_key, min_delay):
            return LiveBackend(api_key, transport=lambda u, p, h: (200, []))

        def sleepless_gateway(backend, cache=None):
            return SearchGateway(backend, cache=cache, sleep=lambda _s: None)

        monkeypatch.setenv(cli.API_KEY_ENV, "k")
        monkeypatch.setattr(cli, "LiveBackend", malformed_backend)
        monkeypatch.setattr(cli, "SearchGateway", sleepless_gateway)
        args = base_args(workspace) + ["--backend", "live", "--live"]
        assert main(args) == 2
        assert "partial outputs retained" in capsys.readouterr().err
        summary = (workspace / "out/run.summary.txt").read_text()
        assert "status: aborted\n" in summary
        assert "requests: 3\n" in summary
        [_header, row] = (workspace / "out/run.queries.tsv").read_text().splitlines()
        assert row.split("\t")[2:4] == ["3", "3"]


class TestParsePatternArgs:
    def test_weights_merge_and_escape(self):
        parsed = _parse_pattern_args(["and=2", "y", "and", "\\s"])
        assert parsed == {"and": 3.0, "y": 1.0, " ": 1.0}

    def test_zero_weight_rejected(self):
        with pytest.raises(ConfigError, match="pattern weight must be > 0"):
            _parse_pattern_args(["x=0"])

    def test_empty_phrase_rejected(self):
        with pytest.raises(ConfigError, match="empty pattern"):
            _parse_pattern_args(["=2"])


def test_cli_import_leaves_networkx_unloaded():
    """networkx is loaded only by GraphML export, never by the CLI's imports."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, snipgraph.cli; print('networkx' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"
