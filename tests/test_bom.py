"""Text inputs saved with a UTF-8 byte order mark read as they do without."""

import re

import pytest

from snipgraph.catalog import load_catalog_file
from snipgraph.cli import ConfigError, _read, _read_lines, load_config_file, main
from snipgraph.extract import load_patterns
from snipgraph.graph import read_edge_list
from snipgraph.search import load_corpus_file, save_corpus_file

from conftest import NAMES, CorpusBuilder

BOM = "\ufeff"
A, B, C, D = NAMES[:4]


def write(path, text, bom=False):
    path.write_text((BOM if bom else "") + text, encoding="utf-8")
    return str(path)


# each reader, a file for it whose first line holds what the BOM would stick
# to, and a view of what it read
READERS = {
    "catalog": (
        load_catalog_file,
        f"{A}\n{B}\n",
        lambda catalog: (catalog, A in catalog),
    ),
    "config": (load_config_file, "tau = 3\nmode = prio\n", lambda config: config),
    "lines": (
        lambda path: _read_lines(path, "seeds file"),
        f"{A}\n# a comment\n{B}\n",
        lambda lines: lines,
    ),
    "patterns": (
        lambda path: _read(path, "patterns file", load_patterns),
        "and\nwith\n",
        lambda patterns: patterns,
    ),
    "edge list": (
        lambda path: _read(path, "graph", read_edge_list),
        f"{A}\t{B}\t2\n{B}\t{C}\t3\n",
        lambda graph: (list(graph.nodes()), list(graph.edges())),
    ),
    "corpus": (
        load_corpus_file,
        "https://a.example/1\ta.example\tplain\r\nu\td\tt\\tx\n",
        lambda records: records,
    ),
}


@pytest.mark.parametrize("reader", READERS)
def test_a_bom_is_not_part_of_the_first_line(reader, tmp_path):
    load, text, view = READERS[reader]
    plain = view(load(write(tmp_path / "plain", text)))
    marked = view(load(write(tmp_path / "marked", text, bom=True)))
    assert marked == plain
    assert BOM not in repr(marked)


@pytest.mark.parametrize("reader", READERS)
def test_a_bad_byte_is_reported_at_its_offset_in_the_file(reader, tmp_path):
    load, text, _view = READERS[reader]
    # past the text reader's first 8 KiB chunk, from which it counts
    data = (BOM + text + "\n" * 9000).encode("utf-8") + b"Ada \xffVeil\n"
    offset = data.index(b"\xff")
    path = tmp_path / "bad"
    path.write_bytes(data)
    with pytest.raises((ValueError, ConfigError)) as info:
        load(str(path))
    assert re.search(rf"(position|byte) {offset}\b", str(info.value))


def test_extract_with_bom_inputs_writes_the_plain_run_edges(tmp_path):
    builder = CorpusBuilder()
    builder.pair(A, B, times=2).pair(B, C, times=2).pair(C, D)
    save_corpus_file(builder.records, str(tmp_path / "corpus.tsv"))
    corpus = (tmp_path / "corpus.tsv").read_text(encoding="utf-8")
    edges = {}
    for bom in (False, True):
        ws = tmp_path / ("marked" if bom else "plain")
        ws.mkdir()
        # tau = 1 admits the once-seen C-D pair, which the default tau does not
        args = [
            "extract",
            "--seeds", write(ws / "seeds.txt", f"{A}\n", bom),
            "--catalog", write(ws / "names.txt", "".join(f"{n}\n" for n in NAMES), bom),
            "--corpus", write(ws / "corpus.tsv", corpus, bom),
            "--config", write(ws / "run.cfg", "tau = 1\n", bom),
            "--output-prefix", str(ws / "out"),
        ]
        assert main(args) == 0
        edges[bom] = (ws / "out.edges").read_text(encoding="utf-8")
    assert edges[True] == edges[False]
    assert edges[False].count("\n") == 3
