"""Shared helpers: tiny catalogs, corpus builders, replay gateways."""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

import snipgraph.analysis
import snipgraph.catalog
import snipgraph.extract
from snipgraph.catalog import EntityCatalog, find_entity_matches
from snipgraph.search import CorpusRecord, ReplayBackend, SearchGateway

NAMES = ("Ada Veil", "Bo Quist", "Cy Marsh", "Dee Falk", "Eli Gorst", "Fay Brant")


DEMOS = Path(__file__).resolve().parent.parent / "demos"


def load_demo_module(name):
    """The module `demos/<name>.py`, imported by path once per session."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # @dataclass looks the class's module up in sys.modules while it runs
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def make_catalog(names=NAMES):
    catalog = EntityCatalog()
    for name in names:
        catalog.add(name)
    return catalog


def make_snippet(text, domain="a.example", url=None):
    return CorpusRecord(url or f"https://{domain}/x", domain, text)


# Catalog names outside make_names' plain ASCII "First Last" form: inner
# punctuation, a trailing abbreviation, and non-ASCII letters.
ODD_NAMES = ("Jean-Luc O'Brien", "Zoë Ørsted", "Kai Strauß Jr.")


def respell(corpus, odd=ODD_NAMES):
    """A synthesized corpus's records and names, with the names after the
    first (the seed) spelled as `odd` in the catalog and in every text."""
    spelling = dict(zip(corpus.names[1:], odd))

    def sub(text):
        for old, new in spelling.items():
            text = text.replace(old, new)
        return text

    records = [r._replace(text=sub(r.text)) for r in corpus.records]
    return records, [spelling.get(n, n) for n in corpus.names]


def _spot_without_memo(text, catalog, memo=None):
    return find_entity_matches(text, catalog)


@contextmanager
def without_spotting_memo():
    """The oracle for the spotting memo: every caller spots every text afresh."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(snipgraph.extract, "find_entity_matches", _spot_without_memo)
        mp.setattr(snipgraph.analysis, "find_entity_matches", _spot_without_memo)
        yield


@contextmanager
def spotting_log():
    """Count the texts handed to find_entity_matches, and every text it
    actually spotted (calls of the replayed alternation)."""
    handed: Counter = Counter()
    spotted: Counter = Counter()
    replay = snipgraph.catalog._replay_alternation

    def spot(text, catalog, memo=None):
        handed[text] += 1
        return find_entity_matches(text, catalog, memo)

    def counted_replay(text, plan):
        spotted[text] += 1
        return replay(text, plan)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(snipgraph.extract, "find_entity_matches", spot)
        mp.setattr(snipgraph.analysis, "find_entity_matches", spot)
        mp.setattr(snipgraph.catalog, "_replay_alternation", counted_replay)
        yield handed, spotted


class CorpusBuilder:
    """Accumulates corpus records with unique auto-numbered URLs."""

    def __init__(self):
        self.records = []

    def add(self, text, domain="a.example"):
        url = f"https://{domain}/item/{len(self.records):04d}"
        self.records.append(CorpusRecord(url, domain, text))
        return self

    def pair(self, a, b, phrase="and", times=1, domain="a.example"):
        """Plant `times` snippets reading `<filler> a <phrase> b <filler>`."""
        mid = phrase if phrase == " " else f" {phrase} "
        for _ in range(times):
            self.add(f"tonight {a}{mid}{b} on stage", domain)
        return self

    def gateway(self, **kwargs):
        return SearchGateway(ReplayBackend(self.records), **kwargs)


@pytest.fixture
def corpus():
    return CorpusBuilder()


@pytest.fixture
def catalog():
    return make_catalog()
