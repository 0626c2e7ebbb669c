"""Shared helpers: tiny catalogs, corpus builders, replay gateways."""

from __future__ import annotations

import pytest

from snipgraph.catalog import EntityCatalog
from snipgraph.search import CorpusRecord, ReplayBackend, SearchGateway

NAMES = ("Ada Veil", "Bo Quist", "Cy Marsh", "Dee Falk", "Eli Gorst", "Fay Brant")


def make_catalog(names=NAMES):
    catalog = EntityCatalog()
    for name in names:
        catalog.add(name)
    return catalog


def make_snippet(text, domain="a.example", url=None):
    return CorpusRecord(url or f"https://{domain}/x", domain, text)


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
