"""Queries, corpus TSV format, budget ledger, cache, backends, gateway."""

import io
import json
import tempfile
from unittest import mock

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snipgraph import search
from snipgraph.engine import Run
from snipgraph.search import (
    PAGE_SIZE,
    BudgetLedger,
    CorpusFormatError,
    CorpusRecord,
    FatalTransportError,
    LiveBackend,
    Query,
    QueryError,
    QueryLogEntry,
    ReplayBackend,
    SearchGateway,
    SnippetCache,
    TransportError,
    connectivity_query,
    entity_query,
    escape_field,
    is_queryable_phrase,
    load_corpus,
    pair_query,
    parse_query_terms,
    registrable_domain,
    _requests_transport,
    requests_for,
    save_corpus,
    unescape_field,
    write_query_log,
)

from conftest import CorpusBuilder, make_catalog


class TestQueryBuilding:
    def test_connectivity_query_shape(self):
        query = connectivity_query("Ada Veil", "and")
        assert query.raw == '"Ada Veil" and'

    def test_connectivity_query_strips_pattern(self):
        assert connectivity_query("Ada Veil", " and ").raw == '"Ada Veil" and'

    def test_pair_and_entity_queries(self):
        assert pair_query("Ada Veil", "Bo Quist").raw == '"Ada Veil" "Bo Quist"'
        assert entity_query("Ada Veil").raw == '"Ada Veil"'

    def test_unqueryable_pattern_rejected(self):
        with pytest.raises(QueryError, match="not queryable"):
            connectivity_query("Ada Veil", " ")

    @pytest.mark.parametrize("entity", ["", "  ", 'Ada "Veil"', "A & B", "x, y", "a+b"])
    def test_bad_entities_rejected(self, entity):
        with pytest.raises(QueryError):
            entity_query(entity)

    def test_cache_key_normalized(self):
        a = Query('"Ada  Veil" and', "connectivity")
        b = Query('"ADA VEIL" AND', "connectivity")
        assert a.cache_key == b.cache_key


@pytest.mark.parametrize(
    ("phrase", "queryable"),
    [
        ("and", True),
        ("speaks with", True),
        ("-", True),
        (" ", False),
        ("", False),
        ("&", False),
        (",", False),
        ("a+b", False),
        ('say "hi"', False),
    ],
)
def test_is_queryable_phrase(phrase, queryable):
    assert is_queryable_phrase(phrase) is queryable


def test_requests_for():
    assert requests_for(1) == 1
    assert requests_for(PAGE_SIZE) == 1
    assert requests_for(PAGE_SIZE + 1) == 2
    assert requests_for(200) == 4


def test_parse_query_terms():
    phrases = parse_query_terms('"Ada Veil" and "Bo Quist" near  "" x')
    assert phrases == ["Ada Veil", "Bo Quist"]


class TestCorpusTsv:
    @pytest.mark.parametrize(
        "text", ["plain", "tab\there", "line\nbreak", "cr\rhere", "back\\slash", ""]
    )
    def test_field_escape_roundtrip(self, text):
        assert unescape_field(escape_field(text)) == text

    def test_unescape_rejects_unknown(self):
        with pytest.raises(ValueError, match="bad escape"):
            unescape_field("a\\x")
        with pytest.raises(ValueError, match="bad escape"):
            unescape_field("trailing\\")

    def test_save_load_roundtrip(self, tmp_path):
        records = [
            CorpusRecord("https://a.example/1", "a.example", "Ada Veil\tand\nBo Quist"),
            CorpusRecord("https://b.example/2", "b.example", "plain text"),
        ]
        path = tmp_path / "corpus.tsv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            save_corpus(records, fh)
        with open(path, "r", encoding="utf-8", newline="") as fh:
            assert load_corpus(fh) == records

    def test_load_skips_blank_lines(self):
        assert load_corpus(["", "u\td\tt", ""]) == [CorpusRecord("u", "d", "t")]

    def test_load_field_count_error(self):
        with pytest.raises(CorpusFormatError, match="line 2: expected 3"):
            load_corpus(["u\td\tt", "u\td"])

    def test_load_bad_escape_error(self):
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_corpus(["u\td\tbad\\q"])


class TestBudgetLedger:
    def test_unlimited(self):
        ledger = BudgetLedger()
        ledger.charge("q", 100)
        assert not ledger.exhausted

    def test_capped_accounting(self):
        ledger = BudgetLedger(max_requests=5)
        ledger.charge("q1", 3)
        assert not ledger.exhausted
        ledger.charge("q2", 2)
        assert ledger.exhausted
        assert ledger.queries_issued == 2

    def test_overshoot_allowed(self):
        ledger = BudgetLedger(max_requests=1)
        ledger.charge("q", 4)
        assert ledger.used_requests == 4
        assert ledger.exhausted

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            BudgetLedger().charge("q", -1)

    def test_log_records_cache_hits(self):
        ledger = BudgetLedger()
        ledger.charge("q1", 2)
        ledger.note_cached("q1")
        assert [(e.raw, e.requests, e.cached) for e in ledger.log] == [
            ("q1", 2, False),
            ("q1", 0, True),
        ]
        assert ledger.used_requests == 2
        assert ledger.queries_issued == 1

    def test_log_keeps_kind_retries_and_snippets(self):
        ledger = BudgetLedger()
        ledger.charge("q1", 4, kind="pair", retries=3, snippets=60)
        ledger.note_cached("q1", kind="pair", snippets=60)
        assert ledger.log == [
            QueryLogEntry("q1", 4, False, "pair", 3, 60),
            QueryLogEntry("q1", 0, True, "pair", 0, 60),
        ]
        assert ledger.used_requests == 4
        assert ledger.queries_issued == 1

    def test_query_log_tsv(self):
        buf = io.StringIO()
        write_query_log(
            [
                QueryLogEntry('"Ada\tVeil" and', 2, False, "connectivity", 1, 7),
                QueryLogEntry('"Ada" "Bo"', 0, True, "pair", 0, 3),
            ],
            buf,
        )
        assert buf.getvalue() == (
            "query\tkind\trequests\tretries\tcached\tsnippets\n"
            '"Ada\\tVeil" and\tconnectivity\t2\t1\t0\t7\n'
            '"Ada" "Bo"\tpair\t0\t0\t1\t3\n'
        )


def matching_records(count, needle="Ada Veil"):
    return [
        CorpusRecord(f"https://a.example/{i}", "a.example", f"{needle} and friend {i}")
        for i in range(count)
    ]


class TestReplayBackend:
    def test_matches_quoted_phrases_only(self):
        backend = ReplayBackend(matching_records(3))
        assert len(backend.fetch('"Ada Veil" zzzunseen', 0, 50)) == 3
        assert backend.fetch('"Ada Veil" "zzzunseen"', 0, 50) == []

    def test_phrase_matching_is_token_bounded(self):
        backend = ReplayBackend([CorpusRecord("u", "d", "meet Adab Veil")])
        assert backend.fetch('"Ada" x', 0, 50) == []

    def test_padded_phrase_is_token_bounded(self):
        records = [
            CorpusRecord("u1", "d", "sandy shore"),
            CorpusRecord("u2", "d", "salt and pepper"),
        ]
        assert ReplayBackend(records).fetch('" and "', 0, 50) == records[1:]

    def test_insertion_order_and_paging(self):
        records = matching_records(7)
        backend = ReplayBackend(records)
        assert backend.fetch('"Ada Veil"', 0, 5) == records[:5]
        assert backend.fetch('"Ada Veil"', 5, 5) == records[5:]

    def test_multi_phrase_conjunction(self):
        records = [
            CorpusRecord("u1", "d", "Ada Veil and Bo Quist"),
            CorpusRecord("u2", "d", "Ada Veil alone"),
        ]
        backend = ReplayBackend(records)
        assert backend.fetch('"Ada Veil" "Bo Quist"', 0, 50) == records[:1]

    def test_queries_with_the_same_phrases_share_one_scan(self):
        records = matching_records(3) + [CorpusRecord("u", "d", "Bo Quist met Ada Veil")]
        backend = ReplayBackend(records)
        scans = []
        scan = backend._candidates
        backend._candidates = lambda phrases: scans.append(phrases) or scan(phrases)
        first = backend.fetch('"Ada Veil" and', 0, 50)
        assert backend.fetch('"Ada Veil" with', 0, 50) == first
        assert len(scans) == 1
        pair = backend.fetch('"Ada Veil" "Bo Quist" and', 0, 50)
        assert backend.fetch('"Ada Veil" "Bo Quist" met', 0, 50) == pair == records[3:]
        assert len(scans) == 2


class TestRegistrableDomain:
    @pytest.mark.parametrize(
        ("url", "expected"),
        [
            ("https://www.example.com/x?y=1", "example.com"),
            ("http://news.bbc.co.uk/page", "bbc.co.uk"),
            ("https://a.b.co.jp/", "b.co.jp"),
            ("https://sub.shop.com.au:8080/cart", "shop.com.au"),
            ("https://EXample.COM./", "example.com"),
            ("example.com/path", "example.com"),
            ("localhost", "localhost"),
            ("http://[::1", ""),
        ],
    )
    def test_cases(self, url, expected):
        assert registrable_domain(url) == expected


class TestSearchGateway:
    def query(self):
        return connectivity_query("Ada Veil", "and")

    def test_returns_snippets_and_spend(self):
        gateway = SearchGateway(ReplayBackend(matching_records(3)))
        snippets, spent = gateway.search(self.query(), k=10)
        assert snippets == matching_records(3)
        assert spent == 1
        assert gateway.ledger.used_requests == 1

    def test_domain_lowercased(self):
        records = [CorpusRecord("u", "A.Example", "Ada Veil and Bo")]
        gateway = SearchGateway(ReplayBackend(records))
        snippets, _ = gateway.search(self.query(), k=5)
        assert snippets[0].domain == "a.example"

    def test_pages_until_k(self):
        gateway = SearchGateway(ReplayBackend(matching_records(60)))
        snippets, spent = gateway.search(self.query(), k=200)
        assert len(snippets) == 60
        # second page was short, so paging stopped at 2 of the 4 allowed
        assert spent == 2
        assert gateway.ledger.used_requests == 2

    def test_stops_once_k_collected(self):
        gateway = SearchGateway(ReplayBackend(matching_records(60)))
        snippets, spent = gateway.search(self.query(), k=50)
        assert len(snippets) == 50
        assert spent == 1

    def test_k_trims_overfull_page(self):
        gateway = SearchGateway(ReplayBackend(matching_records(30)))
        snippets, _ = gateway.search(self.query(), k=10)
        assert len(snippets) == 10

    def test_duplicate_url_text_dropped(self):
        record = CorpusRecord("u", "d", "Ada Veil and Bo Quist")
        gateway = SearchGateway(ReplayBackend([record, record]))
        snippets, _ = gateway.search(self.query(), k=10)
        assert len(snippets) == 1

    def test_k_must_be_positive(self):
        gateway = SearchGateway(ReplayBackend([]))
        with pytest.raises(ValueError, match="k must be >= 1"):
            gateway.search(self.query(), k=0)

    def test_forbidden_query_text_rejected(self):
        gateway = SearchGateway(ReplayBackend([]))
        with pytest.raises(QueryError):
            gateway.search(Query("a & b", "connectivity"), k=5)

    def test_searches_on_exhausted_ledger(self):
        ledger = BudgetLedger(max_requests=1)
        ledger.charge("warmup", 1)
        gateway = SearchGateway(ReplayBackend(matching_records(1)))
        gateway.ledger = ledger
        snippets, spent = gateway.search(self.query(), k=5)
        assert len(snippets) == 1 and spent == 1

    def test_in_flight_search_may_overshoot(self):
        ledger = BudgetLedger(max_requests=1)
        gateway = SearchGateway(ReplayBackend(matching_records(60)))
        gateway.ledger = ledger
        _snippets, spent = gateway.search(self.query(), k=200)
        assert spent == 2
        assert ledger.used_requests == 2


def pooling_run(gateway):
    """A run over `gateway` that searches at depth 10."""
    return Run(("Ada Veil",), gateway, make_catalog(), None, 10)


class TestSearchPooled:
    def test_shared_snippet_kept_once_with_first_rank(self):
        builder = CorpusBuilder()
        builder.add("Bo Quist meets Ada Veil")
        builder.add("Ada Veil and Bo Quist")
        run = pooling_run(builder.gateway())
        pooled = run.search_pooled([entity_query("Bo Quist"), entity_query("Ada Veil")])
        assert [s.text for s in pooled] == [
            "Bo Quist meets Ada Veil",
            "Ada Veil and Bo Quist",
        ]

    def test_queries_consumed_lazily(self):
        gateway = SearchGateway(ReplayBackend(matching_records(3)))
        run = pooling_run(gateway)
        seen_used = []

        def queries():
            for phrase in ("and", "meets", "with"):
                seen_used.append(gateway.ledger.used_requests)
                yield connectivity_query("Ada Veil", phrase)

        run.search_pooled(queries())
        assert seen_used == [0, 1, 2]

    def test_stopped_generator_issues_no_further_search(self):
        gateway = SearchGateway(ReplayBackend(matching_records(3)))
        run = pooling_run(gateway)

        def queries():
            yield connectivity_query("Ada Veil", "and")
            if gateway.ledger.used_requests >= 1:
                return
            yield connectivity_query("Ada Veil", "meets")

        pooled = run.search_pooled(queries())
        assert len(pooled) == 3
        assert gateway.ledger.queries_issued == 1
        assert [e.raw for e in gateway.ledger.log] == ['"Ada Veil" and']

    def test_memo_answers_a_repeat_for_no_request(self):
        backend = FlakyBackend(matching_records(3), failures=0)
        gateway = SearchGateway(backend)
        run = pooling_run(gateway)
        first = run.search_pooled([connectivity_query("Ada Veil", "and")])
        assert backend.calls == 1
        # same cache key, then a new query: only the new one reaches fetch
        again = run.search_pooled(
            [connectivity_query("ada  VEIL", "and"), connectivity_query("Ada Veil", "with")]
        )
        assert backend.calls == 2
        assert again == first
        assert gateway.ledger.used_requests == 2
        assert gateway.ledger.queries_issued == 2
        assert [(e.raw, e.requests, e.cached, e.snippets) for e in gateway.ledger.log] == [
            ('"Ada Veil" and', 1, False, 3),
            ('"ada  VEIL" and', 0, True, 3),
            ('"Ada Veil" with', 1, False, 3),
        ]
        assert sorted(run.answers) == ['"ada veil" and', '"ada veil" with']


class FlakyBackend:
    """Fails the first `failures` fetches, then delegates to a replay."""

    def __init__(self, records, failures):
        self.inner = ReplayBackend(records)
        self.failures = failures
        self.calls = 0

    def fetch(self, raw_query, offset, count):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError("boom")
        return self.inner.fetch(raw_query, offset, count)


class TestRetries:
    def test_backoff_then_success(self):
        sleeps = []
        backend = FlakyBackend(matching_records(2), failures=2)
        gateway = SearchGateway(backend, sleep=sleeps.append)
        snippets, spent = gateway.search(connectivity_query("Ada Veil", "and"), k=5)
        assert len(snippets) == 2
        assert spent == 1
        assert sleeps == [1.0, 2.0]

    def test_gives_up_after_retries(self):
        sleeps = []
        backend = FlakyBackend(matching_records(2), failures=99)
        gateway = SearchGateway(backend, sleep=sleeps.append)
        with pytest.raises(TransportError):
            gateway.search(connectivity_query("Ada Veil", "and"), k=5)
        assert backend.calls == 3
        assert sleeps == [1.0, 2.0]

    def test_fatal_status_fails_fast(self):
        calls, sleeps = [], []

        def transport(url, params, headers):
            calls.append(params)
            return 401, {}

        gateway = SearchGateway(LiveBackend("k", transport=transport), sleep=sleeps.append)
        with pytest.raises(FatalTransportError, match="401"):
            gateway.search(connectivity_query("Ada Veil", "and"), k=5)
        assert len(calls) == 1
        assert sleeps == []

    def test_server_error_is_retried(self):
        calls, sleeps = [], []

        def transport(url, params, headers):
            calls.append(params)
            return 503, {}

        gateway = SearchGateway(LiveBackend("k", transport=transport), sleep=sleeps.append)
        with pytest.raises(TransportError, match="503") as excinfo:
            gateway.search(connectivity_query("Ada Veil", "and"), k=5)
        assert not isinstance(excinfo.value, FatalTransportError)
        assert len(calls) == search.RETRIES == 3
        assert sleeps == [1.0, 2.0]

    @pytest.mark.parametrize(
        "body",
        [
            [],
            "page",
            {"webPages": "x"},
            {"webPages": {"value": {"url": "https://a.example/"}}},
            {"webPages": {"value": ["https://a.example/"]}},
            {"webPages": {"value": [{"url": 5, "snippet": "Ada Veil"}]}},
            {"webPages": {"value": [{"url": "https://a.example/", "snippet": None}]}},
        ],
    )
    def test_malformed_page_is_charged_and_retried(self, body):
        calls = []

        def transport(url, params, headers):
            calls.append(params)
            return 200, body

        gateway = SearchGateway(LiveBackend("k", transport=transport), sleep=lambda _s: None)
        with pytest.raises(TransportError, match="malformed") as excinfo:
            gateway.search(connectivity_query("Ada Veil", "and"), k=5)
        assert not isinstance(excinfo.value, FatalTransportError)
        assert len(calls) == 3
        assert gateway.ledger.used_requests == 3
        assert gateway.ledger.log[-1].retries == 3


class ScheduledBackend:
    """Replay whose n-th fetch raises schedule[n] (None succeeds); fetches
    past the end of the schedule succeed. Counts every fetch."""

    def __init__(self, records, schedule):
        self.inner = ReplayBackend(records)
        self.schedule = list(schedule)
        self.calls = 0

    def fetch(self, raw_query, offset, count):
        error = self.schedule[self.calls] if self.calls < len(self.schedule) else None
        self.calls += 1
        if error is not None:
            raise error("boom")
        return self.inner.fetch(raw_query, offset, count)


@settings(max_examples=200, deadline=None)
# a good page, then a page that fails on all three attempts
@example(schedule=[None] + [TransportError] * 3, retries=3, k=200, records=120)
# a page that succeeds on its third attempt
@example(schedule=[TransportError] * 2, retries=3, k=5, records=2)
@given(
    schedule=st.lists(
        st.sampled_from([None, None, TransportError, FatalTransportError]), max_size=12
    ),
    retries=st.integers(1, 4),
    k=st.integers(1, 200),
    records=st.integers(0, 160),
)
def test_ledger_charges_every_backend_call(schedule, retries, k, records):
    backend = ScheduledBackend(matching_records(records), schedule)
    gateway = SearchGateway(backend, sleep=lambda _s: None)
    with mock.patch.object(search, "RETRIES", retries):
        try:
            snippets, spent = gateway.search(connectivity_query("Ada Veil", "and"), k)
        except TransportError:
            snippets, spent = [], None
    failed = sum(error is not None for error in schedule[: backend.calls])
    assert gateway.ledger.used_requests == backend.calls
    assert gateway.ledger.queries_issued == 1
    [entry] = gateway.ledger.log
    assert (entry.requests, entry.retries, entry.snippets) == (
        backend.calls, failed, len(snippets)
    )
    if spent is not None:
        assert spent == backend.calls - failed


class TestSnippetCache:
    def test_gateway_cache_hit_is_free(self, tmp_path):
        cache = SnippetCache(str(tmp_path / "cache"))
        query = connectivity_query("Ada Veil", "and")
        first = SearchGateway(ReplayBackend(matching_records(3)), cache=cache)
        cold, spent = first.search(query, k=10)
        assert spent == 1
        # a fresh gateway over an empty backend still answers from disk
        second = SearchGateway(ReplayBackend([]), cache=cache)
        warm, spent = second.search(query, k=10)
        assert spent == 0
        assert warm == cold
        assert second.ledger.used_requests == 0
        assert second.ledger.log[-1].cached

    def test_hit_respects_smaller_k(self, tmp_path):
        cache = SnippetCache(str(tmp_path / "cache"))
        gateway = SearchGateway(ReplayBackend(matching_records(5)), cache=cache)
        query = connectivity_query("Ada Veil", "and")
        gateway.search(query, k=10)
        warm, spent = gateway.search(query, k=2)
        assert warm == matching_records(5)[:2]
        assert spent == 0

    def test_key_normalization_shares_entries(self, tmp_path):
        cache = SnippetCache(str(tmp_path / "cache"))
        gateway = SearchGateway(ReplayBackend(matching_records(2)), cache=cache)
        gateway.search(Query('"Ada  Veil" and', "connectivity"), k=10)
        warm, spent = gateway.search(Query('"ADA VEIL" and', "connectivity"), k=10)
        assert spent == 0
        assert len(warm) == 2

    def test_distinct_queries_distinct_entries(self, tmp_path):
        cache = SnippetCache(str(tmp_path / "cache"))
        gateway = SearchGateway(ReplayBackend(matching_records(2)), cache=cache)
        gateway.search(connectivity_query("Ada Veil", "and"), k=10)
        _snippets, spent = gateway.search(connectivity_query("Ada Veil", "meets"), k=10)
        assert spent == 1

    def test_roundtrip_preserves_tricky_text(self, tmp_path):
        cache = SnippetCache(str(tmp_path / "cache"))
        builder = CorpusBuilder()
        builder.add("Ada Veil and\ttab\nBo Quist")
        gateway = builder.gateway(cache=cache)
        query = connectivity_query("Ada Veil", "and")
        cold, _ = gateway.search(query, k=5)
        assert cache.get(query, 5) == cold

    def test_shallower_entry_is_a_miss(self, tmp_path):
        cache = SnippetCache(str(tmp_path / "cache"))
        gateway = SearchGateway(ReplayBackend(matching_records(120)), cache=cache)
        query = connectivity_query("Ada Veil", "and")
        gateway.search(query, k=10)
        deep, spent = gateway.search(query, k=200)
        assert len(deep) == 120
        assert spent == 3
        # the deeper answer replaced the entry
        assert cache.get(query, 200) == deep

    def test_garbage_body_is_a_charged_miss(self, tmp_path):
        cache = SnippetCache(str(tmp_path / "cache"))
        gateway = SearchGateway(ReplayBackend(matching_records(3)), cache=cache)
        query = connectivity_query("Ada Veil", "and")
        gateway.search(query, k=10)
        with open(cache._path(query.cache_key), "a", encoding="utf-8") as fh:
            fh.write("not\ta record\\q\n")
        assert cache.get(query, 10) is None
        snippets, spent = gateway.search(query, k=10)
        assert len(snippets) == 3 and spent == 1
        assert gateway.ledger.used_requests == 2

    def test_undecodable_entry_is_a_miss(self, tmp_path):
        cache = SnippetCache(str(tmp_path / "cache"))
        query = connectivity_query("Ada Veil", "and")
        with open(cache._path(query.cache_key), "wb") as fh:
            fh.write(b"\xff\xfe\t10\n")
        assert cache.get(query, 10) is None

    def test_empty_file_is_a_miss(self, tmp_path):
        cache = SnippetCache(str(tmp_path / "cache"))
        query = connectivity_query("Ada Veil", "and")
        open(cache._path(query.cache_key), "w").close()
        assert cache.get(query, 1) is None
        gateway = SearchGateway(ReplayBackend(matching_records(2)), cache=cache)
        snippets, spent = gateway.search(query, k=10)
        assert len(snippets) == 2 and spent == 1

    def test_header_without_depth_is_a_miss(self, tmp_path):
        cache = SnippetCache(str(tmp_path / "cache"))
        query = connectivity_query("Ada Veil", "and")
        with open(cache._path(query.cache_key), "w", encoding="utf-8") as fh:
            fh.write(escape_field(query.raw) + "\n")
            save_corpus(matching_records(2), fh)
        assert cache.get(query, 1) is None


def fake_page(items):
    return {"webPages": {"value": items}}


class TestLiveBackend:
    def test_requires_api_key(self):
        with pytest.raises(ValueError, match="api_key"):
            LiveBackend("")

    def test_request_shape(self):
        calls = []

        def transport(url, params, headers):
            calls.append((url, params, headers))
            return 200, fake_page(
                [{"url": "https://www.site.com/a", "snippet": "text here"}]
            )

        backend = LiveBackend("k3y", endpoint="https://api.test/search", transport=transport)
        records = backend.fetch('"Ada Veil" and', offset=50, count=200)
        url, params, headers = calls[0]
        assert url == "https://api.test/search"
        assert params == {"q": '"Ada Veil" and', "count": PAGE_SIZE, "offset": 50}
        assert headers["Ocp-Apim-Subscription-Key"] == "k3y"
        assert records == [
            CorpusRecord("https://www.site.com/a", "site.com", "text here")
        ]

    def test_non_200_raises(self):
        backend = LiveBackend("k", transport=lambda u, p, h: (429, {}))
        with pytest.raises(TransportError, match="429"):
            backend.fetch("q", 0, 50)

    def test_empty_body_yields_no_records(self):
        backend = LiveBackend("k", transport=lambda u, p, h: (200, {}))
        assert backend.fetch("q", 0, 50) == []

    def test_unparsable_url_has_no_domain(self):
        page = fake_page([{"url": "http://[::1", "snippet": "Ada Veil"}])
        backend = LiveBackend("k", transport=lambda u, p, h: (200, page))
        assert backend.fetch("q", 0, 50) == [CorpusRecord("http://[::1", "", "Ada Veil")]

    def test_pacing_spaces_out_requests(self):
        ticks = iter([0.0, 0.4, 1.0])
        sleeps = []
        backend = LiveBackend(
            "k",
            transport=lambda u, p, h: (200, fake_page([])),
            min_delay=1.0,
            clock=lambda: next(ticks),
            sleep=sleeps.append,
        )
        backend.fetch("q1", 0, 50)
        backend.fetch("q2", 0, 50)
        assert sleeps == [pytest.approx(0.6)]

    def test_no_pacing_by_default(self):
        sleeps = []
        backend = LiveBackend(
            "k", transport=lambda u, p, h: (200, fake_page([])), sleep=sleeps.append
        )
        backend.fetch("q1", 0, 50)
        backend.fetch("q2", 0, 50)
        assert sleeps == []

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="min_delay"):
            LiveBackend("k", min_delay=-1.0)


class FakeResponse:
    def __init__(self, status_code, content):
        self.status_code = status_code
        self.content = content

    def json(self):
        return json.loads(self.content)


class TestRequestsTransport:
    def transport(self, monkeypatch, response):
        monkeypatch.setattr(requests, "get", lambda *a, **kw: response)
        return _requests_transport(timeout=1.0)

    def test_json_body_on_200(self, monkeypatch):
        transport = self.transport(monkeypatch, FakeResponse(200, b'{"webPages": {}}'))
        assert transport("u", {}, {}) == (200, {"webPages": {}})

    @pytest.mark.parametrize("content", [b"<html>busy</html>", b""])
    def test_unparsable_200_is_a_transport_error(self, monkeypatch, content):
        transport = self.transport(monkeypatch, FakeResponse(200, content))
        with pytest.raises(TransportError, match="not JSON"):
            transport("u", {}, {})

    def test_error_status_body_is_not_read(self, monkeypatch):
        transport = self.transport(monkeypatch, FakeResponse(503, b"<html>busy</html>"))
        assert transport("u", {}, {}) == (503, None)


def varied_records(count, distinct):
    """`count` matching records cycling over `distinct` (url, text) pairs, so
    later ones repeat earlier ones; the domains are in upper case."""
    return [
        CorpusRecord(
            f"https://s{i % distinct}.example/x",
            f"S{i % 3}.Example",
            f"Ada Veil and friend {i % distinct}",
        )
        for i in range(count)
    ]


@settings(max_examples=100, deadline=None)
# one deeper than the entry: a miss, fetched afresh
@example(ks=[10, 11], records=20, distinct=20)
# across page boundaries, then back down, over repeated records
@example(ks=[50, 51, 120, 7, 120], records=160, distinct=100)
@given(
    ks=st.lists(st.integers(1, 200), min_size=1, max_size=6),
    records=st.integers(0, 160),
    distinct=st.integers(1, 160),
)
def test_warm_cache_equals_cold(ks, records, distinct):
    backend = ReplayBackend(varied_records(records, distinct))
    query = connectivity_query("Ada Veil", "and")
    with tempfile.TemporaryDirectory() as directory:
        warm = SearchGateway(backend, cache=SnippetCache(directory))
        deepest = 0
        for k in ks:
            cold, _ = SearchGateway(backend).search(query, k)
            before = warm.ledger.used_requests
            snippets, _ = warm.search(query, k)
            assert snippets == cold
            assert (warm.ledger.used_requests == before) == (k <= deepest)
            deepest = max(deepest, k)
