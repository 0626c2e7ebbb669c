"""Search plumbing: queries, budget accounting, snippet corpora, caching,
and the gateway that turns a query into a deduplicated snippet list in rank
order.

Two backends implement the same page-fetch protocol: ReplayBackend serves a
fixed snippet corpus for offline, reproducible runs; LiveBackend talks to a
web search API. The gateway adds paging, retries, caching, and request
accounting on top of either.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import time
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Iterable, Protocol
from urllib.parse import urlparse

from .catalog import alnum_runs, fold_text, folded_phrase_test, normalize_name

PAGE_SIZE = 50

# attempts at each result page, and seconds before the first retry; the
# delay doubles for each later retry
RETRIES = 3
RETRY_DELAY = 1.0

FORBIDDEN_QUERY_CHARS = ("&", ",", "+")

CONNECTIVITY = "connectivity"
PAIR = "pair"
ENTITY = "entity"


class QueryError(ValueError):
    """Query text cannot be sent to a search engine."""


class TransportError(RuntimeError):
    """Backend failed to produce a result page."""


class FatalTransportError(TransportError):
    """Backend refused the request in a way a retry cannot fix."""


class CorpusFormatError(ValueError):
    """Malformed corpus input; message names the offending line."""


def requests_for(k: int) -> int:
    """Requests needed to collect k results at PAGE_SIZE results per request."""
    return max(1, math.ceil(k / PAGE_SIZE))


def is_queryable_phrase(phrase: str) -> bool:
    """True when the phrase can appear in query text.

    Whitespace-only phrases (notably the single-space pattern) and phrases
    containing quote or operator characters are not queryable.
    """
    if not phrase.strip():
        return False
    if '"' in phrase:
        return False
    return not any(ch in phrase for ch in FORBIDDEN_QUERY_CHARS)


def validate_query_text(text: str) -> str:
    for ch in FORBIDDEN_QUERY_CHARS:
        if ch in text:
            raise QueryError(f"query contains forbidden character {ch!r}: {text!r}")
    return text


@dataclass(frozen=True)
class Query:
    """A raw query string plus its kind (connectivity or pair)."""

    raw: str
    kind: str

    @property
    def cache_key(self) -> str:
        return normalize_name(self.raw)


def _quoted(term: str, role: str) -> str:
    if not term.strip():
        raise QueryError(f"{role} is empty")
    if '"' in term:
        raise QueryError(f"{role} contains a quote character: {term!r}")
    validate_query_text(term)
    return f'"{term}"'


def connectivity_query(entity: str, pattern_phrase: str) -> Query:
    """Build `"<entity>" <pattern>`; the pattern must be queryable."""
    if not is_queryable_phrase(pattern_phrase):
        raise QueryError(f"pattern phrase is not queryable: {pattern_phrase!r}")
    return Query(f"{_quoted(entity, 'entity')} {pattern_phrase.strip()}", CONNECTIVITY)


def pair_query(entity_a: str, entity_b: str) -> Query:
    """Build `"<a>" "<b>"` for co-occurrence checks."""
    return Query(f"{_quoted(entity_a, 'entity')} {_quoted(entity_b, 'entity')}", PAIR)


def entity_query(entity: str) -> Query:
    """Build `"<entity>"` alone, as used by the pairwise baseline."""
    return Query(_quoted(entity, "entity"), ENTITY)


@dataclass(frozen=True)
class CorpusRecord:
    """One search result, or one stored snippet: url, source domain, snippet
    text. Lists of results are in rank order; the position is the rank."""

    url: str
    domain: str
    text: str


# Common multi-part public suffixes that need a third hostname label to
# identify the registrant.
_MULTI_PART_SUFFIXES = frozenset(
    {
        "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk",
        "com.au", "net.au", "org.au",
        "co.jp", "ne.jp", "or.jp",
        "co.nz", "co.in", "co.za", "co.kr",
        "com.br", "com.mx", "com.cn", "com.sg", "com.tr", "com.ar",
    }
)


def registrable_domain(url: str) -> str:
    """Registrable domain of a URL: the last two hostname labels, or three
    when the last two form a known multi-part suffix like co.uk. A URL that
    does not parse, like "http://[::1", has no domain: ""."""
    try:
        host = urlparse(url).hostname
        if host is None:
            host = urlparse("//" + url).hostname or ""
    except ValueError:
        return ""
    host = host.lower().rstrip(".")
    labels = host.split(".")
    if len(labels) <= 2:
        return host
    if ".".join(labels[-2:]) in _MULTI_PART_SUFFIXES:
        return ".".join(labels[-3:])
    return ".".join(labels[-2:])


# --- corpus serialization -------------------------------------------------

_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def escape_field(value: str) -> str:
    for plain, escaped in _ESCAPES.items():
        value = value.replace(plain, escaped)
    return value


def unescape_field(value: str) -> str:
    if "\\" not in value:
        return value
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(value) or value[i + 1] not in _UNESCAPES:
            raise ValueError(f"bad escape sequence at position {i}")
        out.append(_UNESCAPES[value[i + 1]])
        i += 2
    return "".join(out)


def load_corpus(source: IO[str] | Iterable[str]) -> list[CorpusRecord]:
    """Parse tab-separated url/domain/text records; blank lines are skipped."""
    records: list[CorpusRecord] = []
    for lineno, line in enumerate(source, start=1):
        raw = line.rstrip("\n")
        if raw.endswith("\r"):
            raw = raw[:-1]
        if not raw:
            continue
        fields = raw.split("\t")
        if len(fields) != 3:
            raise CorpusFormatError(
                f"line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        try:
            url, domain, text = (unescape_field(f) for f in fields)
        except ValueError as exc:
            raise CorpusFormatError(f"line {lineno}: {exc}") from exc
        records.append(CorpusRecord(url, domain, text))
    return records


def load_corpus_file(path: str) -> list[CorpusRecord]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return load_corpus(fh)


def save_corpus(records: Iterable[CorpusRecord], fh: IO[str]) -> None:
    for rec in records:
        fh.write(
            f"{escape_field(rec.url)}\t{escape_field(rec.domain)}\t{escape_field(rec.text)}\n"
        )


def save_corpus_file(records: Iterable[CorpusRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        save_corpus(records, fh)


# --- budget ---------------------------------------------------------------

@dataclass(frozen=True)
class QueryLogEntry:
    """One search as the ledger saw it: `requests` counts every backend call
    it made, `retries` the failed ones among them, and `snippets` what it
    returned. A cached entry was answered without a backend call."""

    raw: str
    requests: int
    cached: bool
    kind: str = ""
    retries: int = 0
    snippets: int = 0


@dataclass
class BudgetLedger:
    """Tracks search requests against an optional cap.

    `used_requests` only grows; cache hits are logged but cost nothing.
    `queries_issued` counts charged searches, one per charge() however many
    calls the search made. `max_requests` of None means unlimited.
    """

    max_requests: int | None = None
    used_requests: int = 0
    queries_issued: int = 0
    log: list[QueryLogEntry] = field(default_factory=list)

    @property
    def exhausted(self) -> bool:
        return self.max_requests is not None and self.used_requests >= self.max_requests

    def charge(
        self,
        raw_query: str,
        requests: int,
        *,
        kind: str = "",
        retries: int = 0,
        snippets: int = 0,
    ) -> None:
        if requests < 0:
            raise ValueError("requests must be >= 0")
        self.used_requests += requests
        self.queries_issued += 1
        self.log.append(
            QueryLogEntry(raw_query, requests, False, kind, retries, snippets)
        )

    def note_cached(self, raw_query: str, *, kind: str = "", snippets: int = 0) -> None:
        self.log.append(QueryLogEntry(raw_query, 0, True, kind, 0, snippets))


QUERY_LOG_COLUMNS = ("query", "kind", "requests", "retries", "cached", "snippets")


def write_query_log(log: Iterable[QueryLogEntry], fh: IO[str]) -> None:
    """One tab-separated row per ledger entry under a QUERY_LOG_COLUMNS
    header; the query is escaped like a corpus field, cached is 1 or 0."""
    fh.write("\t".join(QUERY_LOG_COLUMNS) + "\n")
    for e in log:
        fh.write(
            f"{escape_field(e.raw)}\t{e.kind}\t{e.requests}\t{e.retries}"
            f"\t{int(e.cached)}\t{e.snippets}\n"
        )


# --- cache ----------------------------------------------------------------

class SnippetCache:
    """Disk cache of query results.

    Each query maps (via the sha256 of its normalized text) to one file: a
    header line holding the escaped raw query, a tab and the fetch depth k,
    then one url/domain/text record per snippet in rank order. get() serves
    an entry only to a request for at most its depth; a shallower entry, a
    file without that header, or a body that does not parse is a miss, so
    the gateway fetches afresh and overwrites it.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, cache_key: str) -> str:
        digest = hashlib.sha256(cache_key.encode("utf-8")).hexdigest()
        return os.path.join(self.directory, digest + ".tsv")

    def get(self, query: Query, k: int) -> list[CorpusRecord] | None:
        """The stored snippets for `query`, or None unless the entry is
        intact and was fetched at depth k or deeper."""
        path = self._path(query.cache_key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                lines = fh.read().split("\n")
        except UnicodeDecodeError:
            return None
        if lines[-1] == "":
            lines.pop()
        if not lines:
            return None
        depth = lines[0].partition("\t")[2]
        if not depth.isdecimal() or int(depth) < k:
            return None
        try:
            return load_corpus(lines[1:])
        except CorpusFormatError:
            return None

    def put(self, query: Query, snippets: Iterable[CorpusRecord], k: int) -> None:
        """Store `snippets`, the answer to `query` fetched at depth k."""
        path = self._path(query.cache_key)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"{escape_field(query.raw)}\t{k}\n")
            save_corpus(snippets, fh)
        os.replace(tmp, path)


# --- backends -------------------------------------------------------------

class SearchBackend(Protocol):
    def fetch(self, raw_query: str, offset: int, count: int) -> list[CorpusRecord]:
        """Return up to `count` results starting at `offset`."""
        ...


_QUOTED_PHRASE = re.compile(r'"([^"]*)"')


def parse_query_terms(raw: str) -> list[str]:
    """The non-blank quoted phrases of a raw query, in order."""
    return [p for p in _QUOTED_PHRASE.findall(raw) if p.strip()]


class ReplayBackend:
    """Serves a fixed corpus: a snippet matches a query when every quoted
    phrase occurs in its text (token-bounded, compared casefolded). Bare
    tokens outside quotes are ignored, the way a broad-match term barely
    constrains a web-scale index.

    Results keep corpus insertion order, which stands in for search-engine
    ranking and makes replay runs fully deterministic.

    Only candidate records are tested against the phrases: those holding
    every alnum run of every phrase, found by intersecting the posting lists
    of an inverted index from run to record, shortest first, or every record
    when the phrases hold no run. The index is built on the first query, in
    one pass that also keeps each record's folded text (`catalog.fold_text`:
    casefolded, each whitespace run one space). A candidate is then checked by
    `catalog.folded_phrase_test`, one str.find per phrase in its folded text,
    with no regex compiled. So "Strauß" and "STRAUSS" match one phrase, while
    "İris" and "ıris" do not match "Iris". The cost of a query thus grows
    with the records that can match, not with the corpus.

    Answers are memoised by the quoted phrases, since nothing else in a
    query decides them: `"A" and`, `"A" with` and `"A"` share one scan.
    """

    def __init__(self, records: Iterable[CorpusRecord]) -> None:
        self.records = list(records)
        self._memo: dict[tuple[str, ...], list[CorpusRecord]] = {}
        self._postings: dict[str, list[int]] | None = None
        self._folded: list[str] = []

    def _index(self) -> dict[str, list[int]]:
        if self._postings is None:
            self._postings = {}
            for i, rec in enumerate(self.records):
                folded = fold_text(rec.text)
                self._folded.append(folded)
                for run in alnum_runs(folded):
                    self._postings.setdefault(run, []).append(i)
        return self._postings

    def _candidates(self, phrases: tuple[str, ...]) -> list[int]:
        """Corpus-ordered indices of the records holding every run of the
        phrases; every record when the phrases hold no run."""
        postings = self._index()
        runs = set().union(*map(alnum_runs, phrases))
        if not runs:
            return list(range(len(self.records)))
        lists = sorted((postings.get(run, []) for run in runs), key=len)
        hits = set(lists[0])
        for posting in lists[1:]:
            if not hits:
                break
            hits.intersection_update(posting)
        return sorted(hits)

    def _matches(self, raw_query: str) -> list[CorpusRecord]:
        key = tuple(parse_query_terms(raw_query))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        hits = self._candidates(key)
        for test in map(folded_phrase_test, key):
            hits = [i for i in hits if test(self._folded[i])]
        found = [self.records[i] for i in hits]
        self._memo[key] = found
        return found

    def fetch(self, raw_query: str, offset: int, count: int) -> list[CorpusRecord]:
        return self._matches(raw_query)[offset : offset + count]


DEFAULT_ENDPOINT = "https://api.bing.microsoft.com/v7.0/search"

# (url, params, headers) -> (status, JSON body); the body is read on 200 only
Transport = Callable[[str, dict, dict], tuple[int, Any]]


def _requests_transport(timeout: float) -> Transport:
    import requests

    def transport(url: str, params: dict, headers: dict) -> tuple[int, Any]:
        try:
            resp = requests.get(url, params=params, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            raise TransportError(f"search request failed: {exc}") from exc
        if resp.status_code != 200:
            return resp.status_code, None
        try:
            return resp.status_code, resp.json()
        except ValueError as exc:
            raise TransportError(f"search API body is not JSON: {exc}") from exc

    return transport


class LiveBackend:
    """Web search API backend.

    Speaks the common key-in-header JSON search protocol: GET with q, count,
    and offset parameters, results under webPages.value. A 200 whose body
    does not have that shape raises TransportError, so the gateway charges
    and retries it like any failed page. The transport is injectable so
    tests never touch the network.
    """

    def __init__(
        self,
        api_key: str,
        endpoint: str = DEFAULT_ENDPOINT,
        transport: Transport | None = None,
        timeout: float = 10.0,
        min_delay: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if not api_key:
            raise ValueError("api_key is required for live search")
        if min_delay < 0:
            raise ValueError("min_delay must be >= 0")
        self.endpoint = endpoint
        self.min_delay = min_delay
        self._headers = {"Ocp-Apim-Subscription-Key": api_key}
        self._transport = transport or _requests_transport(timeout)
        self._clock = clock
        self._sleep = sleep
        self._last_request: float | None = None

    def _pace(self) -> None:
        # keeps successive API calls at least min_delay seconds apart
        if self.min_delay > 0 and self._last_request is not None:
            wait = self.min_delay - (self._clock() - self._last_request)
            if wait > 0:
                self._sleep(wait)
        self._last_request = self._clock()

    def fetch(self, raw_query: str, offset: int, count: int) -> list[CorpusRecord]:
        params = {"q": raw_query, "count": min(count, PAGE_SIZE), "offset": offset}
        self._pace()
        status, body = self._transport(self.endpoint, params, self._headers)
        if status == 429 or 500 <= status <= 599:
            raise TransportError(f"search API returned status {status}")
        if status != 200:
            raise FatalTransportError(f"search API returned status {status}")
        pages = (body.get("webPages") or {}) if isinstance(body, dict) else None
        items = (pages.get("value") or []) if isinstance(pages, dict) else None
        if not isinstance(items, list):
            raise TransportError("search API returned a malformed result page")
        records = []
        for item in items:
            url = item.get("url", "") if isinstance(item, dict) else None
            text = item.get("snippet", "") if isinstance(item, dict) else None
            if not (isinstance(url, str) and isinstance(text, str)):
                raise TransportError(f"search API returned a malformed result: {item!r}")
            records.append(CorpusRecord(url, registrable_domain(url), text))
        return records


# --- gateway --------------------------------------------------------------

class SearchGateway:
    """Pages, deduplicates, caches, retries, and charges snippet searches.

    search() fetches PAGE_SIZE results per request until k results are
    collected or a short page signals the end, and returns the snippets
    together with the number of pages that returned results. Duplicate (url,
    text) results are dropped. A failed page is retried with doubling
    backoff, except a FatalTransportError, which is raised at once. The
    `ledger` (uncapped at first; each `engine.Run` installs its own) is
    charged one request per backend call, failed attempts
    included, also when the search ends in a TransportError; cache hits are
    free. The gateway never refuses a search: callers check the ledger
    between searches, so a search may overshoot the cap. Every search it is
    asked for is run; pooling several queries and answering a repeated one
    for no request are the run's (`engine.Run.search_pooled`, `Run.search`).
    """

    def __init__(
        self,
        backend: SearchBackend,
        cache: SnippetCache | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.backend = backend
        self.ledger = BudgetLedger()
        self.cache = cache
        self._sleep = sleep

    def _fetch_page(
        self, raw_query: str, offset: int, failures: list[TransportError]
    ) -> list[CorpusRecord]:
        """One result page; each failed attempt is appended to `failures`."""
        delay = RETRY_DELAY
        for attempt in range(1, RETRIES + 1):
            try:
                return self.backend.fetch(raw_query, offset, PAGE_SIZE)
            except TransportError as exc:
                failures.append(exc)
                if isinstance(exc, FatalTransportError) or attempt == RETRIES:
                    raise
                self._sleep(delay)
                delay *= 2
        raise AssertionError("unreachable")

    def search(self, query: Query, k: int) -> tuple[list[CorpusRecord], int]:
        """Up to k snippets for `query`, in rank order, plus the pages
        fetched; see class docstring."""
        if k < 1:
            raise ValueError("k must be >= 1")
        validate_query_text(query.raw)
        if self.cache is not None:
            cached = self.cache.get(query, k)
            if cached is not None:
                cached = cached[:k]
                self.ledger.note_cached(query.raw, kind=query.kind, snippets=len(cached))
                return cached, 0
        max_pages = requests_for(k)
        collected: list[CorpusRecord] = []
        seen: set[tuple[str, str]] = set()
        failures: list[TransportError] = []
        result: list[CorpusRecord] = []
        spent = 0
        try:
            for page_idx in range(max_pages):
                page = self._fetch_page(query.raw, page_idx * PAGE_SIZE, failures)
                spent += 1
                for rec in page:
                    key = (rec.url, rec.text)
                    if key in seen:
                        continue
                    seen.add(key)
                    collected.append(CorpusRecord(rec.url, rec.domain.lower(), rec.text))
                if len(page) < PAGE_SIZE or len(collected) >= k:
                    break
            result = collected[:k]
        finally:
            self.ledger.charge(
                query.raw,
                spent + len(failures),
                kind=query.kind,
                retries=len(failures),
                snippets=len(result),
            )
        if self.cache is not None:
            self.cache.put(query, result, k)
        return result, spent
