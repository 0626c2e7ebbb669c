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
import ipaddress
import math
import os
import re
import time
from contextlib import suppress
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Iterable, NamedTuple, Protocol
from urllib.parse import urlparse

from .catalog import fold_text, folded_phrase_test, normalize_name, text_runs
from .graph import read_text_input

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
    """A raw query string plus its kind (connectivity, pair or entity)."""

    raw: str
    kind: str

    @property
    def cache_key(self) -> str:
        return normalize_name(self.raw)


def _quoted(term: str, role: str) -> str:
    if not is_queryable_phrase(term):
        raise QueryError(f"{role} cannot be quoted in a query: {term!r}")
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


class CorpusRecord(NamedTuple):
    """One search result, or one stored snippet: url, source domain, snippet
    text. Lists of results are in rank order; the position is the rank.

    A record is an immutable tuple of its three fields in that order: it is
    built from them by position (`CorpusRecord(*fields)`), hashes and
    compares field by field, and so also equals the plain 3-tuple of its
    fields and orders like one."""

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
    """Registrable domain of a URL: an IP address whole, else the last two
    hostname labels, or three when they form a known multi-part suffix like
    co.uk. A URL that does not parse, like "http://[::1", has no domain: ""."""
    try:
        host = urlparse(url).hostname
        if host is None:
            host = urlparse("//" + url).hostname or ""
    except ValueError:
        return ""
    host = host.lower().rstrip(".")
    with suppress(ValueError):
        ipaddress.ip_address(host)
        return host
    labels = host.split(".")
    if len(labels) <= 2:
        return host
    if ".".join(labels[-2:]) in _MULTI_PART_SUFFIXES:
        return ".".join(labels[-3:])
    return ".".join(labels[-2:])


# --- corpus serialization -------------------------------------------------

_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_UNESCAPES = {escaped[1]: plain for plain, escaped in _ESCAPES.items()}


def escape_field(value: str) -> str:
    for plain, escaped in _ESCAPES.items():
        value = value.replace(plain, escaped)
    return value


def _unescape(match: re.Match[str]) -> str:
    plain = _UNESCAPES.get(match[1])
    if plain is None:  # an unknown escape, or a backslash that ends the value
        raise ValueError(f"bad escape sequence at position {match.start()}")
    return plain


def unescape_field(value: str) -> str:
    return re.sub(r"\\(.?)", _unescape, value, flags=re.DOTALL)


def load_corpus(source: IO[str] | Iterable[str]) -> list[CorpusRecord]:
    """Parse tab-separated url/domain/text records; blank lines are skipped."""
    records: list[CorpusRecord] = []
    append = records.append
    make = CorpusRecord._make
    for lineno, line in enumerate(source, start=1):
        fields = line.rstrip("\n").removesuffix("\r").split("\t")
        if len(fields) != 3:
            if fields == [""]:  # a blank line
                continue
            raise CorpusFormatError(
                f"line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        if "\\" in line:  # a line without one has nothing to unescape
            try:
                fields = [unescape_field(f) for f in fields]
            except ValueError as exc:
                raise CorpusFormatError(f"line {lineno}: {exc}") from exc
        append(make(fields))
    return records


def load_corpus_file(path: str) -> list[CorpusRecord]:
    return read_text_input(path, load_corpus)


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
    `queries_issued` is read from the log: its charged entries, one per
    charge() however many calls the search made. `max_requests` of None
    means unlimited.
    """

    max_requests: int | None = None
    used_requests: int = 0
    log: list[QueryLogEntry] = field(default_factory=list)

    @property
    def queries_issued(self) -> int:
        return sum(not entry.cached for entry in self.log)

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
        # newline="\n": lines end at "\n" alone, and a "\r" stays in its line
        try:
            with open(self._path(query.cache_key), encoding="utf-8", newline="\n") as fh:
                depth = fh.readline().rstrip("\n").partition("\t")[2]
                if not depth.isdecimal() or int(depth) < k:
                    return None
                return load_corpus(fh)
        except (FileNotFoundError, ValueError):  # bad UTF-8, bad record, huge depth
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

    Each phrase is matched once: its answer, the corpus-ordered ids of the
    records holding it, is memoised by the phrase folded by
    `catalog.fold_text`. A query takes the records common to its phrases'
    answers, or every record when it quotes none: `"A" and` and `"A"` share
    one scan, and `"A" "B"` needs none after `"A"` and `"B"`. A phrase is
    tested only against the records holding every run of it (every record
    when it holds none), found in an inverted index from run to record,
    built on the first query in one pass that also folds each record's text
    and reads its runs by `catalog.text_runs`; a posting list may repeat a
    record, once per occurrence. The rarest run's list is copied into a set,
    and each longer one is met as a set kept for later phrases.
    `catalog.folded_phrase_test` checks each candidate with str.find:
    "Strauß" and "STRAUSS" match one phrase; "İris" and "ıris" miss "Iris".
    """

    def __init__(self, records: Iterable[CorpusRecord]) -> None:
        self.records = list(records)
        # folded phrase -> corpus-ordered ids of the records holding it
        self._answers: dict[str, list[int]] = {}
        self._postings: dict[str, list[int]] | None = None
        self._folded: list[str] = []
        # the posting lists that a phrase met beside a shorter one, as sets
        self._sets: dict[str, set[int]] = {}

    def _index(self) -> dict[str, list[int]]:
        if self._postings is None:
            postings: dict[str, list[int]] = {}
            for i, rec in enumerate(self.records):
                words = rec.text.casefold().split()
                self._folded.append(" ".join(words))  # fold_text(rec.text)
                for run in text_runs(words):
                    posting = postings.get(run)
                    if posting is None:
                        postings[run] = [i]
                    else:
                        posting.append(i)
            self._postings = postings
        return self._postings

    def _candidates(self, body: str) -> list[int]:
        """Corpus-ordered ids of the records holding every run of the
        folded phrase `body`; every record when it holds no run."""
        postings = self._index()
        # a token-bounded match of a folded phrase in a folded text implies
        # that every run of the phrase is a run of the text
        runs = text_runs(body.split())
        runs = sorted(set(runs), key=lambda run: len(postings.get(run, ())))
        if not runs:
            return list(range(len(self.records)))
        # walk the short side: a longer list is met as a set, built once per run
        hits = set(postings.get(runs[0], ()))
        for run in runs[1:]:
            if not hits:
                break
            held = self._sets.get(run)
            if held is None:
                held = self._sets[run] = set(postings[run])
            hits &= held
        return sorted(hits)

    def _answer(self, body: str) -> list[int]:
        """Corpus-ordered ids of the records holding the folded phrase `body`."""
        ids = self._answers.get(body)
        if ids is None:
            test, folded = folded_phrase_test(body), self._folded  # filled by _index
            ids = self._answers[body] = [i for i in self._candidates(body) if test(folded[i])]
        return ids

    def _matches(self, raw_query: str) -> list[int] | range:
        """Corpus-ordered ids of the records holding every quoted phrase."""
        bodies = map(fold_text, parse_query_terms(raw_query))
        answers = sorted(map(self._answer, bodies), key=len) or [range(len(self.records))]
        hits = answers[0]  # the shortest answer, met by each longer one as a set
        for held in map(set, answers[1:]):
            hits = [i for i in hits if i in held]
        return hits

    def fetch(self, raw_query: str, offset: int, count: int) -> list[CorpusRecord]:
        return [self.records[i] for i in self._matches(raw_query)[offset : offset + count]]


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
    together with the number of backend calls that succeeded, an empty last
    page among them (0 for a cache hit). Duplicate (url, text) results are
    dropped. A failed page is retried with doubling backoff, except a
    FatalTransportError, which is raised at once. The `ledger` (uncapped at
    first; each `engine.Run` installs its own) is charged one request per
    backend call, failed attempts included, also when the search ends in a
    TransportError; cache hits are free. The gateway never refuses a
    search: callers check the ledger between searches, so a search may
    overshoot the cap. Every search it is asked for is run; pooling several
    queries and answering a repeated one for no request are the run's
    (`engine.Run.search_pooled`, `Run.search`).
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

    def search(self, query: Query, k: int) -> tuple[list[CorpusRecord], int]:
        """Up to k snippets for `query`, in rank order, plus the backend
        calls that succeeded; see class docstring."""
        if k < 1:
            raise ValueError("k must be >= 1")
        validate_query_text(query.raw)
        if self.cache is not None:
            cached = self.cache.get(query, k)
            if cached is not None:
                cached = cached[:k]
                self.ledger.note_cached(query.raw, kind=query.kind, snippets=len(cached))
                return cached, 0
        collected: list[CorpusRecord] = []
        seen: set[tuple[str, str]] = set()
        result: list[CorpusRecord] = []
        calls = retries = 0
        try:
            for offset in range(0, requests_for(k) * PAGE_SIZE, PAGE_SIZE):
                for attempt in range(1, RETRIES + 1):
                    calls += 1
                    try:
                        page = self.backend.fetch(query.raw, offset, PAGE_SIZE)
                        break
                    except TransportError as exc:
                        retries += 1
                        if isinstance(exc, FatalTransportError) or attempt == RETRIES:
                            raise
                        self._sleep(RETRY_DELAY * 2 ** (attempt - 1))
                for rec in page:
                    key = (rec.url, rec.text)
                    if key in seen:
                        continue
                    seen.add(key)
                    if rec.domain != rec.domain.lower():
                        rec = CorpusRecord(rec.url, rec.domain.lower(), rec.text)
                    collected.append(rec)
                if len(page) < PAGE_SIZE or len(collected) >= k:
                    break
            result = collected[:k]
        finally:
            self.ledger.charge(
                query.raw, calls, kind=query.kind, retries=retries, snippets=len(result)
            )
        if self.cache is not None:
            self.cache.put(query, result, k)
        return result, calls - retries
