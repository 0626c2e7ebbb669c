"""Person-name catalog: loading, normalization, and in-text entity spotting.

A catalog is a dictionary of canonical person names. Matching inside snippet
text is case-insensitive, tolerant of collapsed whitespace, longest-match-wins,
and token-bounded (a name never matches inside a longer word).
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from functools import lru_cache
from typing import IO, Iterable


class CatalogLoadError(ValueError):
    """Catalog input could not be decoded or read."""


_WS_RUN = re.compile(r"\s+")
_ALNUM_RUN = re.compile(r"[^\W_]+")


def normalize_name(raw: str) -> str:
    """Canonical lookup form: NFC, casefold, whitespace runs collapsed, trimmed."""
    s = unicodedata.normalize("NFC", raw).casefold()
    return " ".join(s.split())


def collapse_ws(text: str) -> str:
    """Collapse every whitespace run (incl. newlines) to a single space."""
    return _WS_RUN.sub(" ", text)


def alnum_runs(text: str) -> set[str]:
    """Distinct maximal letter-and-digit runs of `text`, lowercased.

    When both the text and a phrase are ASCII, a token-bounded
    case-insensitive match of the phrase implies that every run of the phrase
    is also a run of the text, so these sets can rule texts out before any
    regex runs. Non-ASCII text gives no such guarantee: re.IGNORECASE folds
    "İ", "ı", "ſ" and the Kelvin sign onto ASCII letters one character at a
    time.
    """
    return set(_ALNUM_RUN.findall(text.lower()))


@lru_cache(maxsize=4096)
def phrase_regex(phrase: str, ignore_case: bool = True) -> re.Pattern[str]:
    """Compile a token-bounded matcher for a phrase.

    Internal spaces match any whitespace run. Boundary guards ([^\\W_] = letters
    and digits) are applied only where the phrase edge is itself alphanumeric,
    so punctuation phrases like "&" may sit flush against a word. The edges
    are those of the stripped phrase: " and " is guarded like "and".
    """
    parts = phrase.split()
    body = r"\s+".join(re.escape(p) for p in parts) if parts else re.escape(phrase)
    edges = phrase.strip()
    if edges and edges[0].isalnum():
        body = r"(?<![^\W_])" + body
    if edges and edges[-1].isalnum():
        body = body + r"(?![^\W_])"
    flags = re.IGNORECASE if ignore_case else 0
    return re.compile(body, flags)


def _name_rank(key: str) -> tuple[int, int, str]:
    # alternation order: more tokens first, then more characters, then key
    return (-len(key.split()), -len(key), key)


def _name_pattern(key: str) -> str:
    body = r"\s+".join(re.escape(tok) for tok in key.split())
    return r"(?<![^\W_])" + body + r"(?![^\W_])"


class _NamePlan:
    """How to find each catalog name in an ASCII text.

    A plain name, ASCII with every whitespace token a single alnum run, is
    filed under its token tuple: it matches exactly where that many
    consecutive alnum runs of the text spell its tokens with only
    whitespace between them. Every other ASCII name with an alnum run is
    filed under its run shared by the fewest such names and searched with
    its own pattern, only in texts that hold all its runs, so that names
    like "O'Brien" or "Jr." cost time only in texts that can hold them.
    Names that are not ASCII or have no run are always searched with their
    own pattern.
    """

    def __init__(self, keys: Iterable[str]) -> None:
        self.rank = {key: _name_rank(key) for key in keys}
        self.plain: dict[tuple[str, ...], str] = {}
        self.runs: dict[str, set[str]] = {}
        self.always: list[str] = []
        names_per_run: dict[str, int] = {}
        for key in self.rank:
            tokens = tuple(key.split())
            if key.isascii() and all(tok.isalnum() for tok in tokens):
                self.plain[tokens] = key
                continue
            runs = alnum_runs(key) if key.isascii() else set()
            if not runs:
                self.always.append(key)
                continue
            self.runs[key] = runs
            for run in runs:
                names_per_run[run] = names_per_run.get(run, 0) + 1
        self.lengths = {len(tokens) for tokens in self.plain}
        self.filed: dict[str, list[str]] = {}
        for key, runs in self.runs.items():
            anchor = min(runs, key=lambda run: (names_per_run[run], run))
            self.filed.setdefault(anchor, []).append(key)
        self._patterns: dict[str, re.Pattern[str]] = {}

    def candidates(self, words: list[str]) -> list[str]:
        keys = list(self.always)
        if self.filed:
            text_runs = set(words)
            for run in text_runs:
                for key in self.filed.get(run, ()):
                    if self.runs[key] <= text_runs:
                        keys.append(key)
        return keys

    def pattern(self, key: str) -> re.Pattern[str]:
        rx = self._patterns.get(key)
        if rx is None:
            rx = self._patterns[key] = re.compile(_name_pattern(key), re.IGNORECASE)
        return rx


@dataclass
class EntityCatalog:
    """Immutable-after-load name dictionary.

    `normalized_index` maps each normalized form to its canonical spelling
    (first occurrence wins on duplicates).
    """

    normalized_index: dict[str, str] = field(default_factory=dict)
    loaded: int = 0
    skipped: int = 0
    _matcher: re.Pattern[str] | None = field(default=None, repr=False, compare=False)
    _plan: _NamePlan | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.normalized_index)

    def __contains__(self, name: str) -> bool:
        return normalize_name(name) in self.normalized_index

    def canonical(self, name: str) -> str | None:
        """Canonical spelling for any variant of a catalog name, else None."""
        return self.normalized_index.get(normalize_name(name))

    def add(self, raw: str) -> bool:
        """Add one name; returns False for blank or already-present entries."""
        canonical = raw.strip()
        key = normalize_name(canonical)
        if not key or key in self.normalized_index:
            return False
        self.normalized_index[key] = canonical
        self._matcher = None
        self._plan = None
        return True

    def matcher(self) -> re.Pattern[str] | None:
        """Compiled alternation over all names, longest (tokens, chars) first."""
        if self._matcher is None and self.normalized_index:
            keys = sorted(self.normalized_index, key=_name_rank)
            alts = [_name_pattern(key) for key in keys]
            self._matcher = re.compile("|".join(alts), re.IGNORECASE)
        return self._matcher

    def _name_plan(self) -> _NamePlan:
        """Prefilter and per-name matchers for ASCII text, built on first use."""
        if self._plan is None:
            self._plan = _NamePlan(self.normalized_index)
        return self._plan


def load_catalog(source: IO[str] | Iterable[str]) -> EntityCatalog:
    """Load one name per line; blanks and normalized duplicates are skipped.

    The counts of loaded and skipped lines are reported on the returned
    catalog. Undecodable input raises CatalogLoadError naming the byte offset.
    """
    catalog = EntityCatalog()
    try:
        for line in source:
            if catalog.add(line):
                catalog.loaded += 1
            else:
                catalog.skipped += 1
    except UnicodeDecodeError as exc:
        raise CatalogLoadError(
            f"invalid UTF-8 in catalog input at byte {exc.start}"
        ) from exc
    return catalog


def load_catalog_file(path: str) -> EntityCatalog:
    with open(path, "r", encoding="utf-8", newline=None) as fh:
        return load_catalog(fh)


def find_entity_matches(
    text: str,
    catalog: EntityCatalog,
    memo: dict[str, list[tuple[str, int, int]]] | None = None,
) -> list[tuple[str, int, int]]:
    """Non-overlapping catalog matches as (canonical_name, char_start, char_end).

    Longest match wins at each position, scanning left to right, and
    matches are token-bounded (characters adjacent to a match are never
    letters or digits).

    `catalog.matcher()`, one alternation over every name, defines the result.
    ASCII text takes a faster route with the same result. Plain names (ASCII,
    every token one alnum run) are found by looking up each run of n
    consecutive lowercased alnum runs of the text, joined only by
    whitespace, among the plain names of n tokens. Other names are searched
    each with its own pattern at every start, and only when their alnum runs
    all occur in the text (names that are not ASCII or have no run are
    always searched). The alternation's choice is then replayed: leftmost
    start first, then more tokens, more characters, smaller key. The plan
    behind it is built on the first ASCII text. Text that is not ASCII stays
    on the alternation, because re.IGNORECASE folds "İ", "ı", "ſ" and the
    Kelvin sign onto ASCII letters one character at a time, which no lower()
    or casefold() run set reproduces.

    `memo`, when given, maps texts already spotted to their result: a text
    found there is answered from it, and any other text's result is stored
    in it. It is valid only while the catalog is unchanged, so callers keep
    one per run. The list returned from or stored in a memo is shared by
    every later caller with that text and must not be mutated.
    """
    if memo is not None:
        hit = memo.get(text)
        if hit is not None:
            return hit
    if not catalog.normalized_index:
        return []
    if text.isascii():
        spans = _replay_alternation(text, catalog._name_plan())
    else:
        spans = [m.span() for m in catalog.matcher().finditer(text)]
    out = []
    for start, end in spans:
        canonical = catalog.normalized_index.get(normalize_name(text[start:end]))
        if canonical is not None:
            out.append((canonical, start, end))
    if memo is not None:
        memo[text] = out
    return out


def _replay_alternation(text: str, plan: _NamePlan) -> list[tuple[int, int]]:
    # best (rank, end) of every start where some name matches
    best: dict[int, tuple[tuple[int, int, str], int]] = {}

    def offer(key: str, start: int, end: int) -> None:
        rank, held = plan.rank[key], best.get(start)
        if held is None or rank < held[0]:
            best[start] = (rank, end)

    runs = list(_ALNUM_RUN.finditer(text.lower()))
    words = [run.group() for run in runs]
    for n in plan.lengths:
        for i, tokens in enumerate(zip(*(words[k:] for k in range(n)))):
            key = plan.plain.get(tokens)
            if key is not None and all(
                text[runs[k].end() : runs[k + 1].start()].isspace() for k in range(i, i + n - 1)
            ):
                offer(key, runs[i].start(), runs[i + n - 1].end())
    for key in plan.candidates(words):
        rx = plan.pattern(key)
        m = rx.search(text)
        while m is not None:
            offer(key, m.start(), m.end())
            m = rx.search(text, m.start() + 1)
    spans = []
    pos = 0
    for start in sorted(best):
        if start >= pos:
            pos = best[start][1]
            spans.append((start, pos))
    return spans
