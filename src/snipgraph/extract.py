"""Connection patterns and edge extraction from snippet text.

Two entities are connected when a known pattern phrase fills the gap between
adjacent name occurrences. Gap comparison collapses whitespace runs and
ignores at most one space on either side, so punctuation patterns match with
or without surrounding spaces. Comparison is case-sensitive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import IO, Iterable

from .catalog import EntityCatalog, find_entity_matches
from .search import CorpusRecord

# The single-space pattern: connects names separated by whitespace only.
SPACE_PATTERN = " "

# Escaped form of SPACE_PATTERN in pattern files.
SPACE_ESCAPE = r"\s"

DEFAULT_QUERY_PATTERNS: tuple[str, ...] = ("and",)

DEFAULT_MATCH_PATTERNS: tuple[str, ...] = (
    "and",
    "meets",
    SPACE_PATTERN,
    "&",
    ",",
    "speaks with",
    "und",
    "et",
    "y",
    "-",
)

MAX_PATTERN_CHARS = 60
MAX_PATTERN_TOKENS = 8


def pattern_key(phrase: str) -> str:
    """Canonical comparison form of a pattern phrase or entity gap.

    Whitespace runs collapse to single spaces and both ends are trimmed. The
    single-space pattern maps to the empty key, which is exactly what a
    whitespace-only gap reduces to.
    """
    return " ".join(phrase.split())


def dedupe_patterns(patterns: Iterable[str]) -> list[str]:
    """Drop phrases whose comparison key repeats; first occurrence wins."""
    first: dict[str, str] = {}
    for phrase in patterns:
        first.setdefault(pattern_key(phrase), phrase)
    return list(first.values())


def unescape_pattern(raw: str) -> str:
    """A pattern phrase from its form in a pattern file or a `--pattern`:
    `\\s` is a space and `\\\\` a backslash; any other backslash is literal."""
    return re.sub(r"\\([\\s])", lambda m: SPACE_PATTERN if m[1] == "s" else "\\", raw)


def _escape_pattern(phrase: str) -> str:
    body = phrase.replace("\\", "\\\\")
    # \Z, as $ also matches before a final newline
    return re.sub(r"\A +| +\Z", lambda m: SPACE_ESCAPE * len(m[0]), body)


def load_patterns(source: IO[str] | Iterable[str]) -> list[str]:
    """Read one pattern per line; blank lines and `#` comments are skipped.

    The sequence `\\s` denotes a space, so a bare `\\s` line is the
    single-space pattern; doubled backslashes encode literal ones.
    Duplicate keys are dropped, first wins.
    """
    patterns: list[str] = []
    for line in source:
        raw = line.rstrip("\r\n")
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        patterns.append(unescape_pattern(raw))
    return dedupe_patterns(patterns)


def save_patterns(patterns: Iterable[str], fh: IO[str]) -> None:
    # leading/trailing spaces go out escaped so they survive editors; a line
    # load_patterns would skip (blank, `#`) gains a `\s` that the key drops
    for phrase in patterns:
        line = _escape_pattern(phrase)
        if not line.strip() or line.lstrip().startswith("#"):
            line = SPACE_ESCAPE + line
        fh.write(line + "\n")


def save_patterns_file(patterns: Iterable[str], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        save_patterns(patterns, fh)


def _adjacent_pairs(text: str, catalog: EntityCatalog, memo: dict | None):
    """Yield (name_a, name_b, gap_text) for consecutive distinct matches."""
    matches = find_entity_matches(text, catalog, memo)
    for (name1, _s1, e1), (name2, s2, _e2) in zip(matches, matches[1:]):
        if name1 == name2:
            continue
        yield name1, name2, text[e1:s2]


def extract_edges(
    snippets: Iterable[CorpusRecord],
    catalog: EntityCatalog,
    patterns: Iterable[str],
    memo: dict | None = None,
) -> dict[tuple[str, str], int]:
    """Count pattern-connected entity pairs across a batch of snippets.

    Each time adjacent distinct catalog names are separated by a known
    pattern, the sorted pair of canonical names gains one co-occurrence;
    counts are summed over all snippets in the batch. Snippet texts are
    spotted through `memo`, the spotting memo of find_entity_matches, so a
    run that passes its own memo spots each distinct text once.
    """
    keys = {pattern_key(phrase) for phrase in patterns}
    counts: dict[tuple[str, str], int] = {}
    for snippet in snippets:
        for name1, name2, gap in _adjacent_pairs(snippet.text, catalog, memo):
            if pattern_key(gap) not in keys:
                continue
            pair = (name1, name2) if name1 <= name2 else (name2, name1)
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def candidate_score(n: int, m: int, d: int) -> int:
    """Candidate quality: occurrences * distinct pairs * distinct domains squared."""
    return n * m * d * d


@dataclass(frozen=True)
class PatternCandidate:
    """A candidate connection phrase with its aggregated evidence counts."""

    phrase: str
    n: int
    m: int
    d: int

    @property
    def score(self) -> int:
        return candidate_score(self.n, self.m, self.d)


def extract_pattern_candidates(
    snippets: Iterable[CorpusRecord],
    catalog: EntityCatalog,
    memo: dict | None = None,
) -> list[PatternCandidate]:
    """Collect phrases seen between adjacent distinct entities.

    Per candidate: n counts occurrences, m distinct entity pairs, d distinct
    domains. Phrases over the length caps, and phrases that themselves
    contain a catalog name (a skipped-over entity, not a connector), are
    discarded. Sorted by descending score, then phrase. Snippet texts and
    phrases alike are spotted through `memo`, the spotting memo of
    find_entity_matches, so with a memo each distinct one is spotted once.
    """
    counts: dict[str, int] = {}
    pairs: dict[str, set[tuple[str, str]]] = {}
    domains: dict[str, set[str]] = {}
    for snippet in snippets:
        for name1, name2, gap in _adjacent_pairs(snippet.text, catalog, memo):
            phrase = pattern_key(gap) or SPACE_PATTERN
            if len(phrase) > MAX_PATTERN_CHARS or len(phrase.split()) > MAX_PATTERN_TOKENS:
                continue
            if find_entity_matches(phrase, catalog, memo):
                continue
            pair = (name1, name2) if name1 <= name2 else (name2, name1)
            counts[phrase] = counts.get(phrase, 0) + 1
            pairs.setdefault(phrase, set()).add(pair)
            domains.setdefault(phrase, set()).add(snippet.domain)
    out = [
        PatternCandidate(phrase, counts[phrase], len(pairs[phrase]), len(domains[phrase]))
        for phrase in counts
    ]
    out.sort(key=lambda c: (-c.score, c.phrase))
    return out
