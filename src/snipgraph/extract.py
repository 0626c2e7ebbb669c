"""Pattern handling and edge extraction from snippet text.

Two entities are connected when a known pattern phrase fills the gap between
adjacent name occurrences. Gap comparison collapses whitespace runs and
ignores at most one space on either side, so punctuation patterns match with
or without surrounding spaces. Comparison is case-sensitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable

from .catalog import EntityCatalog, collapse_ws, find_entity_matches
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

    Whitespace runs collapse to single spaces, then at most one leading and
    one trailing space is dropped. The single-space pattern maps to the empty
    key, which is exactly what a whitespace-only gap reduces to.
    """
    s = collapse_ws(phrase)
    if s.startswith(" "):
        s = s[1:]
    if s.endswith(" "):
        s = s[:-1]
    return s


@dataclass(frozen=True)
class Pattern:
    """A connection phrase; `origin` records how it entered the pattern set."""

    phrase: str
    origin: str = "seed"

    @property
    def key(self) -> str:
        return pattern_key(self.phrase)


def dedupe_patterns(patterns: Iterable[Pattern]) -> list[Pattern]:
    """Drop patterns whose comparison key repeats; first occurrence wins."""
    seen: set[str] = set()
    out: list[Pattern] = []
    for pat in patterns:
        if pat.key not in seen:
            seen.add(pat.key)
            out.append(pat)
    return out


def _unescape_pattern(raw: str) -> str:
    if "\\" not in raw:
        return raw
    out: list[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        nxt = raw[i + 1] if i + 1 < len(raw) else ""
        if nxt == "s":
            out.append(SPACE_PATTERN)
            i += 2
        elif nxt == "\\":
            out.append("\\")
            i += 2
        else:
            out.append("\\")
            i += 1
    return "".join(out)


def _escape_pattern(phrase: str) -> str:
    body = phrase.replace("\\", "\\\\")
    lead = len(body) - len(body.lstrip(" "))
    trail = 0 if lead == len(body) else len(body) - len(body.rstrip(" "))
    core = body[lead : len(body) - trail] if trail else body[lead:]
    return SPACE_ESCAPE * lead + core + SPACE_ESCAPE * trail


def load_patterns(source: IO[str] | Iterable[str], origin: str = "seed") -> list[Pattern]:
    """Read one pattern per line; blank lines and `#` comments are skipped.

    The sequence `\\s` denotes a space, so a bare `\\s` line is the
    single-space pattern; doubled backslashes encode literal ones.
    Duplicate keys are dropped, first wins.
    """
    patterns: list[Pattern] = []
    for line in source:
        raw = line.rstrip("\r\n")
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        patterns.append(Pattern(_unescape_pattern(raw), origin))
    return dedupe_patterns(patterns)


def load_patterns_file(path: str, origin: str = "seed") -> list[Pattern]:
    with open(path, "r", encoding="utf-8") as fh:
        return load_patterns(fh, origin)


def save_patterns(patterns: Iterable[Pattern], fh: IO[str]) -> None:
    # leading/trailing spaces go out escaped so they survive editors
    for pat in patterns:
        fh.write(_escape_pattern(pat.phrase) + "\n")


def save_patterns_file(patterns: Iterable[Pattern], path: str) -> None:
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
    patterns: Iterable[Pattern],
    memo: dict | None = None,
) -> dict[tuple[str, str], int]:
    """Count pattern-connected entity pairs across a batch of snippets.

    Each time adjacent distinct catalog names are separated by a known
    pattern, the sorted pair of canonical names gains one co-occurrence;
    counts are summed over all snippets in the batch. Snippet texts are
    spotted through `memo`, the spotting memo of find_entity_matches, so a
    run that passes its own memo spots each distinct text once.
    """
    keys = {pat.key for pat in patterns}
    counts: dict[tuple[str, str], int] = {}
    for snippet in snippets:
        for name1, name2, gap in _adjacent_pairs(snippet.text, catalog, memo):
            if pattern_key(gap) not in keys:
                continue
            pair = (name1, name2) if name1 <= name2 else (name2, name1)
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def candidate_score(n: int, m: int, d: int) -> int:
    """Pattern quality: occurrences * distinct pairs * distinct domains squared."""
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
