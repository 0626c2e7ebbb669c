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
from typing import IO, Callable, Iterable


class CatalogLoadError(ValueError):
    """Catalog input could not be decoded or read."""


_ALNUM_RUN = re.compile(r"[^\W_]+")


def normalize_name(raw: str) -> str:
    """Canonical lookup form: NFC, casefold, whitespace runs collapsed, trimmed."""
    s = unicodedata.normalize("NFC", raw).casefold()
    return " ".join(s.split())


def alnum_runs(text: str) -> set[str]:
    """Distinct maximal letter-and-digit runs of `text`, lowercased.

    When both the text and a phrase are ASCII, a token-bounded
    case-insensitive match of the phrase implies that every run of the phrase
    is also a run of the text, so these sets can rule texts out before the
    phrase itself is looked for. Non-ASCII text gives no such guarantee:
    re.IGNORECASE folds "İ", "ı", "ſ" and the Kelvin sign onto ASCII letters
    one character at a time.
    """
    return set(_ALNUM_RUN.findall(text.lower()))


def fold_text(text: str) -> str:
    """`text` lowercased, every whitespace run one space, ends trimmed.

    This is the form in which ASCII text is compared with a phrase, by
    `folded_phrase_test` in replay and by the run lookup in spotting. It
    keeps the alnum runs of `text`.
    """
    return " ".join(text.lower().split())


@lru_cache(maxsize=4096)
def phrase_regex(phrase: str) -> re.Pattern[str]:
    """Compile a token-bounded, case-insensitive matcher for a phrase.

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
    return re.compile(body, re.IGNORECASE)


def folded_phrase_test(phrase: str) -> Callable[[str], bool]:
    """`phrase_regex(phrase).search` without a regex, for ASCII text.

    For a non-blank ASCII phrase and an ASCII text, the returned test of
    `fold_text(text)` is true exactly when `phrase_regex(phrase)` finds a
    match in `text`. The phrase is folded once, then looked for with
    str.find; an occurrence counts when the character beside it is not a
    letter or digit, on each side where the stripped phrase's edge is one.
    On ASCII, re.IGNORECASE is lower(). `\\s+` is one space, since split()
    and re's `\\s` agree on whitespace. Folding keeps whether the character
    beside a match is a letter or digit. Non-ASCII text needs the regex:
    re.IGNORECASE folds "İ", "ı", "ſ" and the Kelvin sign onto ASCII
    letters, which lower() does not.
    """
    body = fold_text(phrase)
    edges = phrase.strip()
    left, right = edges[0].isalnum(), edges[-1].isalnum()
    size = len(body)

    def test(folded: str) -> bool:
        at = folded.find(body)
        while at >= 0:
            end = at + size
            if not (left and at and folded[at - 1].isalnum()) and not (
                right and end < len(folded) and folded[end].isalnum()
            ):
                return True
            at = folded.find(body, at + 1)
        return False

    return test


def _name_rank(key: str) -> tuple[int, int, str]:
    # alternation order: more tokens first, then more characters, then key
    return (-len(key.split()), -len(key), key)


def _name_pattern(key: str) -> str:
    body = r"\s+".join(re.escape(tok) for tok in key.split())
    return r"(?<![^\W_])" + body + r"(?![^\W_])"


class _NamePlan:
    """How to find each catalog name in an ASCII text.

    An ASCII name whose first and last whitespace tokens each hold an alnum
    run is a fixed sequence of runs. It is filed under that run tuple with
    its lead (the text before the first run, as "-" in "-Bo"), its body
    (from the first run to the last, separators included) and its trail
    (the text after the last run, as "." in "Jr."). One tuple can file
    several names ("Bo Quist", "Bo-Quist"). Every other name, one that is
    not ASCII or whose first or last token holds no run ("& Bo"), is always
    searched with its own pattern.
    """

    def __init__(self, keys: Iterable[str]) -> None:
        self.rank = {key: _name_rank(key) for key in keys}
        self.by_runs: dict[tuple[str, ...], list[tuple[str, str, str, str]]] = {}
        self.always: list[tuple[str, re.Pattern[str]]] = []
        for key in self.rank:
            parts = re.split(r"([^\W_]+)", key)
            if not key.isascii() or len(parts) == 1 or " " in parts[0] + parts[-1]:
                self.always.append((key, re.compile(_name_pattern(key), re.IGNORECASE)))
                continue
            lead, trail = parts[0], parts[-1]
            entry = (key, lead, key[len(lead) : len(key) - len(trail)], trail)
            self.by_runs.setdefault(tuple(parts[1::2]), []).append(entry)
        self.lengths = {len(runs) for runs in self.by_runs}


@dataclass
class EntityCatalog:
    """Immutable-after-load name dictionary.

    `normalized_index` maps each normalized form to its canonical spelling
    (first occurrence wins on duplicates).
    """

    normalized_index: dict[str, str] = field(default_factory=dict)
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
        """Run-tuple lookup and per-name matchers for ASCII text, built on first use."""
        if self._plan is None:
            self._plan = _NamePlan(self.normalized_index)
        return self._plan


def load_catalog(source: IO[str] | Iterable[str]) -> EntityCatalog:
    """Load one name per line; blanks and normalized duplicates are skipped.

    Undecodable input raises CatalogLoadError naming the byte offset.
    """
    catalog = EntityCatalog()
    try:
        for line in source:
            catalog.add(line)
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
    ASCII text takes a faster route with the same result. An ASCII name whose
    first and last tokens each hold an alnum run is found by looking up each
    n consecutive lowercased alnum runs of the text among the names of n
    runs. The text from the first of those runs to the last, whitespace
    collapsed, must then equal the name's body, and the text around them
    must hold its lead and trail. Other names (not ASCII, or with a
    first or last token that holds no run) are searched each with its own
    pattern at every start. The alternation's choice is then replayed:
    leftmost start first, then more tokens, more characters, smaller key.
    The plan behind it is built on the first ASCII text. Text that is not
    ASCII stays on the alternation, because re.IGNORECASE folds "İ", "ı", "ſ"
    and the Kelvin sign onto ASCII letters one character at a time, which no
    lower() or casefold() run set reproduces.

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

    low = text.lower()
    runs = list(_ALNUM_RUN.finditer(low))
    words = [run.group() for run in runs]
    for n in plan.lengths:
        for i, tokens in enumerate(zip(*(words[k:] for k in range(n)))):
            filed = plan.by_runs.get(tokens)
            if filed is None:
                continue
            start, end = runs[i].start(), runs[i + n - 1].end()
            found = fold_text(text[start:end])
            for key, lead, body, trail in filed:
                if body != found:
                    continue
                # lead and trail reach no letter or digit beyond them
                if lead:
                    before = text[runs[i - 1].end() if i else 0 : start]
                    if not before.endswith(lead) or (i and len(before) == len(lead)):
                        continue
                if trail:
                    more = i + n < len(runs)
                    after = text[end : runs[i + n].start() if more else len(text)]
                    if not after.startswith(trail) or (more and len(after) == len(trail)):
                        continue
                offer(key, start - len(lead), end + len(trail))
    for key, rx in plan.always:
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
