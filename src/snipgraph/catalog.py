"""Person-name catalog: loading, normalization, and in-text entity spotting.

A catalog is a dictionary of canonical person names. Matching inside snippet
text compares casefolded text (so "Strauß" and "STRAUSS" are one name), is
tolerant of collapsed whitespace, longest-match-wins, and token-bounded (a
name never matches inside a longer word). Names, phrases and texts share the
one fold that keys the catalog, `str.casefold`.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from itertools import accumulate
from typing import IO, Callable, Iterable

from .graph import check_name, read_text_input


class CatalogLoadError(ValueError):
    """Catalog input could not be decoded or read."""


# A run of letters and digits, the one token. The group makes `split` keep
# the runs between separators. On ASCII text both classes are [A-Za-z0-9],
# and the ASCII one is cheaper.
_RUN = re.compile(r"([^\W_]+)")
_ASCII_RUN = re.compile(r"([^\W_]+)", re.ASCII)


def _run_pattern(text: str) -> re.Pattern[str]:
    return _ASCII_RUN if text.isascii() else _RUN


# True when a text is one whole run. `[^\W_]` matches exactly the `isalnum`
# characters, `\s` exactly the `isspace` ones, and none is both (a test
# checks every code point), so a whitespace word that passes is one run. An
# alias, not a function, as it runs on each word of punctuated text.
_one_run = str.isalnum


def text_runs(words: list[str]) -> list[str]:
    """The runs of a folded text, given its `split()`, in order: `words`
    itself when every word is one run, else each word that is one run and
    the runs that the run pattern reads in each other word. Runs never span
    whitespace, so word by word gives the runs of the whole text."""
    if _one_run("".join(words)):
        return words
    runs: list[str] = []
    for word in words:
        if _one_run(word):
            runs.append(word)
        else:
            runs += _run_pattern(word).findall(word)
    return runs


def normalize_name(raw: str) -> str:
    """Canonical lookup form: NFC, casefold, whitespace runs collapsed, trimmed."""
    s = unicodedata.normalize("NFC", raw).casefold()
    return " ".join(s.split())


def fold_text(text: str) -> str:
    """`text` casefolded, every whitespace run one space, ends trimmed.

    This is the form in which every text is compared with a phrase, by
    `folded_phrase_test` in replay. It keeps the runs of
    `text.casefold()`; casefold never turns whitespace into anything else or
    anything else into whitespace. Folding a folded text changes nothing, as
    casefold is idempotent on every code point, so none is folded twice.
    """
    return " ".join(text.casefold().split())


def folded_phrase_test(phrase: str) -> Callable[[str], bool]:
    """A token-bounded test for `phrase` in a text folded by `fold_text`.

    For a non-blank phrase, the returned test of `fold_text(text)` is true
    exactly when `phrase_regex(fold_text(phrase))` of `tests/oracles.py`, the
    spec of replay, finds a match in it. The phrase is folded once, then
    looked for with str.find; an occurrence counts when the character beside
    it is not a letter or digit, on each side where the folded phrase's edge
    is one, so punctuation phrases like "&" may sit flush against a word.
    `\\s+` is one space, since split() and re's `\\s` agree on whitespace.
    The guards come from the folded phrase, because casefold can change
    whether an edge is a letter: "\\u0345" folds to "ι".
    """
    body = fold_text(phrase)
    left, right = body[0].isalnum(), body[-1].isalnum()
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
    """How to find each catalog name in a casefolded text.

    A name whose first and last whitespace tokens each hold a run (the
    token of `text_runs`) is a fixed sequence of runs. It is filed under
    that run tuple with its lead (the text before the first run, as "-" in
    "-Bo"), its body (from the first run to the last, separators included)
    and its trail (the text after the last run, as "." in "Jr."). One
    tuple can file several names ("Bo Quist", "Bo-Quist"). `heads` maps the
    first run of every filed tuple to the run counts of the tuples that
    start with it, smallest first, so a text is looked up only where a
    name's first word occurs. Every other name, one whose first or last
    token holds no run ("& Bo"), is always searched with its own pattern.
    """

    def __init__(self, keys: Iterable[str]) -> None:
        self.rank = {key: _name_rank(key) for key in keys}
        self.by_runs: dict[tuple[str, ...], list[tuple[str, str, str, str]]] = {}
        self.always: list[tuple[str, re.Pattern[str]]] = []
        for key in self.rank:
            parts = _RUN.split(key)
            if len(parts) == 1 or " " in parts[0] + parts[-1]:
                self.always.append((key, re.compile(_name_pattern(key))))
                continue
            lead, trail = parts[0], parts[-1]
            entry = (key, lead, key[len(lead) : len(key) - len(trail)], trail)
            self.by_runs.setdefault(tuple(parts[1::2]), []).append(entry)
        counts: dict[str, set[int]] = {}
        for runs in self.by_runs:
            counts.setdefault(runs[0], set()).add(len(runs))
        self.heads = {head: sorted(ns) for head, ns in counts.items()}


@dataclass
class EntityCatalog:
    """Immutable-after-load name dictionary.

    `normalized_index` maps each normalized form to its canonical spelling
    (first occurrence wins on duplicates).
    """

    normalized_index: dict[str, str] = field(default_factory=dict)
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
        self._plan = None
        return True

    def _name_plan(self) -> _NamePlan:
        """Run-tuple lookup and per-name matchers, built on first use."""
        if self._plan is None:
            self._plan = _NamePlan(self.normalized_index)
        return self._plan


def load_catalog(source: IO[str] | Iterable[str]) -> EntityCatalog:
    """Load one name per line; blanks and normalized duplicates are skipped.

    A name that `graph.check_name` refuses raises CatalogLoadError naming
    the line.
    """
    catalog = EntityCatalog()
    for lineno, line in enumerate(source, start=1):
        try:
            catalog.add(check_name(line.strip()))
        except ValueError as exc:
            raise CatalogLoadError(f"line {lineno}: {exc}") from exc
    return catalog


def load_catalog_file(path: str) -> EntityCatalog:
    """`load_catalog` of a file; undecodable input raises CatalogLoadError
    naming the bad byte's offset from the file's first byte."""
    try:
        return read_text_input(path, load_catalog)
    except UnicodeDecodeError as exc:
        raise CatalogLoadError(
            f"invalid UTF-8 in catalog input at byte {exc.start}"
        ) from exc


def find_entity_matches(
    text: str,
    catalog: EntityCatalog,
    memo: dict[str, list[tuple[str, int, int]]] | None = None,
) -> list[tuple[str, int, int]]:
    """Non-overlapping catalog matches as (canonical_name, char_start, char_end).

    Longest match wins at each position, scanning left to right, and
    matches are token-bounded (characters adjacent to a match are never
    letters or digits). Text and names are compared casefolded, so "Strauß"
    and "STRAUSS" match the key "strauss"; "İris" and "ıris" do not match
    "Iris", because they fold to "i̇ris" (with a combining dot) and "ıris".

    `catalog_matcher(catalog)` of `tests/oracles.py`, one alternation over
    every key searched in `text.casefold()`, is the spec; this replays it.
    A name whose first and last tokens each hold a run (as `text_runs`
    reads them) is found by looking up, at each run of the folded text that
    is some name's first run, the n runs from there among the names of n
    runs that start with it. When every whitespace word is one run and one
    whitespace character parts each word from the next, the words are the
    runs, and the n words from there joined by spaces must be the name's
    key: a lead or trail is punctuation and cannot match beside whitespace.
    Any other text is split into runs and separators; the folded text from
    the first of the n runs to the last, whitespace collapsed, must then
    equal the name's body, and the text around them must hold its lead and
    trail. Other names (with a first or last token that holds no
    run) are searched each with its own pattern at every start. The
    alternation's choice is then replayed: leftmost start first, then more
    tokens, more characters, smaller key. The plan behind it is built on
    the first text. When casefold changes the text's length ("ß" to "ss"),
    spans are mapped back to the characters of `text` whose folds they
    cover.

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
    index = catalog.normalized_index
    if not index:
        return []
    out = [
        (index[key], start, end)
        for key, start, end in _replay_alternation(text, catalog._name_plan())
    ]
    if memo is not None:
        memo[text] = out
    return out


def _replay_alternation(text: str, plan: _NamePlan) -> list[tuple[str, int, int]]:
    # best (rank, end) of every start where some name matches; rank[2] is the key
    best: dict[int, tuple[tuple[int, int, str], int]] = {}

    def offer(key: str, start: int, end: int) -> None:
        rank, held = plan.rank[key], best.get(start)
        if held is None or rank < held[0]:
            best[start] = (rank, end)

    low = text.casefold()
    words = low.split()
    # Clean text, letters and digits with one whitespace character between
    # words: the words are the runs, and a filed name matches at word i
    # exactly when its key is the words from there joined by spaces, since
    # a lead or trail is punctuation and the separators are whitespace.
    clean = _one_run("".join(words)) and len(" ".join(words)) == len(low)
    if not clean:
        # separator, run, separator, ..., run, separator: run j is parts[2j + 1]
        parts = _run_pattern(low).split(low)
        words = parts[1::2]
    # computed at the first match: in clean text, the length of the words
    # before each word, so word j starts at offsets[j] + j; else where each
    # part starts
    offsets: list[int] = []
    for i, head in enumerate(words):
        for n in plan.heads.get(head, ()):
            if i + n > len(words):
                break
            if clean:
                key = " ".join(words[i : i + n])
                if key in plan.rank:
                    if not offsets:
                        offsets = [0, *accumulate(map(len, words))]
                    offer(key, offsets[i] + i, offsets[i + n] + i + n - 1)
                continue
            filed = plan.by_runs.get(tuple(words[i : i + n]))
            if filed is None:
                continue
            found = " ".join("".join(parts[2 * i + 1 : 2 * (i + n)]).split())
            # lead and trail reach no letter or digit beyond them
            before, after = parts[2 * i], parts[2 * (i + n)]
            for key, lead, body, trail in filed:
                if body != found:
                    continue
                if lead:
                    if not before.endswith(lead) or (i and len(before) == len(lead)):
                        continue
                if trail:
                    more = i + n < len(words)
                    if not after.startswith(trail) or (more and len(after) == len(trail)):
                        continue
                if not offsets:
                    offsets = [0, *accumulate(map(len, parts))]
                start, end = offsets[2 * i + 1], offsets[2 * (i + n)]
                offer(key, start - len(lead), end + len(trail))
    for key, rx in plan.always:
        m = rx.search(low)
        while m is not None:
            offer(key, m.start(), m.end())
            m = rx.search(low, m.start() + 1)
    spans = []
    pos = 0
    for start in sorted(best):
        if start >= pos:
            rank, pos = best[start]
            spans.append((rank[2], start, pos))
    if len(low) != len(text):
        # the index in `text` of each character of `low`
        at = [i for i, ch in enumerate(text) for _ in ch.casefold()]
        spans = [(key, at[start], at[end - 1] + 1) for key, start, end in spans]
    return spans
