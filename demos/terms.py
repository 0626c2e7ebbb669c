"""Term statistics for demo 04: which stemmed terms tell relation
categories apart.

Porter's suffix-stripping stemmer (the classic 1980 five-step version) is
implemented here because no stemming package is available on the index this
project builds against. Words of length 1 or 2 are returned unchanged; input
is casefolded first. Phrases are stemmed into a term/category count table,
and each cell is ranked by pointwise mutual information within its category.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a vowel exactly when it follows a consonant
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences: [C](VC)^m[V]."""
    m = 0
    i = 0
    n = len(stem)
    while i < n and _is_consonant(stem, i):
        i += 1
    while i < n:
        while i < n and not _is_consonant(stem, i):
            i += 1
        if i >= n:
            break
        m += 1
        while i < n and _is_consonant(stem, i):
            i += 1
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant, where the final consonant is not w, x or y
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


_Rules = list[tuple[str, str]]

_STEP2: _Rules = [
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
]

_STEP3: _Rules = [
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
]

_STEP4: _Rules = [
    ("al", ""),
    ("ance", ""),
    ("ence", ""),
    ("er", ""),
    ("ic", ""),
    ("able", ""),
    ("ible", ""),
    ("ant", ""),
    ("ement", ""),
    ("ment", ""),
    ("ent", ""),
    ("ion", ""),
    ("ou", ""),
    ("ism", ""),
    ("ate", ""),
    ("iti", ""),
    ("ous", ""),
    ("ive", ""),
    ("ize", ""),
]


def _longest_rule(word: str, rules: _Rules) -> tuple[str, str] | None:
    best: tuple[str, str] | None = None
    for suffix, repl in rules:
        if word.endswith(suffix) and (best is None or len(suffix) > len(best[0])):
            best = (suffix, repl)
    return best


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b_cleanup(word: str) -> str:
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        return _step1b_cleanup(word[:-2])
    if word.endswith("ing") and _contains_vowel(word[:-3]):
        return _step1b_cleanup(word[:-3])
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step23(word: str, rules: _Rules) -> str:
    rule = _longest_rule(word, rules)
    if rule is None:
        return word
    suffix, repl = rule
    stem = word[: -len(suffix)]
    if _measure(stem) > 0:
        return stem + repl
    return word


def _step4(word: str) -> str:
    rule = _longest_rule(word, _STEP4)
    if rule is None:
        return word
    suffix, _ = rule
    stem = word[: -len(suffix)]
    if _measure(stem) <= 1:
        return word
    if suffix == "ion" and not stem.endswith(("s", "t")):
        return word
    return stem


def _step5a(word: str) -> str:
    if not word.endswith("e"):
        return word
    stem = word[:-1]
    m = _measure(stem)
    if m > 1 or (m == 1 and not _ends_cvc(stem)):
        return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        return word[:-1]
    return word


def porter_stem(word: str) -> str:
    """Stem one word; e.g. relations -> relat, married -> marri."""
    w = word.casefold()
    if len(w) <= 2:
        return w
    w = _step1a(w)
    w = _step1b(w)
    w = _step1c(w)
    w = _step23(w, _STEP2)
    w = _step23(w, _STEP3)
    w = _step4(w)
    w = _step5a(w)
    w = _step5b(w)
    return w


# --- term/category mutual information -------------------------------------

_WORD = re.compile(r"[^\W\d_]+")


def tokenize_terms(phrase: str) -> list[str]:
    """Stemmed alphabetic tokens of a pattern phrase."""
    return [porter_stem(tok) for tok in _WORD.findall(phrase)]


@dataclass
class TermCategoryTable:
    """Co-occurrence counts between stemmed terms and categories."""

    counts: dict[tuple[str, str], int] = field(default_factory=dict)
    categories: list[str] = field(default_factory=list)

    def add(self, term: str, category: str, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be >= 0")
        if category not in self.categories:
            self.categories.append(category)
        key = (term, category)
        self.counts[key] = self.counts.get(key, 0) + count

    def count(self, term: str, category: str) -> int:
        return self.counts.get((term, category), 0)

    def term_total(self, term: str) -> int:
        return sum(self.count(term, c) for c in self.categories)

    @property
    def terms(self) -> list[str]:
        seen: dict[str, None] = {}
        for term, _category in self.counts:
            seen.setdefault(term)
        return list(seen)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def build_term_category_table(
    phrases_by_category: Mapping[str, Iterable[str | tuple[str, int]]],
) -> TermCategoryTable:
    """Tokenize and stem each category's phrases into a count table.

    Phrases may carry an occurrence count as (phrase, count); bare phrases
    count once per token occurrence.
    """
    table = TermCategoryTable()
    for category, phrases in phrases_by_category.items():
        if category not in table.categories:
            table.categories.append(category)
        for item in phrases:
            phrase, weight = item if isinstance(item, tuple) else (item, 1)
            for term in tokenize_terms(phrase):
                table.add(term, category, weight)
    return table


def mutual_information(
    table: TermCategoryTable, smoothing: float = 1.0
) -> list[tuple[str, str, float]]:
    """Pointwise MI of each (term, category) cell, ranked within category.

    score = ln(P(term, category) / (P(term) * P(category))) over the table
    smoothed by adding `smoothing` to every cell. Terms with no occurrences
    in any category are excluded. The result lists categories in table
    order, each ranked by descending score with ties on the term.
    """
    if not 0 <= smoothing < math.inf:
        raise ValueError("smoothing must be >= 0 and finite")
    terms = [t for t in table.terms if table.term_total(t) > 0]
    categories = list(table.categories)
    if not terms or not categories:
        return []
    cells = {
        (t, c): table.count(t, c) + smoothing for t in terms for c in categories
    }
    total = sum(cells.values())
    term_mass = {t: sum(cells[t, c] for c in categories) for t in terms}
    cat_mass = {c: sum(cells[t, c] for t in terms) for c in categories}
    ranked: list[tuple[str, str, float]] = []
    for category in categories:
        scored = []
        for term in terms:
            joint = cells[term, category]
            if joint == 0:
                score = float("-inf")
            else:
                score = math.log(
                    (joint / total)
                    / ((term_mass[term] / total) * (cat_mass[category] / total))
                )
            scored.append((term, category, score))
        scored.sort(key=lambda row: (-row[2], row[0]))
        ranked.extend(scored)
    return ranked


def top_terms(
    ranked: Iterable[tuple[str, str, float]], category: str, n: int
) -> list[tuple[str, float]]:
    """First n (term, score) rows of one category from a ranked MI list."""
    out = [(t, s) for t, c, s in ranked if c == category]
    return out[:n]
