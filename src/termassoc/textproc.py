"""Sentence-bounded n-gram term extraction.

A term is 1..n_max consecutive lowercase tokens from a single textual unit;
units are the title, each abstract sentence, and each keyword string, so no
phrase ever spans a sentence or field boundary. Documents contribute presence
sets: a term counts once per document no matter how often it occurs.

The splitting and tokenizing rules are those stated in `split_sentences` and
`tokenize`; the splitter's abbreviations are the fixed DEFAULT_ABBREVIATIONS.
The splitter tests only the spans one regex scan finds, a '.', '!' or '?'
followed by whitespace, and tests a '.' with one lowercased slice per
distinct abbreviation length against the set of abbreviations of that
length. The tests check it against a character-by-character reference
implementation of the same rule.

A `memo` dict keeps each text's token units under the text itself.
`prepare_units`, the one body that splits and tokenizes, tokenizes each unit
by one `findall`, and the texts of one call share one string per distinct
token through a table that dies with the call. `extract_terms` looks a
document's units up in the memo it is given, or prepares that document alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

from .corpus import Document

N_MAX_LIMIT = 8

DEFAULT_ABBREVIATIONS = ("e.g.", "i.e.", "Fig.", "et al.", "approx.", "vs.", "Dr.", "No.")
# Length -> the lowercased abbreviations of that length.
_ABBREVIATIONS_BY_LENGTH = {len(a): frozenset(b.lower() for b in DEFAULT_ABBREVIATIONS if len(b) == len(a))
                            for a in DEFAULT_ABBREVIATIONS}

# A token is a maximal run of letters/digits, possibly joined by internal
# hyphens or apostrophes; underscores and everything else separate.
_TOKEN_RE = re.compile(r"[^\W_]+(?:['’-][^\W_]+)*")

# A candidate sentence boundary: a terminator followed by whitespace.
_CANDIDATE_RE = re.compile(r"[.!?]\s+")

# Token units keyed by the text they came from: (title, cleaned abstract, keywords).
UnitMemo = dict[tuple[str, str, tuple[str, ...]], tuple[tuple[str, ...], ...]]
_memo_key = attrgetter("title", "abstract_clean", "keywords")


def tokenize(sentence: str) -> list[str]:
    """Lowercase tokens of a sentence; hyphenated words stay single tokens."""
    return _TOKEN_RE.findall(sentence.lower())


def _closes_abbreviation(text: str, end: int) -> bool:
    """Whether the '.' at text[end - 1] closes one of DEFAULT_ABBREVIATIONS."""
    for n, lows in _ABBREVIATIONS_BY_LENGTH.items():
        if n <= end and text[end - n : end].lower() in lows and (n == end or not text[end - n - 1].isalnum()):
            return True
    return False


def split_sentences(text: str) -> list[str]:
    """Split cleaned text into sentences.

    A boundary is '.', '!' or '?' followed by whitespace and an uppercase
    letter or digit, unless the terminator is a '.' closing one of
    DEFAULT_ABBREVIATIONS: as many characters as the abbreviation has, ending
    at the '.', equal it once both are lowercased, and the character before
    them, if any, is not alphanumeric.
    """
    sentences = []
    start = 0
    for m in _CANDIDATE_RE.finditer(text):
        k = m.end()
        if k == len(text) or not (text[k].isupper() or text[k].isdigit()):
            continue
        end = m.start() + 1
        if text[end - 1] == "." and _closes_abbreviation(text, end):
            continue
        piece = text[start:end].strip()
        if piece:
            sentences.append(piece)
        start = k
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


@dataclass(slots=True)
class DocTermSet:
    """A document's non-empty token units: title, abstract sentences, keywords, each an exact-size tuple."""

    units: tuple[tuple[str, ...], ...]
    n_max: int

    @property
    def terms(self) -> set[str]:
        """The presence set: every n-gram of length 1..n_max in any unit, once."""
        terms: set[str] = set()
        for tokens in self.units:
            terms.update(iter_ngrams(tokens, self.n_max))
        return terms


def iter_ngrams(tokens: Sequence[str], n_max: int) -> Iterator[str]:
    """All contiguous n-grams of length 1..n_max, one per position and length."""
    count = len(tokens)
    for start in range(count):
        gram = tokens[start]
        yield gram
        for stop in range(start + 1, min(start + n_max, count)):
            gram = gram + " " + tokens[stop]
            yield gram


def prepare_units(docs: Iterable[Document]) -> UnitMemo:
    """A memo of the cleaned documents' token units, which share one token table that dies with this call."""
    memo: UnitMemo = {}
    share = {}.setdefault
    for doc in docs:
        key = _memo_key(doc)
        if key not in memo:
            texts = [doc.title, *split_sentences(doc.abstract_clean), *doc.keywords]
            # tokenize(text) for each text, without a Python frame per unit; tuples are exact-size.
            tokenized = map(_TOKEN_RE.findall, map(str.lower, texts))
            memo[key] = tuple([tuple(map(share, t, t)) for t in tokenized if t])
    return memo


def extract_terms(doc: Document, n_max: int = 5, memo: Optional[UnitMemo] = None) -> DocTermSet:
    """Token units of the title, abstract sentences and keywords; empty units dropped.

    `memo` maps a text, as (title, cleaned abstract, keywords), to its units,
    and must hold doc's text; None prepares doc alone. Units depend on
    nothing else, so documents that share an id but not their text never
    share units. Units are tuples, so the ones a memo hands out again cannot
    change.
    """
    if not 1 <= n_max <= N_MAX_LIMIT:
        raise ValueError(f"n_max must be in 1..{N_MAX_LIMIT}, got {n_max}")
    if doc.abstract_clean is None:
        raise ValueError(f"document {doc.id!r} has no cleaned abstract; clean before extracting")
    if memo is None:
        memo = prepare_units([doc])
    return DocTermSet(memo[_memo_key(doc)], n_max)
