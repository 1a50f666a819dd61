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

A `memo` dict keeps each text's token units under the text itself. One body
splits and tokenizes a text missing there, each unit by one `findall`, and
passes every token through a `vocab` dict that holds one string per distinct
token: the units of all texts given the same dict share those strings. A run
tokenizes its texts once, by `prepare_units`, through a table that lives only
for that call. `extract_terms` runs the body on a miss; a call given no memo
takes a fresh one and so always tokenizes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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

# Token units keyed by the text they came from: (title, cleaned abstract, *keywords).
UnitMemo = dict[tuple[str, ...], tuple[tuple[str, ...], ...]]


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


def _memo_units(doc: Document, memo: UnitMemo, share) -> tuple[tuple[str, ...], ...]:
    """doc's token units from memo; a text not there is split, tokenized through share and added."""
    key = (doc.title, doc.abstract_clean, *doc.keywords)
    units = memo.get(key)
    if units is None:
        texts = [doc.title, *split_sentences(doc.abstract_clean), *doc.keywords]
        # tokenize(text) for each text, without a Python frame per unit; tuples are exact-size.
        tokenized = map(_TOKEN_RE.findall, map(str.lower, texts))
        units = memo[key] = tuple([tuple(map(share, t, t)) for t in tokenized if t])
    return units


def prepare_units(docs: Iterable[Document]) -> UnitMemo:
    """A memo of the cleaned documents' token units, which share one token table that dies with this call."""
    memo: UnitMemo = {}
    share = {}.setdefault
    for doc in docs:
        _memo_units(doc, memo, share)
    return memo


def extract_terms(
    doc: Document,
    n_max: int = 5,
    vocab: Optional[dict[str, str]] = None,
    memo: Optional[UnitMemo] = None,
) -> DocTermSet:
    """Token units of the title, abstract sentences and keywords; empty units dropped.

    Each token is replaced by the string `vocab` already holds for it, which
    is added when new. `memo` maps a text, as (title, cleaned abstract,
    *keywords), to its units: a text found there is not tokenized again, and
    a new one is added. None stands for a fresh dict in either place, so a
    call given no memo tokenizes its text. Units depend on nothing else, so
    documents that share an id but not their text never share units.
    Units are tuples, so the ones the memo hands out again cannot change.
    """
    if not 1 <= n_max <= N_MAX_LIMIT:
        raise ValueError(f"n_max must be in 1..{N_MAX_LIMIT}, got {n_max}")
    if doc.abstract_clean is None:
        raise ValueError(f"document {doc.id!r} has no cleaned abstract; clean before extracting")
    share = ({} if vocab is None else vocab).setdefault
    return DocTermSet(_memo_units(doc, {} if memo is None else memo, share), n_max)
