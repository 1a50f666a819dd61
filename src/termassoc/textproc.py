"""Sentence-bounded n-gram term extraction.

A term is 1..n_max consecutive lowercase tokens from a single textual unit;
units are the title, each abstract sentence, and each keyword string, so no
phrase ever spans a sentence or field boundary. Documents contribute presence
sets: a term counts once per document no matter how often it occurs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .corpus import Document

N_MAX_LIMIT = 8

DEFAULT_ABBREVIATIONS = ("e.g.", "i.e.", "Fig.", "et al.", "approx.", "vs.", "Dr.", "No.")

# A token is a maximal run of letters/digits, possibly joined by internal
# hyphens or apostrophes; underscores and everything else separate.
_TOKEN_RE = re.compile(r"[^\W_]+(?:['’-][^\W_]+)*")

_TERMINATORS = ".!?"


def tokenize(sentence: str) -> list[str]:
    """Lowercase tokens of a sentence; hyphenated words stay single tokens."""
    return _TOKEN_RE.findall(sentence.lower())


def _ends_with_abbreviation(text: str, dot_index: int, abbreviations) -> bool:
    for abbr in abbreviations:
        n = len(abbr)
        start = dot_index + 1 - n
        if start < 0:
            continue
        if text[start : dot_index + 1].lower() != abbr.lower():
            continue
        if start == 0 or not text[start - 1].isalnum():
            return True
    return False


def split_sentences(text: str, abbreviations=DEFAULT_ABBREVIATIONS) -> list[str]:
    """Split cleaned text into sentences.

    A boundary is '.', '!' or '?' followed by whitespace and an uppercase
    letter or digit, unless the terminator closes a listed abbreviation.
    """
    sentences = []
    start = 0
    n = len(text)
    i = 0
    while i < n:
        if text[i] in _TERMINATORS:
            j = i + 1
            k = j
            while k < n and text[k].isspace():
                k += 1
            boundary = (
                k > j
                and k < n
                and (text[k].isupper() or text[k].isdigit())
                and not (text[i] == "." and _ends_with_abbreviation(text, i, abbreviations))
            )
            if boundary:
                piece = text[start:j].strip()
                if piece:
                    sentences.append(piece)
                start = k
                i = k
                continue
        i += 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


@dataclass
class DocTermSet:
    """A document's non-empty token units: title, abstract sentences, keywords."""

    doc_id: str
    units: list[list[str]]
    n_max: int

    @property
    def terms(self) -> set[str]:
        """The presence set: every n-gram of length 1..n_max in any unit, once."""
        terms: set[str] = set()
        for tokens in self.units:
            terms.update(iter_ngrams(tokens, self.n_max))
        return terms


def iter_ngrams(tokens: list[str], n_max: int) -> Iterator[str]:
    """All contiguous n-grams of length 1..n_max, one per position and length."""
    count = len(tokens)
    for start in range(count):
        gram = tokens[start]
        yield gram
        for stop in range(start + 1, min(start + n_max, count)):
            gram = gram + " " + tokens[stop]
            yield gram


def extract_terms(doc: Document, n_max: int = 5, abbreviations=DEFAULT_ABBREVIATIONS) -> DocTermSet:
    """Token units of the title, abstract sentences and keywords; empty units dropped."""
    if not 1 <= n_max <= N_MAX_LIMIT:
        raise ValueError(f"n_max must be in 1..{N_MAX_LIMIT}, got {n_max}")
    if doc.abstract_clean is None:
        raise ValueError(f"document {doc.id!r} has no cleaned abstract; clean before extracting")
    units = [doc.title, *split_sentences(doc.abstract_clean, abbreviations), *doc.keywords]
    return DocTermSet(doc.id, [tokens for tokens in map(tokenize, units) if tokens], n_max)
