import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from termassoc.corpus import Document
from termassoc.textproc import (
    DEFAULT_ABBREVIATIONS,
    extract_terms,
    iter_ngrams,
    prepare_units,
    split_sentences,
    tokenize,
)


# ------------------------------------------------------------ split_sentences

def test_split_two_sentences():
    assert split_sentences("We show X. We test Y.") == ["We show X.", "We test Y."]


def test_split_requires_uppercase_or_digit():
    assert split_sentences("We show x. we test y.") == ["We show x. we test y."]
    assert split_sentences("See section 2. 3 items follow.") == ["See section 2.", "3 items follow."]


def test_split_abbreviations_do_not_split():
    assert split_sentences("Fig. 2 shows Z.") == ["Fig. 2 shows Z."]
    assert split_sentences("As shown by Smith et al. Nothing changed.") == [
        "As shown by Smith et al. Nothing changed."
    ]
    assert split_sentences("Results differ, e.g. A vs. B here.") == ["Results differ, e.g. A vs. B here."]


def test_split_abbreviation_needs_word_boundary():
    # "Torino." ends with "no." but is a real sentence end
    assert split_sentences("We met in Torino. Next we left.") == ["We met in Torino.", "Next we left."]


def test_split_custom_abbreviations():
    # The abbreviations are a fixed table: a '.' that closes no entry of it ends a sentence.
    assert split_sentences("Proc. Of the conference.") == ["Proc.", "Of the conference."]
    assert split_sentences("Sent İ. Next") == ["Sent İ.", "Next"]
    assert split_sentences("Results differ, e.g. Both hold.") == ["Results differ, e.g. Both hold."]


def test_readme_lists_the_splitter_abbreviations():
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").split())
    listed = readme.split("except after the abbreviations ", 1)[1].split(" (any case)", 1)[0]
    assert tuple(re.findall(r"`([^`]+)`", listed)) == DEFAULT_ABBREVIATIONS


def test_split_empty_and_terminators():
    assert split_sentences("") == []
    assert split_sentences("   ") == []
    assert split_sentences("Really? Yes! Fine.") == ["Really?", "Yes!", "Fine."]


def test_split_no_terminal_punctuation():
    assert split_sentences("no terminator at all") == ["no terminator at all"]


# ------------------------------------------------------------------- tokenize

def test_tokenize_lowercases_and_keeps_internal_hyphens():
    assert tokenize("Double-blind, randomised trial.") == ["double-blind", "randomised", "trial"]
    assert tokenize("state-of-the-art") == ["state-of-the-art"]


def test_tokenize_alphanumeric_runs():
    assert tokenize("ISO9001") == ["iso9001"]
    assert tokenize("p53 and 5-HT2A") == ["p53", "and", "5-ht2a"]


def test_tokenize_strips_leading_trailing_joiners():
    assert tokenize("-foo- 'bar' --") == ["foo", "bar"]


def test_tokenize_apostrophes_and_unicode():
    assert tokenize("don't stop") == ["don't", "stop"]
    assert tokenize("crohn’s disease") == ["crohn’s", "disease"]
    assert tokenize("naïve Bayes") == ["naïve", "bayes"]


def test_tokenize_separators():
    assert tokenize("a_b c/d e.f") == ["a", "b", "c", "d", "e", "f"]
    assert tokenize("") == []
    assert tokenize("!!!") == []


# ------------------------------------------- reference (character-walking) splitter

def reference_ends_with_abbreviation(text, dot_index, abbreviations):
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


def reference_split_sentences(text, abbreviations=DEFAULT_ABBREVIATIONS):
    sentences = []
    start = 0
    n = len(text)
    i = 0
    while i < n:
        if text[i] in ".!?":
            j = i + 1
            k = j
            while k < n and text[k].isspace():
                k += 1
            boundary = (
                k > j
                and k < n
                and (text[k].isupper() or text[k].isdigit())
                and not (text[i] == "." and reference_ends_with_abbreviation(text, i, abbreviations))
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


# Every whitespace code point (U+3000 is the last), and plain spaces.
WHITESPACE = [" ", *(chr(c) for c in range(0x3001) if chr(c).isspace())]
# Edge characters: titlecase ǅ is not isupper(), Arabic-Indic ٣ and superscript
# ² are digits, ½ and Ⅷ are numeric but not digits, İ lowercases to two code
# points, ẞ lowercases to ß, a Σ that ends a word lowercases to ς only in
# context, and _ - ' ’ are not alphanumeric.
FRAGMENTS = [
    *DEFAULT_ABBREVIATIONS, "E.G.", "ET AL.", "fig.", "no.", "İ.", "İ", "Proc.", "x.",
    "ẞ", "ẞ.", "STRAẞE.", "Σ", "Σ.", "ΑΣ.", "ΟΔΟΣ. Α", "wΣ.",
    ".", "!", "?", "...", ". A", "! B", "? 7", ". ǅ", ". ٣", ". ²", ".\u2003½", "!\n\nZ", "? Ⅷ",
    "ǅ", "٣", "²", "½", "Ⅷ", "_", "-", "'", "’", "A", "a", "Z", "q", "7", "ß",
    "word", "Word", "WORD", "tok00042", "p53", "double-blind", "crohn’s", "don't", "naïve", "é", "(",
]
TEXT = st.lists(st.one_of(st.sampled_from(FRAGMENTS), st.sampled_from(WHITESPACE)), max_size=30).map("".join)


@settings(max_examples=600)
@given(TEXT)
def test_split_sentences_matches_character_walk(text):
    assert split_sentences(text) == reference_split_sentences(text)


# ----------------------------------------------------------------- iter_ngrams

def test_ngram_position_counts():
    rng = random.Random(4)
    for _ in range(50):
        length = rng.randint(0, 12)
        n_max = rng.randint(1, 8)
        tokens = [f"w{i}" for i in range(length)]
        grams = list(iter_ngrams(tokens, n_max))
        expected = sum(length - n + 1 for n in range(1, min(n_max, length) + 1))
        assert len(grams) == expected
        for n in range(1, min(n_max, length) + 1):
            assert sum(1 for g in grams if g.count(" ") == n - 1) == length - n + 1


def test_ngram_small_example():
    assert sorted(iter_ngrams(["a", "b"], 5)) == ["a", "a b", "b"]


# --------------------------------------------------------------- extract_terms

def make_doc(abstract, title="", keywords=(), id="d1"):
    return Document(id=id, title=title, abstract_raw="raw", abstract_clean=abstract, keywords=keywords)


def test_extract_includes_long_phrase_and_subphrases():
    doc = make_doc("Here we show that.")
    terms = extract_terms(doc, 5).terms
    assert "here we show that" in terms
    assert "here we" in terms and "we show" in terms and "show that" in terms
    assert "here" in terms and "that" in terms


def test_extract_never_crosses_sentence_boundary():
    doc = make_doc("We show X. That works.")
    terms = extract_terms(doc, 5).terms
    assert "x that" not in terms
    assert "show x" in terms and "that works" in terms


def test_extract_title_and_keywords_are_isolated_units():
    doc = make_doc("Abstract body only.", title="Title words", keywords=["key phrase"])
    terms = extract_terms(doc, 5).terms
    assert "title words" in terms and "key phrase" in terms
    # no phrase fuses distinct fields
    assert "words abstract" not in terms
    assert "only key" not in terms
    assert "phrase title" not in terms


def test_extract_set_semantics():
    once = extract_terms(make_doc("The result holds. Nothing else."), 5).terms
    twice = extract_terms(make_doc("The result holds. The result holds. Nothing else."), 5).terms
    assert once == twice


def test_extract_nmax_one_is_distinct_tokens():
    doc = make_doc("a b a c. b d.")
    terms = extract_terms(doc, 1).terms
    assert terms == {"a", "b", "c", "d"}


def test_extract_nmax_bounds_and_missing_clean():
    doc = make_doc("fine text here")
    with pytest.raises(ValueError):
        extract_terms(doc, 0)
    with pytest.raises(ValueError):
        extract_terms(doc, 9)
    raw_only = Document(id="x", abstract_raw="text")
    with pytest.raises(ValueError):
        extract_terms(raw_only, 5)


def test_prepare_units_shares_one_string_per_token():
    first_doc, second_doc = make_doc("Shared words here."), make_doc("Other shared words.", id="d2")
    memo = prepare_units([first_doc, second_doc])
    first, second = extract_terms(first_doc, 2, memo), extract_terms(second_doc, 2, memo)
    assert first.units == (("shared", "words", "here"),)
    assert second.units == (("other", "shared", "words"),)
    assert first.units[0][0] is second.units[0][1]
    assert first.units[0][1] is second.units[0][2]
    # Without a memo each call prepares its document alone, with the same terms.
    assert extract_terms(make_doc("Shared words here."), 2).terms == first.terms


def test_a_memo_hit_returns_the_same_tuple_of_tuples():
    doc = make_doc("Shared words here. More words.")
    memo = prepare_units([doc, doc])
    first = extract_terms(doc, 2, memo)
    again = extract_terms(doc, 3, memo)
    assert type(first.units) is tuple and all(type(unit) is tuple for unit in first.units)
    assert again.units is first.units
    assert memo == {("", "Shared words here. More words.", ()): first.units}


def test_doc_term_set_takes_no_other_attribute():
    term_set = extract_terms(make_doc("Shared words here."), 2)
    with pytest.raises(AttributeError):
        term_set.extra = 1
    assert not hasattr(term_set, "__dict__")


def test_extract_respects_nmax_length():
    doc = make_doc("one two three four five six")
    terms = extract_terms(doc, 3).terms
    assert "one two three" in terms
    assert all(t.count(" ") <= 2 for t in terms)


# Words whose case mapping changes them, with the tokens extraction makes of
# them anywhere in a unit: İ lowercases to i and a combining dot, which is no
# word character; ẞ lowercases to ß; a Σ that ends a word, as before the '.'
# closing a sentence, lowercases to the final ς.
CASE_CHANGING_WORDS = {"wİ": ["wi"], "wẞ": ["wß"], "wΣ": ["wς"], "wΣw": ["wσw"]}


def test_fuzz_extraction_matches_bruteforce_per_unit():
    # oracle: enumerate n-grams over the generator's own token lists
    rng = random.Random(123)
    vocab = [f"w{i}" for i in range(40)] + list(CASE_CHANGING_WORDS)
    for _ in range(150):
        n_max = rng.randint(1, 6)
        sentences = [
            [rng.choice(vocab) for _ in range(rng.randint(1, 9))]
            for _ in range(rng.randint(1, 5))
        ]
        title_tokens = [rng.choice(vocab) for _ in range(rng.randint(0, 4))]
        keywords = [" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
                    for _ in range(rng.randint(0, 2))]
        abstract = ". ".join(" ".join(s).capitalize() for s in sentences) + "."
        doc = Document(
            id="f", title=" ".join(title_tokens).capitalize(),
            abstract_raw="r", abstract_clean=abstract, keywords=keywords,
        )
        expected = set()
        units = [title_tokens] + sentences + [k.split() for k in keywords]
        for words in units:
            unit = [token for word in words for token in CASE_CHANGING_WORDS.get(word, [word])]
            for n in range(1, n_max + 1):
                for start in range(len(unit) - n + 1):
                    expected.add(" ".join(unit[start : start + n]))
        assert extract_terms(doc, n_max).terms == expected
