import json
import random

import pytest

from termassoc.corpus import Document
from termassoc.textproc import (
    extract_terms,
    iter_ngrams,
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
    text = "Proc. Of the conference."
    assert split_sentences(text, abbreviations=()) == ["Proc.", "Of the conference."]
    assert split_sentences(text, abbreviations=("Proc.",)) == ["Proc. Of the conference."]


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
    return Document(id=id, title=title, abstract_raw="raw", abstract_clean=abstract, keywords=list(keywords))


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


def test_extract_respects_nmax_length():
    doc = make_doc("one two three four five six")
    terms = extract_terms(doc, 3).terms
    assert "one two three" in terms
    assert all(t.count(" ") <= 2 for t in terms)


def test_fuzz_extraction_matches_bruteforce_per_unit():
    # oracle: enumerate n-grams over the generator's own token lists
    rng = random.Random(123)
    vocab = [f"w{i}" for i in range(40)]
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
        for unit in units:
            for n in range(1, n_max + 1):
                for start in range(len(unit) - n + 1):
                    expected.add(" ".join(unit[start : start + n]))
        assert extract_terms(doc, n_max).terms == expected
