import dataclasses
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import termassoc.pipeline as pipeline
import termassoc.textproc as textproc
from termassoc.cleanse import clean_abstract
from termassoc.corpus import Document, dedup_within_unit
from termassoc.report import FORMATS, emit_report
from termassoc.stats import AnalysisConfig

CONFIG = AnalysisConfig(n_max=2, min_doc_frequency=1)


def two_units_sharing_an_id():
    """Units 1 and 2 each hold one document per score group; both grade-4 documents have id "dup"."""

    def doc(id, unit, score, abstract):
        return Document(id=id, doi=f"10.1/{unit}-{score}", abstract_raw=abstract, unit=unit, score=score)

    return [
        doc("a1", "1", 1, "Apple red."),
        doc("a3", "1", 3, "Apple green."),
        doc("dup", "1", 4, "Apple ripe."),
        doc("b1", "2", 1, "Pear tall."),
        doc("b3", "2", 3, "Pear short."),
        doc("dup", "2", 4, "Pear wide."),
    ]


def words(outcome):
    """The tokens of the report's rows: with min_df 1 and no significant term, every tested token."""
    return {token for row in outcome.report.rows for token in row.term.split(" ")}


def test_documents_sharing_an_id_keep_their_own_text():
    outcomes = pipeline.analyze_scopes(two_units_sharing_an_id(), ["unit:1", "unit:2"], CONFIG, [], 0)
    assert words(outcomes["unit:1"]) == {"apple", "red", "green", "ripe"}
    assert words(outcomes["unit:2"]) == {"pear", "tall", "short", "wide"}


def test_each_document_is_cleaned_once_across_scopes(monkeypatch):
    docs = two_units_sharing_an_id()
    cleaned = []
    real_clean = pipeline.clean_abstract

    def counting_clean(text, rules):
        cleaned.append(text)
        return real_clean(text, rules)

    monkeypatch.setattr(pipeline, "clean_abstract", counting_clean)
    outcomes = pipeline.analyze_scopes(docs, ["unit:1", "panel:A", "all"], CONFIG, [], 0)
    assert not any(outcome.skipped for outcome in outcomes.values())
    assert Counter(cleaned) == Counter(d.abstract_raw for d in docs)


def test_group_sizes_count_documents_not_ids():
    same_id = [Document(id="same", doi=f"10.1/{score}", abstract_raw="Shared words.", unit="1", score=score)
               for score in (1, 3, 4)]
    outcome = pipeline.analyze_scopes(same_id, ["unit:1"], CONFIG, [], 0)["unit:1"]
    assert outcome.group_sizes == [1, 1, 1]

    outcome = pipeline.analyze_scopes(two_units_sharing_an_id(), ["all"], CONFIG, [], 0)["all"]
    assert outcome.report.rows
    # Each row's proportions are counts over groups of (2, 2, 2) documents.
    assert outcome.group_sizes == [2, 2, 2]
    assert all(sum(p * 2 for p in row.proportions.values()) == row.n for row in outcome.report.rows)


def test_scope_term_sets_share_one_string_per_token(monkeypatch):
    seen = []
    real_build_tables = pipeline.build_tables

    def capturing_build_tables(term_sets, *args):
        seen.append(term_sets)
        return real_build_tables(term_sets, *args)

    monkeypatch.setattr(pipeline, "build_tables", capturing_build_tables)
    outcome = pipeline.analyze_scope(pipeline.clean_documents(two_units_sharing_an_id(), []), "unit:1", CONFIG, 0)
    (term_sets,) = seen
    assert [ts.units for ts in term_sets] == [[["apple", "red"]], [["apple", "green"]], [["apple", "ripe"]]]
    first, second, third = (ts.units[0][0] for ts in term_sets)
    assert first is second is third
    assert words(outcome) == {"apple", "red", "green", "ripe"}


def two_panels_repeating_a_text():
    """Unit 1 (panel A) and unit 2 (panel B), one document per score group each.

    b1 repeats a1's whole text in the other unit and panel; b0 has score 0,
    so the filter drops it from every scope.
    """

    def doc(id, unit, panel, score, title, abstract):
        return Document(id=id, doi=f"10.1/{id}", title=title, abstract_raw=abstract, keywords=["fruit yield"],
                        unit=unit, panel=panel, score=score)

    return [
        doc("a1", "1", "A", 1, "Apple study", "Apple red."),
        doc("a3", "1", "A", 3, "Apple study", "Apple green."),
        doc("a4", "1", "A", 4, "Apple study", "Apple ripe."),
        doc("b1", "2", "B", 1, "Apple study", "Apple red."),
        doc("b3", "2", "B", 3, "Pear study", "Pear short."),
        doc("b4", "2", "B", 4, "Pear study", "Pear wide. Pear tall."),
        doc("b0", "2", "B", 0, "Pear study", "Pear unscored."),
    ]


def test_each_text_is_tokenized_once_per_run_but_extracted_once_per_scope(monkeypatch):
    docs = two_panels_repeating_a_text()
    split, extracted = [], []
    real_split, real_extract = textproc.split_sentences, pipeline.extract_terms

    def counting_split(text, *args):
        split.append(text)
        return real_split(text, *args)

    def counting_extract(doc, *args):
        extracted.append(doc.id)
        return real_extract(doc, *args)

    monkeypatch.setattr(textproc, "split_sentences", counting_split)
    monkeypatch.setattr(pipeline, "extract_terms", counting_extract)
    scopes = pipeline.expand_scopes(docs, ["units", "panels", "all"])
    assert scopes == ["unit:1", "unit:2", "panel:A", "panel:B", "all"]
    outcomes = pipeline.analyze_scopes(docs, scopes, CONFIG, [], 0)
    assert not any(outcome.skipped for outcome in outcomes.values())
    # Every kept document is in its unit, its panel and all; a1 and b1 share one text.
    assert Counter(extracted) == {id: 3 for id in ("a1", "a3", "a4", "b1", "b3", "b4")}
    assert Counter(split) == Counter(["Apple red.", "Apple green.", "Apple ripe.", "Pear short.",
                                      "Pear wide. Pear tall."])


def test_a_memo_hit_still_checks_n_max_and_the_cleaned_abstract():
    doc = Document(id="d", title="A title", abstract_raw="Some words.", abstract_clean="Some words.",
                   keywords=["key"])
    memo = {}
    first = textproc.extract_terms(doc, 2, {}, memo)
    assert memo == {("A title", "Some words.", "key"): [["a", "title"], ["some", "words"], ["key"]]}
    assert textproc.extract_terms(doc, 2, {}, memo).units is first.units
    with pytest.raises(ValueError, match="n_max"):
        textproc.extract_terms(doc, 9, {}, memo)
    uncleaned = Document(id="u", title="A title", abstract_raw="Some words.", keywords=["key"])
    memo[("A title", None, "key")] = first.units
    with pytest.raises(ValueError, match="no cleaned abstract"):
        textproc.extract_terms(uncleaned, 2, {}, memo)


def test_clean_documents_keeps_every_field_but_the_clean_abstract():
    values = {"id": "d7", "doi": "10.1/x", "title": "A title", "journal": "A journal",
              "abstract_raw": "Raw  text here.", "abstract_clean": "stale", "keywords": ["k one"],
              "unit": "12", "panel": "C", "score": 3, "submitter": "uni-y"}
    # Every declared field is set to a value of its own, so a field cleaning drops or moves shows.
    assert set(values) == {f.name for f in dataclasses.fields(Document)}
    doc = Document(**values)
    (cleaned,) = pipeline.clean_documents([doc], [])
    assert cleaned is doc
    expected = dict(values, abstract_clean=clean_abstract(values["abstract_raw"], []))
    assert {name: getattr(cleaned, name) for name in values} == expected


SENTENCE = st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]), min_size=1, max_size=6).map(
    lambda words: " ".join(words).capitalize() + "."
)
ABSTRACT = st.lists(SENTENCE, min_size=1, max_size=4).map(" ".join)
MIN_ABSTRACT_CHARS = 20


@st.composite
def scope_inputs(draw):
    """Documents in two units and a permutation of them.

    Three anchor documents, one per score group, keep every group non-empty.
    The rest share a small pool of articles, odd ones identified by DOI and
    even ones by title and journal, so submissions repeat; their grades
    include 0 and their abstracts are often shorter than the filter's floor.
    """
    docs = [
        Document(id=f"a{g}", doi=f"10.9/anchor{g}", abstract_raw=draw(ABSTRACT) + " Delta gamma beta alpha.",
                 unit="1", score=score)
        for g, score in enumerate((1, 3, 4))
    ]
    for k in range(draw(st.integers(0, 12))):
        article = draw(st.integers(0, 5))
        identity = {"doi": f"10.1/art{article}"} if article % 2 else {"title": f"Article {article}", "journal": "J"}
        docs.append(Document(id=f"d{k:02d}", abstract_raw=draw(ABSTRACT), unit=draw(st.sampled_from(["1", "2"])),
                             score=draw(st.integers(0, 4)), **identity))
    return docs, draw(st.permutations(docs))


def scope_facts(docs, scope):
    config = AnalysisConfig(n_max=3, min_doc_frequency=2)
    outcome = pipeline.analyze_scope(pipeline.clean_documents(docs, []), scope, config, MIN_ABSTRACT_CHARS)
    reports = [emit_report(outcome.report, fmt) for fmt in ("csv", "jsonl", "text")]
    return reports, outcome.group_sizes, outcome.report.m, outcome.report.threshold


@given(st.lists(st.tuples(st.sampled_from(["", "1", "10", "7", "x"]), st.sampled_from(["", "A", "B"])), max_size=8))
def test_scopes_expand_to_and_select_the_distinct_non_empty_units_and_panels(fields):
    # A unit in 1-34 given no panel takes its own; "x" and "" keep an empty panel.
    docs = [Document(id=f"d{k}", unit=unit, panel=panel) for k, (unit, panel) in enumerate(fields)]
    units = sorted({d.unit for d in docs} - {""})
    panels = sorted({d.panel for d in docs} - {""})
    expected = [f"unit:{u}" for u in units] + [f"panel:{p}" for p in panels] + ["all"]
    assert pipeline.expand_scopes(docs, ["units", "panels", "all"]) == expected
    for u in units:
        assert [d.id for d in pipeline.select_scope(docs, f"unit:{u}")] == [d.id for d in docs if d.unit == u]
    for p in panels:
        assert [d.id for d in pipeline.select_scope(docs, f"panel:{p}")] == [d.id for d in docs if d.panel == p]


@given(scope_inputs())
def test_scope_dedup_by_identity_equals_dedup_by_scope_kind(inputs):
    # analyze_scope dedups a unit: or panel: scope by identity alone.
    docs, shuffled = inputs
    for scope in ("unit:1", "unit:2", "panel:A"):
        kind = scope.partition(":")[0]
        for order in (docs, shuffled):
            subset = pipeline.select_scope(order, scope)
            assert dedup_within_unit(subset, "all", 7) == dedup_within_unit(subset, kind, 7)


@given(scope_inputs())
def test_scope_outcome_independent_of_document_order(inputs):
    docs, shuffled = inputs
    for scope in ("unit:1", "all"):
        assert scope_facts(shuffled, scope) == scope_facts(docs, scope)


TEXTS = st.tuples(st.sampled_from(["", "Alpha study", "Beta gamma"]), ABSTRACT,
                  st.lists(st.sampled_from(["alpha beta", "delta"]), max_size=2))


@st.composite
def run_inputs(draw):
    """Documents in three units over two panels, drawing ids, DOIs and texts from small pools.

    Ids and whole texts (title, abstract, keywords) repeat within and across
    units; three anchor documents in unit 1, one per score group, keep some
    scope unskipped.
    """
    texts = draw(st.lists(TEXTS, min_size=1, max_size=4))
    docs = [
        Document(id="a", doi=f"10.9/anchor{score}", abstract_raw=draw(ABSTRACT) + " Delta gamma beta alpha.",
                 unit="1", panel="A", score=score)
        for score in (1, 3, 4)
    ]
    for _ in range(draw(st.integers(0, 12))):
        title, abstract, keywords = draw(st.sampled_from(texts))
        unit = draw(st.sampled_from(["1", "2", "3"]))
        docs.append(Document(id=draw(st.sampled_from(["a", "x", "y"])), doi=f"10.1/art{draw(st.integers(0, 5))}",
                             title=title, abstract_raw=abstract, keywords=keywords, unit=unit,
                             panel="B" if unit == "3" else "A", score=draw(st.integers(0, 4))))
    return docs


def outcome_facts(outcome):
    report = outcome.report
    reports = report and [emit_report(report, fmt) for fmt in FORMATS]
    return reports, report and (report.m, report.threshold), outcome.group_sizes, outcome.significant, outcome.skipped


@given(run_inputs())
def test_shared_memo_gives_the_outcomes_of_scopes_analysed_alone(docs):
    config = AnalysisConfig(n_max=3, min_doc_frequency=2)
    scopes = pipeline.expand_scopes(docs, ["units", "panels", "all"])
    shared = pipeline.analyze_scopes(docs, scopes, config, [], MIN_ABSTRACT_CHARS)
    cleaned = pipeline.clean_documents(docs, [])
    alone = {scope: pipeline.analyze_scope(cleaned, scope, config, MIN_ABSTRACT_CHARS) for scope in scopes}
    assert list(shared) == scopes
    assert {s: outcome_facts(o) for s, o in shared.items()} == {s: outcome_facts(o) for s, o in alone.items()}
