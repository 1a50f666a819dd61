from collections import Counter

import termassoc.pipeline as pipeline
from termassoc.corpus import Document
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
    return {token for result in outcome.results for token in result.term.split(" ")}


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
