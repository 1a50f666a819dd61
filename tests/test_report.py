import json
import random
from dataclasses import fields

import pytest

from termassoc.report import (
    ReportRow,
    ScopeReport,
    build_scope_report,
    emit_report,
    rank_terms,
    render_csv,
    render_jsonl,
    render_text,
    subsume,
)
from termassoc.stats import TermResult

LABELS = ["low", "3", "4"]


def result(term, chi2, direction="4", significant=True, present=(1, 2, 7)):
    props = tuple(k / n for k, n in zip(present, (50, 50, 50)))
    return TermResult(
        term=term,
        n=sum(present),
        chi2=chi2,
        df=2,
        significant=significant,
        direction=direction,
        proportions=props,
    )


# ------------------------------------------------------------------ rank_terms

def test_rank_orders_by_chi2_then_term():
    rng = random.Random(0)
    results = [result(f"t{i}", rng.randint(0, 40)) for i in range(100)]
    ranked = rank_terms(results)[:50]
    assert len(ranked) == 50
    chis = [r.chi2 for r in ranked]
    assert chis == sorted(chis, reverse=True)


def test_rank_tie_breaks_lexicographically():
    ranked = rank_terms([result("zebra", 5.0), result("apple", 5.0), result("mango", 7.0)])
    assert [r.term for r in ranked] == ["mango", "apple", "zebra"]


def test_rank_truncation_bound():
    ranked = rank_terms([result(f"t{i}", i) for i in range(10)])
    assert len(ranked) == 10
    assert rank_terms([]) == []


# --------------------------------------------------------------------- subsume

def test_subsume_removes_contained_same_direction():
    rows = [result("we show", 40.0, "4"), result("here we show that", 25.0, "4")]
    kept = [r.term for r in subsume(rank_terms(rows))]
    assert kept == ["here we show that"]


def test_subsume_keeps_contained_different_direction():
    rows = [result("we show", 40.0, "4"), result("here we show that", 25.0, "low")]
    kept = [r.term for r in subsume(rank_terms(rows))]
    assert kept == ["we show", "here we show that"]


def test_subsume_disjoint_unchanged():
    rows = rank_terms([result("alpha beta", 9.0), result("gamma delta", 8.0)])
    assert subsume(rows) == rows


def test_subsume_chain_transitive():
    rows = rank_terms([
        result("we", 50.0, "4"),
        result("we show", 40.0, "4"),
        result("here we show that", 25.0, "4"),
    ])
    kept = [r.term for r in subsume(rows)]
    assert kept == ["here we show that"]


def test_subsume_requires_contiguous_containment():
    rows = rank_terms([result("we that", 40.0, "4"), result("here we show that", 25.0, "4")])
    kept = [r.term for r in subsume(rows)]
    assert kept == ["we that", "here we show that"]


def test_subsume_pairwise_property_random():
    rng = random.Random(77)
    vocab = ["a", "b", "c", "d"]
    rows = []
    seen = set()
    for i in range(120):
        n = rng.randint(1, 4)
        term = " ".join(rng.choice(vocab) for _ in range(n))
        if term in seen:
            continue
        seen.add(term)
        rows.append(result(term, rng.random() * 30, rng.choice(LABELS)))
    ranked = rank_terms(rows)
    kept = subsume(ranked)

    def covers(other, row):
        """other has the same direction, more tokens, and holds row's tokens contiguously."""
        toks, others = row.term.split(" "), other.term.split(" ")
        return other.direction == row.direction and len(others) > len(toks) and any(
            others[i : i + len(toks)] == toks for i in range(len(others) - len(toks) + 1)
        )

    for row in kept:
        for other in kept:
            assert not covers(other, row), f"{row.term!r} inside {other.term!r}"
    # Brute-force oracle: a row is dropped exactly when some other row covers it.
    assert kept == [row for row in ranked if not any(covers(other, row) for other in ranked)]


# ---------------------------------------------------------- build_scope_report

def test_report_keeps_only_significant_when_any():
    rows = [
        result("strong", 40.0, significant=True),
        result("weak", 10.0, significant=False),
    ]
    report = build_scope_report(rows, "unit:3", m=100, threshold=20.0, labels=LABELS)
    assert [r.term for r in report.rows] == ["strong"]
    assert report.illustrative is False


def test_report_illustrative_when_none_significant():
    rows = [result(f"t{i}", float(i), significant=False) for i in range(5)]
    report = build_scope_report(rows, "unit:9", m=50, threshold=99.0, labels=LABELS, top_k=3)
    assert report.illustrative is True
    assert len(report.rows) == 3
    assert all(not r.significant for r in report.rows)


def test_report_subsumes_before_truncation():
    rows = [result("a b", 30.0, "4")] + [result(f"x{i}", 20.0 - i) for i in range(5)]
    rows.append(result("z a b c", 5.0, "4"))  # long phrase ranked last
    report = build_scope_report(rows, "all", m=10, threshold=1.0, labels=LABELS, top_k=3)
    terms = [r.term for r in report.rows]
    assert "a b" not in terms           # subsumed by "z a b c" despite its rank
    assert len(terms) == 3              # truncation happens after subsumption


def test_report_rows_sorted_nonincreasing():
    rng = random.Random(3)
    rows = [result(f"t{i}", rng.random() * 50) for i in range(40)]
    report = build_scope_report(rows, "all", m=40, threshold=0.0, labels=LABELS, top_k=20)
    chis = [r.chi2 for r in report.rows]
    assert chis == sorted(chis, reverse=True)


# ----------------------------------------------------------------- serialization

def sample_report():
    rows = [
        result("here we show that", 44.25, "4", True, (1, 3, 9)),
        result("interviews", 21.125, "low", True, (9, 3, 1)),
    ]
    return build_scope_report(rows, "unit:3", m=523, threshold=19.0625, labels=LABELS)


def test_csv_header_exact():
    csv_text = render_csv(sample_report())
    header = csv_text.splitlines()[0]
    assert header == "scope,term,n,chi2,p_value,significant,illustrative,direction,prop_low,prop_3,prop_4,m,threshold"


def test_csv_rows():
    lines = render_csv(sample_report()).splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("unit:3,here we show that,13,44.25,")
    assert ",true,false,4," in lines[1]
    assert ",523,19.0625" in lines[1]


def test_jsonl_lines_hold_the_report_exactly():
    # float fields must survive byte-exactly through JSON
    rows = [result("t", 26.086956521739133, "3", True, (2, 11, 5)), result("u v", 9.5, "low", True, (9, 3, 1))]
    report = build_scope_report(rows, "panel:A", m=7, threshold=8.123456789012345, labels=LABELS)
    head = {"scope": "panel:A", "m": 7, "threshold": 8.123456789012345, "illustrative": False}
    lines = render_jsonl(report).splitlines()
    assert len(lines) == len(report.rows) == 2
    for line, row in zip(lines, report.rows):
        obj = json.loads(line)
        assert obj == {**head, **{f.name: getattr(row, f.name) for f in fields(ReportRow)}}
        assert list(obj["proportions"]) == LABELS
    assert json.loads(lines[0])["chi2"] == 26.086956521739133


def test_text_rendering_marks_low_direction():
    text = render_text(sample_report())
    lines = text.splitlines()
    assert lines[0].startswith("# scope=unit:3 m=523 threshold=19.0625 illustrative=false")
    interview_line = next(l for l in lines if "interviews" in l)
    assert "LOW" in interview_line
    show_line = next(l for l in lines if "here we show that" in l)
    assert "LOW" not in show_line


def test_illustrative_flag_in_every_emitted_line():
    rows = [result(f"t{i}", float(i + 1), significant=False) for i in range(3)]
    report = build_scope_report(rows, "unit:31", m=9, threshold=50.0, labels=LABELS)
    for line in render_jsonl(report).splitlines():
        assert '"illustrative": true' in line
    for line in render_csv(report).splitlines()[1:]:
        assert ",false,true," in line  # significant=false, illustrative=true


def test_emit_report_formats():
    report = sample_report()
    assert emit_report(report, "csv") == render_csv(report)
    assert emit_report(report, "jsonl") == render_jsonl(report)
    assert emit_report(report, "text") == render_text(report)
    with pytest.raises(ValueError):
        emit_report(report, "xml")


def test_empty_report_renders():
    report = ScopeReport("unit:29", 0, None, LABELS, [], True)
    assert render_csv(report).splitlines()[0].startswith("scope,")
    assert render_jsonl(report) == ""
    assert "illustrative=true" in render_text(report)
