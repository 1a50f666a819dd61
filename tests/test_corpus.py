import dataclasses
import hashlib
import json
import random
import re
import time
import tracemalloc
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from termassoc import corpus
from termassoc.corpus import (
    Document,
    GroupScheme,
    LinkResult,
    check_json,
    dedup_within_unit,
    default_group_scheme,
    filter_documents,
    json_line,
    link_records,
    merge_linked,
    parse_records,
)


def lines(*objs):
    return [json.dumps(o) for o in objs]


# -------------------------------------------------------------- parse_records

def test_read_jsonl_reads_a_cr_only_file_as_one_line(tmp_path):
    # Only LF ends a line: a file whose lines end in CR alone is one malformed line.
    path = tmp_path / "cr.jsonl"
    path.write_bytes("\r".join(lines({"id": "a"}, {"id": "b"}, {"id": "c"})).encode() + b"\r")
    parsed = corpus.read_jsonl(path)
    assert parsed.documents == []
    assert parsed.errors == [(1, "invalid JSON: Extra data")]


def test_parse_round_trip_all_fields():
    rec = {
        "id": "r1", "doi": "10.1/ab", "title": "T", "journal": "J",
        "abstract": "Some text.", "keywords": ["k1", "k2"],
        "unit": "3", "panel": "A", "score": 4, "submitter": "uni-x",
    }
    parsed = parse_records(lines(rec))
    assert not parsed.errors
    (doc,) = parsed.documents
    assert (doc.id, doc.doi, doc.title, doc.journal) == ("r1", "10.1/ab", "T", "J")
    assert doc.abstract_raw == "Some text."
    assert doc.keywords == ("k1", "k2")
    assert (doc.unit, doc.panel, doc.score, doc.submitter) == ("3", "A", 4, "uni-x")


def test_parse_shares_repeated_field_strings():
    recs = [{"id": f"r{i}", "journal": "Journal of Tests", "unit": "12", "submitter": "uni-x",
             "keywords": ["shared phrase", f"own phrase {i}"]} for i in range(2)]
    first, second = parse_records(lines(*recs)).documents
    for name in ("journal", "unit", "submitter"):
        assert getattr(first, name) == getattr(second, name) == recs[0][name]
        assert getattr(first, name) is getattr(second, name)
    assert (first.keywords, second.keywords) == (tuple(recs[0]["keywords"]), tuple(recs[1]["keywords"]))
    assert first.keywords[0] is second.keywords[0]


def test_parse_keywordless_records_share_one_empty_tuple():
    # Score records have no keywords: each must not hold a list of its own.
    recs = [{"id": "r1"}, {"id": "r2", "keywords": []}, {"id": "r3", "keywords": None}]
    docs = parse_records(lines(*recs)).documents
    assert [d.keywords for d in docs] == [(), (), ()]
    assert all(d.keywords is Document(id="x").keywords for d in docs)


def test_document_holds_keywords_given_as_a_list_as_a_tuple():
    doc = Document(id="d", keywords=["k one", "k two"])
    assert doc.keywords == ("k one", "k two")
    assert dataclasses.replace(doc, score=3).keywords is doc.keywords


def test_parse_missing_abstract_warns_and_defaults_empty():
    parsed = parse_records(lines({"id": "r1", "score": 3, "unit": "2"}))
    (doc,) = parsed.documents
    assert doc.abstract_raw == ""


def test_parse_score_zero_retained():
    # removal is the filter stage's job, not the parser's
    parsed = parse_records(lines({"id": "r1", "score": 0, "abstract": "x"}))
    assert parsed.documents[0].score == 0
    assert not parsed.errors


def test_parse_malformed_records_reported_with_line_numbers():
    stream = [
        json.dumps({"id": "ok1", "abstract": ""}),
        "{not json",
        json.dumps({"title": "no id", "abstract": ""}),
        json.dumps({"id": "bad-score", "score": 7, "abstract": ""}),
        json.dumps(["not", "an", "object"]),
        json.dumps({"id": "ok2", "abstract": ""}),
        json.dumps({"id": "ok1", "abstract": "a second record with the first id"}),
    ]
    parsed = parse_records(stream)
    assert [d.id for d in parsed.documents] == ["ok1", "ok2"]
    assert [lineno for lineno, _ in parsed.errors] == [2, 3, 4, 5, 7]
    assert parsed.errors[-1] == (7, "duplicate id 'ok1' (first on line 1)")
    assert parsed.documents[0].abstract_raw == ""


@pytest.mark.parametrize("text, value, problem", [
    (r'"\ud83d\ude00"', "\U0001F600", None),
    (r'"\\ud800"', r"\ud800", None),   # an escaped backslash, then plain text
    (r'["a", {"b": "\ud800"}]', None, r"invalid JSON: unpaired surrogate escape \ud800"),
    (r'{"\udfff": 1}', None, r"invalid JSON: unpaired surrogate escape \udfff"),
    (r'"\ude00\ud83d"', None, r"invalid JSON: unpaired surrogate escape \ude00"),
    ('{\n"a": "\udcff"}', None, "invalid UTF-8: byte 0xff at line 2 column 7"),
    ("\x0c{}", None, "invalid JSON: Expecting value"),   # only JSON whitespace pads a value
    (r'"caf\u00e9 \u2013"', "caf\u00e9 \u2013", None),   # escapes outside the surrogates need no second look
    (r'"\uD83D\uDE00"', "\U0001F600", None),
    (r'"\uD800"', None, r"invalid JSON: unpaired surrogate escape \ud800"),
    (r'"\\\ud800"', None, r"invalid JSON: unpaired surrogate escape \ud800"),   # a backslash, then an escape
    ("NaN", None, "invalid JSON: NaN is not a JSON number"),
    ('{"chi2": Infinity}', None, "invalid JSON: Infinity is not a JSON number"),
    ("[1, -Infinity]", None, "invalid JSON: -Infinity is not a JSON number"),
    ("\ufeff{}", None, "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    (r'"\ud800\ud83d\ude00"', None, r"invalid JSON: unpaired surrogate escape \ud800"),
    (r'"\ude00"', None, r"invalid JSON: unpaired surrogate escape \ude00"),
    (r'"\ud83D\uDe00"', "\U0001F600", None),
    # The text is checked, not the value: the overwritten value's escape still counts.
    (r'{"a": "\ud800", "a": "x"}', None, r"invalid JSON: unpaired surrogate escape \ud800"),
], ids=["pair", "escaped-backslash", "nested", "key", "reversed-pair", "not-utf8-in-a-file", "form-feed",
        "bmp-escapes", "upper-case-pair", "upper-case-lone", "backslash-then-escape", "nan", "infinity",
        "minus-infinity", "bom", "lone-then-pair", "lone-low", "mixed-case-pair", "overwritten-duplicate-key"])
def test_decode_json_values_and_diagnostics(text, value, problem):
    assert corpus.decode_json(text) == (value, problem)


def reference_surrogate_problem(text):
    """The unpaired-surrogate check as a re-encoding: the first lone surrogate in the decoded value."""
    bad = re.search("[\ud800-\udfff]", json.dumps(json.loads(text), ensure_ascii=False))
    return None if bad is None else f"invalid JSON: unpaired surrogate escape \\u{ord(bad.group()):04x}"


ESCAPE_PARTS = [r"\ud800", r"\uDBFF", r"\ud83d", r"\udc00", r"\uDE00", r"\uDFFF", r"\ud83d\ude00", r"\uD7FF",
                r"\uE000", r"\u0041", r"\u00e9", r"\\", r'\"', r"\n", r"\/", r"\\u", "ud800", "a", "é", " "]
JSON_STRING = st.lists(st.sampled_from(ESCAPE_PARTS), max_size=8).map(lambda parts: '"' + "".join(parts) + '"')
ESCAPED_JSON = st.one_of(
    st.lists(JSON_STRING, max_size=4).map(lambda items: "[" + ", ".join(items) + "]"),
    # Keys that decode alike would be repeated keys, whose values the re-encoding never sees.
    st.lists(st.tuples(JSON_STRING, JSON_STRING), max_size=4, unique_by=lambda kv: json.loads(kv[0]))
    .map(lambda pairs: "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}"),
)


@settings(max_examples=500)
@given(ESCAPED_JSON)
def test_decode_json_names_the_surrogate_the_re_encoding_finds(text):
    problem = reference_surrogate_problem(text)
    assert corpus.decode_json(text) == (None if problem else json.loads(text), problem)


def test_iter_json_lines_skips_only_lines_of_json_whitespace():
    blank = ["", "\n", " \t\r\n", "\r\n"]
    # str.isspace() holds for each of these, but none is JSON whitespace.
    other = ["\x0c\n", "\xa0\n", "\u2028\n", "\x85\n", "\x0b\n", *(f"{chr(c)}\n" for c in range(0x1C, 0x20))]
    got = list(corpus.iter_json_lines([*blank, *other, '{"id": "r1"}\n']))
    first = len(blank) + 1
    assert got == [*((n, None, "invalid JSON: Expecting value") for n in range(first, first + len(other))),
                   (first + len(other), {"id": "r1"}, None)]


# ------------------------------------------------------------- linkable


def test_parse_record_that_linkable_rejects_is_none():
    recs = [
        {"id": "m1", "doi": " 10.1/A ", "title": "Wanted", "journal": "The  J", "abstract": "Kept text.",
         "keywords": ["k1"], "unit": "3", "score": 2, "submitter": "s"},
        {"id": "m2", "doi": "10.1/b", "title": "Unwanted", "journal": "J", "abstract": "Dropped text.",
         "abstract_clean": "Dropped.", "keywords": ["k2"], "unit": "3", "score": 4, "submitter": "s"},
        {"id": "m3", "title": None, "journal": None, "abstract": "No identity."},
    ]
    asked = []

    def linkable(doi, key):
        asked.append((doi, key))
        return key.startswith("wanted")

    kept, dropped, blank = parse_records(lines(*recs), linkable).documents
    # Asked by the normalized DOI and the title+journal key, as lookup_index holds them.
    assert asked == [("10.1/a", "wanted thej"), ("10.1/b", "unwanted j"), (None, "")]
    assert kept == parse_records(lines(recs[0])).documents[0]
    assert (kept.abstract_raw, kept.keywords, kept.unit, kept.score) == ("Kept text.", ("k1",), "3", 2)
    assert dropped is None and blank is None


def test_parse_linkable_leaves_diagnostics_and_the_record_count_alone():
    stream = [
        json.dumps({"id": "m1", "doi": "10.1/a", "abstract": "one"}),
        "{not json",
        json.dumps({"id": "m2", "abstract": "two", "keywords": "not a list"}),
        json.dumps({"id": "m3", "title": "Three", "abstract": "three"}),
        json.dumps({"id": "m1", "abstract": "a second record with the first id"}),
    ]
    asked = []
    every = parse_records(stream)
    none = parse_records(stream, lambda doi, key: asked.append((doi, key)) or False)
    assert none.errors == every.errors == [
        (2, "invalid JSON: Expecting property name enclosed in double quotes"),
        (3, "field 'keywords' must be a list of strings"),
        (5, "duplicate id 'm1' (first on line 1)"),
    ]
    assert asked == [("10.1/a", ""), (None, "three")]   # never asked about a malformed or repeated line
    assert [d.id for d in every.documents] == ["m1", "m3"]
    assert none.documents == [None, None]


def _traced(call):
    """call()'s result, the bytes it leaves held and its peak, by tracemalloc."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = call()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, after - before, peak - before


def _unwanted_records(n):
    return [json.dumps({"id": f"m{k:06d}", "doi": f"10.2/m{k}", "title": f"Unwanted title {k}", "journal": "J",
                        "abstract": "Some text."}) for k in range(n)]


def _id_table_peak(n):
    """The peak of a dict keyed by the n ids of `_unwanted_records`, the part of a parse's peak that
    changes with the Python version."""
    return _traced(lambda: dict.fromkeys(f"m{k:06d}" for k in range(n)))[2]


def test_parse_holds_no_object_for_a_record_that_linkable_rejects():
    # At 10^5 lines the rejected records cost their list slots only: an id-only Document
    # and its id string took 185 bytes each. While parsing, each id costs its string and a
    # dict slot, and its first line 4 packed bytes, not an int object. Over the ids' own
    # dict, the parse peaked 10.8 bytes a line higher on Python 3.10 to 3.13; an int per
    # line peaked 31.5 higher.
    n = 100_000
    stream = _unwanted_records(n)
    parsed, held, peak = _traced(lambda: parse_records(stream, lambda doi, key: False))
    assert parsed.documents == [None] * n and parsed.errors == []
    assert held <= 16 * n
    assert peak - _id_table_peak(n) <= 16 * n


def test_parse_unpacks_the_first_lines_at_a_late_repeat_within_an_int_per_line_peak():
    # A repeat makes an int for each earlier id's first line. Made in place, freeing the packed
    # bytes as it goes, that peaked 17 to 24 bytes a line over the ids' own dict on Python 3.10
    # to 3.13. An int per line from the start peaked 31.5 over it, repeat or not, and a second
    # dict built from the packed lines 81 to 96.
    n = 100_000
    stream = _unwanted_records(n) + [json.dumps({"id": "m031337"})]
    parsed, held, peak = _traced(lambda: parse_records(stream, lambda doi, key: False))
    assert parsed.errors == [(n + 1, "duplicate id 'm031337' (first on line 31338)")]
    assert held <= 16 * n
    assert peak - _id_table_peak(n) <= 28 * n


def test_parse_reports_each_repeat_of_one_id_without_a_quadratic_stall():
    n = 100_000
    stream = [json.dumps({"id": "same", "abstract": f"text {k}"}) for k in range(n)]
    start = time.perf_counter()
    parsed = parse_records(stream)
    elapsed = time.perf_counter() - start
    assert [doc.abstract_raw for doc in parsed.documents] == ["text 0"]
    assert parsed.errors == [(k, "duplicate id 'same' (first on line 1)") for k in range(2, n + 1)]
    assert elapsed < 5.0


def test_parse_names_the_first_line_of_an_id_first_repeated_after_many_others():
    n = 50_000
    stream = ["", "{not json", json.dumps({"abstract": "no id"}), "  \t"]
    stream += [json.dumps({"id": f"m{k}"}) for k in range(n)]
    stream += ["", json.dumps({"id": 7}), json.dumps({"id": "m31337"}), json.dumps({"id": "m0"})]
    parsed = parse_records(stream)
    assert len(parsed.documents) == n
    assert parsed.errors == [
        (2, "invalid JSON: Expecting property name enclosed in double quotes"),
        (3, "missing required field 'id'"),
        (n + 6, "field 'id' must be a string"),
        (n + 7, "duplicate id 'm31337' (first on line 31342)"),
        (n + 8, "duplicate id 'm0' (first on line 5)"),
    ]


def test_parse_reports_every_repeat_of_many_ids_exactly_and_fast():
    n = 50_000
    stream = [json.dumps({"id": f"m{k}"}) for k in range(n)] + [json.dumps({"id": f"m{k}"}) for k in range(n)]
    start = time.perf_counter()
    parsed = parse_records(stream)
    elapsed = time.perf_counter() - start
    assert [doc.id for doc in parsed.documents] == [f"m{k}" for k in range(n)]
    assert parsed.errors == [(n + k + 1, f"duplicate id 'm{k}' (first on line {k + 1})") for k in range(n)]
    assert elapsed < 5.0


def test_parse_past_the_packed_line_limit_is_a_diagnostic(monkeypatch):
    numbered = [(2**32 - 1, {"id": "a"}, None), (2**32, {"id": "b"}, None)]
    monkeypatch.setattr(corpus, "iter_json_lines", lambda stream: iter(numbered))
    with pytest.raises(ValueError, match=r"^line 4294967296: cannot check ids past line 4294967295$"):
        parse_records([])
    # A repeat before the limit has unpacked the lines already, so nothing limits them.
    numbered[:0] = [(1, {"id": "a"}, None)]
    parsed = parse_records([])
    assert [doc.id for doc in parsed.documents] == ["a", "b"]
    assert parsed.errors == [(2**32 - 1, "duplicate id 'a' (first on line 1)")]


def test_lookup_index_holds_each_doi_and_non_empty_title_journal_key():
    records = [Document(id="r1", doi="10.1/A", title="A  Title", journal="J"),
               Document(id="r2", title="Other", journal=" K "),
               Document(id="r3")]   # no DOI and an empty key: it looks nothing up
    by_doi, by_tj = corpus.lookup_index(records)
    # No list until link_records files a metadata id under the key.
    assert by_doi == {"10.1/a": None}
    assert by_tj == {"atitle j": None, "other k": None}


def test_parse_doi_normalized():
    parsed = parse_records(lines({"id": "r", "doi": " 10.1000/ABC ", "abstract": ""}))
    assert parsed.documents[0].doi == "10.1000/abc"


def test_document_score_validation():
    with pytest.raises(ValueError):
        Document(id="x", score=5)


def test_unit_maps_to_panel():
    assert Document(id="x", unit="3").panel == "A"
    assert Document(id="x", unit="12").panel == "B"
    assert Document(id="x", unit="24").panel == "C"
    assert Document(id="x", unit="25").panel == "D"
    # explicit panel wins; unknown units stay unmapped
    assert Document(id="x", unit="3", panel="C").panel == "C"
    assert Document(id="x", unit="weird").panel == ""


# -------------------------------------------------------------------- linking

def meta(id, doi=None, title="", journal="", abstract="A" * 600):
    return Document(id=id, doi=doi, title=title, journal=journal, abstract_raw=abstract)


def rec(id, doi=None, title="", journal="", score=3, unit="3"):
    return Document(id=id, doi=doi, title=title, journal=journal, score=score, unit=unit)


def test_link_by_doi_normalizes():
    result = link_records([rec("r1", doi="10.1000/ABC ")], [meta("m1", doi="10.1000/abc")])
    assert result.matched == [("r1", "m1", "doi")]


def test_link_by_doi_missing_doi_unmatched():
    result = link_records([rec("r1")], [meta("m1", doi="10.1/x")])
    assert result.unmatched == ["r1"]


def test_link_by_doi_counts():
    metadata = [meta("m1", doi="10.1/a"), meta("m2", doi="10.1/b")]
    records = [rec("r1", doi="10.1/a"), rec("r2", doi="10.1/b"), rec("r3", doi="10.1/zzz")]
    result = link_records(records, metadata)
    assert len(result.matched) == 2 and result.unmatched == ["r3"]


def test_link_by_doi_duplicate_metadata_takes_first_sorted_id():
    result = link_records([rec("r1", doi="10.1/a")], [meta("m9", doi="10.1/a"), meta("m2", doi="10.1/a")])
    assert result.matched == [("r1", "m2", "doi")]
    assert result.diagnostics


def test_link_title_journal_normalization():
    metadata = [meta("m1", title="a study of xx and y plus z.", journal="TheLancet")]
    result = link_records([rec("r1", title="A Study of XX and Y plus Z.", journal="The Lancet")], metadata)
    assert result.matched == [("r1", "m1", "title_journal")]
    assert result.suspicious == []  # normalized title is exactly 20 chars


def test_link_title_journal_short_title_suspicious():
    result = link_records([rec("r1", title="Comment", journal="BMJ")], [meta("m1", title="Comment", journal="BMJ")])
    assert result.matched == [("r1", "m1", "title_journal")]
    assert len(result.suspicious) == 1
    (pair, reason) = result.suspicious[0]
    assert pair == ("r1", "m1") and "short title" in reason


def test_link_title_journal_requires_same_journal():
    metadata = [meta("m1", title="Same Title Here Okay", journal="Journal A")]
    result = link_records([rec("r1", title="Same Title Here Okay", journal="Journal B")], metadata)
    assert result.matched == [] and result.unmatched == ["r1"]


def test_link_title_journal_collision_no_match():
    metadata = [
        meta("m1", title="An Ambiguous Title Here", journal="J"),
        meta("m2", title="An Ambiguous  Title Here", journal="J"),  # same key after despacing
    ]
    result = link_records([rec("r1", title="An Ambiguous Title Here", journal="J")], metadata)
    assert result.matched == [] and result.unmatched == ["r1"]
    assert any("collision" in d for d in result.diagnostics)


def test_link_records_doi_precedence_and_no_double_match():
    metadata = [
        meta("m1", doi="10.1/a", title="One Nice Long Title Here", journal="J"),
        meta("m2", title="Another Long Title Right Here", journal="J"),
    ]
    records = [
        rec("r1", doi="10.1/a", title="Another Long Title Right Here", journal="J"),
        rec("r2", title="Another Long Title Right Here", journal="J"),
        rec("r3", title="Unknown", journal="Nowhere"),
    ]
    result = link_records(records, metadata)
    kinds = {rid: kind for rid, _, kind in result.matched}
    assert kinds == {"r1": "doi", "r2": "title_journal"}
    assert result.unmatched == ["r3"]
    matched_ids = [rid for rid, _, _ in result.matched]
    assert len(matched_ids) == len(set(matched_ids))
    # suspicious entries refer to matched pairs
    matched_pairs = {(rid, mid) for rid, mid, _ in result.matched}
    assert all(pair in matched_pairs for pair, _ in result.suspicious)


def test_merge_linked_combines_fields():
    metadata = [meta("m1", doi="10.1/a", title="Title", journal="J", abstract="Real abstract.")]
    records = [rec("r1", doi="10.1/a", score=4, unit="5")]
    link = link_records(records, metadata)
    (doc,) = merge_linked(records, metadata, link)
    assert doc.id == "r1" and doc.score == 4 and doc.unit == "5"
    assert doc.abstract_raw == "Real abstract." and doc.title == "Title"


def test_merged_document_takes_the_metadata_text_and_no_cleaned_abstract():
    record = Document(id="r1", doi="10.1/a", abstract_raw="record text", abstract_clean="record clean",
                      keywords=("record kw",), unit="5", score=4, submitter="s")
    metadata = Document(id="m1", doi="10.1/a", title="T", journal="J", abstract_raw="metadata text",
                        abstract_clean="metadata clean", keywords=("metadata kw",))
    (doc,) = merge_linked([record], [metadata], link_records([record], [metadata]))
    assert doc == Document(id="r1", doi="10.1/a", title="T", journal="J", abstract_raw="metadata text",
                           keywords=("metadata kw",), unit="5", score=4, submitter="s")


def test_merged_document_holds_its_metadata_records_keywords():
    (record,) = parse_records(lines({"id": "r1", "doi": "10.1/a", "score": 4, "unit": "5"})).documents
    (metadata,) = parse_records(lines({"id": "m1", "doi": "10.1/a", "keywords": ["k one", "k two"]})).documents
    (doc,) = merge_linked([record], [metadata], link_records([record], [metadata]))
    assert doc.keywords == ("k one", "k two")
    assert doc.keywords is metadata.keywords


def test_link_records_linear_in_title_journal_matches():
    n = 20_000
    metadata = [meta(f"m{k:05d}", title=f"A long enough title for article {k}", journal="J") for k in range(n)]
    records = [rec(f"r{k:05d}", title=f"A long enough title for article {k}", journal="J") for k in range(n)]
    start = time.perf_counter()
    result = link_records(records, metadata)
    elapsed = time.perf_counter() - start
    assert len(result.matched) == n and not result.unmatched
    assert elapsed < 5.0


# Small pools make DOI matches, duplicate DOIs, title+journal matches, short
# titles, key collisions and unmatched records all common.
DOIS = st.sampled_from([None, "10.1/a", "10.1/b", "10.1/c"])
TITLES = st.sampled_from(["", "Short", "A reasonably long title one", "A reasonably long title two"])
JOURNALS = st.sampled_from(["", "J", "K"])


@st.composite
def linkage_inputs(draw):
    records = [
        rec(f"r{k:02d}", doi=draw(DOIS), title=draw(TITLES), journal=draw(JOURNALS),
            score=draw(st.integers(1, 4)), unit=draw(st.sampled_from(["1", "7"])))
        for k in range(draw(st.integers(0, 12)))
    ]
    metadata = [
        meta(f"m{k:02d}", doi=draw(DOIS), title=draw(TITLES), journal=draw(JOURNALS), abstract=f"abstract {k}")
        for k in range(draw(st.integers(0, 12)))
    ]
    return records, metadata, draw(st.permutations(records)), draw(st.permutations(metadata))


@given(linkage_inputs())
def test_link_and_merge_independent_of_input_order(inputs):
    records, metadata, shuffled_records, shuffled_metadata = inputs
    link = link_records(records, metadata)
    shuffled_link = link_records(shuffled_records, shuffled_metadata)
    assert shuffled_link == link
    assert merge_linked(shuffled_records, shuffled_metadata, shuffled_link) == merge_linked(records, metadata, link)


def reference_link_records(score_records, metadata):
    """The full-index linkage: every metadata DOI and title+journal key is indexed."""
    by_doi, by_tj = {}, {}
    for doc in sorted(metadata, key=lambda d: d.id):
        if doc.doi:
            by_doi.setdefault(doc.doi, []).append(doc.id)
        key = corpus.title_journal_key(doc.title, doc.journal)
        if key:
            by_tj.setdefault(key, []).append(doc.id)
    result = LinkResult()
    tj_diagnostics = []
    for rec in sorted(score_records, key=lambda d: d.id):
        ids = by_doi.get(rec.doi)
        if ids:
            if len(ids) > 1:
                result.diagnostics.append(
                    f"doi {rec.doi!r} duplicated in metadata ({len(ids)} records); matched first by sorted id")
            result.matched.append((rec.id, ids[0], "doi"))
            continue
        ids = by_tj.get(corpus.title_journal_key(rec.title, rec.journal))
        if not ids:
            result.unmatched.append(rec.id)
        elif len(ids) > 1:
            tj_diagnostics.append(f"title+journal key collision for record {rec.id!r}: metadata {ids}; no match")
            result.unmatched.append(rec.id)
        else:
            result.matched.append((rec.id, ids[0], "title_journal"))
            title_chars = len("".join(rec.title.lower().split()))
            if title_chars < corpus.SUSPICIOUS_TITLE_CHARS:
                result.suspicious.append(((rec.id, ids[0]), f"short title ({title_chars} chars)"))
    result.diagnostics += tj_diagnostics
    return result


# Records draw from the wanted pools; metadata also from pools no record uses.
# "A reasonably long title onej" with no journal must not take the key of
# "A reasonably long title one" in journal "J", and spacing never counts.
WANTED_DOIS = [None, "10.1/a", "10.1/b", "10.1/c"]
WANTED_TITLES = ["", "Short", "A reasonably long title one", "A reasonably long title two"]
WANTED_JOURNALS = ["", "J", "K"]
UNWANTED_DOIS = ["10.9/x", "10.9/y"]
UNWANTED_TITLES = ["A reasonably  long title one", "A reasonably long title onej", "Unwanted title here, long",
                   "Tiny"]


@st.composite
def oracle_inputs(draw):
    records = [
        rec(f"r{k:02d}", doi=draw(st.sampled_from(WANTED_DOIS)), title=draw(st.sampled_from(WANTED_TITLES)),
            journal=draw(st.sampled_from(WANTED_JOURNALS)))
        for k in draw(st.lists(st.integers(0, 30), max_size=12, unique=True))
    ]
    metadata = [
        meta(f"m{k:02d}", doi=draw(st.sampled_from(WANTED_DOIS + UNWANTED_DOIS)),
             title=draw(st.sampled_from(WANTED_TITLES + UNWANTED_TITLES)),
             journal=draw(st.sampled_from(WANTED_JOURNALS + ["L"])))
        for k in draw(st.lists(st.integers(0, 40), max_size=20, unique=True))
    ]
    return records, draw(st.permutations(metadata))


@settings(max_examples=500)
@given(oracle_inputs())
def test_link_records_matches_the_full_index_reference(inputs):
    records, metadata = inputs
    assert link_records(records, metadata) == reference_link_records(records, metadata)


def test_link_records_memory_does_not_grow_with_unwanted_metadata():
    # The full index took 17.7 MB here and indexing only wanted keys 0.24 MB.
    records = [rec(f"r{k:04d}", doi=f"10.1/r{k}" if k % 2 else None, title=f"A long enough record title {k}",
                   journal="J") for k in range(1_000)]
    metadata = [meta(f"m{k:05d}", doi=f"10.2/m{k}", title=f"An unrelated metadata title {k}",
                     journal="Journal of Things", abstract="x") for k in range(50_000)]
    tracemalloc.start()
    try:
        result = link_records(records, metadata)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.unmatched) == 1_000
    assert peak < 4_000_000


SHORT_TEXT = st.text(max_size=10)
# A strategy for each Document field; the test fails when a field has none, so a new field is round-tripped too.
DOCUMENT_FIELDS = {
    "id": st.text(min_size=1, max_size=10),
    "doi": st.none() | SHORT_TEXT,
    "title": SHORT_TEXT,
    "journal": SHORT_TEXT,
    "abstract_raw": SHORT_TEXT,
    "abstract_clean": st.none() | SHORT_TEXT,
    "keywords": st.lists(SHORT_TEXT, max_size=3).map(tuple),
    "unit": st.sampled_from(["", "3", "17", "x"]),
    "panel": st.sampled_from(["", "A", "Z"]),
    "score": st.none() | st.sampled_from(corpus.VALID_SCORES),
    "submitter": SHORT_TEXT,
}


@given(st.builds(Document, **DOCUMENT_FIELDS))
def test_document_record_round_trips_through_a_json_line(doc):
    assert set(DOCUMENT_FIELDS) == {f.name for f in dataclasses.fields(Document)}
    parsed = parse_records([json_line(doc.to_record())])
    assert not parsed.errors
    assert parsed.documents == [doc]


def test_document_takes_no_undeclared_attribute():
    doc = Document(id="x")
    with pytest.raises(AttributeError):
        doc.extra = 1


# ---------------------------------------------------------------------- dedup

def dup(id, score, unit="3", doi="10.1/same"):
    return Document(id=id, doi=doi, unit=unit, score=score)


def test_dedup_odd_count_takes_median():
    out = dedup_within_unit([dup("a", 2), dup("b", 3), dup("c", 4)], "unit", seed=0)
    assert [d.score for d in out] == [3]


def test_dedup_odd_count_ignores_seed():
    docs = [dup("a", 1), dup("b", 3), dup("c", 4), dup("d", 4), dup("e", 2)]
    scores = {dedup_within_unit(docs, "unit", seed=s)[0].score for s in range(20)}
    assert scores == {3}


def test_dedup_even_tie_reproducible_and_order_independent():
    docs = [dup("a", 3), dup("b", 4)]
    first = dedup_within_unit(docs, "unit", seed=42)[0].score
    assert first in (3, 4)
    for _ in range(5):
        assert dedup_within_unit(docs, "unit", seed=42)[0].score == first
        assert dedup_within_unit(list(reversed(docs)), "unit", seed=42)[0].score == first
    # some seed must produce the other middle value
    others = {dedup_within_unit(docs, "unit", seed=s)[0].score for s in range(64)}
    assert others == {3, 4}


def test_dedup_even_tie_follows_the_stated_rule():
    # The README's rule, rebuilt from hashlib and random alone: the identity of a DOI-less
    # article with a journal is "tj:" + squashed title + " " + squashed journal.
    docs = [Document("b", title="Deep  Sea Life", journal="Ocean Letters", unit="3", score=4),
            Document("a", title="deep sea life", journal=" Ocean\tLetters", unit="3", score=1),
            Document("c", title="Deep Sea Life", journal="Ocean Letters", unit="3", score=3),
            Document("d", title="Deep Sea Life", journal="Ocean Letters", unit="3", score=2)]
    chosen = set()
    for seed in range(16):
        digest = hashlib.sha256(f"{seed}|tj:deepsealife oceanletters".encode("utf-8")).digest()
        expected = random.Random(int.from_bytes(digest[:8], "big")).choice((2, 3))
        (kept,) = dedup_within_unit(docs, "unit", seed)
        assert (kept.id, kept.score) == ("a", expected)
        chosen.add(expected)
    assert chosen == {2, 3}


def test_dedup_equal_middles_consume_no_randomness(monkeypatch):
    calls = []
    real = corpus.random.Random

    def spying(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(corpus.random, "Random", spying)
    out = dedup_within_unit([dup("a", 4), dup("b", 4)], "unit", seed=1)
    assert out[0].score == 4
    assert calls == []


def test_dedup_keeper_whose_score_is_the_median_is_returned_as_is():
    docs = [dup("b", 4), dup("a", 4)]
    assert dedup_within_unit(docs, "unit", seed=1)[0] is docs[1]
    docs = [dup("b", 2), dup("a", 4)]
    (kept,) = dedup_within_unit(docs, "unit", seed=1)
    assert kept.id == "a" and kept.score in (2, 4)
    assert docs[1].score == 4    # a changed score goes on a copy


def test_dedup_score_stays_in_input_multiset():
    rng = random.Random(8)
    for trial in range(100):
        scores = [rng.randint(1, 4) for _ in range(rng.randint(1, 6))]
        docs = [dup(f"d{i}", s) for i, s in enumerate(scores)]
        out = dedup_within_unit(docs, "unit", seed=trial)
        assert out[0].score in scores


def test_dedup_output_canonical_and_order_independent():
    rng = random.Random(5)
    docs = []
    for i in range(30):
        ident = f"10.1/art{i % 9}"
        docs.append(Document(id=f"r{i}", doi=ident, unit=str(1 + i % 3), score=rng.randint(1, 4)))
    baseline = dedup_within_unit(docs, "unit", seed=9)
    for trial in range(5):
        shuffled = docs[:]
        rng.shuffle(shuffled)
        again = dedup_within_unit(shuffled, "unit", seed=9)
        assert again == baseline


@st.composite
def dedup_inputs(draw):
    docs = [
        Document(id=f"r{k:02d}", doi=draw(DOIS), title=draw(TITLES), journal=draw(JOURNALS),
                 unit=draw(st.sampled_from(["1", "2", "7"])), score=draw(st.sampled_from([None, 1, 2, 3, 4])))
        for k in range(draw(st.integers(0, 12)))
    ]
    return docs, draw(st.permutations(docs)), draw(st.sampled_from(["unit", "panel", "all"])), draw(st.integers(0, 9))


@given(dedup_inputs())
def test_dedup_independent_of_input_order(inputs):
    docs, shuffled, scope, seed = inputs
    assert dedup_within_unit(shuffled, scope, seed) == dedup_within_unit(docs, scope, seed)


def reference_dedup(docs, scope, seed):
    """The grouping dedup_within_unit had before: one key tuple and one list for every document."""
    groups = {}
    for doc in docs:
        groups.setdefault((doc.identity, "" if scope == "all" else getattr(doc, scope)), []).append(doc)
    out = []
    for (identity, _sv), copies in sorted(groups.items()):
        keeper = min(copies, key=lambda d: d.id)
        scores = sorted(d.score for d in copies if d.score is not None)
        if len(copies) == 1 or not scores:
            out.append(keeper)
            continue
        lo, hi = scores[(len(scores) - 1) // 2], scores[len(scores) // 2]
        score = lo if lo == hi else random.Random(corpus.derive_seed(seed, identity)).choice((lo, hi))
        out.append(keeper if score == keeper.score else dataclasses.replace(keeper, score=score))
    return out


@st.composite
def dedup_corpora(draw):
    # Few ids, so copies share ids too; units 1 and 2 are in panel A and 7 in panel B; a
    # document may be passed twice.
    docs = [Document(id=draw(st.sampled_from(["a", "b", "c", "d"])), doi=draw(DOIS), title=draw(TITLES),
                     journal=draw(JOURNALS), unit=draw(st.sampled_from(["1", "2", "7"])),
                     score=draw(st.sampled_from([None, 0, 1, 2, 3, 4])))
            for _ in range(draw(st.integers(0, 14)))]
    if docs:
        docs += draw(st.lists(st.sampled_from(docs), max_size=2))
    return draw(st.permutations(docs)), draw(st.integers(0, 9))


@settings(max_examples=300)
@given(dedup_corpora())
def test_dedup_equals_the_one_list_per_document_reference(inputs):
    docs, seed = inputs
    for scope in ("unit", "panel", "all"):
        got, want = dedup_within_unit(docs, scope, seed), reference_dedup(docs, scope, seed)
        assert got == want
        # The same objects come back: a keeper whose score stands is not copied.
        assert [any(d is x for x in docs) for d in got] == [any(d is x for x in docs) for d in want]


def test_dedup_scope_panel_vs_unit():
    # same article in two units of one panel: kept per unit, merged per panel
    docs = [
        Document(id="r1", doi="10.1/a", unit="1", score=4),
        Document(id="r2", doi="10.1/a", unit="3", score=2),
    ]
    assert len(dedup_within_unit(docs, "unit", seed=0)) == 2
    merged = dedup_within_unit(docs, "panel", seed=0)
    assert len(merged) == 1 and merged[0].score in (2, 4)
    assert len(dedup_within_unit(docs, "all", seed=0)) == 1


def test_title_journal_key_keeps_title_and_journal_apart():
    assert corpus.title_journal_key("Cancer", "Research Letters") == "cancer researchletters"
    assert corpus.title_journal_key("Cancer Research", "Letters") == "cancerresearch letters"
    assert corpus.title_journal_key("Cancer", "") == "cancer"
    assert corpus.title_journal_key("", "Cancer") == " cancer"
    assert corpus.title_journal_key(" ", "\t") == ""


def test_dedup_keeps_articles_whose_title_and_journal_only_join_alike():
    docs = [Document(id="r1", title="Cancer", journal="Research Letters", unit="1", score=2),
            Document(id="r2", title="Cancer Research", journal="Letters", unit="1", score=4)]
    assert [(d.id, d.score) for d in dedup_within_unit(docs, "unit", seed=0)] == [("r1", 2), ("r2", 4)]


def test_dedup_identity_falls_back_to_title_journal():
    docs = [
        Document(id="r1", title="Same Thing", journal="J", unit="1", score=2),
        Document(id="r2", title="same  thing", journal="J", unit="1", score=2),
    ]
    out = dedup_within_unit(docs, "unit", seed=0)
    assert len(out) == 1
    # no DOI, title or journal: nothing identifies the article but its id
    blank = [Document(id="r1", unit="1", score=2), Document(id="r2", unit="1", score=3)]
    assert [d.id for d in dedup_within_unit(blank, "unit", seed=0)] == ["r1", "r2"]


# --------------------------------------------------------------------- filter

def doc_with_clean(id, n_chars, score=3, unit="3"):
    return Document(id=id, unit=unit, score=score, abstract_raw="x", abstract_clean="a" * n_chars)


def test_filter_length_boundary():
    result = filter_documents([doc_with_clean("short", 499), doc_with_clean("exact", 500)], 500)
    assert [d.id for d in result.documents] == ["exact"]


def test_filter_removes_score_zero():
    result = filter_documents([doc_with_clean("z", 2000, score=0), doc_with_clean("ok", 2000)], 500)
    assert [d.id for d in result.documents] == ["ok"]


def test_filter_requires_cleaning_first():
    raw_only = Document(id="r", unit="1", score=3, abstract_raw="text")
    with pytest.raises(ValueError, match="^document 'r' has no cleaned abstract; run cleaning before filtering"):
        filter_documents([raw_only], 500)


def test_filter_idempotent_and_counts():
    docs = [doc_with_clean(f"d{i}", 400 + i * 50, unit=str(1 + i % 2)) for i in range(8)]
    first = filter_documents(docs, 500)
    second = filter_documents(first.documents, 500)
    assert second.documents == first.documents


def test_filter_counts_unicode_scalars():
    snowman = Document(id="s", unit="1", score=3, abstract_raw="x", abstract_clean="☃" * 500)
    assert filter_documents([snowman], 500).documents


# --------------------------------------------------------------- group scheme

def test_default_scheme():
    scheme = default_group_scheme()
    assert scheme.labels == ["low", "3", "4"]
    assert scheme.group_index(1) == 0 and scheme.group_index(2) == 0
    assert scheme.group_index(3) == 1 and scheme.group_index(4) == 2
    assert scheme.group_index(0) is None


def test_scheme_validation():
    with pytest.raises(ValueError):
        GroupScheme([("a", frozenset({1, 2}))])  # one group
    with pytest.raises(ValueError):
        GroupScheme([("a", frozenset({0, 1, 2})), ("b", frozenset({3, 4}))])  # score 0
    with pytest.raises(ValueError):
        GroupScheme([("a", frozenset({1, 2})), ("b", frozenset({2, 3, 4}))])  # overlap
    with pytest.raises(ValueError):
        GroupScheme([("a", frozenset({1, 2})), ("b", frozenset({3}))])  # no 4
    with pytest.raises(ValueError):
        GroupScheme([("a", frozenset({1, 2})), ("a", frozenset({3})), ("b", frozenset({4}))])  # label twice
    two = GroupScheme([("lo", frozenset({1, 2})), ("hi", frozenset({3, 4}))])
    assert two.labels == ["lo", "hi"]


def test_scheme_config_round_trip():
    scheme = default_group_scheme()
    assert GroupScheme.from_config(scheme.to_config()) == scheme


# ------------------------------------------------------------------ check_json

@dataclass
class _Shape:
    name: str
    weights: tuple[float, ...]
    pair: tuple[str, list[int]]
    flag: bool = True
    note: Optional[str] = None


def test_check_json_accepts_json_shapes_without_coercion():
    good = {"name": "a", "weights": [1, 0.5], "pair": ["x", [1, 2]], "note": None}
    assert check_json(good, _Shape, "shape") is good     # an int passes as a float
    assert check_json([["a", [1]]], list[tuple[str, list[int]]], "groups") == [["a", [1]]]
    for value, hint in ((True, int), (1, bool), ("12", int), (3.7, int), ("false", bool), (True, float),
                        ([1, 2], tuple[int]), (["a"], tuple[str, int]), ((1,), tuple[int, ...]),
                        (None, str), (10 ** 400, float)):
        with pytest.raises(ValueError, match="^v has the wrong type"):
            check_json(value, hint, "v")


@pytest.mark.parametrize("obj, message", [
    (["name"], "must be a JSON object"),
    ({"name": "a", "weights": [], "pair": ["x", []], "nmae": "b"}, r"unknown key\(s\): \['nmae'\]"),
    ({"name": "a"}, r"missing required key\(s\): \['weights', 'pair'\]"),
    ({"name": "a", "weights": [], "pair": ["x", []], "flag": "false"}, "key 'flag' has the wrong type"),
    ({"name": "a", "weights": [], "pair": [1, []]}, "key 'pair' has the wrong type"),
])
def test_check_json_names_the_bad_key(obj, message):
    with pytest.raises(ValueError, match=f"^shape .*{message}"):
        check_json(obj, _Shape, "shape")
