import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import termassoc
from termassoc import cleanse, corpus
from termassoc.cli import PipelineConfig, build_parser, main

FIXTURES = Path(__file__).parent / "fixtures"
README = Path(__file__).parents[1] / "README.md"


def run_cli(*argv):
    return main(list(argv))


def jsonl(*objs):
    return "".join(json.dumps(o) + "\n" for o in objs)


@pytest.fixture
def tiny(tmp_path):
    scores = tmp_path / "scores.jsonl"
    metadata = tmp_path / "metadata.jsonl"
    scores.write_text(
        jsonl(
            {"id": "r1", "doi": "10.1/a", "title": "Alpha", "journal": "J", "unit": "3", "score": 4},
            {"id": "r2", "doi": "10.1/b", "title": "Beta", "journal": "J", "unit": "3", "score": 3},
            {"id": "r3", "title": "Comment", "journal": "J", "unit": "3", "score": 2},
        )
    )
    metadata.write_text(
        jsonl(
            {"id": "m1", "doi": "10.1/a", "title": "Alpha", "journal": "J", "abstract": "A. " * 300},
            {"id": "m2", "doi": "10.1/b", "title": "Beta", "journal": "J", "abstract": "B. " * 300},
            {"id": "m3", "title": "Comment", "journal": "J", "abstract": "C. " * 300},
        )
    )
    return scores, metadata


def test_link_counts_tiny_fixture(tiny, tmp_path, capsys):
    scores, metadata = tiny
    out = tmp_path / "out"
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "linked 2 by doi, 1 by title/journal, 0 unmatched, 1 suspicious" in printed
    summary = json.loads((out / "link_summary.json").read_text())
    assert summary["matched_doi"] == 2
    assert summary["matched_title_journal"] == 1
    assert summary["suspicious"] == 1
    report = (out / "link_report.csv").read_text().splitlines()
    assert report[0] == "record_id,metadata_id,match_kind,suspicious,reason"
    assert len(report) == 4
    comment_row = next(l for l in report if l.startswith("r3,"))
    assert ",title_journal,true," in comment_row


def test_link_two_matchable_one_not(tmp_path, capsys):
    scores = tmp_path / "s.jsonl"
    metadata = tmp_path / "m.jsonl"
    scores.write_text(
        jsonl(
            {"id": "r1", "doi": "10.1/a", "unit": "1", "score": 3},
            {"id": "r2", "doi": "10.1/b", "unit": "1", "score": 3},
            {"id": "r3", "doi": "10.1/absent", "unit": "1", "score": 3},
        )
    )
    metadata.write_text(
        jsonl(
            {"id": "m1", "doi": "10.1/a", "abstract": "x"},
            {"id": "m2", "doi": "10.1/b", "abstract": "x"},
        )
    )
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(tmp_path / "o")) == 0
    assert "linked 2 by doi, 0 by title/journal, 1 unmatched" in capsys.readouterr().out


def test_link_empty_metadata_all_unmatched(tmp_path, capsys):
    scores = tmp_path / "s.jsonl"
    metadata = tmp_path / "m.jsonl"
    scores.write_text(jsonl({"id": "r1", "doi": "10.1/a", "unit": "1", "score": 3}))
    metadata.write_text("")
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(tmp_path / "o")) == 0
    captured = capsys.readouterr()
    assert "1 unmatched" in captured.out
    assert captured.err == f"warning: metadata file {metadata} is empty; everything will be unmatched\n"


def test_link_prints_each_summary_diagnostic_as_a_warning(tmp_path, capsys):
    scores = tmp_path / "s.jsonl"
    metadata = tmp_path / "m.jsonl"
    scores.write_text(
        jsonl(
            {"id": "r1", "doi": "10.1/a", "unit": "1", "score": 3},
            {"id": "r2", "title": "Shared Title", "journal": "J", "unit": "1", "score": 3},
            {"id": "r3", "doi": "10.1/b", "unit": "1", "score": 3},
        )
    )
    metadata.write_text(
        jsonl(
            {"id": "m1", "doi": "10.1/a", "abstract": "x"},
            {"id": "m2", "doi": "10.1/a", "abstract": "x"},
            {"id": "m3", "title": "Shared title", "journal": "j", "abstract": "x"},
            {"id": "m4", "title": "shared  title", "journal": "J", "abstract": "x"},
            {"id": "m5", "doi": "10.1/b", "abstract": "x"},
            {"id": "m6", "doi": "10.1/b", "abstract": "x"},
        )
    )
    out = tmp_path / "o"
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(out)) == 0
    diagnostics = json.loads((out / "link_summary.json").read_text())["diagnostics"]
    assert len(diagnostics) == 3 and "collision" in diagnostics[-1]
    assert capsys.readouterr().err.splitlines() == [f"warning: {msg}" for msg in diagnostics]


def test_cli_ignores_the_old_log_level_variable_and_loads_no_logging(tmp_path):
    # Diagnostics are plain stderr lines: no environment variable sets their level.
    probe = ("import sys; from termassoc.cli import main; "
             "rc = main(sys.argv[1:]); print('logging' in sys.modules); sys.exit(rc)")
    argv = ["link", "--scores", str(FIXTURES / "scores.jsonl"), "--metadata", str(FIXTURES / "metadata.jsonl"),
            "--out", str(tmp_path / "out")]
    src = Path(termassoc.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src), "TERMASSOC_LOG": "basic_format"})
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_link_duplicate_score_id_keeps_first_record(tmp_path, capsys):
    scores = tmp_path / "s.jsonl"
    metadata = tmp_path / "m.jsonl"
    scores.write_text(
        jsonl(
            {"id": "r1", "doi": "10.1/a", "unit": "1", "score": 4},
            {"id": "r1", "doi": "10.1/b", "unit": "2", "score": 1},
        )
    )
    metadata.write_text(
        jsonl(
            {"id": "m1", "doi": "10.1/a", "abstract": "Abstract A."},
            {"id": "m2", "doi": "10.1/b", "abstract": "Abstract B."},
        )
    )
    out = tmp_path / "o"
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(out)) == 0
    assert "1 malformed record(s) skipped" in capsys.readouterr().err
    merged = [json.loads(line) for line in (out / "merged.jsonl").read_text().splitlines()]
    assert [(d["id"], d["doi"], d["unit"], d["score"], d["abstract"]) for d in merged] == [
        ("r1", "10.1/a", "1", 4, "Abstract A.")
    ]


def test_link_deeply_nested_line_is_one_malformed_record(tiny, tmp_path, capsys):
    scores, metadata = tiny
    before, after = tmp_path / "before", tmp_path / "after"
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(before)) == 0
    lines = scores.read_text().splitlines(keepends=True)
    scores.write_text("".join(lines[:2]) + "[" * 100_000 + "\n" + "".join(lines[2:]))
    capsys.readouterr()
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(after)) == 0
    captured = capsys.readouterr()
    assert f"1 malformed record(s) skipped in {scores}" in captured.err
    assert f"warning: {scores}:3: invalid JSON: nested too deeply" in captured.err
    assert "linked 2 by doi, 1 by title/journal, 0 unmatched, 1 suspicious" in captured.out
    for name in ("merged.jsonl", "link_report.csv"):
        assert (after / name).read_bytes() == (before / name).read_bytes()


def test_link_line_with_an_overlong_integer_is_one_malformed_record(tiny, tmp_path, capsys):
    # json.loads raises a plain ValueError for an integer past sys.get_int_max_str_digits().
    scores, metadata = tiny
    before, after = tmp_path / "before", tmp_path / "after"
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(before)) == 0
    lines = scores.read_text().splitlines(keepends=True)
    scores.write_text("".join(lines[:2]) + '{"id": "big", "score": ' + "9" * 5000 + "}\n" + "".join(lines[2:]))
    capsys.readouterr()
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(after)) == 0
    captured = capsys.readouterr()
    assert f"1 malformed record(s) skipped in {scores}" in captured.err
    assert f"warning: {scores}:3: invalid JSON: Exceeds the limit" in captured.err
    for name in ("merged.jsonl", "link_report.csv"):
        assert (after / name).read_bytes() == (before / name).read_bytes()


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_link_line_with_a_constant_that_is_not_json_is_one_malformed_record(tiny, tmp_path, capsys, constant):
    # json.loads reads NaN, Infinity and -Infinity, which are not JSON numbers (RFC 8259 section 6).
    scores, metadata = tiny
    before, after = tmp_path / "before", tmp_path / "after"
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(before)) == 0
    lines = scores.read_text().splitlines(keepends=True)
    bad = '{"id": "big", "doi": "10.1/c", "unit": "3", "score": 4, "weight": ' + constant + "}\n"
    scores.write_text("".join(lines[:2]) + bad + "".join(lines[2:]))
    capsys.readouterr()
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(after)) == 0
    err = capsys.readouterr().err
    assert err == (f"warning: {scores}:3: invalid JSON: {constant} is not a JSON number\n"
                   f"warning: 1 malformed record(s) skipped in {scores}\n")
    for name in ("merged.jsonl", "link_report.csv", "link_summary.json"):
        assert (after / name).read_bytes() == (before / name).read_bytes()


def test_link_line_that_is_not_utf8_is_one_malformed_record(tiny, tmp_path, capsys):
    # A byte that is not UTF-8 spoils its own line only; the other records still link.
    scores, metadata = tiny
    before, after = tmp_path / "before", tmp_path / "after"
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(before)) == 0
    lines = scores.read_bytes().splitlines(keepends=True)
    bad = b'{"id": "bad", "title": "\xff\xfe", "unit": "3", "score": 1}\n'
    scores.write_bytes(b"".join(lines[:2]) + bad + b"".join(lines[2:]))
    capsys.readouterr()
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(after)) == 0
    err = capsys.readouterr().err
    assert f"1 malformed record(s) skipped in {scores}" in err
    assert f"warning: {scores}:3: invalid UTF-8: byte 0xff at column 25" in err
    for name in ("merged.jsonl", "link_report.csv"):
        assert (after / name).read_bytes() == (before / name).read_bytes()


def link_lf_and_edited(tiny, tmp_path, capsys, edit):
    """Link the tiny fixture as written and with edit(scores bytes) in its place; the second run's stderr."""
    scores, metadata = tiny
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(tmp_path / "lf")) == 0
    scores.write_bytes(edit(scores.read_bytes()))
    capsys.readouterr()
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(tmp_path / "out")) == 0
    for name in ("merged.jsonl", "link_report.csv", "link_summary.json"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "lf" / name).read_bytes()
    return capsys.readouterr().err


def test_bare_cr_inside_a_record_is_json_white_space(tiny, tmp_path, capsys):
    # Only LF ends a JSON-lines line; a CR that ends no CRLF pads a value like a space.
    def edit(data):
        lines = data.splitlines(keepends=True)
        return lines[0].replace(b", ", b",\r ", 1) + b"{\n" + b"".join(lines[1:])
    scores = tiny[0]
    err = link_lf_and_edited(tiny, tmp_path, capsys, edit)
    assert err == (f"warning: {scores}:2: invalid JSON: Expecting property name enclosed in double quotes\n"
                   f"warning: 1 malformed record(s) skipped in {scores}\n")


def test_crlf_file_reads_as_its_lf_twin(tiny, tmp_path, capsys):
    def edit(data):
        lines = data.splitlines(keepends=True)
        return b"".join(lines[:2]).replace(b"\n", b"\r\n") + b"{\r\n" + lines[2].replace(b"\n", b"\r\n")
    scores = tiny[0]
    err = link_lf_and_edited(tiny, tmp_path, capsys, edit)
    assert err == (f"warning: {scores}:3: invalid JSON: Expecting property name enclosed in double quotes\n"
                   f"warning: 1 malformed record(s) skipped in {scores}\n")


@pytest.mark.parametrize("target", ["scores", "metadata", "corpus"])
def test_unpaired_surrogate_escape_is_one_malformed_record(tiny, tmp_path, capsys, target):
    # json.loads reads \ud800 as a lone surrogate, which no UTF-8 output file can hold.
    scores, metadata = tiny
    corpus_path = tmp_path / "linked" / "merged.jsonl"
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(corpus_path.parent)) == 0
    path = {"scores": scores, "metadata": metadata, "corpus": corpus_path}[target]
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[1])   # r2 or m2, linked by DOI
    record["submitter" if target == "scores" else "abstract"] = "A \ud800 b"
    lines[1] = json.dumps(record) + "\n"
    path.write_text("".join(lines))
    capsys.readouterr()
    out = tmp_path / "out"
    if target == "corpus":
        argv, written = ["dedup", "--in", str(path)], out / "deduped.jsonl"
    else:
        argv, written = ["link", "--scores", str(scores), "--metadata", str(metadata)], out / "merged.jsonl"
    assert run_cli(*argv, "--out", str(out)) == 0
    err = capsys.readouterr().err
    assert f"1 malformed record(s) skipped in {path}" in err
    assert f"warning: {path}:2: invalid JSON: unpaired surrogate escape \\ud800" in err
    assert [json.loads(line)["id"] for line in written.read_text().splitlines()] == ["r1", "r3"]


def test_paired_surrogate_escape_round_trips_through_merged_jsonl(tiny, tmp_path):
    scores, metadata = tiny
    lines = metadata.read_text().splitlines(keepends=True)
    lines[0] = json.dumps({**json.loads(lines[0]), "title": "Alpha \U0001F600"}) + "\n"
    assert "\\ud83d\\ude00" in lines[0]
    metadata.write_text("".join(lines))
    out = tmp_path / "out"
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(out)) == 0
    assert "Alpha \U0001F600".encode() in (out / "merged.jsonl").read_bytes()
    parsed = corpus.read_jsonl(out / "merged.jsonl")
    assert parsed.errors == []
    assert parsed.documents[0].title == "Alpha \U0001F600"


def test_link_null_keywords_mean_no_keywords(tmp_path, capsys):
    scores = tmp_path / "s.jsonl"
    metadata = tmp_path / "m.jsonl"
    scores.write_text(jsonl({"id": "r1", "doi": "10.1/a", "unit": "1", "score": 4}))
    metadata.write_text(jsonl({"id": "m1", "doi": "10.1/a", "abstract": "Abstract A.", "keywords": None}))
    out = tmp_path / "o"
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(out)) == 0
    assert "malformed" not in capsys.readouterr().err
    merged = [json.loads(line) for line in (out / "merged.jsonl").read_text().splitlines()]
    assert [(d["id"], d["keywords"]) for d in merged] == [("r1", [])]


def test_link_parses_metadata_no_score_record_can_match_into_its_id_alone(tmp_path, monkeypatch, capsys):
    scores, metadata = tmp_path / "s.jsonl", tmp_path / "m.jsonl"
    scores.write_text(jsonl(
        {"id": "r1", "doi": "10.1/A", "unit": "1", "score": 4},
        {"id": "r2", "title": "Matched By Key", "journal": "J", "unit": "1", "score": 3},
        {"id": "r3", "title": "Colliding", "journal": "J", "unit": "1", "score": 2},
    ))
    text = {"abstract": "Some text.", "keywords": ["kw"]}
    metadata.write_text(jsonl(
        {"id": "m1", "doi": "10.1/a", "title": "By DOI", "journal": "J", **text},
        {"id": "m2", "title": "matched by key", "journal": "J", **text},
        {"id": "m3", "doi": "10.1/other", "title": "Nobody Wants This", "journal": "J", **text},
        {"id": "m4", "title": "Colliding", "journal": "J", **text},
        {"id": "m5", "title": "Colliding", "journal": "J", **text},
        {"id": "m3", "title": "Nobody Wants This Either", "journal": "J", **text},
        {"id": "m6", "title": "Nobody Wants This", "keywords": "kw"},
    ))
    parsed, linked = {}, []
    read_jsonl, link_records = corpus.read_jsonl, corpus.link_records

    def read_spy(path, linkable=None, what="JSON-lines file"):
        parsed[Path(path).name] = result = read_jsonl(path, linkable, what)
        return result

    def link_spy(score_records, meta):
        linked.extend(doc.id for doc in meta)
        return link_records(score_records, meta)

    monkeypatch.setattr(corpus, "read_jsonl", read_spy)
    monkeypatch.setattr(corpus, "link_records", link_spy)
    out = tmp_path / "out"
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(out)) == 0
    # Every well-formed line still becomes a record; one that nothing can match is its id alone,
    # and only the others reach the link.
    docs = {doc.id: doc for doc in parsed["m.jsonl"].documents}
    assert list(docs) == ["m1", "m2", "m3", "m4", "m5"]
    assert docs["m3"] == corpus.Document("m3")
    assert {i: (d.title, d.abstract_raw, d.keywords) for i, d in docs.items() if i != "m3"} == {
        "m1": ("By DOI", "Some text.", ("kw",)), "m2": ("matched by key", "Some text.", ("kw",)),
        "m4": ("Colliding", "Some text.", ("kw",)), "m5": ("Colliding", "Some text.", ("kw",))}
    assert linked == ["m1", "m2", "m4", "m5"]
    err = capsys.readouterr().err
    assert f"warning: {metadata}:6: duplicate id 'm3' (first on line 3)" in err
    assert f"warning: {metadata}:7: field 'keywords' must be a list of strings" in err
    assert f"warning: 2 malformed record(s) skipped in {metadata}" in err
    assert "warning: title+journal key collision for record 'r3': metadata ['m4', 'm5']; no match" in err
    merged = [json.loads(line) for line in (out / "merged.jsonl").read_text().splitlines()]
    assert [(d["id"], d["abstract"], d["keywords"]) for d in merged] == [
        ("r1", "Some text.", ["kw"]), ("r2", "Some text.", ["kw"])]


def test_link_keeps_title_and_journal_apart(tmp_path):
    # "Cancer" in "Research Letters" and "Cancer Research" in "Letters" are different articles.
    scores, metadata = tmp_path / "s.jsonl", tmp_path / "m.jsonl"
    scores.write_text(jsonl({"id": "r1", "title": "Cancer", "journal": "Research Letters", "unit": "1", "score": 4}))
    metadata.write_text(jsonl({"id": "m1", "title": "Cancer Research", "journal": "Letters", "abstract": "x"}))
    out = tmp_path / "out"
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(out)) == 0
    assert (out / "link_report.csv").read_text().splitlines()[1:] == ["r1,,none,false,"]
    assert (out / "merged.jsonl").read_text() == ""


# Score records of every match kind: by DOI, by key, a key collision, and two unmatched.
LINK_SCORES = [
    {"id": "r1", "doi": "10.1/a", "unit": "1", "score": 4},
    {"id": "r2", "title": "Matched By Key", "journal": "J", "unit": "1", "score": 3},
    {"id": "r3", "title": "Colliding", "journal": "J", "unit": "2", "score": 2},
    {"id": "r4", "title": "Cancer", "journal": "Research Letters", "unit": "2", "score": 1},
    {"id": "r5", "doi": "10.1/e", "title": "Unmatched Title", "journal": "K", "unit": "2", "score": 1},
]
LINK_METADATA = [
    {"id": "m1", "doi": "10.1/A", "title": "By DOI", "journal": "J", "abstract": "One.", "keywords": ["kw"]},
    {"id": "m2", "title": "matched  by key", "journal": "J", "abstract": "Two."},
    {"id": "m4", "title": "Colliding", "journal": "J", "abstract": "Four."},
    {"id": "m5", "title": "Colliding", "journal": "J", "abstract": "Five."},
]


def lookups(rec: dict) -> set:
    """What a record can be linked under: its DOI and its title+journal pair, each lowercased, spaces removed."""
    doi, title, journal = ("".join((rec.get(f) or "").lower().split()) for f in ("doi", "title", "journal"))
    return {("doi", doi) if doi else None, ("tj", title, journal) if title or journal else None} - {None}


LINK_WANTED = set().union(*map(lookups, LINK_SCORES))


@st.composite
def near_miss_metadata(draw) -> dict:
    """A metadata record whose title and journal re-split a score record's words, maybe with one more.

    So near misses such as "Cancer Research" in "Letters" are common.
    """
    rec = draw(st.sampled_from(LINK_SCORES))
    words = f"{rec.get('title', '')} {rec.get('journal', '')}".split()
    words += draw(st.lists(st.sampled_from(["x", "J", "Letters"]), max_size=1))
    cut = draw(st.integers(0, len(words)))
    return {"doi": draw(st.sampled_from([None, "", "10.1/a", "10.1/B", " 10.1/E ", "10.9/x"])),
            "title": " ".join(words[:cut]), "journal": draw(st.sampled_from([" ", "  "])).join(words[cut:]).upper(),
            **draw(st.sampled_from([{}, {"abstract": "Extra text.", "keywords": ["kw", "extra"]}]))}


@st.composite
def with_unwanted_metadata(draw) -> list:
    """LINK_METADATA with records that no score record looks up inserted anywhere."""
    metadata = list(LINK_METADATA)
    unwanted = near_miss_metadata().filter(lambda rec: not lookups(rec) & LINK_WANTED)
    for k, rec in enumerate(draw(st.lists(unwanted, min_size=1, max_size=8))):
        metadata.insert(draw(st.integers(0, len(metadata))), {"id": f"x{k}", **rec})
    return metadata


def link_outputs(metadata: list) -> dict:
    """The link subcommand's three files and its stderr, run on LINK_SCORES and metadata."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "s.jsonl").write_text(jsonl(*LINK_SCORES))
        (d / "m.jsonl").write_text(jsonl(*metadata))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            assert main(["link", "--scores", str(d / "s.jsonl"), "--metadata", str(d / "m.jsonl"),
                         "--out", str(d / "out")]) == 0
        names = ("link_report.csv", "link_summary.json", "merged.jsonl")
        return {"stderr": stderr.getvalue().replace(tmp, "<tmp>"),
                **{name: (d / "out" / name).read_bytes() for name in names}}


@settings(max_examples=60)
@given(with_unwanted_metadata())
def test_link_outputs_ignore_metadata_no_score_record_looks_up(metadata):
    assert link_outputs(metadata) == link_outputs(LINK_METADATA)


def test_analyze_null_title_and_journal_mean_empty(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(jsonl(*(
        {"id": f"r{score}", "doi": f"10.1/{score}", "title": None, "journal": None, "unit": "3", "score": score,
         "abstract": f"Alpha rises {score}."} for score in (1, 3, 4))))
    out = tmp_path / "out"
    assert run_cli("analyze", "--in", str(corpus_path), "--out", str(out), "--scopes", "all",
                   "--min-df", "1", "--min-abstract-chars", "0") == 0
    assert "scope all: " in capsys.readouterr().out
    assert (out / "report_all.csv").exists()


def test_pipeline_null_title_in_both_records_means_empty(tmp_path, capsys):
    scores = tmp_path / "s.jsonl"
    metadata = tmp_path / "m.jsonl"
    scores.write_text(jsonl(*({"id": f"r{score}", "doi": f"10.1/{score}", "title": None, "unit": "3",
                               "score": score} for score in (1, 3, 4))))
    metadata.write_text(jsonl(*({"id": f"m{score}", "doi": f"10.1/{score}", "title": None, "journal": None,
                                 "abstract": f"Alpha rises {score}."} for score in (1, 3, 4))))
    out = tmp_path / "out"
    assert run_cli("pipeline", "--scores", str(scores), "--metadata", str(metadata), "--out", str(out),
                   "--scopes", "all", "--min-df", "1", "--min-abstract-chars", "0") == 0
    merged = [json.loads(line) for line in (out / "merged.jsonl").read_text().splitlines()]
    assert {(d["title"], d["journal"]) for d in merged} == {("", "")}
    assert (out / "report_all.csv").exists()


def test_failed_write_leaves_no_partial_corpus(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    argv = ("link", "--scores", str(FIXTURES / "scores.jsonl"), "--metadata", str(FIXTURES / "metadata.jsonl"),
            "--out", str(out))
    real_to_record = corpus.Document.to_record
    calls = []

    def failing_to_record(doc):
        calls.append(doc.id)
        if len(calls) == 3:
            raise OSError("no space left on device")
        return real_to_record(doc)

    monkeypatch.setattr(corpus.Document, "to_record", failing_to_record)
    assert run_cli(*argv) == 1
    assert "no space left on device" in capsys.readouterr().err
    assert not (out / "merged.jsonl").exists()
    assert not list(out.glob("*.tmp"))

    monkeypatch.undo()
    assert run_cli(*argv) == 0
    assert not list(out.glob("*.tmp"))
    written = (out / "merged.jsonl").read_bytes()
    assert len(written.splitlines()) > 3

    # A failed rewrite keeps the whole file a clean run wrote.
    calls.clear()
    monkeypatch.setattr(corpus.Document, "to_record", failing_to_record)
    assert run_cli(*argv) == 1
    assert (out / "merged.jsonl").read_bytes() == written
    assert not list(out.glob("*.tmp"))


def test_link_non_string_keywords_are_a_malformed_record(tmp_path, capsys):
    scores = tmp_path / "s.jsonl"
    metadata = tmp_path / "m.jsonl"
    scores.write_text(jsonl({"id": "r1", "doi": "10.1/a", "unit": "1", "score": 4}))
    metadata.write_text(
        jsonl(
            {"id": "m0", "doi": "10.1/z", "abstract": "Other.", "keywords": ["fine"]},
            {"id": "m1", "doi": "10.1/a", "abstract": "Abstract A.", "keywords": [1, None, {"a": 1}]},
        )
    )
    out = tmp_path / "o"
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(out)) == 0
    err = capsys.readouterr().err
    assert f"1 malformed record(s) skipped in {metadata}" in err
    assert f"warning: {metadata}:2: field 'keywords' must be a list of strings" in err
    merged = [json.loads(line) for line in (out / "merged.jsonl").read_text().splitlines()]
    assert merged == []
    assert "r1,,none,false," in (out / "link_report.csv").read_text()


def test_pipeline_nmax_out_of_range_fails_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    rc = run_cli("pipeline", "--scores", str(FIXTURES / "scores.jsonl"),
                 "--metadata", str(FIXTURES / "metadata.jsonl"), "--out", str(out), "--nmax", "9")
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "n_max" in err
    assert list(out.iterdir()) == []


def test_config_groups_of_wrong_shape_is_an_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"groups": [1, 2]}))
    rc = run_cli("pipeline", "--config", str(cfg_path), "--scores", str(FIXTURES / "scores.jsonl"),
                 "--metadata", str(FIXTURES / "metadata.jsonl"), "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "group 1" in err


def test_synth_spec_missing_required_key_is_an_error(tmp_path, capsys):
    spec = json.loads((FIXTURES / "synth_spec.json").read_text())
    for key in ("vocab_size", "group_sizes"):
        spec_path = tmp_path / f"no_{key}.json"
        spec_path.write_text(json.dumps({k: v for k, v in spec.items() if k != key}))
        rc = run_cli("synth", "--spec", str(spec_path), "--sims", "1", "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("edit, named", [
    ({"group_sizes": 5}, "'group_sizes'"),
    ({"planted": 5}, "'planted'"),
    ({"seed": None}, "'seed'"),
    ({"sentences_per_doc": None}, "'sentences_per_doc'"),
    ({"vocab_size": "12"}, "'vocab_size'"),
    ({"vocab_size": 3.7}, "'vocab_size'"),
    ({"vocab_sise": 100}, "'vocab_sise'"),
    ({"planted": [{"tokens": "ab", "probs": [0.02, 0.05, 0.5]}]}, "planted term 1 key 'tokens'"),
    ({"planted": [{"tokens": ["zzab"], "probs": [0.02, 0.05, 0.5], "prob": 1}]}, "planted term 1"),
])
def test_synth_spec_of_wrong_type_is_an_error(tmp_path, capsys, edit, named):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**json.loads((FIXTURES / "synth_spec.json").read_text()), **edit}))
    out = tmp_path / "out"
    rc = run_cli("synth", "--spec", str(spec_path), "--sims", "1", "--out", str(out))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: synthetic spec {spec_path} ") and named in err
    assert not out.exists()


@pytest.mark.parametrize("edit", [{"group_sizes": [3, 0, 3]}, {"planted": [{"tokens": ["tok00001"],
                                                                              "probs": [0, 0, 1]}]}])
def test_synth_spec_of_bad_value_is_named(tmp_path, capsys, edit):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**json.loads((FIXTURES / "synth_spec.json").read_text()), **edit}))
    rc = run_cli("synth", "--spec", str(spec_path), "--sims", "1", "--out", str(tmp_path / "out"))
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: synthetic spec {spec_path}: ")


def test_synth_spec_whose_groups_differ_from_the_config_is_named(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"groups": [["low", [1, 2]], ["high", [3, 4]]]}))
    spec_path = FIXTURES / "synth_spec.json"
    corpus_out, out = tmp_path / "corpus", tmp_path / "out"
    rc = run_cli("synth", "--config", str(config), "--spec", str(spec_path), "--sims", "1",
                 "--corpus-out", str(corpus_out), "--out", str(out))
    assert rc == 1
    assert capsys.readouterr().err == (f"error: synthetic spec {spec_path}: "
                                       "group_sizes must align with the group scheme\n")
    assert not corpus_out.exists() and not out.exists()


def test_synth_with_no_simulations_writes_nothing(tmp_path, capsys):
    corpus_out, out = tmp_path / "corpus", tmp_path / "out"
    rc = run_cli("synth", "--spec", str(FIXTURES / "synth_spec.json"), "--sims", "0",
                 "--corpus-out", str(corpus_out), "--out", str(out))
    assert rc == 1
    assert capsys.readouterr().err == "error: --sims must be >= 1, got 0\n"
    assert not corpus_out.exists() and not out.exists()


@pytest.mark.parametrize("rule, named", [
    ({"kind": "pattern_delete", "pattern": 5}, "'pattern'"),
    ({"kind": "pattern_delete", "pattern": "zap", "enabled": "false"}, "'enabled'"),
    ({"kind": "pattern_delete", "pattern": "zap", "enable": False}, "'enable'"),
])
def test_rule_of_wrong_type_is_an_error(tmp_path, capsys, rule, named):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps([{"kind": "suffix_strip", "pattern": "x"}, rule]))
    out = tmp_path / "out"
    rc = run_cli("clean", "--in", str(FIXTURES / "metadata.jsonl"), "--rules", str(rules), "--out", str(out))
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(f"error: rule file {rules}: rule 2 ") and named in captured.err
    assert "active rules" not in captured.out
    assert not out.exists()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="Python 3.10 accepts a global flag off the start of a regex")
def test_rule_whose_wrapped_pattern_fails_to_compile_is_an_error(tmp_path, capsys):
    # suffix_strip wraps the pattern, so a leading global flag is not at the start of the regex that runs.
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps([{"kind": "suffix_strip", "pattern": "(?i)copyright.*"}]))
    out = tmp_path / "out"
    rc = run_cli("clean", "--in", str(FIXTURES / "metadata.jsonl"), "--rules", str(rules), "--out", str(out))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: rule file {rules}: rule 1: invalid pattern '(?i)copyright.*'")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["{", "[" * 100_000, "[1,]", '["\\ud800"]', '{"alpha": NaN}'],
                         ids=["unclosed", "nested", "trailing-comma", "unpaired-surrogate", "nan"])
@pytest.mark.parametrize("flag, what", [("--config", "config"), ("--rules", "rule file"),
                                        ("--spec", "synthetic spec")], ids=["config", "rules", "spec"])
def test_json_file_that_does_not_parse_is_named(tmp_path, capsys, flag, what, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    argv = {"--spec": str(FIXTURES / "synth_spec.json"), flag: str(bad)}
    out = tmp_path / "out"
    rc = run_cli("synth", *(item for pair in argv.items() for item in pair), "--sims", "1", "--out", str(out))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {what} {bad}: invalid JSON")
    assert not out.exists()


@pytest.mark.parametrize("groups, problem", [
    ([1, 2], "group 1 ([label, [grade, ...]]) has the wrong type: 1"),
    ([["a", [1, 2]], ["b", [3]]], "group scheme must cover scores {1,2,3,4} exactly"),
], ids=["type", "range"])
def test_config_groups_error_names_the_file_and_key(tmp_path, capsys, groups, problem):
    # groups has no flag, so every error in it comes from the config file.
    cfg_path = tmp_path / "g.json"
    cfg_path.write_text(json.dumps({"groups": groups}))
    rc = run_cli("analyze", "--config", str(cfg_path), "--in", str(tmp_path / "absent.jsonl"),
                 "--out", str(tmp_path / "out"))
    assert rc == 1
    assert capsys.readouterr().err == f"error: config {cfg_path} key 'groups': {problem}\n"


@pytest.mark.parametrize("groups, named", [
    ([["a", [1, 2]], ["a", [3]], ["b", [4]]], "distinct"),
    ([[1, [1, 2]], ["1", [3, 4]]], "group 1"),
])
def test_config_group_labels_must_be_distinct_strings(tmp_path, capsys, groups, named):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"groups": groups}))
    out = tmp_path / "out"
    out.mkdir()
    rc = run_cli("pipeline", "--config", str(cfg_path), "--scores", str(FIXTURES / "scores.jsonl"),
                 "--metadata", str(FIXTURES / "metadata.jsonl"), "--out", str(out))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and named in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("key", ["scores", "metadata", "rules", "output_dir"])
def test_config_path_with_a_nul_character_is_named(tmp_path, capsys, key):
    out = tmp_path / "out"
    paths = {"scores": str(FIXTURES / "scores.jsonl"), "metadata": str(FIXTURES / "metadata.jsonl"),
             "rules": None, "output_dir": str(out)}
    paths[key] = str(tmp_path / "a\0b")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(paths))
    rc = run_cli("pipeline", "--config", str(cfg_path))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: config {cfg_path} key {key!r}: ")
    assert list(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("scopes", ["foo:bar", "unit", "unit:", "all,panel:"])
def test_pipeline_bad_scope_specifier_fails_before_writing(tmp_path, capsys, scopes):
    out = tmp_path / "out"
    out.mkdir()
    rc = run_cli("pipeline", "--scores", str(FIXTURES / "scores.jsonl"),
                 "--metadata", str(FIXTURES / "metadata.jsonl"), "--out", str(out), "--scopes", scopes)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: unknown scope specifier")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["analyze", "pipeline"])
@pytest.mark.parametrize("scopes", ["", ",", "config"], ids=["flag-empty", "flag-comma", "config-empty"])
def test_empty_scope_list_fails_before_writing(tmp_path, capsys, command, scopes):
    out = tmp_path / "out"
    if command == "analyze":
        argv = ["analyze", "--in", str(FIXTURES / "scores.jsonl")]
    else:
        argv = ["pipeline", "--scores", str(FIXTURES / "scores.jsonl"), "--metadata", str(FIXTURES / "metadata.jsonl")]
    if scopes == "config":
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scopes": []}))
        argv += ["--config", str(cfg_path)]
    else:
        argv += ["--scopes", scopes]
    assert run_cli(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == "error: no scope specifiers given; use units, panels, all, unit:<x> or panel:<x>\n"
    assert not out.exists()


def test_units_over_documents_with_no_unit_is_no_scopes_to_analyze(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(jsonl({"id": "a", "score": 3, "abstract": "x"}, {"id": "b", "score": 4, "abstract": "y"}))
    out = tmp_path / "out"
    assert run_cli("analyze", "--in", str(corpus_path), "--scopes", "units", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert "dropped 2 unclassified document(s) with no unit" in captured.out
    assert captured.err == "error: no scopes to analyze\n"
    assert not out.exists()


def run_pipeline_with_units(tiny, out, *units):
    scores, metadata = tiny
    records = [json.loads(line) for line in scores.read_text().splitlines()]
    for record, unit in zip(records, units):
        record["unit"] = unit
    scores.write_text(jsonl(*records))
    return run_cli("pipeline", "--scores", str(scores), "--metadata", str(metadata), "--out", str(out),
                   "--scopes", "units", "--min-abstract-chars", "0", "--min-df", "2")


@pytest.mark.parametrize("unit", ["x/../../../escaped", "x/", "x\0escaped"])
def test_scope_that_names_no_plain_file_is_an_error(tiny, tmp_path, capsys, unit):
    out = tmp_path / "a" / "b" / "deep"
    assert run_pipeline_with_units(tiny, out, "a", unit) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: scope {'unit:' + unit!r} cannot name a report file")
    assert not list(tmp_path.rglob("escaped*"))
    assert sorted(p.name for p in out.iterdir()) == ["link_report.csv", "link_summary.json", "merged.jsonl"]


def test_scopes_that_name_the_same_files_are_an_error(tiny, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_pipeline_with_units(tiny, out, "a:b", "a_b", "a_b") == 1
    assert capsys.readouterr().err == "error: scopes 'unit:a:b' and 'unit:a_b' would both write report_unit_a_b.*\n"
    assert sorted(p.name for p in out.iterdir()) == ["link_report.csv", "link_summary.json", "merged.jsonl"]


def test_missing_input_file_nonzero_exit(tmp_path, capsys):
    nope = str(tmp_path / "nope.jsonl")
    rc = run_cli("link", "--scores", nope,
                 "--metadata", str(tmp_path / "also-nope.jsonl"), "--out", str(tmp_path / "o"))
    assert rc == 1
    assert capsys.readouterr().err == (f"error: cannot read scores file {nope!r}: "
                                       f"[Errno 2] No such file or directory: {nope!r}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("what, argv", [
    ("config", ["analyze", "--config", "{missing}", "--in", "{corpus}"]),
    ("rule file", ["analyze", "--rules", "{missing}", "--in", "{corpus}"]),
    ("synthetic spec", ["synth", "--spec", "{missing}", "--sims", "1"]),
    ("metadata file", ["link", "--scores", "{scores}", "--metadata", "{missing}"]),
    ("corpus file", ["analyze", "--in", "{missing}"]),
], ids=["config", "rules", "spec", "metadata", "analyze"])
def test_unreadable_input_is_named(tmp_path, capsys, what, argv):
    # The scores file's case is test_missing_input_file_nonzero_exit.
    missing, out = str(tmp_path / "missing.json"), tmp_path / "out"
    paths = {"missing": missing, "corpus": FIXTURES / "scores.jsonl", "scores": FIXTURES / "scores.jsonl"}
    argv = [arg.format(**paths) for arg in argv]
    rc = run_cli(*argv, "--out", str(out))
    assert rc == 1
    assert capsys.readouterr().err == (f"error: cannot read {what} {missing!r}: "
                                       f"[Errno 2] No such file or directory: {missing!r}\n")
    assert not out.exists()


def test_pipeline_on_bundled_fixtures(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli(
        "pipeline",
        "--scores", str(FIXTURES / "scores.jsonl"),
        "--metadata", str(FIXTURES / "metadata.jsonl"),
        "--out", str(out),
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "scope unit:2 skipped" in printed

    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"config_hash", "seed", "scopes", "skipped"}
    ids = [s["id"] for s in manifest["scopes"]]
    assert ids == ["unit:16", "unit:3", "panel:A", "panel:C", "all"]
    assert manifest["skipped"] == [{"id": "unit:2", "reason": "empty group(s) ['4']"}]
    for entry in manifest["scopes"]:
        assert len(entry["n_docs"]) == 3 and all(n > 0 for n in entry["n_docs"])
        assert entry["m"] > 0 and entry["threshold"] > 0

    # the planted effect dominates its scope and subsumes its own sub-phrases
    unit3 = (out / "report_unit_3.csv").read_text().splitlines()
    assert unit3[0].startswith("scope,term,n,chi2,")
    assert any("zzalpha zzbeta" in line for line in unit3[1:])
    assert not any(",zzalpha," in line for line in unit3[1:])

    # scopes with nothing significant fall back to illustrative rows
    unit16 = (out / "report_unit_16.jsonl").read_text().splitlines()
    assert unit16 and all(json.loads(l)["illustrative"] for l in unit16)
    assert all(not json.loads(l)["significant"] for l in unit16)


@pytest.mark.parametrize("drop, all_sizes", [(True, [72, 73, 72]), (False, [72, 74, 72])])
def test_pipeline_drop_missing_unit(tmp_path, capsys, drop, all_sizes):
    # The fixture holds one linked record with no unit: it is dropped unless the config keeps it for "all".
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({} if drop else {"drop_missing_unit": False}))
    out = tmp_path / "out"
    assert run_cli("pipeline", "--config", str(cfg_path), "--scores", str(FIXTURES / "scores.jsonl"),
                   "--metadata", str(FIXTURES / "metadata.jsonl"), "--out", str(out)) == 0
    dropped = "dropped 1 unclassified document(s) with no unit\n"
    assert (dropped in capsys.readouterr().out) == drop
    manifest = json.loads((out / "manifest.json").read_text())
    assert [scope["n_docs"] for scope in manifest["scopes"] if scope["id"] == "all"] == [all_sizes]


def test_pipeline_output_bytes_match_golden_digests(tmp_path, capsys):
    """Output bytes are pinned: an intended change to them edits golden_digests.json."""
    out = tmp_path / "out"
    assert run_cli("pipeline", "--scores", str(FIXTURES / "scores.jsonl"),
                   "--metadata", str(FIXTURES / "metadata.jsonl"), "--out", str(out)) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
               if p.name.startswith("report_")
               or p.name in ("manifest.json", "merged.jsonl", "link_report.csv", "link_summary.json")}
    assert digests == json.loads((FIXTURES / "golden_digests.json").read_text())


def run_fixture_pipeline(out, *flags):
    return run_cli("pipeline", "--scores", str(FIXTURES / "scores.jsonl"),
                   "--metadata", str(FIXTURES / "metadata.jsonl"), "--out", str(out), *flags)


def report_files(*stems):
    return [f"report_{stem}.{ext}" for stem in stems for ext in ("csv", "jsonl", "txt")]


def test_a_later_run_into_one_directory_leaves_only_its_own_reports(tmp_path, capsys):
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert run_fixture_pipeline(out, "--scopes", "units,all", "--min-df", "3") == 0
    assert sorted(p.name for p in out.glob("report_*")) == report_files("all", "unit_16", "unit_3")
    assert run_fixture_pipeline(out, "--scopes", "all", "--min-df", "3") == 0
    assert run_fixture_pipeline(fresh, "--scopes", "all", "--min-df", "3") == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["link_report.csv", "link_summary.json", "manifest.json", "merged.jsonl", *report_files("all")]
    assert {name: (out / name).read_bytes() for name in names} == {name: (fresh / name).read_bytes() for name in names}
    assert sorted(p.name for p in fresh.iterdir()) == names


def test_a_scope_skipped_by_a_later_run_loses_its_old_reports(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_fixture_pipeline(out, "--scopes", "unit:3", "--min-df", "3") == 0
    assert sorted(p.name for p in out.glob("report_*")) == report_files("unit_3")
    capsys.readouterr()
    assert run_fixture_pipeline(out, "--scopes", "unit:3", "--min-df", "3", "--min-abstract-chars", "100000") == 0
    assert "scope unit:3 skipped: no documents after filtering" in capsys.readouterr().out
    assert list(out.glob("report_*")) == []
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scopes"] == []
    assert manifest["skipped"] == [{"id": "unit:3", "reason": "no documents after filtering"}]


def test_a_run_whose_later_report_write_fails_leaves_no_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_fixture_pipeline(out, "--scopes", "units,all", "--min-df", "3") == 0
    (out / "report_all.txt").unlink()
    (out / "report_all.txt").mkdir()   # the last report of the run cannot be renamed into place
    capsys.readouterr()
    assert run_fixture_pipeline(out, "--scopes", "units,all", "--min-df", "3") == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: [Errno 21] Is a directory")
    assert not (out / "manifest.json").exists()
    # The failed rename removes its .tmp file, as a failed write does.
    assert not (out / "report_all.txt.tmp").exists()


def test_a_run_removes_only_report_files_of_its_own_formats(tmp_path, capsys):
    out = tmp_path / "out"
    kept = ["notes.txt", "report.txt", "report_x.json", "report_x.txt.tmp", "my_report_x.txt", "Report_x.txt"]
    out.mkdir()
    for name in [*kept, "report_x.txt", "report_unit_9.csv"]:
        (out / name).write_text("mine\n")
    (out / "report_dir.txt").mkdir()
    assert run_fixture_pipeline(out, "--scopes", "all", "--min-df", "3") == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([*kept, "report_dir.txt", "link_report.csv",
                                                            "link_summary.json", "manifest.json", "merged.jsonl",
                                                            *report_files("all")])
    assert all((out / name).read_text() == "mine\n" for name in kept)


def test_stage_subcommands_chain(tmp_path):
    out = tmp_path / "out"
    assert run_cli("link", "--scores", str(FIXTURES / "scores.jsonl"),
                   "--metadata", str(FIXTURES / "metadata.jsonl"), "--out", str(out)) == 0
    merged = out / "merged.jsonl"
    assert merged.exists()
    assert run_cli("dedup", "--in", str(merged), "--scope", "unit", "--out", str(out)) == 0
    assert run_cli("clean", "--in", str(out / "deduped.jsonl"), "--out", str(out)) == 0
    cleaned = out / "cleaned.jsonl"
    docs = [json.loads(l) for l in cleaned.read_text().splitlines()]
    assert all("abstract_clean" in d for d in docs)
    assert not any("©" in d["abstract_clean"] for d in docs)
    assert run_cli("analyze", "--in", str(cleaned), "--out", str(out)) == 0
    assert (out / "manifest.json").exists()


def test_stage_subcommands_ignore_analysis_values(tmp_path, capsys):
    # link, dedup and clean read no analysis value: a bad one in the config file
    # does not stop them, and they take no analysis flag.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_max": 9, "min_df": 0, "groups": [1, 2]}))
    out = tmp_path / "out"
    assert run_cli("link", "--config", str(cfg_path), "--scores", str(FIXTURES / "scores.jsonl"),
                   "--metadata", str(FIXTURES / "metadata.jsonl"), "--out", str(out)) == 0
    assert run_cli("dedup", "--config", str(cfg_path), "--in", str(out / "merged.jsonl"),
                   "--scope", "unit", "--out", str(out)) == 0
    assert run_cli("clean", "--config", str(cfg_path), "--in", str(out / "deduped.jsonl"), "--out", str(out)) == 0
    assert (out / "cleaned.jsonl").exists()
    with pytest.raises(SystemExit) as exc:
        run_cli("clean", "--in", str(out / "deduped.jsonl"), "--out", str(out), "--min-df", "0")
    assert exc.value.code == 2
    assert "unrecognized arguments: --min-df 0" in capsys.readouterr().err


# The flags each subcommand reads, as the README's table lists them.
SUBCOMMAND_FLAGS = {
    "link": "--config --out --scores --metadata",
    "dedup": "--config --seed --out --in --scope",
    "clean": "--config --rules --out --in",
    "analyze": "--config --seed --scopes --nmax --alpha --top-k --min-df --threads --rules --out --in "
               "--min-abstract-chars",
    "synth": "--config --seed --nmax --alpha --min-df --rules --out --spec --sims --corpus-out",
    "pipeline": "--config --seed --scopes --nmax --alpha --top-k --min-df --threads --rules --out --scores "
                "--metadata --min-abstract-chars",
}
ANALYSIS_FLAGS = "--seed --scopes --nmax --alpha --top-k --min-df --threads --rules".split()


def help_flags(command, capsys) -> list[str]:
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--help")
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("options:")[0]
    return [flag for flag in re.findall(r"--[a-z-]+", usage) if flag != "--help"]


@pytest.mark.parametrize("command", SUBCOMMAND_FLAGS)
def test_help_lists_exactly_the_flags_a_subcommand_reads(command, capsys):
    assert help_flags(command, capsys) == SUBCOMMAND_FLAGS[command].split()


# (subcommand, flag) pairs of analysis flags that the subcommand does not read.
REMOVED_FLAGS = ([("link", flag) for flag in ANALYSIS_FLAGS]
                 + [("dedup", flag) for flag in ANALYSIS_FLAGS if flag != "--seed"]
                 + [("clean", flag) for flag in ANALYSIS_FLAGS if flag != "--rules"]
                 + [("synth", flag) for flag in ("--scopes", "--top-k", "--threads")])
REQUIRED = {"link": [], "dedup": ["--in", "x.jsonl"], "clean": ["--in", "x.jsonl"], "synth": ["--spec", "x.json"]}


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS)
def test_subcommand_rejects_a_flag_it_does_not_read(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *REQUIRED[command], "--out", str(tmp_path / "out"), flag, "1")
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_has_48_flag_slots_and_25_analysis_flags_fewer():
    assert len(REMOVED_FLAGS) == 25
    assert sum(len(flags.split()) for flags in SUBCOMMAND_FLAGS.values()) == 48
    assert not any(flag in SUBCOMMAND_FLAGS[command].split() for command, flag in REMOVED_FLAGS)


def readme_commands() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    code = "\n".join(re.findall(r"^```[a-z]*\n(.*?)^```", text, re.M | re.S)).replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:] for line in code.splitlines() if line.startswith("termassoc ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_lines_parse(argv):
    build_parser().parse_args(argv)


def test_readme_documents_commands_and_a_flag_table(capsys):
    assert {argv[0] for argv in readme_commands()} == set(SUBCOMMAND_FLAGS)
    text = README.read_text(encoding="utf-8")
    table = {row[0]: row[1] for row in re.findall(r"^\| `([a-z]+)` \| (.*) \|$", text, re.M)}
    assert {command: re.findall(r"`(--[a-z-]+)`", flags) for command, flags in table.items()} == \
        {command: help_flags(command, capsys) for command in SUBCOMMAND_FLAGS}


def test_scope_with_no_tested_terms_writes_reports_without_rows(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("pipeline", "--scores", str(FIXTURES / "scores.jsonl"), "--metadata", str(FIXTURES / "metadata.jsonl"),
                   "--min-df", "100000", "--scopes", "all", "--out", str(out)) == 0
    assert "scope all: 0 term(s), m=0 (illustrative)" in capsys.readouterr().out
    assert (out / "report_all.jsonl").read_text() == ""
    assert (out / "report_all.csv").read_text().count("\n") == 1   # the header alone
    assert (out / "report_all.txt").read_text().count("\n") == 2   # the scope line and the column headers


def test_synth_subcommand_writes_metrics(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("synth", "--spec", str(FIXTURES / "synth_spec.json"), "--sims", "2",
                 "--out", str(out), "--min-df", "5")
    assert rc == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["n_sims"] == 2
    assert metrics["recall"] == 1.0
    assert 0.0 <= metrics["fwer"] <= 1.0


def test_synth_corpus_out_round_trips_through_pipeline(tmp_path, capsys):
    out = tmp_path / "out"
    corpus_dir = tmp_path / "corpus"
    rc = run_cli("synth", "--spec", str(FIXTURES / "synth_spec.json"), "--sims", "1",
                 "--out", str(out), "--corpus-out", str(corpus_dir), "--min-df", "5")
    assert rc == 0
    assert (corpus_dir / "scores.jsonl").exists() and (corpus_dir / "metadata.jsonl").exists()
    capsys.readouterr()
    rc = run_cli("pipeline", "--scores", str(corpus_dir / "scores.jsonl"),
                 "--metadata", str(corpus_dir / "metadata.jsonl"),
                 "--out", str(tmp_path / "out2"), "--min-abstract-chars", "0", "--min-df", "5")
    assert rc == 0
    report = (tmp_path / "out2" / "report_all.csv").read_text()
    assert "zzalpha zzbeta" in report


def test_synth_seed_zero_overrides_spec_seed(tmp_path, capsys):
    # The spec's own seed is 3. A seed given by flag or config file wins, 0 included.
    config = tmp_path / "seed0.json"
    config.write_text(json.dumps({"seed": 0}))
    runs = {"spec": [], "flag 0": ["--seed", "0"], "file 0": ["--config", str(config)], "flag 3": ["--seed", "3"]}
    scores = {}
    for name, extra in runs.items():
        corpus_dir = tmp_path / name.replace(" ", "")
        rc = run_cli("synth", "--spec", str(FIXTURES / "synth_spec.json"), "--sims", "1", "--min-df", "5",
                     "--out", str(tmp_path / "out"), "--corpus-out", str(corpus_dir), *extra)
        assert rc == 0
        scores[name] = (corpus_dir / "scores.jsonl").read_bytes()
    assert scores["flag 0"] == scores["file 0"] != scores["flag 3"] == scores["spec"]


def test_synth_honours_rules(tmp_path, capsys):
    # A rule that deletes the planted phrase leaves nothing to recall.
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps([{"kind": "pattern_delete", "pattern": "(?i)zzalpha zzbeta"}]))
    out = tmp_path / "out"
    rc = run_cli("synth", "--spec", str(FIXTURES / "synth_spec.json"), "--sims", "1", "--min-df", "5",
                 "--out", str(out), "--rules", str(rules))
    assert rc == 0
    assert json.loads((out / "metrics.json").read_text())["recall"] == 0.0
    assert "recall=0.000" in capsys.readouterr().out


BAD_RULES = [{"kind": "nope", "pattern": "x"}]


def test_pipeline_bad_rules_fail_before_writing(tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(BAD_RULES))
    out = tmp_path / "out"
    out.mkdir()
    rc = run_cli("pipeline", "--scores", str(FIXTURES / "scores.jsonl"),
                 "--metadata", str(FIXTURES / "metadata.jsonl"),
                 "--rules", str(rules), "--out", str(out))
    assert rc == 1
    assert "unknown rule kind 'nope'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_synth_bad_rules_write_no_corpus(tmp_path, capsys):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(BAD_RULES))
    corpus_out, out = tmp_path / "corpus", tmp_path / "out"
    rc = run_cli("synth", "--spec", str(FIXTURES / "synth_spec.json"), "--sims", "1", "--rules", str(rules),
                 "--corpus-out", str(corpus_out), "--out", str(out))
    assert rc == 1
    assert "unknown rule kind 'nope'" in capsys.readouterr().err
    assert not corpus_out.exists() and not out.exists()


def test_pipeline_loads_the_rules_once(tmp_path, monkeypatch, capsys):
    calls = []
    load_rules = cleanse.load_rules
    monkeypatch.setattr(cleanse, "load_rules", lambda source: calls.append(source) or load_rules(source))
    rc = run_cli("pipeline", "--scores", str(FIXTURES / "scores.jsonl"),
                 "--metadata", str(FIXTURES / "metadata.jsonl"),
                 "--out", str(tmp_path / "out"))
    assert rc == 0
    assert len(calls) == 1


@pytest.mark.skipif(importlib.util.find_spec("_sha256") is None,
                    reason="no _sha256 module: SHA-256 comes from hashlib here")
def test_link_and_synth_runs_never_load_openssl(tmp_path):
    runs = [
        ["link", "--scores", str(FIXTURES / "scores.jsonl"), "--metadata", str(FIXTURES / "metadata.jsonl"),
         "--out", str(tmp_path / "link")],
        ["synth", "--spec", str(FIXTURES / "synth_spec.json"), "--sims", "1", "--out", str(tmp_path / "synth")],
    ]
    probe = ("import sys; from termassoc.cli import main; "
             "rc = main(sys.argv[1:]); print('_hashlib' in sys.modules); sys.exit(rc)")
    src = Path(termassoc.__file__).resolve().parent.parent
    for argv in runs:
        proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False", argv[0]


def test_synth_missing_spec_no_partial_output(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("synth", "--spec", str(tmp_path / "missing.json"), "--sims", "2", "--out", str(out))
    assert rc != 0
    assert not (out / "metrics.json").exists()


def test_config_file_and_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"alpha": 0.01, "top_k": 5, "seed": 9, "min_abstract_chars": 300,
                                    "n_max": 4, "scopes": ["all"]}))
    args = build_parser().parse_args(["analyze", "--config", str(cfg_path), "--in", "x.jsonl", "--alpha", "0.2",
                                      "--min-abstract-chars", "120", "--nmax", "2", "--scopes", " unit:3, ,panels"])
    cfg = PipelineConfig.load(str(cfg_path), args)
    assert cfg.alpha == 0.2      # flag wins
    assert cfg.min_abstract_chars == 120
    assert cfg.n_max == 2
    assert cfg.scopes == ["unit:3", "panels"]
    assert cfg.top_k == 5        # file value survives
    assert cfg.seed == 9


def test_config_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    args = build_parser().parse_args(["analyze", "--in", "x.jsonl"])
    for bad in ({"alhpa": 0.01}, {"alpha": "0.05"}, {"threads": "2"}, {"seed": True},
                {"scopes": "all"}, {"scopes": ["all", 3]}, {"groups": "low"}, ["alpha"]):
        cfg_path.write_text(json.dumps(bad))
        with pytest.raises(ValueError):
            PipelineConfig.load(str(cfg_path), args)
    # Values of the right JSON type are checked when the analysis config is built;
    # a grade is an integer, as a record's score is, so "3" and 3.0 are rejected.
    for bad in ({"groups": [1, 2]}, {"groups": [["low", [1, 2]], ["high", ["3", "4"]]]},
                {"groups": [["low", [1, 2]], ["high", [3.0, 4]]]}, {"n_max": 0}, {"n_max": 9}):
        cfg_path.write_text(json.dumps(bad))
        cfg = PipelineConfig.load(str(cfg_path), args)
        with pytest.raises(ValueError):
            cfg.analysis_config()
    cfg_path.write_text(json.dumps({"alpha": 1, "groups": None, "drop_missing_unit": False}))
    cfg = PipelineConfig.load(str(cfg_path), args)   # an int is a valid float
    assert cfg.alpha == 1 and cfg.groups is None and cfg.drop_missing_unit is False


def test_cli_wrong_config_type_is_an_error_not_a_traceback(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"alpha": "0.05"}))
    rc = run_cli("analyze", "--config", str(cfg_path), "--in", str(tmp_path / "x.jsonl"))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "Traceback" not in err


def test_config_hash_ignores_threads_and_paths(tmp_path):
    args = build_parser().parse_args(["analyze", "--in", "x.jsonl"])
    a = PipelineConfig.load(None, args)
    b = PipelineConfig.load(None, args)
    b.threads = 8
    b.output_dir = str(tmp_path)
    b.scores = "elsewhere.jsonl"
    rules = a.load_rules()
    assert a.config_hash(rules) == b.config_hash(rules)
    c = PipelineConfig.load(None, args)
    c.alpha = 0.01
    assert c.config_hash(rules) != a.config_hash(rules)
    assert a.config_hash(rules[1:]) != a.config_hash(rules)


def test_console_entry_point_smoke():
    src = Path(termassoc.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "termassoc.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert "link" in proc.stdout and "synth" in proc.stdout
