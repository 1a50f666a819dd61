import hashlib
import importlib.util
import json
import logging
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_link_logs_one_count_of_records_without_an_abstract(tiny, tmp_path, caplog):
    scores, metadata = tiny
    caplog.set_level(logging.INFO)
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(tmp_path / "out")) == 0
    # Every scores record lacks an abstract; every metadata record has one.
    counted = [r.getMessage() for r in caplog.records if "without an abstract" in r.getMessage()]
    assert counted == [f"{scores}: 3 record(s) without an abstract"]


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
    assert "1 unmatched" in capsys.readouterr().out


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


def test_link_deeply_nested_line_is_one_malformed_record(tiny, tmp_path, capsys, caplog):
    scores, metadata = tiny
    before, after = tmp_path / "before", tmp_path / "after"
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(before)) == 0
    lines = scores.read_text().splitlines(keepends=True)
    scores.write_text("".join(lines[:2]) + "[" * 100_000 + "\n" + "".join(lines[2:]))
    capsys.readouterr()
    assert run_cli("link", "--scores", str(scores), "--metadata", str(metadata), "--out", str(after)) == 0
    captured = capsys.readouterr()
    assert f"1 malformed record(s) skipped in {scores}" in captured.err
    assert f"{scores}:3: invalid JSON: nested too deeply" in caplog.text
    assert "linked 2 by doi, 1 by title/journal, 0 unmatched, 1 suspicious" in captured.out
    for name in ("merged.jsonl", "link_report.csv"):
        assert (after / name).read_bytes() == (before / name).read_bytes()


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


def test_link_non_string_keywords_are_a_malformed_record(tmp_path, capsys, caplog):
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
    assert f"1 malformed record(s) skipped in {metadata}" in capsys.readouterr().err
    assert f"{metadata}:2: field 'keywords' must be a list of strings" in caplog.text
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


def test_report_row_without_scope_is_an_error(tmp_path, capsys):
    row = {"scope": "all", "m": 3, "threshold": 9.2, "illustrative": False, "term": "alpha", "n": 4,
           "chi2": 10.0, "p_value": 0.01, "significant": True, "direction": "4",
           "proportions": {"low": 0.1, "4": 0.5}}
    in_path = tmp_path / "report.jsonl"
    in_path.write_text(jsonl(row, {k: v for k, v in row.items() if k != "scope"}))
    rc = run_cli("report", "--in", str(in_path))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: line 2: ") and "'scope'" in err


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
    assert err.startswith("error: synthetic spec") and named in err
    assert not out.exists()


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
    assert captured.err.startswith("error: rule 2 ") and named in captured.err
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
    assert err.startswith("error: invalid pattern '(?i)copyright.*'") and "Traceback" not in err
    assert not out.exists()


REPORT_ROW = {"scope": "all", "m": 3, "threshold": 9.2, "illustrative": False, "term": "alpha", "n": 4,
              "chi2": 10.0, "p_value": 0.01, "significant": True, "direction": "4",
              "proportions": {"low": 0.1, "4": 0.5}}


@pytest.mark.parametrize("fmt, edit, named", [
    ("text", {"proportions": 5}, "'proportions'"),
    ("text", {"term": None}, "'term'"),
    ("text", {"direction": 7}, "'direction'"),
    ("csv", {"chi2": "x"}, "'chi2'"),
    ("csv", {"significant": "yes"}, "'significant'"),
    ("csv", {"proportions": {"low": 0.1, "4": "0.5"}}, "'proportions'"),
    ("csv", {"extra": 1}, "'extra'"),
    ("text", {"chi2": 10 ** 400}, "'chi2'"),
])
def test_report_row_of_wrong_type_is_an_error(tmp_path, capsys, fmt, edit, named):
    in_path = tmp_path / "report.jsonl"
    in_path.write_text(jsonl(REPORT_ROW, {**REPORT_ROW, "term": "beta", **edit}))
    rc = run_cli("report", "--in", str(in_path), "--format", fmt)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: line 2: report row") and named in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("edit, named", [
    ({"proportions": {"low": 0.1, "x": 0.5}}, "group labels"),
    ({"proportions": {"4": 0.5, "low": 0.1}}, "group labels"),
    ({"scope": "unit:3"}, "scope"),
    ({"m": 4}, "m"),
    ({"threshold": None}, "threshold"),
    ({"illustrative": True}, "illustrative"),
])
def test_report_rows_of_mixed_scopes_are_an_error(tmp_path, capsys, edit, named):
    in_path = tmp_path / "report.jsonl"
    in_path.write_text(jsonl(REPORT_ROW, REPORT_ROW, {**REPORT_ROW, "term": "beta", **edit}))
    rc = run_cli("report", "--in", str(in_path), "--format", "csv")
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(f"error: line 3: {named} ") and "line 1" in captured.err
    assert captured.out == ""


def test_report_line_of_invalid_json_names_the_line(tmp_path, capsys):
    in_path = tmp_path / "report.jsonl"
    in_path.write_text(jsonl(REPORT_ROW) + "{\n")
    rc = run_cli("report", "--in", str(in_path))
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: line 2: invalid JSON")


def test_report_line_nested_too_deeply_names_the_line(tmp_path, capsys):
    in_path = tmp_path / "report.jsonl"
    in_path.write_text(jsonl(REPORT_ROW) + "[" * 100_000 + "\n")
    rc = run_cli("report", "--in", str(in_path))
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: line 2: invalid JSON: nested too deeply")


@pytest.mark.parametrize("text", ["{", "[" * 100_000, "[1,]"], ids=["unclosed", "nested", "trailing-comma"])
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
    rc = run_cli("link", "--scores", str(tmp_path / "nope.jsonl"),
                 "--metadata", str(tmp_path / "also-nope.jsonl"), "--out", str(tmp_path / "o"))
    assert rc != 0
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def test_pipeline_output_bytes_match_golden_digests(tmp_path, capsys):
    """Output bytes are pinned: an intended change to them edits golden_digests.json."""
    out = tmp_path / "out"
    assert run_cli("pipeline", "--scores", str(FIXTURES / "scores.jsonl"),
                   "--metadata", str(FIXTURES / "metadata.jsonl"), "--out", str(out)) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
               if p.name.startswith("report_") or p.name in ("manifest.json", "merged.jsonl", "link_report.csv")}
    assert digests == json.loads((FIXTURES / "golden_digests.json").read_text())


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
    "report": "--in --format --out-file",
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


def test_cli_has_51_flag_slots_and_25_analysis_flags_fewer():
    assert len(REMOVED_FLAGS) == 25
    assert sum(len(flags.split()) for flags in SUBCOMMAND_FLAGS.values()) == 51
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


def test_report_rerender(tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("pipeline", "--scores", str(FIXTURES / "scores.jsonl"),
            "--metadata", str(FIXTURES / "metadata.jsonl"), "--out", str(out))
    capsys.readouterr()
    assert run_cli("report", "--in", str(out / "report_unit_3.jsonl"), "--format", "text") == 0
    text = capsys.readouterr().out
    assert text.startswith("# scope=unit:3")
    rendered = tmp_path / "again.csv"
    assert run_cli("report", "--in", str(out / "report_unit_3.jsonl"),
                   "--format", "csv", "--out-file", str(rendered)) == 0
    assert rendered.read_text() == (out / "report_unit_3.csv").read_text()


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
