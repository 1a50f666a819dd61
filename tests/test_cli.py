import json
import subprocess
import sys
from pathlib import Path

import pytest

from termassoc.cli import PipelineConfig, build_parser, main

FIXTURES = Path(__file__).parent / "fixtures"


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
    assert "1 unmatched" in capsys.readouterr().out


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


def test_synth_missing_spec_no_partial_output(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("synth", "--spec", str(tmp_path / "missing.json"), "--sims", "2", "--out", str(out))
    assert rc != 0
    assert not (out / "metrics.json").exists()


def test_config_file_and_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"alpha": 0.01, "top_k": 5, "seed": 9, "min_abstract_chars": 300}))
    args = build_parser().parse_args(["analyze", "--config", str(cfg_path), "--in", "x.jsonl", "--alpha", "0.2",
                                      "--min-abstract-chars", "120"])
    cfg = PipelineConfig.load(str(cfg_path), args)
    assert cfg.alpha == 0.2      # flag wins
    assert cfg.min_abstract_chars == 120
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
    assert a.config_hash() == b.config_hash()
    c = PipelineConfig.load(None, args)
    c.alpha = 0.01
    assert c.config_hash() != a.config_hash()


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "termassoc.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "link" in proc.stdout and "synth" in proc.stdout
