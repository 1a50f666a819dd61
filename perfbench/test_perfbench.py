"""Tests of the benchmark itself: generator, checks and span arithmetic."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink the workloads so each generates in milliseconds."""
    monkeypatch.setattr(workloads, "MULTISCOPE_ARTICLES_PER_UNIT", 40)
    monkeypatch.setattr(workloads, "MULTISCOPE_EXTRA_METADATA", 10)
    monkeypatch.setattr(workloads, "LINK_RECORDS", 300)
    monkeypatch.setattr(workloads, "LINK_METADATA", 600)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(small, tmp_path, workload):
    workloads.generate(workload, 7, tmp_path / "a")
    workloads.generate(workload, 7, tmp_path / "b")
    workloads.generate(workload, 8, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a != c


def test_multiscope_key_facts(small, tmp_path):
    key = workloads.generate("multiscope", 3, tmp_path)
    assert sorted(key["scopes"]) == ["all", "panel:A", "panel:B",
                                     "unit:1", "unit:2", "unit:7", "unit:8"]
    units = sum(sum(key["scopes"][f"unit:{u}"]["n_docs"]) for u in workloads.MULTISCOPE_UNITS)
    # A document duplicated into a unit of the other panel counts in both panels.
    panels = sum(sum(key["scopes"][p]["n_docs"]) for p in ("panel:A", "panel:B"))
    assert units >= panels >= sum(key["scopes"]["all"]["n_docs"])
    scores = (tmp_path / "scores.jsonl").read_text().splitlines()
    assert len(scores) == len(key["link"])
    assert any(json.loads(line)["doi"] is None for line in scores)


def _fake_scope_outputs(key: dict, out: Path):
    """Outputs that state exactly the key's facts."""
    out.mkdir()
    manifest = {"scopes": [{"id": s, "n_docs": e["n_docs"]} for s, e in key["scopes"].items()],
                "skipped": []}
    (out / "manifest.json").write_text(json.dumps(manifest))
    for scope, exp in key["scopes"].items():
        rows = [{"term": t, "n": w["n"], "significant": True, "direction": w["direction"]}
                for t, w in exp["planted"].items()]
        (out / f"report_{scope.replace(':', '_')}.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in rows))


def test_scope_check_rejects_a_corrupted_report(small, tmp_path):
    key = workloads.generate("multiscope", 5, tmp_path / "in")
    out = tmp_path / "out"
    _fake_scope_outputs(key, out)
    assert checks.check_scopes(key, out) == []

    report = out / "report_all.jsonl"
    rows = [json.loads(line) for line in report.read_text().splitlines()]
    rows[0]["n"] += 1
    report.write_text("".join(json.dumps(r) + "\n" for r in rows))
    problems = checks.check_scopes(key, out)
    assert len(problems) == 1 and "report_all.jsonl" in problems[0]

    rows[0]["n"] -= 1
    rows[1]["direction"] = "low"
    report.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert checks.check_scopes(key, out)


def test_link_check_on_the_real_cli(small, tmp_path):
    """The real `link` output passes; a corrupted summary or row is rejected."""
    key = workloads.generate("link-titlejournal", 2, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(BENCH_DIR.parent / "src"))
    subprocess.run([sys.executable, "-m", "termassoc.cli", *key["argv"], "--out", "out"],
                   cwd=tmp_path, env=env, check=True, capture_output=True, timeout=120)
    out = tmp_path / "out"
    assert checks.check_outputs(key, out) == []

    summary_path = out / "link_summary.json"
    summary = json.loads(summary_path.read_text())
    summary["suspicious"] += 1
    summary_path.write_text(json.dumps(summary))
    assert any("suspicious" in p for p in checks.check_outputs(key, out))

    summary["suspicious"] -= 1
    summary_path.write_text(json.dumps(summary))
    report = out / "link_report.csv"
    lines = report.read_text().splitlines()
    lines[1] = lines[1].replace("title_journal", "doi", 1) if "title_journal" in lines[1] \
        else lines[1].replace("none", "doi", 1)
    report.write_text("\n".join(lines) + "\n")
    assert any("link_report.csv" in p for p in checks.check_outputs(key, out))


def test_synth_check_rejects_wrong_recall(tmp_path):
    key = {"workload": "synth-sims", "n_sims": 2, "recall": 1.0}
    metrics = {"n_sims": 2, "recall": 1.0, "recall_per_sim": [1.0, 1.0]}
    (tmp_path / "metrics.json").write_text(json.dumps(metrics))
    assert checks.check_outputs(key, tmp_path) == []
    metrics.update(recall=0.5, recall_per_sim=[1.0, 0.0])
    (tmp_path / "metrics.json").write_text(json.dumps(metrics))
    assert checks.check_outputs(key, tmp_path)


def _span(i, name, start, end, parent=None):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
            "thread": 1, "attrs": {}}


def test_self_time_subtracts_the_union_of_children():
    trace = [
        _span(0, "pipeline.analyze", 0.0, 10.0),
        _span(1, "pipeline.scope", 1.0, 3.0, 0),
        _span(2, "pipeline.scope", 2.0, 5.0, 0),     # overlaps span 1 (another thread)
        _span(3, "pipeline.scope", 7.0, 8.0, 0),
        _span(4, "stats.tables", 2.5, 4.0, 2),
        _span(5, "stats.tables", 9.5, 11.0, 0),      # runs past its parent: clipped
    ]
    selfs = spans.self_times(trace)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert selfs[2] == pytest.approx(3.0 - 1.5)
    assert selfs[1] == pytest.approx(2.0)
    assert spans.covered([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) == pytest.approx(3.0)


def test_tracer_nests_pool_threads_under_the_opening_span():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("pipeline.analyze"):
        worker = threading.Thread(target=lambda: tracer.close(tracer.open("pipeline.scope")))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        with tracer.span("corpus.dedup"):
            pass
    analyze, scope, dedup = tracer.spans
    assert scope["parent"] == analyze["id"] and scope["thread"] != analyze["thread"]
    assert dedup["parent"] == analyze["id"]
    assert analyze["parent"] is None
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["pipeline.scopes"] == 1
    assert metrics["pipeline.scope.wait_s"] == scope["start"] - analyze["start"]


def test_trace_completeness_fails_without_table_spans():
    key = {"workload": "synth-sims", "n_sims": 2, "docs_per_sim": 3}
    trace = [_span(i, name, 0.0, 1.0) for i, name in enumerate(
        ["synth.generate"] * 2 + ["pipeline.scope"] * 2 + ["textproc.extract"] * 6
        + ["stats.tables"] * 2)]
    assert checks.check_trace(key, trace) == []
    problems = checks.check_trace(key, [s for s in trace if s["name"] != "stats.tables"])
    assert problems == ["trace: 0 stats.tables span(s), expected 2"]
