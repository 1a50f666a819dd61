"""Output checks against the generator's answer key, never against earlier output.

Every check returns a list of problems; an empty list means the run is
correct. `output_digests` fingerprints a run's output directory so that the
benchmark can require every run of one seed to write identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path


def output_digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def _load_json(path: Path, problems: list[str]):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable: {exc}")
        return None


def check_link(key: dict, out: Path) -> list[str]:
    """link_summary.json counts, every link_report.csv row, and merged.jsonl ids."""
    problems: list[str] = []
    expected = key["link"]
    kinds = Counter(v["kind"] for v in expected.values())
    want = {
        "matched_doi": kinds["doi"],
        "matched_title_journal": kinds["title_journal"],
        "unmatched": kinds["none"],
        "suspicious": sum(v["suspicious"] for v in expected.values()),
    }
    summary = _load_json(out / "link_summary.json", problems)
    if summary is not None:
        for name, value in want.items():
            if summary.get(name) != value:
                problems.append(f"link_summary.json: {name} = {summary.get(name)}, expected {value}")
        if len(summary.get("diagnostics", [])) != key.get("collisions", 0):
            problems.append(f"link_summary.json: {len(summary.get('diagnostics', []))} diagnostics, "
                            f"expected {key.get('collisions', 0)} key collisions")
    try:
        with open(out / "link_report.csv", newline="", encoding="utf-8") as fh:
            rows = {row["record_id"]: row for row in csv.DictReader(fh)}
    except OSError as exc:
        return problems + [f"link_report.csv: unreadable: {exc}"]
    if set(rows) != set(expected):
        problems.append(f"link_report.csv: {len(set(rows) ^ set(expected))} record ids differ from the key")
    for rid, exp in expected.items():
        row = rows.get(rid)
        if row is None:
            continue
        got = (row["match_kind"], row["metadata_id"], row["suspicious"] == "true")
        if got != (exp["kind"], exp["meta"], exp["suspicious"]):
            problems.append(f"link_report.csv: record {rid}: {got}, expected "
                            f"{(exp['kind'], exp['meta'], exp['suspicious'])}")
            break
    try:
        with open(out / "merged.jsonl", encoding="utf-8") as fh:
            merged = [json.loads(line)["id"] for line in fh if line.strip()]
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"merged.jsonl: unreadable: {exc}"]
    matched = sorted(rid for rid, v in expected.items() if v["kind"] != "none")
    if merged != matched:
        problems.append(f"merged.jsonl: {len(merged)} documents, expected {len(matched)} "
                        "matched records in id order")
    return problems


def check_scopes(key: dict, out: Path) -> list[str]:
    """Manifest group sizes and each planted term's row in every scope report."""
    problems: list[str] = []
    manifest = _load_json(out / "manifest.json", problems)
    if manifest is None:
        return problems
    expected = key["scopes"]
    got = {s["id"]: s for s in manifest.get("scopes", [])}
    if set(got) != set(expected) or manifest.get("skipped"):
        problems.append(f"manifest.json: scopes {sorted(got)} skipped {manifest.get('skipped')}, "
                        f"expected {sorted(expected)}")
    for scope, exp in expected.items():
        if scope not in got:
            continue
        if got[scope]["n_docs"] != exp["n_docs"]:
            problems.append(f"manifest.json: {scope} n_docs {got[scope]['n_docs']}, "
                            f"expected {exp['n_docs']}")
        path = out / f"report_{scope.replace(':', '_')}.jsonl"
        try:
            with open(path, encoding="utf-8") as fh:
                rows = {r["term"]: r for r in map(json.loads, filter(str.strip, fh))}
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{path.name}: unreadable: {exc}")
            continue
        for term, want in exp["planted"].items():
            row = rows.get(term)
            if row is None:
                problems.append(f"{path.name}: planted term {term!r} missing")
            elif not (row["significant"] and row["direction"] == want["direction"]
                      and row["n"] == want["n"]):
                problems.append(f"{path.name}: planted term {term!r}: significant="
                                f"{row['significant']} direction={row['direction']} n={row['n']}, "
                                f"expected significant, {want['direction']}, n={want['n']}")
    return problems


def check_synth(key: dict, out: Path) -> list[str]:
    problems: list[str] = []
    metrics = _load_json(out / "metrics.json", problems)
    if metrics is None:
        return problems
    n = key["n_sims"]
    if metrics.get("n_sims") != n or metrics.get("recall") != key["recall"]:
        problems.append(f"metrics.json: n_sims={metrics.get('n_sims')} recall="
                        f"{metrics.get('recall')}, expected {n} and {key['recall']}")
    if metrics.get("recall_per_sim") != [key["recall"]] * n:
        problems.append(f"metrics.json: recall_per_sim {metrics.get('recall_per_sim')}")
    return problems


def check_outputs(key: dict, out: Path) -> list[str]:
    workload = key["workload"]
    if workload == "multiscope":
        return check_link(key, out) + check_scopes(key, out)
    if workload == "link-titlejournal":
        return check_link(key, out)
    return check_synth(key, out)


def check_trace(key: dict, spans: list[dict]) -> list[str]:
    """Span completeness: a layer whose work ran but left no spans fails here.

    One `build_tables` span per analysed scope, one extract per document per
    scope, one parse per input file; if scope work moves where the wrappers
    cannot see it, this fails instead of reporting zeros.
    """
    workload = key["workload"]
    totals = {}
    if workload == "multiscope":
        scopes = key["scopes"].values()
        want = {"corpus.parse": 2, "corpus.link": 1, "pipeline.scope": len(scopes),
                "stats.tables": len(scopes),
                "textproc.extract": sum(sum(s["n_docs"]) for s in scopes)}
        totals = {("corpus.dedup", "collapsed"): sum(s["records"] - s["deduped"] for s in scopes),
                  ("corpus.filter", "dropped"): sum(s["deduped"] - sum(s["n_docs"]) for s in scopes)}
    elif workload == "link-titlejournal":
        want = {"corpus.parse": 2, "corpus.link": 1, "corpus.merge": 1, "pipeline.scope": 0}
    else:
        n = key["n_sims"]
        want = {"synth.generate": n, "pipeline.scope": n, "stats.tables": n,
                "textproc.extract": n * key["docs_per_sim"]}
    names = Counter(s["name"] for s in spans)
    problems = [f"trace: {names[name]} {name} span(s), expected {n}"
                for name, n in want.items() if names[name] != n]
    if "input_records" in key:
        totals["corpus.parse", "records"] = key["input_records"]
    for (name, attr), value in totals.items():
        got = sum(s["attrs"].get(attr, 0) for s in spans if s["name"] == name)
        if got != value:
            problems.append(f"trace: {name} counted {got} {attr}, expected {value}")
    return problems
