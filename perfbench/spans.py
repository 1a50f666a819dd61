"""Spans recorded from outside the program, and the per-layer figures built from them.

`install` wraps public termassoc functions *as bound in the module that calls
them*: `pipeline` and `synth` import names directly, so the wrapper for
`build_tables` goes on `termassoc.pipeline.build_tables`, not on
`termassoc.stats`. Nothing under src/ changes.

A span records name, start, end, parent span and thread. Each thread keeps
its own stack of open spans; a thread with an empty stack (a pool worker)
takes as parent the innermost open span of the thread that created the
tracer, so scope spans run on a thread pool nest under the call that
started the pool. Counts a wrapper takes from a call's arguments and result
are gathered after the layer's span ends, inside a `trace.bookkeeping` span,
so the layer's own time excludes them. Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.t0 = clock()
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._root_thread = threading.get_ident()

    def open(self, name: str) -> dict:
        """Start a span on this thread and return its record."""
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                root = self._stacks.get(self._root_thread)
                parent = root[-1] if root and thread != self._root_thread else None
            rec = {"id": len(self.spans), "name": name, "parent": parent, "thread": thread,
                   "start": 0.0, "end": 0.0, "attrs": {}}
            self.spans.append(rec)
            stack.append(rec["id"])
        rec["start"] = self.clock() - self.t0
        return rec

    def close(self, rec: dict):
        rec["end"] = self.clock() - self.t0
        with self._lock:
            self._stacks[rec["thread"]].pop()

    @contextmanager
    def span(self, name: str):
        """Open a span for the block; yields its `attrs` dict for counts."""
        rec = self.open(name)
        try:
            yield rec["attrs"]
        finally:
            self.close(rec)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _rss_mb() -> float:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _link_counts(args, r):
    kinds = [kind for _, _, kind in r.matched]
    return {"matched_doi": kinds.count("doi"), "matched_tj": kinds.count("title_journal"),
            "unmatched": len(r.unmatched), "suspicious": len(r.suspicious)}


def _extract_counts(args, r):
    doc = args[0]
    # A document is its id plus its text: synth reuses ids across simulations.
    return {"pairs": len(r.terms), "doc": f"{doc.id}|{hash(doc.abstract_raw)}"}


def _table_counts(args, r):
    term_sets = args[0]
    return {"m": len(r), "distinct_terms": len(set().union(*(ts.terms for ts in term_sets)))}


@dataclass(frozen=True)
class Probe:
    target: str                     # "module.attr" as bound in the calling module
    span: str
    count: Optional[Callable] = None    # (args, result) -> dict of counts
    rss: bool = False               # record RSS rise across the call


PROBES = (
    Probe("termassoc.corpus.read_jsonl", "corpus.parse",
          lambda a, r: {"records": len(r.documents), "errors": len(r.errors)}),
    Probe("termassoc.corpus.link_records", "corpus.link", _link_counts),
    Probe("termassoc.corpus.merge_linked", "corpus.merge"),
    Probe("termassoc.corpus.write_jsonl", "corpus.write"),
    Probe("termassoc.pipeline.analyze_scopes", "pipeline.analyze"),
    Probe("termassoc.pipeline.analyze_scope", "pipeline.scope",
          lambda a, r: {"skipped": int(bool(r.skipped))}),
    Probe("termassoc.synth.analyze_scope", "pipeline.scope",
          lambda a, r: {"skipped": int(bool(r.skipped))}),
    Probe("termassoc.pipeline.dedup_within_unit", "corpus.dedup",
          lambda a, r: {"collapsed": len(a[0]) - len(r)}),
    Probe("termassoc.pipeline.clean_abstract", "cleanse.clean",
          lambda a, r: {"chars_removed": len(a[0]) - len(r)}),
    Probe("termassoc.pipeline.filter_documents", "corpus.filter",
          lambda a, r: {"dropped": len(a[0]) - len(r.documents)}),
    Probe("termassoc.pipeline.extract_terms", "textproc.extract", _extract_counts),
    Probe("termassoc.pipeline.build_tables", "stats.tables", _table_counts, rss=True),
    Probe("termassoc.pipeline.compute_term_results", "stats.results"),
    Probe("termassoc.pipeline.build_scope_report", "report.build"),
    Probe("termassoc.cli.emit_report", "report.emit",
          lambda a, r: {"bytes": len(r.encode("utf-8"))}),
    Probe("termassoc.synth.generate_corpus", "synth.generate"),
    Probe("termassoc.synth.evaluate_detector", "synth.evaluate"),
)


def _wrap(tracer: Tracer, fn, probe: Probe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rss0 = _rss_mb() if probe.rss else 0.0
        rec = tracer.open(probe.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(rec)
        if probe.rss:
            rec["attrs"]["rss_rise_mb"] = _rss_mb() - rss0
        if probe.count:
            book = tracer.open(BOOKKEEPING)
            rec["attrs"].update(probe.count(args, result))
            tracer.close(book)
        return result
    wrapper.probed = True
    return wrapper


def install(tracer: Tracer, probes=PROBES):
    """Replace each probe's target with a timing wrapper."""
    for probe in probes:
        module_name, _, attr = probe.target.rpartition(".")
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        if getattr(fn, "probed", False):
            # Bound from a module patched earlier: wrap the original once.
            fn = fn.__wrapped__
        setattr(module, attr, _wrap(tracer, fn, probe))


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children on other threads may overlap each other, so their covered time
    is the length of the union of their intervals, clipped to the parent.
    """
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in children.get(s["id"], ())]
        out[s["id"]] = (s["end"] - s["start"]) - covered((a, b) for a, b in clipped if b > a)
    return out


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_per_doc")):
        return "ratio"
    return "count"


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced run: busy seconds, counts and ratios."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)

    def busy(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def total(name, attr):
        return sum(s["attrs"].get(attr, 0) for s in by_name.get(name, ()))

    extracts = by_name.get("textproc.extract", [])
    distinct_docs = len({s["attrs"]["doc"] for s in extracts})
    scopes = by_name.get("pipeline.scope", [])
    scope_durations = [s["end"] - s["start"] for s in scopes]
    waits = [s["start"] - by_id[s["parent"]]["start"] for s in scopes
             if s["parent"] is not None and by_id[s["parent"]]["name"] == "pipeline.analyze"]
    tables = by_name.get("stats.tables", [])
    distinct_terms = total("stats.tables", "distinct_terms")
    mains = by_name.get("cli.main", [])
    return {
        "cli.main.s": busy("cli.main"),
        "cli.main.self_s": sum(selfs[s["id"]] for s in mains),
        "corpus.parse.s": busy("corpus.parse"),
        "corpus.parse.records": total("corpus.parse", "records"),
        "corpus.parse.errors": total("corpus.parse", "errors"),
        "corpus.link.s": busy("corpus.link"),
        "corpus.link.matched_doi": total("corpus.link", "matched_doi"),
        "corpus.link.matched_tj": total("corpus.link", "matched_tj"),
        "corpus.link.unmatched": total("corpus.link", "unmatched"),
        "corpus.link.suspicious": total("corpus.link", "suspicious"),
        "corpus.merge.s": busy("corpus.merge"),
        "corpus.write.s": busy("corpus.write"),
        "corpus.dedup.s": busy("corpus.dedup"),
        "corpus.dedup.collapsed": total("corpus.dedup", "collapsed"),
        "corpus.filter.s": busy("corpus.filter"),
        "corpus.filter.dropped": total("corpus.filter", "dropped"),
        "cleanse.clean.s": busy("cleanse.clean"),
        "cleanse.clean.calls": len(by_name.get("cleanse.clean", ())),
        "cleanse.clean.chars_removed": total("cleanse.clean", "chars_removed"),
        "textproc.extract.s": busy("textproc.extract"),
        "textproc.extract.calls": len(extracts),
        "textproc.extract.calls_per_doc": len(extracts) / distinct_docs if distinct_docs else 0.0,
        "textproc.extract.term_doc_pairs": total("textproc.extract", "pairs"),
        "stats.tables.s": busy("stats.tables"),
        "stats.tables.distinct_terms": distinct_terms,
        "stats.tables.m": total("stats.tables", "m"),
        "stats.tables.kept_ratio": total("stats.tables", "m") / distinct_terms if distinct_terms else 0.0,
        "stats.tables.rss_rise_mb": max((s["attrs"]["rss_rise_mb"] for s in tables), default=0.0),
        "stats.results.s": busy("stats.results"),
        "pipeline.scope.s": statistics.median(scope_durations) if scopes else 0.0,
        "pipeline.scope.max_s": max(scope_durations, default=0.0),
        "pipeline.scope.self_s": sum(selfs[s["id"]] for s in scopes),
        "pipeline.scope.wait_s": sum(waits),
        "pipeline.scopes": len(scopes),
        "pipeline.skipped": total("pipeline.scope", "skipped"),
        "report.build.s": busy("report.build"),
        "report.emit.s": busy("report.emit"),
        "report.emit.bytes": total("report.emit", "bytes"),
        "synth.generate.s": busy("synth.generate"),
        "synth.sims": len(by_name.get("synth.generate", ())),
        "trace.bookkeeping.s": busy(BOOKKEEPING),
        "trace.spans": len(spans),
    }
