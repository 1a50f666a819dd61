"""Orchestration: clean once, then per scope dedup -> filter -> extract -> stats -> report.

Scopes are identified as "unit:<code>", "panel:<letter>" or "all". Every stage
is deterministic for a fixed seed, and scope outcomes are independent of each
other; scopes run one at a time and outputs are canonically ordered before
writing.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field
from typing import Optional

from .cleanse import CleaningRule, clean_abstract
from .corpus import Document, dedup_within_unit, filter_documents
from .report import ScopeReport, build_scope_report
from .stats import AnalysisConfig, TermResult, build_tables, compute_term_results
from .textproc import extract_terms

logger = logging.getLogger(__name__)


@dataclass
class ScopeOutcome:
    scope: str
    report: Optional[ScopeReport] = None
    results: list[TermResult] = field(default_factory=list)
    m: int = 0
    threshold: Optional[float] = None
    group_sizes: list[int] = field(default_factory=list)
    skipped: Optional[str] = None


def scope_kind(scope: str) -> str:
    return scope.split(":", 1)[0]


def select_scope(docs: list[Document], scope: str) -> list[Document]:
    if scope == "all":
        return list(docs)
    kind, _, value = scope.partition(":")
    if kind == "unit":
        return [d for d in docs if d.unit == value]
    if kind == "panel":
        return [d for d in docs if d.panel == value]
    raise ValueError(f"unknown scope {scope!r}")


def expand_scopes(docs: list[Document], requested: list[str]) -> list[str]:
    """Expand the keywords units/panels/all into concrete scope ids."""
    scopes: list[str] = []
    for item in requested:
        if item == "units":
            scopes.extend(f"unit:{u}" for u in sorted({d.unit for d in docs if d.unit}))
        elif item == "panels":
            scopes.extend(f"panel:{p}" for p in sorted({d.panel for d in docs if d.panel}))
        elif item == "all" or ":" in item:
            scopes.append(item)
        else:
            raise ValueError(f"unknown scope specifier {item!r}")
    seen = set()
    unique = []
    for s in scopes:
        if s not in seen:
            seen.add(s)
            unique.append(s)
    return unique


def clean_documents(docs: list[Document], rules: list[CleaningRule]) -> list[Document]:
    """Copies of docs with abstract_clean set from abstract_raw by the rules."""
    return [dataclasses.replace(d, abstract_clean=clean_abstract(d.abstract_raw, rules)) for d in docs]


def analyze_scope(
    docs: list[Document],
    scope: str,
    config: AnalysisConfig,
    min_abstract_chars: int = 500,
) -> ScopeOutcome:
    """Run the full analysis for one scope's cleaned documents.

    Returns an outcome with `skipped` set (and no report) when the scope is
    degenerate: no documents survive the filters or some group is empty.
    """
    subset = select_scope(docs, scope)
    if not subset:
        return ScopeOutcome(scope, skipped="no documents in scope")

    deduped = dedup_within_unit(subset, scope_kind(scope), config.seed)
    filtered = filter_documents(deduped, min_abstract_chars)
    if not filtered.documents:
        return ScopeOutcome(scope, skipped="no documents after filtering")

    scheme = config.group_scheme
    group_of: dict[str, int] = {}
    for doc in filtered.documents:
        idx = scheme.group_index(doc.score)
        if idx is None:
            return ScopeOutcome(scope, skipped=f"document {doc.id!r} has ungrouped score {doc.score}")
        group_of[doc.id] = idx

    sizes = [0] * len(scheme.groups)
    for idx in group_of.values():
        sizes[idx] += 1
    if any(size == 0 for size in sizes):
        empty = [scheme.labels[i] for i, s in enumerate(sizes) if s == 0]
        return ScopeOutcome(scope, skipped=f"empty group(s) {empty}", group_sizes=sizes)

    term_sets = [extract_terms(doc, config.n_max) for doc in filtered.documents]
    tables = build_tables(term_sets, group_of, len(scheme.groups), config.min_doc_frequency)
    results, m, threshold = compute_term_results(tables, scheme.labels, config.alpha)
    report = build_scope_report(results, scope, m, threshold, scheme.labels, config.top_k)
    return ScopeOutcome(scope, report, results, m, threshold, sizes)


def analyze_scopes(
    docs: list[Document],
    scopes: list[str],
    config: AnalysisConfig,
    rules: list[CleaningRule],
    min_abstract_chars: int = 500,
) -> dict[str, ScopeOutcome]:
    """Clean every document once, then analyze the scopes one after another."""
    cleaned = clean_documents(docs, rules)
    outcomes = {}
    for scope in scopes:
        outcome = analyze_scope(cleaned, scope, config, min_abstract_chars)
        if outcome.skipped:
            logger.warning("scope %s skipped: %s", scope, outcome.skipped)
        outcomes[scope] = outcome
    return outcomes
