"""Orchestration: clean and tokenize once, then per scope dedup -> filter -> extract -> stats -> report.

Scopes are identified as "unit:<code>", "panel:<letter>" or "all". Every stage
is deterministic for a fixed seed, and scope outcomes are independent of each
other; scopes run one at a time and outputs are canonically ordered before
writing. A run shares one token table and one memo of token units across its
scopes, so a document's text is tokenized in the first scope that extracts it
and reused by every later one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .cleanse import CleaningRule, clean_abstract
from .corpus import SCOPE_KINDS, Document, dedup_within_unit, filter_documents
from .report import ScopeReport, build_scope_report
from .stats import AnalysisConfig, build_tables, compute_term_results
from .textproc import UnitMemo, extract_terms


@dataclass
class ScopeOutcome:
    """One scope's report, or why the scope was skipped.

    The report holds the scope id, m and the threshold; the outcome adds what
    a report does not carry: the group sizes and every significant term.
    """
    report: Optional[ScopeReport] = None
    group_sizes: list[int] = field(default_factory=list)
    significant: dict[str, str] = field(default_factory=dict)    # significant term -> direction
    skipped: Optional[str] = None


# Scope keyword -> the kind it expands to: "units" gives one "unit:<u>" scope per unit.
_KEYWORDS = {kind + "s": kind for kind in SCOPE_KINDS}


def select_scope(docs: list[Document], scope: str) -> list[Document]:
    if scope == "all":
        return list(docs)
    kind, _, value = scope.partition(":")
    if kind not in SCOPE_KINDS:
        raise ValueError(f"unknown scope {scope!r}")
    return [d for d in docs if getattr(d, kind) == value]


def check_scopes(requested: list[str]):
    """Reject a scope specifier other than units, panels, all, unit:<x> or panel:<x>."""
    for item in requested:
        kind, _, value = item.partition(":")
        if item != "all" and item not in _KEYWORDS and not (kind in SCOPE_KINDS and value):
            raise ValueError(f"unknown scope specifier {item!r}; use units, panels, all, unit:<x> or panel:<x>")


def expand_scopes(docs: list[Document], requested: list[str]) -> list[str]:
    """Expand the keywords units/panels into concrete scope ids, dropping repeats."""
    check_scopes(requested)
    scopes: list[str] = []
    for item in requested:
        kind = _KEYWORDS.get(item)
        if kind:
            scopes.extend(f"{kind}:{v}" for v in sorted({getattr(d, kind) for d in docs} - {""}))
        else:
            scopes.append(item)
    return list(dict.fromkeys(scopes))


def clean_documents(docs: list[Document], rules: list[CleaningRule]) -> list[Document]:
    """Set each document's abstract_clean from its abstract_raw by the rules; returns docs.

    The documents are changed in place: every caller passes documents its run
    has just parsed, merged or generated, and nothing reads them uncleaned.
    """
    for d in docs:
        d.abstract_clean = clean_abstract(d.abstract_raw, rules)
    return docs


def analyze_scope(
    docs: list[Document],
    scope: str,
    config: AnalysisConfig,
    min_abstract_chars: int = 500,
    vocab: Optional[dict[str, str]] = None,
    memo: Optional[UnitMemo] = None,
) -> ScopeOutcome:
    """Run the full analysis for one scope's cleaned documents.

    Returns an outcome with `skipped` set (and no report) when the scope is
    degenerate: it selects no documents, none survive the filters, or some
    score group is empty. `vocab` and `memo` are the token table and
    token-unit memo that `extract_terms` takes; with None the scope gets a
    table of its own and each `extract_terms` call a fresh memo.
    """
    subset = select_scope(docs, scope)
    if not subset:
        return ScopeOutcome(skipped="no documents in scope")

    # Every document of a unit: or panel: scope shares that unit or panel, so
    # deduping the subset by identity alone ("all") gives the same groups.
    deduped = dedup_within_unit(subset, "all", config.seed)
    filtered = filter_documents(deduped, min_abstract_chars)
    if not filtered.documents:
        return ScopeOutcome(skipped="no documents after filtering")

    scheme = config.group_scheme
    # Every kept score is 1-4 and a GroupScheme covers exactly those, so each has a group.
    groups = [scheme.group_index(doc.score) for doc in filtered.documents]
    sizes = [groups.count(idx) for idx in range(len(scheme.groups))]
    if 0 in sizes:
        empty = [label for label, size in zip(scheme.labels, sizes) if size == 0]
        return ScopeOutcome(skipped=f"empty group(s) {empty}", group_sizes=sizes)

    # A scope given no token table gets its own: its term sets share one string per distinct token.
    vocab = {} if vocab is None else vocab
    term_sets = [extract_terms(doc, config.n_max, vocab, memo) for doc in filtered.documents]
    tables = build_tables(term_sets, groups, len(scheme.groups), config.min_doc_frequency)
    results, m, threshold = compute_term_results(tables, sizes, scheme.labels, config.alpha)
    report = build_scope_report(results, scope, m, threshold, scheme.labels, config.top_k)
    return ScopeOutcome(report, sizes, {r.term: r.direction for r in results if r.significant})


def analyze_scopes(
    docs: list[Document],
    scopes: list[str],
    config: AnalysisConfig,
    rules: list[CleaningRule],
    min_abstract_chars: int = 500,
) -> dict[str, ScopeOutcome]:
    """Clean and tokenize every document once, then per scope select, dedup, filter and count.

    The scopes run one after another and share one token table and one memo
    of token units: a document is tokenized in the first scope that extracts
    it, and the later scopes reuse its units.
    """
    clean_documents(docs, rules)
    vocab: dict[str, str] = {}
    memo: UnitMemo = {}
    return {scope: analyze_scope(docs, scope, config, min_abstract_chars, vocab, memo) for scope in scopes}
