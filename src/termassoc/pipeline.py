"""Orchestration: clean, plan every scope (select -> dedup -> filter), tokenize, then extract -> stats -> report.

Scopes are identified as "unit:<code>", "panel:<letter>" or "all". Every stage
is deterministic for a fixed seed, and scope outcomes are independent of each
other; scopes run one at a time and outputs are canonically ordered before
writing. A run plans every scope before it tokenizes anything, then tokenizes
the text of each planned keeper once, into a memo of token units that its
scopes share; the token table used for that is dropped before any scope
builds its tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .cleanse import CleaningRule, clean_abstract
from .corpus import SCOPE_KINDS, Document, dedup_within_unit, filter_documents
from .report import ScopeReport, build_scope_report
from .stats import AnalysisConfig, build_tables, compute_term_results
from .textproc import UnitMemo, extract_terms, prepare_units


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
    """Reject an empty list, or a scope specifier other than units, panels, all, unit:<x> or panel:<x>."""
    forms = "use units, panels, all, unit:<x> or panel:<x>"
    if not requested:
        raise ValueError(f"no scope specifiers given; {forms}")
    for item in requested:
        kind, _, value = item.partition(":")
        if item != "all" and item not in _KEYWORDS and not (kind in SCOPE_KINDS and value):
            raise ValueError(f"unknown scope specifier {item!r}; {forms}")


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


class ScopePlan(NamedTuple):
    """One scope's keepers, the group index of each (aligned in groups) and the group sizes, or why it is skipped."""
    scope: str
    documents: list[Document]
    groups: bytes    # one byte per keeper, since every scope's plan is held at once
    group_sizes: list[int]
    skipped: Optional[str]


def plan_scope(docs: list[Document], scope: str, config: AnalysisConfig, min_abstract_chars: int = 500) -> ScopePlan:
    """Select one scope's cleaned documents, dedup and filter them, and group the keepers.

    The plan is skipped (and holds no documents) when the scope selects no
    documents, none survive the filters, or some score group is empty.
    """
    subset = select_scope(docs, scope)
    if not subset:
        return ScopePlan(scope, [], b"", [], "no documents in scope")

    # Every document of a unit: or panel: scope shares that unit or panel, so
    # deduping the subset by identity alone ("all") gives the same groups.
    deduped = dedup_within_unit(subset, "all", config.seed)
    filtered = filter_documents(deduped, min_abstract_chars)
    if not filtered.documents:
        return ScopePlan(scope, [], b"", [], "no documents after filtering")

    scheme = config.group_scheme
    # Every kept score is 1-4 and a GroupScheme covers exactly those, so each has a group.
    groups = bytes([scheme.group_index(doc.score) for doc in filtered.documents])
    sizes = [groups.count(idx) for idx in range(len(scheme.groups))]
    if 0 in sizes:
        empty = [label for label, size in zip(scheme.labels, sizes) if size == 0]
        return ScopePlan(scope, [], b"", sizes, f"empty group(s) {empty}")
    return ScopePlan(scope, filtered.documents, groups, sizes, None)


def analyze_scope(plan: ScopePlan, config: AnalysisConfig, memo: Optional[UnitMemo] = None) -> ScopeOutcome:
    """Extract, count, test and report one planned scope; a skipped plan gives a skipped outcome.

    `memo` holds the token units of every keeper's text; with None, the
    keepers are tokenized here into a memo of this call's own.
    """
    if plan.skipped:
        return ScopeOutcome(skipped=plan.skipped, group_sizes=plan.group_sizes)
    if memo is None:
        memo = prepare_units(plan.documents)
    scheme = config.group_scheme
    term_sets = [extract_terms(doc, config.n_max, memo) for doc in plan.documents]
    del memo    # a memo made for this scope alone is freed before its tables are built
    tables = build_tables(term_sets, plan.groups, len(scheme.groups), config.min_doc_frequency)
    results, m, threshold = compute_term_results(tables, plan.group_sizes, scheme.labels, config.alpha)
    report = build_scope_report(results, plan.scope, m, threshold, scheme.labels, config.top_k)
    return ScopeOutcome(report, plan.group_sizes, {r.term: r.direction for r in results if r.significant})


def analyze_scopes(docs: list[Document], scopes: list[str], config: AnalysisConfig, rules: list[CleaningRule],
                   min_abstract_chars: int = 500) -> dict[str, ScopeOutcome]:
    """Clean every document, plan every scope, tokenize the planned keepers' texts once, then analyse each scope.

    Every scope is deduped and filtered before any text is tokenized, so
    only the texts some scope analyses are tokenized; the scopes then run
    one after another on that memo.
    """
    clean_documents(docs, rules)
    plans = [plan_scope(docs, scope, config, min_abstract_chars) for scope in scopes]
    memo = prepare_units(doc for plan in plans for doc in plan.documents)
    outcomes = {}
    while plans:    # popped in scope order, so each plan's lists are freed once its scope is analysed
        plan = plans.pop(0)
        outcomes[plan.scope] = analyze_scope(plan, config, memo)
    return outcomes
