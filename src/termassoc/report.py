"""Ranked per-scope term reports.

Rows are ranked by statistic, pruned so no reported term sits inside a longer
reported phrase pointing at the same group, and rendered as CSV, JSON-lines
or an aligned text table. When a scope has significant terms, only those are
reported; otherwise the top-ranked terms are emitted flagged `illustrative`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional

from .corpus import csv_text
from .stats import TermResult
from .textproc import iter_ngrams

_ENCODER = json.JSONEncoder(ensure_ascii=False)   # for render_jsonl: json.dumps builds one encoder per call


@dataclass
class ReportRow:
    term: str
    n: int                      # documents containing the term, all groups
    chi2: float
    p_value: float
    significant: bool
    direction: str
    proportions: dict[str, float]   # group label -> presence proportion

    @classmethod
    def from_result(cls, result: TermResult, labels: list[str]) -> "ReportRow":
        return cls(result.term, result.n, result.chi2, result.p_value, result.significant,
                   result.direction, dict(zip(labels, result.proportions)))


@dataclass
class ScopeReport:
    scope: str
    m: int
    threshold: Optional[float]
    group_labels: list[str]
    rows: list[ReportRow]
    illustrative: bool


def rank_terms(results: list) -> list:
    """Sort by chi2 descending, ties by term."""
    return sorted(results, key=lambda r: (-r.chi2, r.term))


def subsume(ranked: list) -> list:
    """Drop terms contained in a longer retained term with the same direction.

    Containment is contiguous-token containment and is transitive, so checking
    against every longer candidate is equivalent to checking against retained
    ones: the maximal phrases always survive. Rank order is preserved; a longer
    phrase wins regardless of its own rank.
    """
    covered: dict[str, set[str]] = {}
    for row in ranked:
        tokens = row.term.split(" ")
        if len(tokens) < 2:
            continue
        covered.setdefault(row.direction, set()).update(iter_ngrams(tokens, len(tokens) - 1))
    return [row for row in ranked if row.term not in covered.get(row.direction, ())]


def build_scope_report(
    results: list[TermResult],
    scope: str,
    m: int,
    threshold: Optional[float],
    labels: list[str],
    top_k: int = 50,
) -> ScopeReport:
    """Assemble the report for one scope.

    Significant terms crowd out the rest; only when none reach the corrected
    critical value does the report fall back to the top-ranked terms, flagged
    illustrative. Subsumption runs before truncation so the report still
    surfaces top_k distinct findings.
    """
    ranked = rank_terms(results)
    significant = [r for r in ranked if r.significant]
    pool, illustrative = (significant, False) if significant else (ranked, True)
    rows = [ReportRow.from_result(r, labels) for r in subsume(pool)[:top_k]]
    return ScopeReport(scope, m, threshold, list(labels), rows, illustrative)


def _csv_header(labels: list[str]) -> list[str]:
    head = ["scope", "term", "n", "chi2", "p_value", "significant", "illustrative", "direction"]
    head.extend(f"prop_{label}" for label in labels)
    head.extend(["m", "threshold"])
    return head


def render_csv(report: ScopeReport) -> str:
    rows = [_csv_header(report.group_labels)]
    for row in report.rows:
        record = [
            report.scope,
            row.term,
            row.n,
            repr(row.chi2),
            repr(row.p_value),
            str(row.significant).lower(),
            str(report.illustrative).lower(),
            row.direction,
        ]
        record.extend(repr(row.proportions[label]) for label in report.group_labels)
        record.extend([report.m, "" if report.threshold is None else repr(report.threshold)])
        rows.append(record)
    return csv_text(rows)


def render_jsonl(report: ScopeReport) -> str:
    head = {"scope": report.scope, "m": report.m, "threshold": report.threshold, "illustrative": report.illustrative}
    return "".join(_ENCODER.encode({**head, **asdict(row)}) + "\n" for row in report.rows)


def render_text(report: ScopeReport) -> str:
    """Aligned table for terminals; low-group terms are marked in the dir column."""
    low_label = report.group_labels[0] if report.group_labels else ""
    headers = ["rank", "term", "n", "chi2", "p_value", "dir", "sig"]
    body = []
    for rank, row in enumerate(report.rows, start=1):
        direction = row.direction.upper() if row.direction == low_label else row.direction
        body.append(
            [
                str(rank),
                row.term,
                str(row.n),
                f"{row.chi2:.4f}",
                f"{row.p_value:.3e}",
                direction,
                "yes" if row.significant else "no",
            ]
        )
    widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h) for i, h in enumerate(headers)]
    threshold = "n/a" if report.threshold is None else f"{report.threshold:.4f}"
    out = [
        f"# scope={report.scope} m={report.m} threshold={threshold} "
        f"illustrative={str(report.illustrative).lower()}"
    ]
    out.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for r in body:
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(out) + "\n"


# Report format -> (extension of the file it is written to, renderer).
FORMATS = {"csv": ("csv", render_csv), "jsonl": ("jsonl", render_jsonl), "text": ("txt", render_text)}


def emit_report(report: ScopeReport, fmt: str) -> str:
    """Serialize a report as 'csv', 'jsonl' or 'text'."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown report format {fmt!r}; choose from {tuple(FORMATS)}")
    return FORMATS[fmt][1](report)
