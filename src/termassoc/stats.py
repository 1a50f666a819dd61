"""Contingency tables and chi-square testing over merged score groups.

Every term gets a groups x {present, absent} table of document counts (not
occurrence counts). The Pearson statistic is compared against a critical
value derived from the Bonferroni-corrected significance level: with m terms
tested at level alpha, a term is significant when its statistic reaches the
point where the chi-square survival function equals alpha/m. The survival
function is computed from the regularized incomplete gamma function, with no
dependency beyond the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .corpus import GroupScheme, default_group_scheme
from .textproc import DocTermSet

_MAX_ITER = 500
_EPS = 1e-16
_TINY = 1e-300


@dataclass
class ContingencyTable:
    """Per-group totals N_g and counts k_g of documents containing a term."""

    group_sizes: tuple[int, ...]
    present: tuple[int, ...]

    def __post_init__(self):
        self.group_sizes = tuple(self.group_sizes)
        self.present = tuple(self.present)
        if len(self.group_sizes) < 2:
            raise ValueError("need at least 2 groups")
        if len(self.present) != len(self.group_sizes):
            raise ValueError("present counts must align with group sizes")
        if sum(self.group_sizes) <= 0:
            raise ValueError("total document count must be positive")
        for n_g, k_g in zip(self.group_sizes, self.present):
            if not 0 <= k_g <= n_g:
                raise ValueError(f"present count {k_g} outside [0, {n_g}]")

    @property
    def total_present(self) -> int:
        return sum(self.present)


def chi_square(table: ContingencyTable) -> float:
    """Pearson statistic sum((O-E)^2/E) over the groups x {present, absent} cells.

    Expected counts come from the row/column marginals. Constant tables, whose
    term is present in no document or in all, score 0.0 rather than erroring.
    Groups with N_g = 0 contribute nothing (their expected counts are 0).
    """
    total_present = sum(table.present)
    total_docs = sum(table.group_sizes)
    if total_present == 0 or total_present == total_docs:
        return 0.0
    total_absent = total_docs - total_present
    stat = 0.0
    for n_g, k_g in zip(table.group_sizes, table.present):
        if n_g == 0:
            continue
        e_present = n_g * total_present / total_docs
        e_absent = n_g * total_absent / total_docs
        stat += (k_g - e_present) ** 2 / e_present
        stat += ((n_g - k_g) - e_absent) ** 2 / e_absent
    return stat


def direction(table: ContingencyTable) -> tuple[int, list[float]]:
    """Index of the group with the highest presence proportion, plus all proportions.

    Ties break to the lowest-ordered group. Empty groups get proportion 0.0.
    """
    props = [k_g / n_g if n_g else 0.0 for n_g, k_g in zip(table.group_sizes, table.present)]
    best = 0
    for idx in range(1, len(props)):
        if props[idx] > props[best]:
            best = idx
    return best, props


def _lower_series(a: float, x: float) -> float:
    # P(a, x) by the standard power series; converges fast for x < a + 1.
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_continued_fraction(a: float, x: float) -> float:
    # Q(a, x) by the Lentz continued fraction; converges fast for x >= a + 1.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def regularized_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a)."""
    if a <= 0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return min(1.0, max(0.0, 1.0 - _lower_series(a, x)))
    return min(1.0, _upper_continued_fraction(a, x))


def chi_sq_survival(x: float, df: int) -> float:
    """P(X >= x) for a chi-square variable with df degrees of freedom.

    Equals Q(df/2, x/2); for df = 2 this is exp(-x/2) in closed form.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if x < 0:
        raise ValueError(f"statistic must be nonnegative, got {x}")
    return regularized_gamma_q(df / 2.0, x / 2.0)


def bonferroni_threshold(alpha: float, m: int, df: int) -> float:
    """Critical statistic x* with chi_sq_survival(x*, df) = alpha/m.

    Solved by bisection; the bracket is doubled until it straddles the target
    and then narrowed until the survival value is within 1e-9 of alpha/m.
    Monotone in m: more tests, higher bar.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    target = alpha / m
    if target >= 1.0:
        return 0.0
    lo, hi = 0.0, 8.0
    while chi_sq_survival(hi, df) > target:
        hi *= 2.0
        if hi > 1e9:
            raise ArithmeticError(f"no bracket found for alpha/m = {target}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi_sq_survival(mid, df) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


@dataclass
class TermResult:
    """A tested term with its statistic, significance call and direction."""

    term: str
    table: ContingencyTable
    chi2: float
    df: int
    p_value: float
    significant: bool
    direction: str                    # label of the group with maximal proportion
    proportions: tuple[float, ...]


@dataclass
class AnalysisConfig:
    """Knobs for one analysis run; defaults mirror the standard setup."""

    group_scheme: GroupScheme = field(default_factory=default_group_scheme)
    n_max: int = 5
    min_doc_frequency: int = 10
    alpha: float = 0.05
    top_k: int = 50
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.min_doc_frequency < 1:
            raise ValueError(f"min_doc_frequency must be >= 1, got {self.min_doc_frequency}")


def build_tables(
    term_sets: Iterable[DocTermSet],
    group_of: Mapping[str, int],
    n_groups: int,
    min_df: int = 10,
) -> dict[str, ContingencyTable]:
    """Count, per term, the documents containing it in each group.

    Documents contribute presence, not occurrences. Terms seen in fewer than
    min_df documents overall are dropped; the size of the returned map is the
    Bonferroni divisor m. Raises on an empty corpus or an empty group, both of
    which make the test degenerate.
    """
    term_sets = list(term_sets)
    if not term_sets:
        raise ValueError("empty corpus: nothing to tabulate")
    group_sizes = [0] * n_groups
    for ts in term_sets:
        g = group_of[ts.doc_id]
        if not 0 <= g < n_groups:
            raise ValueError(f"document {ts.doc_id!r} assigned to invalid group {g}")
        group_sizes[g] += 1
    for idx, size in enumerate(group_sizes):
        if size == 0:
            raise ValueError(f"group {idx} is empty; the test is degenerate")

    counts: dict[str, list[int]] = {}
    for ts in term_sets:
        g = group_of[ts.doc_id]
        for term in ts.terms:
            row = counts.get(term)
            if row is None:
                row = counts[term] = [0] * n_groups
            row[g] += 1

    sizes = tuple(group_sizes)
    return {
        term: ContingencyTable(sizes, tuple(row))
        for term, row in counts.items()
        if sum(row) >= min_df
    }


def compute_term_results(
    tables: Mapping[str, ContingencyTable],
    labels: list[str],
    alpha: float = 0.05,
) -> tuple[list[TermResult], int, Optional[float]]:
    """Score every table; returns (results, m, critical value).

    m is the number of tables (the Bonferroni divisor). A statistic exactly
    equal to the critical value counts as significant. With no tables the
    critical value is None.
    """
    m = len(tables)
    if m == 0:
        return [], 0, None
    df = len(labels) - 1
    threshold = bonferroni_threshold(alpha, m, df)
    results = []
    for term in sorted(tables):
        table = tables[term]
        stat = chi_square(table)
        p_value = chi_sq_survival(stat, df)
        best, props = direction(table)
        results.append(
            TermResult(
                term=term,
                table=table,
                chi2=stat,
                df=df,
                p_value=p_value,
                significant=stat >= threshold,
                direction=labels[best],
                proportions=tuple(props),
            )
        )
    return results, m, threshold
