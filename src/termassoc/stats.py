"""Contingency tables and chi-square testing over merged score groups.

Every term gets a groups x {present, absent} table of document counts (not
occurrence counts): the scope's group sizes N_g and the term's counts k_g.
`build_tables` maps each term to its count tuple, the group sizes stay with
the caller, and a result keeps the tuple's sum as `n`.
The Pearson statistic is compared against a critical value derived from the
Bonferroni-corrected significance level: with m terms tested at level alpha,
a term is significant when its statistic reaches the point where the
chi-square survival function equals alpha/m. The survival function is
computed from the regularized incomplete gamma function, with no dependency
beyond the standard library. Every term gets a statistic; only the terms a
report can show get a direction, and only written rows a p-value.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping, Optional

from .corpus import GroupScheme, default_group_scheme
from .textproc import N_MAX_LIMIT, DocTermSet

_MAX_ITER = 500
_EPS = 1e-16
_TINY = 1e-300


def chi_square(group_sizes: tuple[int, ...], present: tuple[int, ...]) -> float:
    """Pearson statistic sum((O-E)^2/E) over the groups x {present, absent} cells.

    group_sizes holds each group's N_g and present its k_g. Expected counts
    come from the row/column marginals. Constant tables, whose term is present
    in no document or in all, score 0.0 rather than erroring. Groups with
    N_g = 0 contribute nothing (their expected counts are 0).
    """
    total_present = sum(present)
    total_docs = sum(group_sizes)
    if total_present == 0 or total_present == total_docs:
        return 0.0
    total_absent = total_docs - total_present
    stat = 0.0
    for n_g, k_g in zip(group_sizes, present):
        if n_g == 0:
            continue
        e_present = n_g * total_present / total_docs
        e_absent = n_g * total_absent / total_docs
        stat += (k_g - e_present) ** 2 / e_present
        stat += ((n_g - k_g) - e_absent) ** 2 / e_absent
    return stat


def direction(group_sizes: tuple[int, ...], present: tuple[int, ...]) -> tuple[int, list[float]]:
    """Index of the group with the highest presence proportion, plus all proportions.

    Ties break to the lowest-ordered group. Empty groups get proportion 0.0.
    """
    props = [k_g / n_g if n_g else 0.0 for n_g, k_g in zip(group_sizes, present)]
    return max(range(len(props)), key=props.__getitem__), props


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
    """A tested term with its statistic, significance call and direction; the p-value is computed when read."""

    term: str
    n: int                            # documents containing the term, over all groups
    chi2: float
    df: int
    significant: bool
    direction: str                    # label of the group with maximal proportion
    proportions: tuple[float, ...]

    @property
    def p_value(self) -> float:
        return chi_sq_survival(self.chi2, self.df)


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
        if not 1 <= self.n_max <= N_MAX_LIMIT:
            raise ValueError(f"n_max must be in 1..{N_MAX_LIMIT}, got {self.n_max}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.min_doc_frequency < 1:
            raise ValueError(f"min_doc_frequency must be >= 1, got {self.min_doc_frequency}")


def build_tables(
    term_sets: Iterable[DocTermSet],
    groups: Iterable[int],
    n_groups: int,
    min_df: int = 10,
) -> dict[str, tuple[int, ...]]:
    """Count, per term, the documents containing it in each group.

    groups holds each document's group index, aligned with term_sets; the
    two must be the same length. Documents contribute presence, not
    occurrences. A term maps to its count tuple, one k_g per group. Terms
    seen in fewer than min_df documents overall are dropped; the size of the
    returned map is the Bonferroni divisor m. The caller owns the group
    sizes: `pipeline.analyze_scope` counts them and skips a scope with an
    empty group before any table is built.

    Terms are counted level by level over segments: token runs whose every
    (n-1)-gram reached min_df (at level 1, the units). Level n counts each
    segment's n-grams; a segment goes on to level n+1 cut into its maximal
    runs of kept n-grams, keeping the runs that hold an (n+1)-gram. So an
    n-gram is counted only where both of its (n-1)-gram sub-phrases reached
    min_df. This is exact because a document holding an n-gram holds both
    sub-phrases in the same unit, so an n-gram is never in more documents
    than either of them (the Apriori property).
    """
    tables: dict[str, tuple[int, ...]] = {}
    # Per document: (group, n_max, segments).
    level = [(g, ts.n_max, ts.units) for ts, g in zip(term_sets, groups, strict=True)]
    n = 1
    while level:
        # Pass 1: document frequency of every n-gram present.
        doc_freq = Counter()
        for _, _, segments in level:
            doc_freq.update(set().union(*_grams(segments, n)))
        kept = {gram for gram, df in doc_freq.items() if df >= min_df}
        if not kept:
            break
        # Pass 2: per-group counts of the kept n-grams, and the runs to extend.
        counts = [Counter() for _ in range(n_groups)]
        next_level = []
        for g, n_max, segments in level:
            present = kept.intersection(chain.from_iterable(_grams(segments, n)))
            if not present:
                continue
            counts[g].update(present)
            if n_max > n:
                longer = _kept_runs(segments, n, kept)
                if longer:
                    next_level.append((g, n_max, longer))
        for gram in kept:
            term = gram if n == 1 else " ".join(gram)
            tables[term] = tuple(c[gram] for c in counts)
        level = next_level
        n += 1
    return tables


def _grams(segments: list[list[str]], n: int):
    """Each segment's n-grams in order: its tokens at n = 1, else tuples of n tokens."""
    if n == 1:
        return segments
    return map(zip, *[[tokens[i:] for tokens in segments] for i in range(n)])


def _kept_runs(segments: list[list[str]], n: int, kept: set) -> list[list[str]]:
    """The maximal runs of kept n-grams in the segments, as tokens, that hold an (n+1)-gram."""
    runs = []
    for tokens, grams in zip(segments, _grams(segments, n)):
        if len(tokens) <= n:
            continue
        if n > 1:
            grams = list(grams)
        if kept.issuperset(grams):
            runs.append(tokens)
        elif not kept.isdisjoint(grams):
            start = 0    # first gram of the current run of kept grams
            for i, gram in enumerate(grams):
                if gram not in kept:
                    if i - start > 1:
                        runs.append(tokens[start : i - 1 + n])
                    start = i + 1
            if len(grams) - start > 1:
                runs.append(tokens[start:])
    return runs


def compute_term_results(
    tables: Mapping[str, tuple[int, ...]],
    group_sizes: tuple[int, ...],
    labels: list[str],
    alpha: float = 0.05,
) -> tuple[list[TermResult], int, Optional[float]]:
    """Score every table; returns (results, m, critical value).

    tables maps terms to counts over groups of group_sizes; m is their number
    (the Bonferroni divisor). A statistic exactly equal to the critical value
    counts as significant. The results, sorted by term, are the terms a report
    can show: the significant ones, or all when none is. With no tables the
    critical value is None.
    """
    m = len(tables)
    if m == 0:
        return [], 0, None
    df = len(labels) - 1
    threshold = bonferroni_threshold(alpha, m, df)
    stats = {term: chi_square(group_sizes, present) for term, present in tables.items()}
    shown = [term for term, stat in stats.items() if stat >= threshold] or list(stats)
    results = []
    for term in sorted(shown):
        best, props = direction(group_sizes, tables[term])
        results.append(TermResult(term, sum(tables[term]), stats[term], df, stats[term] >= threshold,
                                  labels[best], tuple(props)))
    return results, m, threshold
