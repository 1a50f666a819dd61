"""termassoc: find words and phrases that associate with document quality grades.

The pipeline links quality-scored records to bibliographic metadata, removes
duplicate submissions, cleans journal boilerplate from abstracts, extracts
sentence-bounded words and phrases, and tests each term's presence across
merged score groups with a Pearson chi-square statistic under a Bonferroni
multiple-testing correction. A synthetic-corpus harness with planted effects
measures detector recall and family-wise error.
"""

from .cleanse import CleaningRule, clean_abstract, default_rules, load_rules
from .corpus import (
    Document,
    FilterResult,
    GroupScheme,
    LinkResult,
    ParseResult,
    dedup_within_unit,
    default_group_scheme,
    filter_documents,
    link_by_doi,
    link_by_title_journal,
    link_records,
    merge_linked,
    parse_records,
)
from .report import ReportRow, ScopeReport, build_scope_report, emit_report, rank_terms, subsume
from .stats import (
    AnalysisConfig,
    ContingencyTable,
    TermResult,
    bonferroni_threshold,
    build_tables,
    chi_sq_survival,
    chi_square,
    compute_term_results,
    direction,
)
from .synth import DetectorMetrics, PlantedTerm, SyntheticSpec, evaluate_detector, generate_corpus
from .textproc import DocTermSet, extract_terms, iter_ngrams, split_sentences, tokenize

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "CleaningRule",
    "ContingencyTable",
    "DetectorMetrics",
    "DocTermSet",
    "Document",
    "FilterResult",
    "GroupScheme",
    "LinkResult",
    "ParseResult",
    "PlantedTerm",
    "ReportRow",
    "ScopeReport",
    "SyntheticSpec",
    "TermResult",
    "bonferroni_threshold",
    "build_scope_report",
    "build_tables",
    "chi_sq_survival",
    "chi_square",
    "clean_abstract",
    "compute_term_results",
    "dedup_within_unit",
    "default_group_scheme",
    "default_rules",
    "direction",
    "emit_report",
    "evaluate_detector",
    "extract_terms",
    "filter_documents",
    "generate_corpus",
    "iter_ngrams",
    "link_by_doi",
    "link_by_title_journal",
    "link_records",
    "load_rules",
    "merge_linked",
    "parse_records",
    "rank_terms",
    "split_sentences",
    "subsume",
    "tokenize",
]
