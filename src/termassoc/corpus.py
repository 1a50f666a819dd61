"""Ingest, link, deduplicate and filter quality-scored bibliographic records.

The corpus flows through this module as `Document` objects: score records and
metadata records are parsed from JSON-lines, linked by DOI and then by a
normalized title+journal key, merged, deduplicated per analysis scope, and
finally filtered on score and cleaned-abstract length.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

logger = logging.getLogger(__name__)

VALID_SCORES = (0, 1, 2, 3, 4)

# Assessment units 1-6, 7-12, 13-24 and 25-34 belong to panels A-D.
_UNIT_PANELS = {}
for _u in range(1, 35):
    _UNIT_PANELS[str(_u)] = "A" if _u <= 6 else "B" if _u <= 12 else "C" if _u <= 24 else "D"

SUSPICIOUS_TITLE_CHARS = 20


class PipelineOrderError(RuntimeError):
    """A stage ran before one of its prerequisites."""


def normalize_doi(doi) -> Optional[str]:
    """Lowercase and strip a DOI; empty or missing values become None."""
    if not doi:
        return None
    doi = str(doi).strip().lower()
    return doi or None


def _squash(text: str) -> str:
    return "".join((text or "").lower().split())


def title_journal_key(title: str, journal: str) -> str:
    """Linkage key: title then journal, lowercased, all whitespace removed."""
    return _squash(title) + _squash(journal)


def panel_for_unit(unit: str) -> str:
    """Panel letter for a numeric assessment unit, or "" when unknown."""
    return _UNIT_PANELS.get(str(unit).strip(), "")


@dataclass
class Document:
    """One bibliographic record flowing through the pipeline.

    Score records carry unit/panel/score/submitter and no abstract; metadata
    records carry abstract/keywords and no score. Merged documents carry both.
    """

    id: str
    doi: Optional[str] = None
    title: str = ""
    journal: str = ""
    abstract_raw: str = ""
    abstract_clean: Optional[str] = None
    keywords: list[str] = field(default_factory=list)
    unit: str = ""
    panel: str = ""
    score: Optional[int] = None
    submitter: str = ""

    def __post_init__(self):
        self.doi = normalize_doi(self.doi)
        if self.score is not None and self.score not in VALID_SCORES:
            raise ValueError(f"score must be one of {VALID_SCORES}, got {self.score!r}")
        if not self.panel and self.unit:
            self.panel = panel_for_unit(self.unit)

    @property
    def identity(self) -> str:
        """Article identity: DOI when present, else the title+journal key."""
        if self.doi:
            return "doi:" + self.doi
        return "tj:" + title_journal_key(self.title, self.journal)

    def to_record(self) -> dict:
        rec = {
            "id": self.id,
            "doi": self.doi,
            "title": self.title,
            "journal": self.journal,
            "abstract": self.abstract_raw,
            "keywords": list(self.keywords),
            "unit": self.unit,
            "panel": self.panel,
            "score": self.score,
            "submitter": self.submitter,
        }
        if self.abstract_clean is not None:
            rec["abstract_clean"] = self.abstract_clean
        return rec


@dataclass
class ParseResult:
    documents: list[Document]
    errors: list[tuple[int, str]]   # (1-based line number, diagnostic)
    warnings: list[tuple[int, str]]


_STR_FIELDS = ("id", "doi", "title", "journal", "abstract", "abstract_clean", "unit", "panel", "submitter")


def parse_records(stream: Iterable[str]) -> ParseResult:
    """Parse a JSON-lines record stream into Documents.

    Malformed records are collected as (line, diagnostic) pairs and parsing
    continues; nothing is silently dropped. Records missing an abstract parse
    with empty text and a warning, so linkage statistics stay computable.
    """
    documents: list[Document] = []
    errors: list[tuple[int, str]] = []
    warnings: list[tuple[int, str]] = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append((lineno, f"invalid JSON: {exc.msg}"))
            continue
        if not isinstance(raw, dict):
            errors.append((lineno, "record is not a JSON object"))
            continue
        problem = _validate_record(raw)
        if problem:
            errors.append((lineno, problem))
            continue
        if "abstract" not in raw:
            warnings.append((lineno, f"record {raw['id']!r} has no abstract; using empty text"))
        documents.append(
            Document(
                id=str(raw["id"]),
                doi=raw.get("doi"),
                title=raw.get("title", ""),
                journal=raw.get("journal", ""),
                abstract_raw=raw.get("abstract", "") or "",
                abstract_clean=raw.get("abstract_clean"),
                keywords=[str(k) for k in raw.get("keywords", [])],
                unit=str(raw.get("unit", "") or ""),
                panel=str(raw.get("panel", "") or ""),
                score=raw.get("score"),
                submitter=str(raw.get("submitter", "") or ""),
            )
        )
    return ParseResult(documents, errors, warnings)


def _validate_record(raw: dict) -> Optional[str]:
    if "id" not in raw or raw["id"] in (None, ""):
        return "missing required field 'id'"
    for key in _STR_FIELDS:
        if key in raw and raw[key] is not None and not isinstance(raw[key], str):
            return f"field {key!r} must be a string"
    score = raw.get("score")
    if score is not None:
        if isinstance(score, bool) or not isinstance(score, int):
            return f"field 'score' must be an integer, got {score!r}"
        if score not in VALID_SCORES:
            return f"field 'score' must be in {list(VALID_SCORES)}, got {score}"
    kw = raw.get("keywords", [])
    if kw is not None and not isinstance(kw, list):
        return "field 'keywords' must be a list"
    return None


def read_jsonl(path) -> ParseResult:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_records(fh)


def write_jsonl(path, docs: Iterable[Document]):
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc.to_record(), ensure_ascii=False, sort_keys=True) + "\n")


@dataclass
class GroupScheme:
    """Ordered mapping from raw quality scores to merged analysis groups."""

    groups: list[tuple[str, frozenset[int]]]

    def __post_init__(self):
        self.groups = [(str(label), frozenset(scores)) for label, scores in self.groups]
        if len(self.groups) < 2:
            raise ValueError("a group scheme needs at least 2 groups")
        seen: set[int] = set()
        for label, scores in self.groups:
            if 0 in scores:
                raise ValueError("score 0 may not belong to any group")
            if scores & seen:
                raise ValueError("groups must be disjoint")
            seen |= scores
        if seen != {1, 2, 3, 4}:
            raise ValueError("group scheme must cover scores {1,2,3,4} exactly")

    @property
    def labels(self) -> list[str]:
        return [label for label, _ in self.groups]

    def group_index(self, score: int) -> Optional[int]:
        for idx, (_, scores) in enumerate(self.groups):
            if score in scores:
                return idx
        return None

    def to_config(self) -> list:
        return [[label, sorted(scores)] for label, scores in self.groups]

    @classmethod
    def from_config(cls, entries) -> "GroupScheme":
        return cls([(str(label), frozenset(int(s) for s in scores)) for label, scores in entries])


def default_group_scheme() -> GroupScheme:
    """The default merge: scores 1 and 2 pooled, 3 and 4 on their own."""
    return GroupScheme([("low", frozenset({1, 2})), ("3", frozenset({3})), ("4", frozenset({4}))])


@dataclass
class LinkResult:
    """Outcome of matching score records against metadata records."""

    matched: list[tuple[str, str, str]] = field(default_factory=list)  # (record_id, metadata_id, kind)
    unmatched: list[str] = field(default_factory=list)
    suspicious: list[tuple[tuple[str, str], str]] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def merge(self, other: "LinkResult") -> "LinkResult":
        """Combine two stages; matches in `self` take precedence."""
        matched_ids = {rid for rid, _, _ in self.matched}
        matched = self.matched + [m for m in other.matched if m[0] not in matched_ids]
        all_matched = {rid for rid, _, _ in matched}
        unmatched = sorted((set(self.unmatched) | set(other.unmatched)) - all_matched)
        return LinkResult(
            matched=sorted(matched),
            unmatched=unmatched,
            suspicious=sorted(self.suspicious + other.suspicious),
            diagnostics=self.diagnostics + other.diagnostics,
        )


@dataclass
class MetadataIndex:
    """Metadata records indexed by normalized DOI and by title+journal key."""

    by_id: dict[str, Document]
    by_doi: dict[str, list[str]]        # normalized doi -> sorted metadata ids
    by_title_journal: dict[str, list[str]]

    @classmethod
    def build(cls, metadata: Iterable[Document]) -> "MetadataIndex":
        by_id: dict[str, Document] = {}
        by_doi: dict[str, list[str]] = {}
        by_tj: dict[str, list[str]] = {}
        for doc in metadata:
            by_id[doc.id] = doc
            if doc.doi:
                by_doi.setdefault(doc.doi, []).append(doc.id)
            key = title_journal_key(doc.title, doc.journal)
            if key:
                by_tj.setdefault(key, []).append(doc.id)
        for ids in by_doi.values():
            ids.sort()
        for ids in by_tj.values():
            ids.sort()
        return cls(by_id, by_doi, by_tj)


def link_by_doi(score_records: list[Document], index: MetadataIndex) -> LinkResult:
    """Match score records to metadata on normalized DOI equality.

    Duplicate DOIs in the metadata match the first id in sorted order, with a
    diagnostic. Records without a DOI, or with an unknown one, stay unmatched.
    """
    result = LinkResult()
    for rec in sorted(score_records, key=lambda d: d.id):
        ids = index.by_doi.get(rec.doi) if rec.doi else None
        if not ids:
            result.unmatched.append(rec.id)
            continue
        if len(ids) > 1:
            msg = f"doi {rec.doi!r} duplicated in metadata ({len(ids)} records); matched first by sorted id"
            result.diagnostics.append(msg)
            logger.warning(msg)
        result.matched.append((rec.id, ids[0], "doi"))
    return result


def link_by_title_journal(unmatched: list[Document], index: MetadataIndex) -> LinkResult:
    """Match remaining records on the lowercased, whitespace-free title+journal key.

    Matches whose normalized title is shorter than 20 characters are flagged
    suspicious for manual review. A key shared by several metadata records is a
    collision: no match, diagnostic emitted.
    """
    result = LinkResult()
    for rec in sorted(unmatched, key=lambda d: d.id):
        key = title_journal_key(rec.title, rec.journal)
        ids = index.by_title_journal.get(key) if key else None
        if not ids:
            result.unmatched.append(rec.id)
            continue
        if len(ids) > 1:
            result.diagnostics.append(
                f"title+journal key collision for record {rec.id!r}: metadata {ids}; no match"
            )
            result.unmatched.append(rec.id)
            continue
        pair = (rec.id, ids[0], "title_journal")
        result.matched.append(pair)
        title_chars = len(_squash(rec.title))
        if title_chars < SUSPICIOUS_TITLE_CHARS:
            result.suspicious.append(((rec.id, ids[0]), f"short title ({title_chars} chars)"))
    return result


def link_records(score_records: list[Document], metadata: list[Document]) -> LinkResult:
    """Two-stage linkage: DOI first, then title+journal on the remainder."""
    index = MetadataIndex.build(metadata)
    by_doi = link_by_doi(score_records, index)
    still_unmatched = [r for r in score_records if r.id in set(by_doi.unmatched)]
    by_tj = link_by_title_journal(still_unmatched, index)
    return by_doi.merge(by_tj)


def merge_linked(score_records: list[Document], metadata: list[Document], link: LinkResult) -> list[Document]:
    """Combine matched pairs into full Documents (metadata text + record score)."""
    meta_by_id = {d.id: d for d in metadata}
    rec_by_id = {d.id: d for d in score_records}
    merged = []
    for rec_id, meta_id, _kind in link.matched:
        rec, meta = rec_by_id[rec_id], meta_by_id[meta_id]
        merged.append(
            Document(
                id=rec.id,
                doi=rec.doi or meta.doi,
                title=meta.title or rec.title,
                journal=meta.journal or rec.journal,
                abstract_raw=meta.abstract_raw,
                keywords=list(meta.keywords),
                unit=rec.unit,
                panel=rec.panel,
                score=rec.score,
                submitter=rec.submitter,
            )
        )
    merged.sort(key=lambda d: d.id)
    return merged


def _tie_rng(seed: int, identity: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}|{identity}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def dedup_within_unit(docs: list[Document], scope: str = "unit", seed: int = 0) -> list[Document]:
    """Collapse multiply-submitted articles within a scope to one Document each.

    Articles are grouped by (identity, scope value) where identity is the DOI
    when present, else the title+journal key. The surviving document is the
    copy with the smallest id; its score is the median of the copies' scores.
    For even copy counts with two distinct middle values, one is chosen
    uniformly by a generator seeded from (seed, identity), so results are
    reproducible and independent of input order. Output is sorted by identity.

    scope is "unit", "panel" or "all" (dedup across the whole corpus).
    """
    if scope not in ("unit", "panel", "all"):
        raise ValueError(f"scope must be unit, panel or all, got {scope!r}")

    def scope_value(doc: Document) -> str:
        if scope == "unit":
            return doc.unit
        if scope == "panel":
            return doc.panel
        return ""

    groups: dict[tuple[str, str], list[Document]] = {}
    for doc in docs:
        groups.setdefault((doc.identity, scope_value(doc)), []).append(doc)

    out = []
    for (identity, _sv), copies in sorted(groups.items()):
        keeper = min(copies, key=lambda d: d.id)
        if len(copies) == 1:
            out.append(keeper)
            continue
        scores = sorted(d.score for d in copies if d.score is not None)
        if not scores:
            out.append(keeper)
            continue
        n = len(scores)
        if n % 2 == 1:
            score = scores[n // 2]
        else:
            lo, hi = scores[n // 2 - 1], scores[n // 2]
            if lo == hi:
                score = lo
            else:
                score = _tie_rng(seed, identity).choice((lo, hi))
        out.append(dataclasses.replace(keeper, score=score))
    return out


@dataclass
class FilterResult:
    documents: list[Document]
    retention_by_unit: dict[str, tuple[int, int]]  # unit -> (seen, kept)


def filter_documents(docs: list[Document], min_abstract_chars: int = 500) -> FilterResult:
    """Apply the inclusion filters: drop score-0 articles and short abstracts.

    Lengths are counted in Unicode characters of abstract_clean; the boundary
    is strict ("shorter than"), so a text of exactly min_abstract_chars stays.
    Cleaning must already have run: a missing abstract_clean is an ordering
    error, not a removable document.
    """
    retention: dict[str, tuple[int, int]] = {}
    kept = []
    for doc in docs:
        if doc.abstract_clean is None:
            raise PipelineOrderError(
                f"document {doc.id!r} has no cleaned abstract; run cleaning before filtering"
            )
        seen, retained = retention.get(doc.unit, (0, 0))
        keep = doc.score not in (None, 0) and len(doc.abstract_clean) >= min_abstract_chars
        retention[doc.unit] = (seen + 1, retained + (1 if keep else 0))
        if keep:
            kept.append(doc)
    return FilterResult(kept, retention)


def drop_unclassified(docs: list[Document]) -> tuple[list[Document], int]:
    """Pre-filter for records with no assessment unit; returns (kept, dropped)."""
    kept = [d for d in docs if d.unit]
    return kept, len(docs) - len(kept)
