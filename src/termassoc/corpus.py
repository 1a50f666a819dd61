"""Ingest, link, deduplicate and filter quality-scored bibliographic records.

The corpus flows through this module as `Document` objects: score records and
metadata records are parsed from JSON-lines, linked by DOI and then by a
normalized title+journal key, merged, deduplicated per analysis scope, and
finally filtered on score and cleaned-abstract length. Every file the CLI
writes goes through `write_atomic`.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union, get_args, get_origin, get_type_hints

# The builtin module spares every process the OpenSSL that hashlib loads
# (about 3.5 MB resident) for a few short digests; Python 3.12 moved it.
try:
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

logger = logging.getLogger(__name__)

VALID_SCORES = (0, 1, 2, 3, 4)

# Assessment units 1-6, 7-12, 13-24 and 25-34 belong to panels A-D.
_UNIT_PANELS = {}
for _u in range(1, 35):
    _UNIT_PANELS[str(_u)] = "A" if _u <= 6 else "B" if _u <= 12 else "C" if _u <= 24 else "D"

SUSPICIOUS_TITLE_CHARS = 20

# The Document fields a scope selects on: scope "unit:<u>" holds the documents
# whose unit is u, and "panel:<p>" those whose panel is p.
SCOPE_KINDS = ("unit", "panel")


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


@dataclass(slots=True)
class Document:
    """One bibliographic record flowing through the pipeline.

    Score records carry unit/panel/score/submitter and no abstract; metadata
    records carry abstract/keywords and no score. Merged documents carry both.
    Slots keep a large metadata file small; a Document takes no other attributes.
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
        """Article identity: DOI when present, else the title+journal key, else the id."""
        if self.doi:
            return "doi:" + self.doi
        key = title_journal_key(self.title, self.journal)
        return "tj:" + key if key else "id:" + self.id

    def to_record(self) -> dict:
        rec = {
            "id": self.id,
            "doi": self.doi,
            "title": self.title,
            "journal": self.journal,
            "abstract": self.abstract_raw,
            "keywords": self.keywords,
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
    """The parsed Documents, the malformed lines, and how many records had no abstract."""

    documents: list[Document]
    errors: list[tuple[int, str]]   # (1-based line number, diagnostic)
    missing_abstracts: int


_STR_FIELDS = ("id", "doi", "title", "journal", "abstract", "abstract_clean", "unit", "panel", "submitter")


def parse_records(stream: Iterable[str]) -> ParseResult:
    """Parse a JSON-lines record stream into Documents.

    Malformed records are collected as (line, diagnostic) pairs and parsing
    continues; nothing is silently dropped. A repeated id is malformed: the
    later record is reported and skipped. Records missing an abstract parse
    with empty text and are counted, so linkage statistics stay computable.
    Records of one stream share one string per distinct journal, unit,
    panel, submitter or keyword.
    """
    documents: list[Document] = []
    errors: list[tuple[int, str]] = []
    missing_abstracts = 0
    first_line: dict[str, int] = {}   # id -> line it first appeared on
    share = {}.setdefault   # these field values repeat across records: keep one string each
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append((lineno, f"invalid JSON: {exc.msg}"))
            continue
        except RecursionError:
            errors.append((lineno, "invalid JSON: nested too deeply"))
            continue
        if not isinstance(raw, dict):
            errors.append((lineno, "record is not a JSON object"))
            continue
        problem = _validate_record(raw)
        if problem:
            errors.append((lineno, problem))
            continue
        if raw["id"] in first_line:
            errors.append((lineno, f"duplicate id {raw['id']!r} (first on line {first_line[raw['id']]})"))
            continue
        first_line[raw["id"]] = lineno
        if "abstract" not in raw:
            missing_abstracts += 1
        journal = raw.get("journal") or ""
        unit = raw.get("unit") or ""
        panel = raw.get("panel") or ""
        submitter = raw.get("submitter") or ""
        keywords = raw.get("keywords") or ()
        documents.append(
            Document(
                id=raw["id"],
                doi=raw.get("doi"),
                title=raw.get("title") or "",
                journal=share(journal, journal),
                abstract_raw=raw.get("abstract", "") or "",
                abstract_clean=raw.get("abstract_clean"),
                keywords=list(map(share, keywords, keywords)),
                unit=share(unit, unit),
                panel=share(panel, panel),
                score=raw.get("score"),
                submitter=share(submitter, submitter),
            )
        )
    return ParseResult(documents, errors, missing_abstracts)


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
    kw = raw.get("keywords")
    if kw is not None and not (isinstance(kw, list) and all(isinstance(k, str) for k in kw)):
        return "field 'keywords' must be a list of strings"
    return None


def read_jsonl(path) -> ParseResult:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_records(fh)


def read_json(path, what: str):
    """Parse one whole JSON file; text that does not parse is a ValueError naming what and path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:   # JSONDecodeError, or bytes that are not UTF-8
            raise ValueError(f"{what} {path}: invalid JSON: {exc}") from None
        except RecursionError:
            raise ValueError(f"{what} {path}: invalid JSON: nested too deeply") from None


def write_atomic(path, chunks: Iterable[str]):
    """Stream text chunks into <path>.tmp, then rename it over path.

    The parent directory is made if needed. A write that fails removes the
    .tmp file, so path holds either its old content or all of the new.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def json_line(record: dict) -> str:
    """One corpus record as a JSON-lines line: keys sorted, text kept as UTF-8."""
    return json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"


def write_jsonl(path, docs: Iterable[Document]):
    write_atomic(path, (json_line(doc.to_record()) for doc in docs))


def _matches_type(value, hint) -> bool:
    """Whether a parsed JSON value fits an annotation; ints pass as floats, bools only as bools.

    A JSON array fits list[X] and tuple[...], an object fits dict[str, X],
    and a dataclass fits any object (its loader checks the fields).
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return any(_matches_type(value, arg) for arg in args)
    if origin is tuple and args[-1] is not Ellipsis:
        return isinstance(value, list) and len(value) == len(args) and all(map(_matches_type, value, args))
    if origin in (list, tuple):
        return isinstance(value, list) and all(_matches_type(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(_matches_type(v, args[1]) for v in value.values())
    if dataclasses.is_dataclass(hint):
        return isinstance(value, dict)
    if isinstance(value, bool):
        return hint is bool
    if hint is float and isinstance(value, int):
        return abs(value) <= sys.float_info.max   # JSON allows integers no float can hold
    return isinstance(value, hint)


def check_json(value, hint, what: str):
    """Return a parsed JSON value unchanged if it fits hint, else raise ValueError naming what.

    Nothing is coerced: "12" is not 12 and "false" is not false. A dataclass
    hint means a JSON object holding its fields: an unknown key, a missing
    key whose field has no default, or a value of the wrong type is an error
    naming the key.
    """
    if not dataclasses.is_dataclass(hint):
        if not _matches_type(value, hint):
            raise ValueError(f"{what} has the wrong type: {value!r}")
        return value
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    fields = {f.name: f for f in dataclasses.fields(hint)}
    unknown = sorted(set(value) - set(fields))
    if unknown:
        raise ValueError(f"{what} has unknown key(s): {unknown}")
    missing = [name for name, f in fields.items() if name not in value
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValueError(f"{what} is missing required key(s): {missing}")
    hints = get_type_hints(hint)
    for key, item in value.items():
        check_json(item, hints[key], f"{what} key {key!r}")
    return value


@dataclass
class GroupScheme:
    """Ordered mapping from raw quality scores to merged analysis groups."""

    groups: list[tuple[str, frozenset[int]]]

    def __post_init__(self):
        self.groups = [(label, frozenset(scores)) for label, scores in self.groups]
        if len(self.groups) < 2:
            raise ValueError("a group scheme needs at least 2 groups")
        if len(set(self.labels)) < len(self.groups):
            raise ValueError(f"group labels must be distinct, got {self.labels}")
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
        """Build a scheme from the [[label, [score, ...]], ...] shape to_config writes."""
        for i, entry in enumerate(check_json(entries, list, "groups"), start=1):
            check_json(entry, tuple[str, list[int]], f"group {i} ([label, [grade, ...]])")
        return cls(entries)


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


def link_records(score_records: list[Document], metadata: list[Document]) -> LinkResult:
    """Two-stage linkage: DOI first, then title+journal for records the DOI misses.

    A DOI is matched after normalization; one shared by several metadata
    records matches the first id in sorted order, with a diagnostic. A record
    whose DOI is missing or unknown falls through to the lowercased,
    whitespace-free title+journal key. A key shared by several metadata records
    is a collision: no match, diagnostic emitted. Title+journal matches whose
    normalized title is shorter than 20 characters are flagged suspicious for
    manual review. Empty keys never match. DOI diagnostics precede title+journal
    ones, each in record-id order.
    """
    records = sorted(score_records, key=lambda d: d.id)
    record_keys = [title_journal_key(rec.title, rec.journal) for rec in records]
    # Only the keys some record looks up are indexed, so metadata no record
    # wants costs no memory. Empty keys are never stored and so never match.
    by_doi: dict[str, list[str]] = {rec.doi: [] for rec in records if rec.doi}
    by_tj: dict[str, list[str]] = {key: [] for key in record_keys if key}
    for doc in metadata:
        if doc.doi in by_doi:
            by_doi[doc.doi].append(doc.id)
        ids = by_tj.get(title_journal_key(doc.title, doc.journal))
        if ids is not None:
            ids.append(doc.id)
    for ids in (*by_doi.values(), *by_tj.values()):
        ids.sort()

    result = LinkResult()
    tj_diagnostics = []
    for rec, key in zip(records, record_keys):
        ids = by_doi.get(rec.doi)
        if ids:
            if len(ids) > 1:
                msg = f"doi {rec.doi!r} duplicated in metadata ({len(ids)} records); matched first by sorted id"
                result.diagnostics.append(msg)
                logger.warning(msg)
            result.matched.append((rec.id, ids[0], "doi"))
            continue
        ids = by_tj.get(key)
        if not ids:
            result.unmatched.append(rec.id)
        elif len(ids) > 1:
            tj_diagnostics.append(f"title+journal key collision for record {rec.id!r}: metadata {ids}; no match")
            result.unmatched.append(rec.id)
        else:
            result.matched.append((rec.id, ids[0], "title_journal"))
            title_chars = len(_squash(rec.title))
            if title_chars < SUSPICIOUS_TITLE_CHARS:
                result.suspicious.append(((rec.id, ids[0]), f"short title ({title_chars} chars)"))
    result.diagnostics += tj_diagnostics
    return result


def merge_linked(score_records: list[Document], metadata: list[Document], link: LinkResult) -> list[Document]:
    """Combine matched pairs into full Documents (metadata text + record score).

    The result follows `link.matched`, which is in record-id order.
    """
    # Only the metadata some match names is indexed, so the rest costs no memory.
    wanted = {meta_id for _, meta_id, _ in link.matched}
    meta_by_id = {d.id: d for d in metadata if d.id in wanted}
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
                keywords=meta.keywords,
                unit=rec.unit,
                panel=rec.panel,
                score=rec.score,
                submitter=rec.submitter,
            )
        )
    return merged


def derive_seed(seed: int, key) -> int:
    """A 64-bit seed drawn from (seed, key), the same on every platform and run."""
    digest = sha256(f"{seed}|{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def dedup_within_unit(docs: list[Document], scope: str = "unit", seed: int = 0) -> list[Document]:
    """Collapse multiply-submitted articles within a scope to one Document each.

    Articles are grouped by (identity, scope value) where identity is the DOI
    when present, else the title+journal key. The surviving document is the
    copy with the smallest id; its score is the median of the copies' scores.
    For even copy counts with two distinct middle values, one is chosen
    uniformly by a generator seeded from (seed, identity), so results are
    reproducible and independent of input order. Output is sorted by identity.

    scope is one of SCOPE_KINDS, or "all" (dedup across the whole corpus).
    """
    if scope not in (*SCOPE_KINDS, "all"):
        raise ValueError(f"scope must be unit, panel or all, got {scope!r}")

    groups: dict[tuple[str, str], list[Document]] = {}
    for doc in docs:
        groups.setdefault((doc.identity, "" if scope == "all" else getattr(doc, scope)), []).append(doc)

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
        lo, hi = scores[(n - 1) // 2], scores[n // 2]
        score = lo if lo == hi else random.Random(derive_seed(seed, identity)).choice((lo, hi))
        out.append(keeper if score == keeper.score else dataclasses.replace(keeper, score=score))
    return out


@dataclass
class FilterResult:
    documents: list[Document]


def filter_documents(docs: list[Document], min_abstract_chars: int = 500) -> FilterResult:
    """Apply the inclusion filters: drop score-0 articles and short abstracts.

    Lengths are counted in Unicode characters of abstract_clean; the boundary
    is strict ("shorter than"), so a text of exactly min_abstract_chars stays.
    Cleaning must already have run: a missing abstract_clean raises
    ValueError, as in extract_terms; it is not a removable document.
    """
    kept = []
    for doc in docs:
        if doc.abstract_clean is None:
            raise ValueError(f"document {doc.id!r} has no cleaned abstract; run cleaning before filtering")
        if doc.score not in (None, 0) and len(doc.abstract_clean) >= min_abstract_chars:
            kept.append(doc)
    return FilterResult(kept)


def drop_unclassified(docs: list[Document]) -> tuple[list[Document], int]:
    """Pre-filter for records with no assessment unit; returns (kept, dropped)."""
    kept = [d for d in docs if d.unit]
    return kept, len(docs) - len(kept)
