"""Ingest, link, deduplicate and filter quality-scored bibliographic records.

The corpus flows through this module as `Document` objects: score records and
metadata records are parsed from JSON-lines, linked by DOI and then by a
normalized title+journal key, merged, deduplicated per analysis scope, and
finally filtered on score and cleaned-abstract length. Every input file is
opened by `open_json`, every file the CLI writes goes through `write_atomic`,
and every CSV text is made by `csv_text`.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import operator
import os
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Union, get_args, get_origin, get_type_hints

# The builtin module spares every process the OpenSSL that hashlib loads
# (about 3.5 MB resident) for a few short digests: _sha256 up to Python 3.11,
# _sha2 from 3.12 on.
try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

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
    """Linkage key: title, then a space and the journal if any, each lowercased with all whitespace removed."""
    return (_squash(title) + " " + _squash(journal)).rstrip(" ")


def panel_for_unit(unit: str) -> str:
    """Panel letter for a numeric assessment unit, or "" when unknown."""
    return _UNIT_PANELS.get(str(unit).strip(), "")


@dataclass(slots=True)
class Document:
    """One bibliographic record flowing through the pipeline.

    Score records carry unit/panel/score/submitter and no abstract; metadata
    records carry abstract/keywords and no score. Merged documents carry both.
    Slots keep a large metadata file small; a Document takes no other attributes.
    Keywords are an immutable tuple, so every keyword-less document holds the
    one empty tuple and a merged document holds its metadata record's tuple.
    """

    id: str
    doi: Optional[str] = None
    title: str = ""
    journal: str = ""
    abstract_raw: str = ""
    abstract_clean: Optional[str] = None
    keywords: tuple[str, ...] = ()
    unit: str = ""
    panel: str = ""
    score: Optional[int] = None
    submitter: str = ""

    def __post_init__(self):
        self.doi = normalize_doi(self.doi)
        self.keywords = tuple(self.keywords)
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
        """The corpus record: each field under its name, but abstract_raw under "abstract"; abstract_clean once set."""
        rec = dict(zip(_RECORD_KEYS, _field_values(self)))
        if self.abstract_clean is None:
            del rec["abstract_clean"]
        return rec


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(Document))
_RECORD_KEYS = tuple("abstract" if name == "abstract_raw" else name for name in _FIELD_NAMES)
_field_values = operator.attrgetter(*_FIELD_NAMES)


@dataclass
class ParseResult:
    """One entry per well-formed line, its Document or None, and the malformed lines.

    An entry is None only for a record that `parse_records`' linkable rejected.
    """

    documents: list[Optional[Document]]
    errors: list[tuple[int, str]]   # (1-based line number, diagnostic)


_STR_FIELDS = ("id", "doi", "title", "journal", "abstract", "abstract_clean", "unit", "panel", "submitter")


def parse_records(stream: Iterable[str],
                  linkable: Optional[Callable[[Optional[str], str], bool]] = None) -> ParseResult:
    """Parse a JSON-lines record stream into Documents.

    Malformed records are collected as (line, diagnostic) pairs and parsing
    continues; nothing is silently dropped. A line that `decode_json` rejects
    is malformed, and so is a repeated id: the later record is reported and
    skipped. Records missing an abstract parse with empty text, so they
    still link. Records of one stream share one string per distinct journal,
    unit, panel, submitter or keyword.

    linkable, when given, is asked about each well-formed record with a new
    id, by its normalized DOI and its title+journal key. A record it rejects
    is held as None, with no object of its own. The record still counts, so
    the result holds one entry per well-formed line either way.
    """
    documents: list[Optional[Document]] = []
    errors: list[tuple[int, str]] = []
    # Each id maps to None, and its first line is packed 4 bytes per id in the same order, so an id
    # costs no int object of its own. The first repeated id unpacks them: from then on, id -> first line.
    first_line: dict[str, Optional[int]] = {}
    packed: Optional[bytearray] = bytearray()
    share = {}.setdefault   # these field values repeat across records: keep one string each
    for lineno, raw, problem in iter_json_lines(stream):
        problem = problem or _validate_record(raw)
        if problem:
            errors.append((lineno, problem))
            continue
        rid = raw["id"]
        if rid in first_line:
            if packed is not None:   # unpack in place, last id first, freeing packed lines as their ints are made
                for key in reversed(first_line):
                    first_line[key] = int.from_bytes(packed[-4:], sys.byteorder)
                    del packed[-4:]
                packed = None
            errors.append((lineno, f"duplicate id {rid!r} (first on line {first_line[rid]})"))
            continue
        if packed is None:
            first_line[rid] = lineno
        else:
            first_line[rid] = None
            try:
                packed += lineno.to_bytes(4, sys.byteorder)
            except OverflowError:
                raise ValueError(f"line {lineno}: cannot check ids past line {2**32 - 1}") from None
        doi, title, journal = normalize_doi(raw.get("doi")), raw.get("title") or "", raw.get("journal") or ""
        if linkable is not None and not linkable(doi, title_journal_key(title, journal)):
            documents.append(None)
            continue
        unit = raw.get("unit") or ""
        panel = raw.get("panel") or ""
        submitter = raw.get("submitter") or ""
        keywords = raw.get("keywords") or ()
        documents.append(Document(
            id=rid, doi=doi, title=title, journal=share(journal, journal),
            abstract_raw=raw.get("abstract") or "", abstract_clean=raw.get("abstract_clean"),
            keywords=tuple(map(share, keywords, keywords)), unit=share(unit, unit), panel=share(panel, panel),
            score=raw.get("score"), submitter=share(submitter, submitter)))
    return ParseResult(documents, errors)


def _validate_record(raw) -> Optional[str]:
    if not isinstance(raw, dict):
        return "record is not a JSON object"
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


def read_jsonl(path, linkable: Optional[Callable[[Optional[str], str], bool]] = None,
               what: str = "JSON-lines file") -> ParseResult:
    """`parse_records` over the file at path, opened by `open_json`; linkable is passed on."""
    with open_json(path, what) as fh:
        return parse_records(fh, linkable)


def open_json(path, what: str):
    """Open a JSON or JSON-lines file as text in which each byte that is not UTF-8 reads as a lone surrogate.

    `decode_json` names such a byte, so one spoils only its own JSON-lines
    line. A line ends at LF alone: CR is JSON white space, so a CR that ends
    no CRLF stays inside its line. A file that cannot be opened raises its
    OSError again, of the same type, naming what and path.
    """
    try:
        return open(path, "r", encoding="utf-8", errors="surrogateescape", newline="\n")
    except OSError as exc:
        raise type(exc)(f"cannot read {what} {os.fspath(path)!r}: {exc}") from exc


_NOT_UTF8 = re.compile("[\udc80-\udcff]")   # the surrogates that errors="surrogateescape" reads bytes as
# An escape in \ud800-\udfff, the only source of a lone surrogate (or an escaped backslash before such text).
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
# One escape of a JSON text: a high+low surrogate pair, a lone surrogate (captured), any other \uXXXX, or any
# other escape. In valid JSON every backslash starts an escape, so a left-to-right scan stays aligned.
_ESCAPE = re.compile(r"\\u[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F][0-9a-fA-F]{2}"
                     r"|\\u([dD][89a-fA-F][0-9a-fA-F]{2})|\\u[0-9a-fA-F]{4}|\\.")


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


# One decoder for every text: NaN, Infinity and -Infinity are not JSON (RFC 8259 section 6).
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)   # for json_line: json.dumps builds one per call


def _invalid_utf8(text: str) -> Optional[str]:
    """The diagnostic for text from `open_json` that holds a byte that is not UTF-8, else None."""
    bad = None if text.isascii() else _NOT_UTF8.search(text)
    if bad is None:
        return None
    pos = bad.start()
    line, column = text.count("\n", 0, pos), pos - text.rfind("\n", 0, pos)
    where = f"line {line + 1} column {column}" if line else f"column {column}"   # a whole file has lines
    return f"invalid UTF-8: byte {ord(bad.group()) - 0xDC00:#04x} at {where}"


def decode_json(text: str) -> tuple[object, Optional[str]]:
    """Decode one JSON text as (value, None), or as (None, diagnostic) when it is malformed.

    Malformed means a byte that is not UTF-8 (see `open_json`), a leading
    byte order mark, text that the json module rejects, one of the constants
    NaN, Infinity and -Infinity, or an escape such as \\ud800 that leaves a
    lone surrogate, which I-JSON (RFC 7493) forbids and no UTF-8 file can hold.
    The text is checked, not the value, so such an escape is malformed even
    under a key that a later duplicate of the key overwrites.
    """
    problem = _invalid_utf8(text)
    if problem:
        return None, problem
    if text.startswith("\ufeff"):
        return None, "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"   # json.loads' own message
    try:
        value = _DECODER.decode(text)
    except ValueError as exc:   # JSONDecodeError, a constant, or an integer too long to convert
        return None, f"invalid JSON: {getattr(exc, 'msg', exc)}"
    except RecursionError:
        return None, "invalid JSON: nested too deeply"
    # Only a surrogate escape can leave a lone surrogate: name the first one in the text that no other completes.
    bad = _SURROGATE_ESCAPE.search(text) and next((m[1] for m in _ESCAPE.finditer(text) if m[1]), None)
    if bad:
        return None, f"invalid JSON: unpaired surrogate escape \\u{bad.lower()}"
    return value, None


def iter_json_lines(lines: Iterable[str]) -> Iterator[tuple[int, object, Optional[str]]]:
    """(1-based line number, value, diagnostic) for each line, decoded by `decode_json`.

    Only a line of JSON whitespace (space, tab, CR, LF) is skipped; one of a form feed, say, is malformed.
    """
    for lineno, line in enumerate(lines, start=1):
        if line.strip(" \t\r\n"):
            yield (lineno, *decode_json(line))


def read_json(path, what: str):
    """Decode one whole JSON file; malformed text is a ValueError naming what and path."""
    with open_json(path, what) as fh:
        value, problem = decode_json(fh.read())
    if problem:
        raise ValueError(f"{what} {path}: {problem}")
    return value


def write_atomic(path, chunks: Iterable[str]):
    """Stream text chunks into <path>.tmp, then rename it over path.

    The parent directory is made if needed. A write or rename that fails
    removes the .tmp file, so path holds either its old content or all of the new.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def json_line(record: dict) -> str:
    """One corpus record as a JSON-lines line: keys sorted, text kept as UTF-8."""
    return _ENCODER.encode(record) + "\n"


def csv_text(rows: Iterable[list]) -> str:
    """Rows as CSV text in the csv module's default dialect, each line ending in "\\n"."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def write_jsonl(path, docs: Iterable[Document]):
    write_atomic(path, (json_line(doc.to_record()) for doc in docs))


def _matches_type(value, hint) -> bool:
    """Whether a parsed JSON value fits an annotation; ints pass as floats, bools only as bools.

    A JSON array fits list[X] and tuple[...], and a dataclass fits any
    object (its loader checks the fields).
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return any(_matches_type(value, arg) for arg in args)
    if origin is tuple and args[-1] is not Ellipsis:
        return isinstance(value, list) and len(value) == len(args) and all(map(_matches_type, value, args))
    if origin in (list, tuple):
        return isinstance(value, list) and all(_matches_type(v, args[0]) for v in value)
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
    def from_config(cls, entries, what: str = "groups") -> "GroupScheme":
        """Build a scheme from to_config's [[label, [score, ...]], ...]; every error starts with `what`."""
        try:
            for i, entry in enumerate(check_json(entries, list, "the scheme"), start=1):
                check_json(entry, tuple[str, list[int]], f"group {i} ([label, [grade, ...]])")
            return cls(entries)
        except ValueError as exc:
            raise ValueError(f"{what}: {exc}") from None


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


def lookup_index(score_records: list[Document]) -> tuple[dict[str, None], dict[str, None]]:
    """(by_doi, by_tj): None under each key that some score record looks up.

    Those keys are each record's DOI and its non-empty title+journal key, and
    only they are indexed, so metadata that no record wants costs no memory;
    `link_records` makes a key's list of metadata ids at its first id.
    A metadata record under none of them cannot be linked, so `cli.run_link`
    has `read_jsonl` hold it as None.
    """
    by_doi = dict.fromkeys(rec.doi for rec in score_records if rec.doi)
    by_tj = dict.fromkeys(key for rec in score_records if (key := title_journal_key(rec.title, rec.journal)))
    return by_doi, by_tj


def link_records(score_records: list[Document], metadata: list[Document]) -> LinkResult:
    """Two-stage linkage: DOI first, then title+journal for records the DOI misses.

    A DOI is matched after normalization; one shared by several metadata
    records matches the first id in sorted order, with a diagnostic. A record
    whose DOI is missing or unknown falls through to the lowercased,
    whitespace-free title+journal key. A key shared by several metadata records
    is a collision: no match, with a diagnostic. Title+journal matches whose
    normalized title is shorter than 20 characters are flagged suspicious for
    manual review. Empty keys never match. DOI diagnostics precede title+journal
    ones, each in record-id order.
    """
    records = sorted(score_records, key=lambda d: d.id)
    by_doi, by_tj = lookup_index(records)
    for doc in metadata:
        for index, key in ((by_doi, doc.doi), (by_tj, title_journal_key(doc.title, doc.journal))):
            if key in index:
                index[key] = ids = index[key] or []
                ids.append(doc.id)
    for ids in filter(None, (*by_doi.values(), *by_tj.values())):
        ids.sort()

    result = LinkResult()
    tj_diagnostics = []
    for rec in records:
        ids = by_doi.get(rec.doi)
        if ids:
            if len(ids) > 1:
                result.diagnostics.append(
                    f"doi {rec.doi!r} duplicated in metadata ({len(ids)} records); matched first by sorted id")
            result.matched.append((rec.id, ids[0], "doi"))
            continue
        ids = by_tj.get(title_journal_key(rec.title, rec.journal))
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
    """Combine matched pairs into full Documents: each is its score record with the metadata's text.

    A merged document takes the metadata's abstract and keywords, its title
    and journal unless they are empty, and its DOI when the record has none;
    its abstract_clean is unset. The result follows `link.matched`, which is
    in record-id order.
    """
    # Only the metadata some match names is indexed, so the rest costs no memory.
    wanted = {meta_id for _, meta_id, _ in link.matched}
    meta_by_id = {d.id: d for d in metadata if d.id in wanted}
    rec_by_id = {d.id: d for d in score_records}
    merged = []
    for rec_id, meta_id, _kind in link.matched:
        rec, meta = rec_by_id[rec_id], meta_by_id[meta_id]
        merged.append(dataclasses.replace(
            rec, doi=rec.doi or meta.doi, title=meta.title or rec.title, journal=meta.journal or rec.journal,
            abstract_raw=meta.abstract_raw, abstract_clean=None, keywords=meta.keywords))
    return merged


def derive_seed(seed: int, key) -> int:
    """A 64-bit seed drawn from (seed, key), the same on every platform and run."""
    digest = sha256(f"{seed}|{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def dedup_within_unit(docs: list[Document], scope: str = "unit", seed: int = 0) -> list[Document]:
    """Collapse multiply-submitted articles within a scope to one Document each.

    Articles are grouped by (Document.identity, scope value). The surviving
    document is the copy with the smallest id; its score is the median of the
    copies' scores. For even copy counts with two distinct middle values, one
    is chosen uniformly by random.Random(derive_seed(seed, identity)), so
    results are reproducible and independent of input order. Output is sorted
    by identity.

    scope is one of SCOPE_KINDS, or "all" (dedup across the whole corpus).
    """
    if scope not in (*SCOPE_KINDS, "all"):
        raise ValueError(f"scope must be unit, panel or all, got {scope!r}")

    # Keyed by identity for "all", else by (identity, scope value). An article seen once is
    # held as its Document; a list is made only once its key repeats.
    groups: dict[Union[str, tuple[str, str]], Union[Document, list[Document]]] = {}
    for doc in docs:
        key = doc.identity if scope == "all" else (doc.identity, getattr(doc, scope))
        seen = groups.get(key)
        if seen is None:
            groups[key] = doc
        elif isinstance(seen, list):
            seen.append(doc)
        else:
            groups[key] = [seen, doc]

    out = []
    for key in sorted(groups):
        copies = groups[key]
        if not isinstance(copies, list):
            out.append(copies)
            continue
        keeper = min(copies, key=lambda d: d.id)
        scores = sorted(d.score for d in copies if d.score is not None)
        if not scores:
            out.append(keeper)
            continue
        n = len(scores)
        lo, hi = scores[(n - 1) // 2], scores[n // 2]
        identity = key if scope == "all" else key[0]
        score = lo if lo == hi else random.Random(derive_seed(seed, identity)).choice((lo, hi))
        out.append(keeper if score == keeper.score else dataclasses.replace(keeper, score=score))
    return out


@dataclass
class FilterResult:
    documents: list[Document]


def filter_documents(docs: list[Document], min_abstract_chars: int = 500) -> FilterResult:
    """Apply the inclusion filters: keep a score of 1-4 and a cleaned abstract of at least min_abstract_chars.

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
