"""Command-line front end: staged subcommands over inspectable files.

Subcommands: link, dedup, clean, analyze, report, synth, pipeline. Every
stage reads and writes plain files (JSON-lines corpora, CSV/JSONL/text
reports, a JSON manifest), so intermediate artifacts can be checked by hand.
Identical inputs, config and seed produce byte-identical outputs whatever the
input line order. Set TERMASSOC_LOG=DEBUG|INFO|WARNING for log verbosity.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

from . import cleanse, corpus, pipeline, synth
from .report import emit_report, parse_jsonl
from .stats import AnalysisConfig

logger = logging.getLogger(__name__)

LOG_ENV = "TERMASSOC_LOG"


@dataclass
class PipelineConfig:
    """Effective configuration: file paths plus analysis knobs."""

    scores: Optional[str] = None
    metadata: Optional[str] = None
    rules: Optional[str] = None
    output_dir: str = "out"
    seed: int = 0
    alpha: float = 0.05
    n_max: int = 5
    min_df: int = 10
    top_k: int = 50
    min_abstract_chars: int = 500
    scopes: list[str] = field(default_factory=lambda: ["units", "panels", "all"])
    threads: int = 1                       # read by nothing: scopes run one at a time
    groups: Optional[list] = None          # GroupScheme.to_config() entries
    drop_missing_unit: bool = True

    @classmethod
    def load(cls, path: Optional[str], args: argparse.Namespace) -> "PipelineConfig":
        cfg = cls()
        if path:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            if not isinstance(raw, dict):
                raise ValueError(f"config file {path!r} must hold a JSON object")
            unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            hints = get_type_hints(cls)
            for key, value in raw.items():
                if not _matches_type(value, hints[key]):
                    raise ValueError(f"config key {key!r} has the wrong type: {value!r}")
            cfg = dataclasses.replace(cfg, **raw)
        for name in ("scores", "metadata", "rules", "output_dir", "seed", "alpha",
                     "min_df", "top_k", "min_abstract_chars", "threads"):
            value = getattr(args, name, None)
            if value is not None:
                cfg = dataclasses.replace(cfg, **{name: value})
        if getattr(args, "nmax", None) is not None:
            cfg.n_max = args.nmax
        if getattr(args, "scopes", None) is not None:
            cfg.scopes = [s.strip() for s in args.scopes.split(",") if s.strip()]
        return cfg

    def group_scheme(self) -> corpus.GroupScheme:
        if self.groups is None:
            return corpus.default_group_scheme()
        return corpus.GroupScheme.from_config(self.groups)

    def analysis_config(self) -> AnalysisConfig:
        return AnalysisConfig(
            group_scheme=self.group_scheme(),
            n_max=self.n_max,
            min_doc_frequency=self.min_df,
            alpha=self.alpha,
            top_k=self.top_k,
            seed=self.seed,
        )

    def load_rules(self) -> list[cleanse.CleaningRule]:
        if self.rules:
            return cleanse.load_rules(self.rules)
        return cleanse.default_rules()

    def config_hash(self) -> str:
        """Hash of the analysis-relevant settings.

        Paths, thread count and log level are runtime concerns and stay out,
        so reruns that differ only in those carry the same hash.
        """
        semantic = {
            "seed": self.seed,
            "alpha": self.alpha,
            "n_max": self.n_max,
            "min_df": self.min_df,
            "top_k": self.top_k,
            "min_abstract_chars": self.min_abstract_chars,
            "scopes": self.scopes,
            "groups": self.group_scheme().to_config(),
            "drop_missing_unit": self.drop_missing_unit,
            "rules": [dataclasses.asdict(r) for r in self.load_rules()],
        }
        blob = json.dumps(semantic, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _matches_type(value, hint) -> bool:
    """Whether a JSON config value fits an annotation; ints pass as floats, bools only as bools."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return any(_matches_type(value, arg) for arg in args)
    if origin is list:
        return isinstance(value, list) and all(_matches_type(v, arg) for v in value for arg in args)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _write_atomic(path: Path, text: str):
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _read_documents(path: str, label: str) -> list[corpus.Document]:
    try:
        parsed = corpus.read_jsonl(path)
    except OSError as exc:
        raise FileNotFoundError(f"cannot read {label} file {path!r}: {exc}") from exc
    for lineno, msg in parsed.errors:
        logger.error("%s:%d: %s", path, lineno, msg)
    if parsed.errors:
        print(f"warning: {len(parsed.errors)} malformed record(s) skipped in {path}", file=sys.stderr)
    if parsed.warnings:
        logger.info("%s: %d record(s) without an abstract", path, len(parsed.warnings))
    return parsed.documents


def _scope_slug(scope: str) -> str:
    return scope.replace(":", "_")


def run_link(cfg: PipelineConfig) -> tuple[corpus.LinkResult, list[corpus.Document]]:
    if not cfg.scores or not cfg.metadata:
        raise FileNotFoundError("link needs --scores and --metadata files")
    score_records = _read_documents(cfg.scores, "scores")
    metadata = _read_documents(cfg.metadata, "metadata")
    if not metadata:
        logger.warning("metadata file %s is empty; everything will be unmatched", cfg.metadata)
    link = corpus.link_records(score_records, metadata)
    merged = corpus.merge_linked(score_records, metadata, link)

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    suspicious = {pair: reason for pair, reason in link.suspicious}
    rows = []
    for rec_id, meta_id, kind in link.matched:
        reason = suspicious.get((rec_id, meta_id), "")
        rows.append([rec_id, meta_id, kind, "true" if reason else "false", reason])
    for rec_id in link.unmatched:
        rows.append([rec_id, "", "none", "false", ""])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["record_id", "metadata_id", "match_kind", "suspicious", "reason"])
    writer.writerows(sorted(rows))
    _write_atomic(out / "link_report.csv", buf.getvalue())

    corpus.write_jsonl(out / "merged.jsonl", merged)
    by_kind = {"doi": 0, "title_journal": 0}
    for _, _, kind in link.matched:
        by_kind[kind] += 1
    summary = {
        "matched_doi": by_kind["doi"],
        "matched_title_journal": by_kind["title_journal"],
        "unmatched": len(link.unmatched),
        "suspicious": len(link.suspicious),
        "diagnostics": link.diagnostics,
    }
    _write_atomic(out / "link_summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(
        f"linked {by_kind['doi']} by doi, {by_kind['title_journal']} by title/journal, "
        f"{len(link.unmatched)} unmatched, {len(link.suspicious)} suspicious"
    )
    return link, merged


def run_dedup(cfg: PipelineConfig, in_path: str, scope: str) -> list[corpus.Document]:
    docs = _read_documents(in_path, "corpus")
    deduped = corpus.dedup_within_unit(docs, scope, cfg.seed)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus.write_jsonl(out / "deduped.jsonl", deduped)
    print(f"dedup ({scope}): {len(docs)} -> {len(deduped)} documents")
    return deduped


def run_clean(cfg: PipelineConfig, in_path: str) -> list[corpus.Document]:
    docs = _read_documents(in_path, "corpus")
    rules = cfg.load_rules()
    cleaned = pipeline.clean_documents(docs, rules)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus.write_jsonl(out / "cleaned.jsonl", cleaned)
    print(f"cleaned {len(cleaned)} documents with {sum(r.enabled for r in rules)} active rules")
    return cleaned


def run_analyze(cfg: PipelineConfig, docs: list[corpus.Document]) -> dict:
    if cfg.drop_missing_unit:
        docs, dropped = corpus.drop_unclassified(docs)
        if dropped:
            print(f"dropped {dropped} unclassified document(s) with no unit")
    scopes = pipeline.expand_scopes(docs, cfg.scopes)
    if not scopes:
        raise ValueError("no scopes to analyze")
    outcomes = pipeline.analyze_scopes(
        docs,
        scopes,
        cfg.analysis_config(),
        cfg.load_rules(),
        cfg.min_abstract_chars,
    )
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_scopes = []
    skipped = []
    for scope in scopes:
        outcome = outcomes[scope]
        if outcome.skipped:
            skipped.append({"id": scope, "reason": outcome.skipped})
            print(f"scope {scope} skipped: {outcome.skipped}")
            continue
        slug = _scope_slug(scope)
        for fmt, ext in (("csv", "csv"), ("jsonl", "jsonl"), ("text", "txt")):
            _write_atomic(out / f"report_{slug}.{ext}", emit_report(outcome.report, fmt))
        manifest_scopes.append(
            {
                "id": scope,
                "n_docs": outcome.group_sizes,
                "m": outcome.m,
                "threshold": outcome.threshold,
            }
        )
        flag = " (illustrative)" if outcome.report.illustrative else ""
        print(f"scope {scope}: {len(outcome.report.rows)} term(s), m={outcome.m}{flag}")
    manifest = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "scopes": manifest_scopes,
        "skipped": skipped,
    }
    _write_atomic(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def run_synth(cfg: PipelineConfig, spec_path: str, sims: int, corpus_out: Optional[str]) -> dict:
    try:
        with open(spec_path, "r", encoding="utf-8") as fh:
            spec = synth.SyntheticSpec.from_config(json.load(fh))
    except OSError as exc:
        raise FileNotFoundError(f"cannot read synthetic spec {spec_path!r}: {exc}") from exc
    if cfg.seed:
        spec = dataclasses.replace(spec, seed=cfg.seed)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    if corpus_out:
        corpus_dir = Path(corpus_out)
        corpus_dir.mkdir(parents=True, exist_ok=True)
        docs = synth.generate_corpus(spec, cfg.group_scheme())
        write_corpus_files(docs, corpus_dir)
        print(f"wrote synthetic corpus ({len(docs)} documents) to {corpus_dir}")

    metrics = synth.evaluate_detector(spec, cfg.analysis_config(), sims)
    _write_atomic(out / "metrics.json", json.dumps(metrics.to_json_dict(), indent=2, sort_keys=True) + "\n")
    recall = "n/a" if metrics.recall is None else f"{metrics.recall:.3f}"
    print(f"synth: {sims} sims, recall={recall}, fwer={metrics.fwer:.3f}")
    return metrics.to_json_dict()


def write_corpus_files(docs: list[corpus.Document], directory: Path):
    """Split full documents into the scores-file and metadata-file shapes."""
    with open(directory / "scores.jsonl", "w", encoding="utf-8") as fh:
        for d in docs:
            fh.write(
                json.dumps(
                    {
                        "id": d.id,
                        "doi": d.doi,
                        "title": d.title,
                        "journal": d.journal,
                        "unit": d.unit,
                        "panel": d.panel,
                        "score": d.score,
                        "submitter": d.submitter,
                    },
                    ensure_ascii=False,
                    sort_keys=True,
                )
                + "\n"
            )
    with open(directory / "metadata.jsonl", "w", encoding="utf-8") as fh:
        for d in docs:
            fh.write(
                json.dumps(
                    {
                        "id": "m-" + d.id,
                        "doi": d.doi,
                        "title": d.title,
                        "journal": d.journal,
                        "abstract": d.abstract_raw,
                        "keywords": d.keywords,
                    },
                    ensure_ascii=False,
                    sort_keys=True,
                )
                + "\n"
            )


def run_report(in_path: str, fmt: str, out_path: Optional[str]) -> str:
    with open(in_path, "r", encoding="utf-8") as fh:
        scope_report = parse_jsonl(fh)
    rendered = emit_report(scope_report, fmt)
    if out_path:
        _write_atomic(Path(out_path), rendered)
    else:
        sys.stdout.write(rendered)
    return rendered


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termassoc",
        description="Find words and phrases that associate with document quality grades.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--scopes", help="comma list: units, panels, all, unit:<u>, panel:<p>")
        p.add_argument("--nmax", type=int, help="maximum phrase length in tokens")
        p.add_argument("--alpha", type=float, help="family significance level")
        p.add_argument("--top-k", dest="top_k", type=int, help="terms per report")
        p.add_argument("--min-df", dest="min_df", type=int, help="minimum documents per term")
        p.add_argument("--threads", type=int, help="accepted for compatibility; scopes run one at a time")
        p.add_argument("--rules", metavar="PATH", help="cleaning rules JSON")
        p.add_argument("--out", dest="output_dir", metavar="DIR", help="output directory")

    p_link = sub.add_parser("link", help="match score records to metadata")
    common(p_link)
    p_link.add_argument("--scores", metavar="PATH")
    p_link.add_argument("--metadata", metavar="PATH")

    p_dedup = sub.add_parser("dedup", help="collapse multiply-submitted articles")
    common(p_dedup)
    p_dedup.add_argument("--in", dest="in_path", required=True, metavar="PATH")
    p_dedup.add_argument("--scope", choices=("unit", "panel", "all"), default="unit")

    p_clean = sub.add_parser("clean", help="strip journal boilerplate from abstracts")
    common(p_clean)
    p_clean.add_argument("--in", dest="in_path", required=True, metavar="PATH")

    p_an = sub.add_parser("analyze", help="run the statistical analysis per scope")
    common(p_an)
    p_an.add_argument("--in", dest="in_path", required=True, metavar="PATH", help="merged corpus JSONL")
    p_an.add_argument("--min-abstract-chars", dest="min_abstract_chars", type=int)

    p_rep = sub.add_parser("report", help="re-render a JSONL report")
    p_rep.add_argument("--in", dest="in_path", required=True, metavar="PATH")
    p_rep.add_argument("--format", choices=("csv", "jsonl", "text"), default="text")
    p_rep.add_argument("--out-file", dest="out_file", metavar="PATH")

    p_syn = sub.add_parser("synth", help="validate the detector on synthetic corpora")
    common(p_syn)
    p_syn.add_argument("--spec", required=True, metavar="PATH", help="synthetic corpus spec JSON")
    p_syn.add_argument("--sims", type=int, default=20)
    p_syn.add_argument("--corpus-out", dest="corpus_out", metavar="DIR",
                       help="also write one generated corpus as scores/metadata files")

    p_pipe = sub.add_parser("pipeline", help="link then analyze in one go")
    common(p_pipe)
    p_pipe.add_argument("--scores", metavar="PATH")
    p_pipe.add_argument("--metadata", metavar="PATH")
    p_pipe.add_argument("--min-abstract-chars", dest="min_abstract_chars", type=int)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    level = os.environ.get(LOG_ENV, "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = PipelineConfig.load(getattr(args, "config", None), args)
        if args.command == "link":
            run_link(cfg)
        elif args.command == "dedup":
            run_dedup(cfg, args.in_path, args.scope)
        elif args.command == "clean":
            run_clean(cfg, args.in_path)
        elif args.command == "analyze":
            run_analyze(cfg, _read_documents(args.in_path, "corpus"))
        elif args.command == "report":
            run_report(args.in_path, args.format, args.out_file)
        elif args.command == "synth":
            run_synth(cfg, args.spec, args.sims, args.corpus_out)
        elif args.command == "pipeline":
            _, merged = run_link(cfg)
            run_analyze(cfg, merged)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
