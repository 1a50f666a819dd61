"""Command-line front end: staged subcommands over inspectable files.

Subcommands: link, dedup, clean, analyze, synth, pipeline. Every
stage reads and writes plain files (JSON-lines corpora, CSV/JSONL/text
reports, a JSON manifest), so intermediate artifacts can be checked by hand.
Identical inputs, config and seed produce byte-identical outputs whatever the
input line order. Diagnostics go to stderr as `warning: …` lines, and a
failure as one `error: …` line with exit status 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar, Optional

from . import cleanse, corpus, pipeline, synth
from .report import FORMATS, emit_report
from .stats import AnalysisConfig


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
    # Set by load: whether the config file or --seed named a seed, 0 included,
    # and the config file's path.
    seed_given: ClassVar[bool] = False
    config_path: ClassVar[Optional[str]] = None

    @classmethod
    def load(cls, path: Optional[str], args: argparse.Namespace) -> "PipelineConfig":
        cfg = cls()
        seed_given = getattr(args, "seed", None) is not None
        if path:
            raw = corpus.check_json(corpus.read_json(path, "config"), cls, f"config {path}")
            for key in ("scores", "metadata", "rules", "output_dir"):
                if "\0" in (raw.get(key) or ""):
                    raise ValueError(f"config {path} key {key!r}: a path cannot hold a NUL character")
            cfg = dataclasses.replace(cfg, **raw)
            seed_given = seed_given or "seed" in raw
        flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(cls)}
        cfg = dataclasses.replace(cfg, **{name: value for name, value in flags.items() if value is not None})
        cfg.seed_given = seed_given
        cfg.config_path = path
        return cfg

    def group_scheme(self) -> corpus.GroupScheme:
        if self.groups is None:
            return corpus.default_group_scheme()
        return corpus.GroupScheme.from_config(self.groups, f"config {self.config_path} key 'groups'")

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

    def config_hash(self, rules: list[cleanse.CleaningRule]) -> str:
        """Hash of every setting but the runtime ones, with the loaded rule set.

        Input and output paths and the thread count are runtime concerns and
        stay out, so reruns that differ only in those carry the same hash. Any
        other field is hashed, a new one included; the rules path is replaced
        by the rules it loaded and the groups are normalised.
        """
        runtime = {"scores", "metadata", "output_dir", "threads"}
        semantic = {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.name not in runtime}
        semantic.update(groups=self.group_scheme().to_config(), rules=[dataclasses.asdict(r) for r in rules])
        blob = json.dumps(semantic, sort_keys=True).encode("utf-8")
        return corpus.sha256(blob).hexdigest()


def _comma_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _write_json(path: Path, obj):
    corpus.write_atomic(path, [json.dumps(obj, indent=2, sort_keys=True) + "\n"])


def _read_documents(path: str, what: str,
                    linkable: Optional[Callable[[Optional[str], str], bool]] = None) -> list[corpus.Document]:
    parsed = corpus.read_jsonl(path, linkable, what)
    for lineno, msg in parsed.errors:
        print(f"warning: {path}:{lineno}: {msg}", file=sys.stderr)
    if parsed.errors:
        print(f"warning: {len(parsed.errors)} malformed record(s) skipped in {path}", file=sys.stderr)
    return parsed.documents


def _report_stems(scopes: list[str]) -> dict[str, str]:
    """Scope id -> the name its report files share, before their extension.

    Unit and panel ids come from the data, so each name must be one plain
    file name, and no two scopes may share one.
    """
    stems = {scope: "report_" + scope.replace(":", "_") for scope in scopes}
    owner: dict[str, str] = {}
    for scope, stem in stems.items():
        if Path(stem).name != stem or "\0" in stem:
            raise ValueError(f"scope {scope!r} cannot name a report file: {stem!r} is not a plain file name")
        if owner.setdefault(stem, scope) != scope:
            raise ValueError(f"scopes {owner[stem]!r} and {scope!r} would both write {stem}.*")
    return stems


def run_link(cfg: PipelineConfig) -> tuple[corpus.LinkResult, list[corpus.Document]]:
    if not cfg.scores or not cfg.metadata:
        raise FileNotFoundError("link needs --scores and --metadata files")
    score_records = _read_documents(cfg.scores, "scores file")
    # A metadata record under no key that a score record looks up can never be merged: it is parsed
    # into its id alone, with no DOI, title or journal, so link_records sees, and keys, only the others.
    by_doi, by_tj = corpus.lookup_index(score_records)
    metadata = _read_documents(cfg.metadata, "metadata file", lambda doi, key: doi in by_doi or key in by_tj)
    if not metadata:
        print(f"warning: metadata file {cfg.metadata} is empty; everything will be unmatched", file=sys.stderr)
    linkable = [doc for doc in metadata if doc.doi or doc.title or doc.journal]
    del metadata
    link = corpus.link_records(score_records, linkable)
    for msg in link.diagnostics:
        print(f"warning: {msg}", file=sys.stderr)
    merged = corpus.merge_linked(score_records, linkable, link)
    del score_records, linkable   # the writes below reuse their memory; merged holds what it needs

    out = Path(cfg.output_dir)
    suspicious = dict(link.suspicious)
    rows = []
    for rec_id, meta_id, kind in link.matched:
        reason = suspicious.get((rec_id, meta_id), "")
        rows.append([rec_id, meta_id, kind, "true" if reason else "false", reason])
    rows += [[rec_id, "", "none", "false", ""] for rec_id in link.unmatched]
    header = ["record_id", "metadata_id", "match_kind", "suspicious", "reason"]
    corpus.write_atomic(out / "link_report.csv", [corpus.csv_text([header, *sorted(rows)])])

    corpus.write_jsonl(out / "merged.jsonl", merged)
    by_kind = Counter(kind for _, _, kind in link.matched)
    summary = {
        "matched_doi": by_kind["doi"],
        "matched_title_journal": by_kind["title_journal"],
        "unmatched": len(link.unmatched),
        "suspicious": len(link.suspicious),
        "diagnostics": link.diagnostics,
    }
    _write_json(out / "link_summary.json", summary)
    print(
        f"linked {by_kind['doi']} by doi, {by_kind['title_journal']} by title/journal, "
        f"{len(link.unmatched)} unmatched, {len(link.suspicious)} suspicious"
    )
    return link, merged


def run_dedup(cfg: PipelineConfig, in_path: str, scope: str) -> list[corpus.Document]:
    docs = _read_documents(in_path, "corpus file")
    deduped = corpus.dedup_within_unit(docs, scope, cfg.seed)
    corpus.write_jsonl(Path(cfg.output_dir) / "deduped.jsonl", deduped)
    print(f"dedup ({scope}): {len(docs)} -> {len(deduped)} documents")
    return deduped


def run_clean(cfg: PipelineConfig, in_path: str, rules: list[cleanse.CleaningRule]) -> list[corpus.Document]:
    docs = _read_documents(in_path, "corpus file")
    cleaned = pipeline.clean_documents(docs, rules)
    corpus.write_jsonl(Path(cfg.output_dir) / "cleaned.jsonl", cleaned)
    print(f"cleaned {len(cleaned)} documents with {sum(r.enabled for r in rules)} active rules")
    return cleaned


def run_analyze(cfg: PipelineConfig, analysis: AnalysisConfig, rules: list[cleanse.CleaningRule],
                docs: list[corpus.Document]) -> dict:
    if cfg.drop_missing_unit:
        kept = [d for d in docs if d.unit]
        if len(kept) < len(docs):
            print(f"dropped {len(docs) - len(kept)} unclassified document(s) with no unit")
        docs = kept
    scopes = pipeline.expand_scopes(docs, cfg.scopes)
    if not scopes:
        raise ValueError("no scopes to analyze")
    stems = _report_stems(scopes)
    # The output directory holds one run: its manifest goes first and comes back last,
    # so a run that fails partway leaves none beside a mix of old and new reports.
    out = Path(cfg.output_dir)
    (out / "manifest.json").unlink(missing_ok=True)
    outcomes = pipeline.analyze_scopes(docs, scopes, analysis, rules, cfg.min_abstract_chars)
    written = set()
    manifest_scopes = []
    skipped = []
    for scope in scopes:
        outcome = outcomes[scope]
        if outcome.skipped:
            skipped.append({"id": scope, "reason": outcome.skipped})
            print(f"scope {scope} skipped: {outcome.skipped}")
            continue
        report = outcome.report
        for fmt, (ext, _) in FORMATS.items():
            name = f"{stems[scope]}.{ext}"
            corpus.write_atomic(out / name, [emit_report(report, fmt)])
            written.add(name)
        manifest_scopes.append({"id": scope, "n_docs": outcome.group_sizes, "m": report.m,
                                "threshold": report.threshold})
        flag = " (illustrative)" if report.illustrative else ""
        print(f"scope {scope}: {len(report.rows)} term(s), m={report.m}{flag}")
    # Any report_<...> file of a report format that this run did not write is an earlier run's.
    extensions = {f".{ext}" for ext, _ in FORMATS.values()}
    for path in out.glob("report_*"):
        if path.suffix in extensions and path.name not in written and path.is_file():
            path.unlink()
    manifest = {"config_hash": cfg.config_hash(rules), "seed": cfg.seed, "scopes": manifest_scopes,
                "skipped": skipped}
    _write_json(out / "manifest.json", manifest)
    return manifest


def run_synth(cfg: PipelineConfig, analysis: AnalysisConfig, rules: list[cleanse.CleaningRule], spec_path: str,
              sims: int, corpus_out: Optional[str]) -> synth.DetectorMetrics:
    if sims < 1:
        raise ValueError(f"--sims must be >= 1, got {sims}")
    what = f"synthetic spec {spec_path}"
    spec = synth.SyntheticSpec.from_config(corpus.read_json(spec_path, "synthetic spec"), what)
    if cfg.seed_given:
        spec = dataclasses.replace(spec, seed=cfg.seed)
    # What fails from here on is the spec: its groups against the config's, or a simulation's corpus.
    try:
        if corpus_out:
            corpus_dir = Path(corpus_out)
            docs = synth.generate_corpus(spec, analysis.group_scheme)
            write_corpus_files(docs, corpus_dir)
            print(f"wrote synthetic corpus ({len(docs)} documents) to {corpus_dir}")
        metrics = synth.evaluate_detector(spec, analysis, sims, rules)
    except (ValueError, RuntimeError) as exc:
        raise type(exc)(f"{what}: {exc}") from None
    _write_json(Path(cfg.output_dir) / "metrics.json", dataclasses.asdict(metrics))
    recall = "n/a" if metrics.recall is None else f"{metrics.recall:.3f}"
    print(f"synth: {sims} sims, recall={recall}, fwer={metrics.fwer:.3f}")
    return metrics


def write_corpus_files(docs: list[corpus.Document], directory: Path):
    """Split full documents into the scores-file and metadata-file shapes.

    A scores record is the document's record without its text; a metadata
    record is its identity fields and text under the id "m-<id>".
    """
    scores, metadata = [], []
    for d in docs:
        rec = d.to_record()
        text = {key: rec.pop(key) for key in ("abstract", "keywords")}
        meta = {"id": "m-" + d.id, "doi": rec["doi"], "title": rec["title"], "journal": rec["journal"], **text}
        scores.append(rec)
        metadata.append(meta)
    corpus.write_atomic(directory / "scores.jsonl", map(corpus.json_line, scores))
    corpus.write_atomic(directory / "metadata.jsonl", map(corpus.json_line, metadata))


# Every flag the CLI takes, with its argparse settings.
FLAGS = {
    "--config": dict(metavar="PATH", help="JSON config file"),
    "--seed": dict(type=int, help="override the config seed"),
    "--scopes": dict(type=_comma_list, help="comma list: units, panels, all, unit:<u>, panel:<p>"),
    "--nmax": dict(dest="n_max", type=int, help="maximum phrase length in tokens"),
    "--alpha": dict(type=float, help="family significance level"),
    "--top-k": dict(dest="top_k", type=int, help="terms per report"),
    "--min-df": dict(dest="min_df", type=int, help="minimum documents per term"),
    "--threads": dict(type=int, help="accepted for compatibility; scopes run one at a time"),
    "--rules": dict(metavar="PATH", help="cleaning rules JSON"),
    "--out": dict(dest="output_dir", metavar="DIR", help="output directory"),
    "--scores": dict(metavar="PATH"),
    "--metadata": dict(metavar="PATH"),
    "--min-abstract-chars": dict(dest="min_abstract_chars", type=int),
    "--in": dict(dest="in_path", required=True, metavar="PATH", help="input JSON-lines file"),
    "--scope": dict(choices=(*corpus.SCOPE_KINDS, "all"), default="unit"),
    "--spec": dict(required=True, metavar="PATH", help="synthetic corpus spec JSON"),
    "--sims": dict(type=int, default=20),
    "--corpus-out": dict(dest="corpus_out", metavar="DIR",
                         help="also write one generated corpus as scores/metadata files"),
}

_ANALYSIS_FLAGS = "--config --seed --scopes --nmax --alpha --top-k --min-df --threads --rules --out"

# Subcommand -> (help, the flags it reads, its runner). main builds the
# analysis config, the rules and the scope check before any stage writes for
# the commands that read --nmax, --rules and --scopes respectively, and calls
# the runner with the config, the parsed flags, the analysis config and the rules.
COMMANDS = {
    "link": ("match score records to metadata", "--config --out --scores --metadata",
             lambda cfg, args, analysis, rules: run_link(cfg)),
    "dedup": ("collapse multiply-submitted articles", "--config --seed --out --in --scope",
              lambda cfg, args, analysis, rules: run_dedup(cfg, args.in_path, args.scope)),
    "clean": ("strip journal boilerplate from abstracts", "--config --rules --out --in",
              lambda cfg, args, analysis, rules: run_clean(cfg, args.in_path, rules)),
    "analyze": ("run the statistical analysis per scope", f"{_ANALYSIS_FLAGS} --in --min-abstract-chars",
                lambda cfg, args, analysis, rules:
                run_analyze(cfg, analysis, rules, _read_documents(args.in_path, "corpus file"))),
    "synth": ("validate the detector on synthetic corpora",
              "--config --seed --nmax --alpha --min-df --rules --out --spec --sims --corpus-out",
              lambda cfg, args, analysis, rules:
              run_synth(cfg, analysis, rules, args.spec, args.sims, args.corpus_out)),
    "pipeline": ("link then analyze in one go", f"{_ANALYSIS_FLAGS} --scores --metadata --min-abstract-chars",
                 lambda cfg, args, analysis, rules: run_analyze(cfg, analysis, rules, run_link(cfg)[1])),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termassoc",
        description="Find words and phrases that associate with document quality grades.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags, _) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for flag in flags.split():
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = PipelineConfig.load(getattr(args, "config", None), args)
        # Reject bad analysis values, rules and scope specifiers before any stage writes.
        _, flags, runner = COMMANDS[args.command]
        reads = flags.split()
        analysis = cfg.analysis_config() if "--nmax" in reads else None
        rules = cfg.load_rules() if "--rules" in reads else None
        if "--scopes" in reads:
            pipeline.check_scopes(cfg.scopes)
        runner(cfg, args, analysis, rules)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
