"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Oracles here are independent of the implementation paths they check:
exact rational arithmetic for the statistic, the df=2 closed form for the
survival function, and brute-force n-gram enumeration over generator ground
truth for extraction.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

from termassoc.cli import main as cli_main
from termassoc.corpus import Document, dedup_within_unit, filter_documents
from termassoc.report import build_scope_report, render_csv
from termassoc.stats import (
    AnalysisConfig,
    ContingencyTable,
    TermResult,
    bonferroni_threshold,
    chi_sq_survival,
    chi_square,
    direction,
)
from termassoc.synth import PlantedTerm, SyntheticSpec, evaluate_detector
from termassoc.textproc import extract_terms, iter_ngrams
from termassoc import corpus as corpus_mod

FIXTURES = Path(__file__).parent / "fixtures"


def check(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {number:02d}] {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def exact_chi_square(sizes, present):
    total_present = sum(present)
    total_docs = sum(sizes)
    if total_present in (0, total_docs):
        return Fraction(0)
    stat = Fraction(0)
    for n_g, k_g in zip(sizes, present):
        e_p = Fraction(n_g * total_present, total_docs)
        e_a = Fraction(n_g * (total_docs - total_present), total_docs)
        stat += (k_g - e_p) ** 2 / e_p + ((n_g - k_g) - e_a) ** 2 / e_a
    return stat


def test_criterion_01_chi_square_oracle_equivalence():
    rng = random.Random(11)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        sizes = tuple(rng.randint(1, 10_000) for _ in range(3))
        present = tuple(rng.randint(0, n) for n in sizes)
        got = chi_square(ContingencyTable(sizes, present))
        want = float(exact_chi_square(sizes, present))
        err = abs(got - want) / max(abs(want), 1e-12)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    check(
        1,
        "chi-square matches exact-arithmetic oracle on 1000 random 3x2 tables",
        worst <= 1e-9 and elapsed < 5.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_survival_closed_form_and_threshold():
    worst = 0.0
    for i in range(100):
        x = 100.0 * i / 99
        worst = max(worst, abs(chi_sq_survival(x, 2) - math.exp(-x / 2)))
    threshold = bonferroni_threshold(0.05, 10**6, 2)
    check(
        2,
        "df=2 survival equals exp(-x/2); corrected critical value for m=1e6 is 33.6224",
        worst <= 1e-12 and abs(threshold - 33.6224) <= 1e-3,
        f"worst abs err {worst:.2e}, threshold {threshold:.5f}",
    )


def test_criterion_03_percentage_illustration():
    table = ContingencyTable((1000, 1000, 1000), (10, 20, 50))
    stat = chi_square(table)
    best, _ = direction(table)
    flat = chi_square(ContingencyTable((1000, 1000, 1000), (20, 20, 20)))
    check(
        3,
        "1%/2%/5% presence at N_g=1000 gives chi2 33.39 toward the top group; equal shares give 0",
        abs(stat - 33.39) <= 0.01 and best == 2 and flat == 0.0,
        f"chi2 {stat:.4f}, direction index {best}, flat {flat}",
    )


def test_criterion_04_planted_term_recovery():
    spec = SyntheticSpec(
        group_sizes=(1000, 1000, 1000),
        vocab_size=5000,
        sentences_per_doc=6,
        tokens_per_sentence=10,
        planted=[PlantedTerm(("zzalpha", "zzbeta"), (0.01, 0.02, 0.20))],
        seed=2024,
    )
    config = AnalysisConfig(n_max=5, min_doc_frequency=10, alpha=0.05)
    start = time.perf_counter()
    metrics = evaluate_detector(spec, config, n_sims=20, min_abstract_chars=500)
    elapsed = time.perf_counter() - start
    hits = sum(1 for r in metrics.recall_per_sim if r == 1.0)
    check(
        4,
        "planted (1%,2%,20%) term flagged significant in >= 19/20 runs",
        hits >= 19 and elapsed < 120.0,
        f"{hits}/20 runs, {elapsed:.1f}s, mean m {metrics.mean_m:.0f}",
    )


def test_criterion_05_family_wise_error_rate():
    spec = SyntheticSpec(
        group_sizes=(200, 200, 200),
        vocab_size=400,
        sentences_per_doc=4,
        tokens_per_sentence=12,
        planted=[],
        seed=555,
    )
    config = AnalysisConfig(n_max=3, min_doc_frequency=10, alpha=0.05)
    start = time.perf_counter()
    metrics = evaluate_detector(spec, config, n_sims=200)
    elapsed = time.perf_counter() - start
    check(
        5,
        "null corpora: fraction of 200 simulations with any significant term <= 0.08",
        metrics.fwer <= 0.08 and elapsed < 600.0,
        f"fwer {metrics.fwer:.3f} ({metrics.false_positive_sims}/200), {elapsed:.1f}s",
    )


def test_criterion_06_sentence_boundary_fuzz():
    rng = random.Random(606)
    vocab = [f"w{i}" for i in range(60)]
    ok = True
    detail = ""
    for doc_index in range(10_000):
        n_max = rng.randint(1, 6)
        sentences = [
            [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            for _ in range(rng.randint(1, 4))
        ]
        title = [rng.choice(vocab) for _ in range(rng.randint(0, 3))]
        keywords = [
            " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 2)))
            for _ in range(rng.randint(0, 2))
        ]
        doc = Document(
            id=f"fuzz{doc_index}",
            title=" ".join(title).capitalize(),
            abstract_raw="r",
            abstract_clean=". ".join(" ".join(s).capitalize() for s in sentences) + ".",
            keywords=keywords,
        )
        expected = set()
        for unit in [title] + sentences + [k.split() for k in keywords]:
            for n in range(1, n_max + 1):
                for startpos in range(len(unit) - n + 1):
                    expected.add(" ".join(unit[startpos : startpos + n]))
        got = extract_terms(doc, n_max).terms
        if got != expected:
            ok = False
            detail = f"doc {doc_index}: crossing or missing terms {sorted(got ^ expected)[:4]}"
            break
        for unit in sentences:
            grams = list(iter_ngrams(unit, n_max))
            for n in range(1, min(n_max, len(unit)) + 1):
                if sum(1 for g in grams if g.count(" ") == n - 1) != len(unit) - n + 1:
                    ok = False
                    detail = f"doc {doc_index}: position count off for n={n}"
                    break
    check(6, "10,000 fuzzed documents: no boundary crossings, L-n+1 positions per sentence", ok, detail)


def test_criterion_07_dedup_contract(monkeypatch):
    def copies(scores, unit="3"):
        return [
            Document(id=f"c{i}", doi="10.1/same", unit=unit, score=s)
            for i, s in enumerate(scores)
        ]

    odd_ok = all(
        dedup_within_unit(copies([2, 3, 4]), "unit", seed=s)[0].score == 3 for s in range(10)
    )

    tie_first = dedup_within_unit(copies([3, 4]), "unit", seed=99)[0].score
    tie_ok = tie_first in (3, 4)
    for _ in range(5):
        tie_ok &= dedup_within_unit(copies([3, 4]), "unit", seed=99)[0].score == tie_first
        shuffled = list(reversed(copies([3, 4])))
        tie_ok &= dedup_within_unit(shuffled, "unit", seed=99)[0].score == tie_first

    constructed = []
    real_random = corpus_mod.random.Random

    def spy(*args, **kwargs):
        constructed.append(args)
        return real_random(*args, **kwargs)

    monkeypatch.setattr(corpus_mod.random, "Random", spy)
    equal_score = dedup_within_unit(copies([4, 4]), "unit", seed=1)[0].score
    monkeypatch.undo()
    equal_ok = equal_score == 4 and constructed == []

    check(
        7,
        "dedup: {2,3,4}->3 always; {3,4} seed-reproducible and order-independent; {4,4}->4 without randomness",
        odd_ok and tie_ok and equal_ok,
        f"tie value {tie_first}",
    )


def test_criterion_08_whole_pipeline_determinism(tmp_path):
    scores = FIXTURES / "scores.jsonl"
    metadata = FIXTURES / "metadata.jsonl"

    shuffled_scores = tmp_path / "scores_shuffled.jsonl"
    shuffled_metadata = tmp_path / "metadata_shuffled.jsonl"
    rng = random.Random(88)
    for src, dst in ((scores, shuffled_scores), (metadata, shuffled_metadata)):
        lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
        rng.shuffle(lines)
        dst.write_text("".join(lines), encoding="utf-8")

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    rc_a = cli_main([
        "pipeline", "--scores", str(scores), "--metadata", str(metadata),
        "--out", str(out_a), "--threads", "1", "--seed", "7",
    ])
    rc_b = cli_main([
        "pipeline", "--scores", str(shuffled_scores), "--metadata", str(shuffled_metadata),
        "--out", str(out_b), "--threads", "4", "--seed", "7",
    ])

    names = sorted(p.name for p in out_a.iterdir())
    same_names = names == sorted(p.name for p in out_b.iterdir())
    compared = [n for n in names if n.startswith("report_") or n in ("manifest.json", "merged.jsonl", "link_report.csv")]
    diffs = [n for n in compared if (out_a / n).read_bytes() != (out_b / n).read_bytes()]
    check(
        8,
        "pipeline output byte-identical across thread counts and shuffled input lines",
        rc_a == 0 and rc_b == 0 and same_names and not diffs,
        f"compared {len(compared)} files" + (f", diffs: {diffs}" if diffs else ""),
    )


def test_criterion_09_filter_boundary():
    def doc(n_chars, score, id):
        return Document(id=id, unit="1", score=score, abstract_raw="x", abstract_clean="a" * n_chars)

    kept = filter_documents(
        [doc(499, 3, "short"), doc(500, 3, "exact"), doc(2000, 0, "zero"), doc(2000, 4, "long")],
        min_abstract_chars=500,
    ).documents
    ids = [d.id for d in kept]
    check(
        9,
        "499-char abstract excluded, 500 retained, score-0 excluded",
        ids == ["exact", "long"],
        f"kept {ids}",
    )


def test_criterion_10_subsumption():
    # report-level fixture: both phrases top-ranked, same direction
    def result(term, chi2):
        table = ContingencyTable((500, 500, 500), (5, 10, 60))
        return TermResult(term, table, chi2, 2, math.exp(-chi2 / 2), True, "4",
                          (0.01, 0.02, 0.12))

    results = [result("we show", 80.0), result("here we show that", 61.0),
               result("unrelated", 45.0)]
    report = build_scope_report(results, "unit:1", m=1000, threshold=30.0, labels=["low", "3", "4"])
    emitted = [r.term for r in report.rows]
    report_ok = emitted == ["here we show that", "unrelated"]

    # end-to-end: plant the long phrase; its sub-phrases ride along and must
    # be folded into it by the emitted report
    spec = SyntheticSpec(
        group_sizes=(150, 150, 150),
        vocab_size=200,
        sentences_per_doc=4,
        tokens_per_sentence=10,
        planted=[PlantedTerm(("here", "we", "show", "that"), (0.02, 0.05, 0.5))],
        seed=10,
    )
    from termassoc.pipeline import analyze_scope, clean_documents
    from termassoc.synth import generate_corpus

    outcome = analyze_scope(clean_documents(generate_corpus(spec), []), "all", AnalysisConfig(), 0)
    sig = {r.term for r in outcome.results if r.significant}
    emitted_terms = [r.term for r in outcome.report.rows]
    csv_text = render_csv(outcome.report)
    e2e_ok = (
        "here we show that" in sig
        and "we show" in sig
        and emitted_terms == ["here we show that"]
        and "we show," not in csv_text
    )
    check(
        10,
        "shorter phrase with same direction omitted in favour of the longest phrase",
        report_ok and e2e_ok,
        f"report rows {emitted}; end-to-end rows {emitted_terms}",
    )
