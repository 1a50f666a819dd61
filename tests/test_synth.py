import dataclasses
import importlib.util
import json
import math
import random
import time
from pathlib import Path

import pytest

from termassoc.corpus import Document, default_group_scheme
from termassoc.pipeline import analyze_scope, clean_documents, plan_scope
from termassoc.stats import AnalysisConfig
from termassoc.synth import (
    PlantedTerm,
    SyntheticSpec,
    background_vocabulary,
    evaluate_detector,
    generate_corpus,
)


def small_spec(**overrides):
    base = dict(
        group_sizes=(50, 50, 50),
        vocab_size=120,
        sentences_per_doc=3,
        tokens_per_sentence=8,
        planted=[],
        seed=7,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


def corpus_fingerprint(docs):
    return json.dumps([d.to_record() for d in docs], sort_keys=True)


# ----------------------------------------------------------------- generation

def test_group_sizes_match_spec_exactly():
    spec = small_spec(group_sizes=(30, 41, 52))
    docs = generate_corpus(spec)
    assert len(docs) == 123
    scheme = default_group_scheme()
    sizes = [0, 0, 0]
    for d in docs:
        sizes[scheme.group_index(d.score)] += 1
    assert sizes == [30, 41, 52]


def test_same_seed_byte_identical():
    spec = small_spec(planted=[PlantedTerm(("zza", "zzb"), (0.1, 0.1, 0.4))])
    assert corpus_fingerprint(generate_corpus(spec)) == corpus_fingerprint(generate_corpus(spec))
    other = dataclasses.replace(spec, seed=8)
    assert corpus_fingerprint(generate_corpus(other)) != corpus_fingerprint(generate_corpus(spec))


def reference_generate_corpus(spec):
    """The generator as written with one `rng.choice(vocab)` call per token."""

    def capitalize(sentence):
        return sentence[0].upper() + sentence[1:] if sentence else sentence

    scheme = default_group_scheme()
    rng = random.Random(spec.seed)
    vocab = background_vocabulary(spec.vocab_size)
    docs = []
    doc_index = 0
    for g, size in enumerate(spec.group_sizes):
        scores = sorted(scheme.groups[g][1])
        for j in range(size):
            sentences = []
            for _ in range(spec.sentences_per_doc):
                tokens = []
                for _ in range(spec.tokens_per_sentence):
                    if spec.token_inclusion_prob >= 1.0 or rng.random() < spec.token_inclusion_prob:
                        tokens.append(rng.choice(vocab))
                sentences.append(tokens)
            for term in spec.planted:
                if rng.random() >= term.probs[g]:
                    continue
                fits = [s for s in sentences if len(s) >= len(term.tokens)]
                if fits:
                    target = fits[rng.randrange(len(fits))]
                    pos = rng.randrange(len(target) - len(term.tokens) + 1)
                    target[pos : pos + len(term.tokens)] = list(term.tokens)
                else:
                    sentences.append(list(term.tokens))
            title = " ".join(rng.choice(vocab) for _ in range(3))
            keywords = tuple(rng.choice(vocab) for _ in range(2))
            abstract = ". ".join(capitalize(" ".join(s)) for s in sentences if s) + "."
            ident = f"syn-{doc_index:05d}"
            docs.append(Document(id=ident, doi=f"10.9999/{ident}", title=capitalize(title),
                                 journal="Journal of Synthetic Results", abstract_raw=abstract, keywords=keywords,
                                 unit="1", score=scores[j % len(scores)], submitter="synthlab"))
            doc_index += 1
    return docs


@pytest.mark.parametrize("vocab_size", [1, 2, 255, 256, 257, 400])
@pytest.mark.parametrize("inclusion", [1.0, 0.5])
@pytest.mark.parametrize("planted", [(), (PlantedTerm(("zza", "zzb"), (0.2, 0.4, 0.9)),
                                          PlantedTerm(("zzc",), (0.5, 0.5, 0.5)))])
def test_generate_corpus_matches_the_choice_reference(vocab_size, inclusion, planted):
    # Vocabulary sizes around a power of two catch a wrong bit width; a draw
    # taken early or late shifts every later random() and randrange() call.
    spec = small_spec(group_sizes=(6, 5, 7), vocab_size=vocab_size, tokens_per_sentence=5,
                      token_inclusion_prob=inclusion, planted=list(planted), seed=vocab_size)
    got = generate_corpus(spec)
    want = reference_generate_corpus(spec)
    assert len(got) == len(want) == 18
    for a, b in zip(got, want):
        assert a == b


def test_fixture_regeneration_reproduces_the_committed_bytes(tmp_path, monkeypatch):
    # The fixture script draws its synthetic units from generate_corpus, so
    # this pins the draw stream end to end, as the script's docstring promises.
    tests_dir = Path(__file__).parent
    module_spec = importlib.util.spec_from_file_location("make_fixtures", tests_dir / "make_fixtures.py")
    make_fixtures = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(make_fixtures)
    monkeypatch.setattr(make_fixtures, "FIXTURE_DIR", tmp_path)
    make_fixtures.main()
    for name in ("scores.jsonl", "metadata.jsonl", "synth_spec.json"):
        assert (tmp_path / name).read_bytes() == (tests_dir / "fixtures" / name).read_bytes(), name


def test_planted_presence_counts_frozen():
    # expected presence ~ (10, 20, 50); exact counts pinned by the seed
    spec = SyntheticSpec(
        group_sizes=(1000, 1000, 1000),
        vocab_size=2000,
        sentences_per_doc=4,
        tokens_per_sentence=10,
        planted=[PlantedTerm(("zzfund", "zzgrant"), (0.01, 0.02, 0.05))],
        seed=20240917,
    )
    docs = generate_corpus(spec)
    counts = [0, 0, 0]
    for i, doc in enumerate(docs):
        if "zzfund zzgrant" in doc.abstract_raw.lower():
            counts[i // 1000] += 1
    assert counts == [14, 23, 63]
    for got, p in zip(counts, (0.01, 0.02, 0.05)):
        sd = math.sqrt(1000 * p * (1 - p))
        assert abs(got - 1000 * p) <= 3 * sd


def test_null_spec_has_no_effect_terms():
    null_term = PlantedTerm(("zzx",), (0.2, 0.2, 0.2))
    assert not null_term.has_effect
    assert PlantedTerm(("zzx",), (0.1, 0.2, 0.2)).has_effect


def test_background_tokens_are_synthetic_identifiers():
    vocab = background_vocabulary(30)
    assert vocab[0] == "tok00000" and vocab[29] == "tok00029"
    docs = generate_corpus(small_spec(vocab_size=30))
    for doc in docs[:10]:
        for token in doc.abstract_raw.lower().replace(".", "").split():
            assert token.startswith("tok")


def test_sentences_start_uppercase_for_splitter():
    docs = generate_corpus(small_spec())
    first = docs[0].abstract_raw
    assert first[0].isupper()
    assert first.endswith(".")
    # every sentence boundary is recoverable: ". " is always followed by uppercase
    parts = first.split(". ")
    assert all(p[0].isupper() for p in parts if p)


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        small_spec(planted=[PlantedTerm(("zz",) * 9, (0.1, 0.1, 0.1))])  # longer than a sentence
    with pytest.raises(ValueError):
        small_spec(planted=[PlantedTerm(("tok00001",), (0.1, 0.1, 0.1))])  # collides with vocab
    with pytest.raises(ValueError):
        small_spec(planted=[PlantedTerm(("zz",), (0.1, 0.1))])  # wrong prob arity
    with pytest.raises(ValueError):
        small_spec(planted=[PlantedTerm(("zz",), (0.1, 0.1, 1.5))])  # prob out of range
    with pytest.raises(ValueError):
        small_spec(planted=[PlantedTerm(("Zz!",), (0.1, 0.1, 0.1))])  # dies in tokenizer
    with pytest.raises(ValueError):
        small_spec(group_sizes=(10,))
    with pytest.raises(ValueError):
        small_spec(token_inclusion_prob=1.5)


def test_huge_vocabulary_spec_constructs_quickly():
    start = time.perf_counter()
    small_spec(vocab_size=10**8, planted=[PlantedTerm(("zza", "tok1"), (0.1, 0.2, 0.3))])
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("token, vocab_size, collides", [
    ("tok00042", 120, True),
    ("tok00042", 42, False),
    ("tok42", 10**8, False),
    ("tok000042", 10**8, False),
    ("tok100000", 100_000, False),
    ("tok100000", 100_001, True),
])
def test_planted_token_collision_matches_the_vocabulary(token, vocab_size, collides):
    def spec():
        return small_spec(vocab_size=vocab_size, planted=[PlantedTerm((token,), (0.1, 0.1, 0.1))])
    if collides:
        with pytest.raises(ValueError, match="collides with the background vocabulary"):
            spec()
    else:
        spec()
    if vocab_size <= 100_001:
        assert (token in background_vocabulary(vocab_size)) == collides


def test_spec_config_round_trip():
    spec = small_spec(planted=[PlantedTerm(("zza", "zzb"), (0.0, 0.5, 1.0))], token_inclusion_prob=0.9)
    assert SyntheticSpec.from_config(json.loads(json.dumps(dataclasses.asdict(spec)))) == spec


def test_token_inclusion_prob_thins_sentences():
    dense = generate_corpus(small_spec())
    sparse = generate_corpus(small_spec(token_inclusion_prob=0.5))
    dense_tokens = sum(len(d.abstract_raw.split()) for d in dense)
    sparse_tokens = sum(len(d.abstract_raw.split()) for d in sparse)
    assert sparse_tokens < 0.7 * dense_tokens


def test_planting_survives_thinning():
    spec = small_spec(
        token_inclusion_prob=0.2,
        planted=[PlantedTerm(("zza", "zzb", "zzc"), (1.0, 1.0, 1.0))],
    )
    docs = generate_corpus(spec)
    assert all("zza zzb zzc" in d.abstract_raw.lower() for d in docs)


# ------------------------------------------------------------ evaluate_detector

def detector_config(**kw):
    defaults = dict(n_max=3, min_doc_frequency=10, alpha=0.05, seed=0)
    defaults.update(kw)
    return AnalysisConfig(**defaults)


def test_detector_strong_effect_recalled():
    spec = small_spec(
        group_sizes=(120, 120, 120),
        planted=[PlantedTerm(("zzalpha", "zzbeta"), (0.02, 0.05, 0.6))],
        seed=31,
    )
    metrics = evaluate_detector(spec, detector_config(), n_sims=3)
    assert metrics.recall == 1.0
    assert metrics.n_sims == 3
    assert all(r == 1.0 for r in metrics.recall_per_sim)


def test_detector_zero_planted_recall_none():
    metrics = evaluate_detector(small_spec(), detector_config(), n_sims=2)
    assert metrics.recall is None
    assert metrics.recall_per_sim == [None, None]
    assert 0.0 <= metrics.fwer <= 1.0


def test_detector_nsims_validation():
    with pytest.raises(ValueError):
        evaluate_detector(small_spec(), detector_config(), n_sims=0)


def test_detector_subgrams_of_planted_are_not_false_positives():
    # the planted bigram makes its unigrams significant too; they must not count
    spec = small_spec(
        group_sizes=(150, 150, 150),
        planted=[PlantedTerm(("zzalpha", "zzbeta"), (0.01, 0.02, 0.7))],
        seed=5,
    )
    metrics = evaluate_detector(spec, detector_config(), n_sims=2)
    assert metrics.recall == 1.0
    assert metrics.fwer == 0.0


def test_detector_invariant_to_document_shuffling():
    spec = small_spec(
        group_sizes=(80, 80, 80),
        planted=[PlantedTerm(("zzalpha",), (0.05, 0.1, 0.5))],
        seed=13,
    )
    docs = clean_documents(generate_corpus(spec), [])
    cfg = detector_config()
    base = analyze_scope(plan_scope(docs, "all", cfg, min_abstract_chars=0), cfg)
    base_sig = base.significant
    shuffled = docs[:]
    random.Random(99).shuffle(shuffled)
    again = analyze_scope(plan_scope(shuffled, "all", cfg, min_abstract_chars=0), cfg)
    assert again.significant == base_sig
    assert again.report.m == base.report.m and again.report.threshold == base.report.threshold
