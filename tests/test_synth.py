import dataclasses
import json
import math
import random
import time

import pytest

from termassoc.corpus import default_group_scheme
from termassoc.pipeline import analyze_scope, clean_documents
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
    base = analyze_scope(docs, "all", cfg, min_abstract_chars=0)
    base_sig = {r.term for r in base.results if r.significant}
    shuffled = docs[:]
    random.Random(99).shuffle(shuffled)
    again = analyze_scope(shuffled, "all", cfg, min_abstract_chars=0)
    assert {r.term for r in again.results if r.significant} == base_sig
    assert again.m == base.m and again.threshold == base.threshold
