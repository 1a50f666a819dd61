"""Synthetic labeled corpora with planted term effects.

Ground truth for validating the detector: background sentences are uniform
draws from an artificial vocabulary (tok00000-style identifiers, never real
words), and each planted term is spliced contiguously into one sentence with
a per-group presence probability. Presence, not frequency, is planted,
because the statistic counts documents. Everything is deterministic for a
fixed seed.

`generate_corpus` draws tokens at C level from one lazy iterator per corpus
that keeps each `getrandbits(k)` below n, for n words of bit length k. That
is the loop `rng.choice(vocab)` runs, call for call and only when a token is
pulled, so the `random()` and `randrange` calls between draws see the same
stream and a seed gives the same corpus as with `choice`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import islice, repeat
from typing import Optional

from .cleanse import default_rules
from .corpus import Document, GroupScheme, check_json, default_group_scheme, derive_seed
from .pipeline import analyze_scope, clean_documents
from .stats import AnalysisConfig
from .textproc import tokenize

_TITLE_TOKENS = 3
_KEYWORD_COUNT = 2


@dataclass
class PlantedTerm:
    tokens: tuple[str, ...]
    probs: tuple[float, ...]    # per-group presence probability

    def __post_init__(self):
        self.tokens = tuple(self.tokens)
        self.probs = tuple(self.probs)

    @property
    def rendered(self) -> str:
        return " ".join(self.tokens)

    @property
    def has_effect(self) -> bool:
        return len(set(self.probs)) > 1


@dataclass
class SyntheticSpec:
    """Generative description of a labeled corpus with planted effects."""

    group_sizes: tuple[int, ...]
    vocab_size: int
    sentences_per_doc: int
    tokens_per_sentence: int
    planted: list[PlantedTerm] = field(default_factory=list)
    token_inclusion_prob: float = 1.0   # per-slot chance a background token is kept
    seed: int = 0

    def __post_init__(self):
        self.group_sizes = tuple(self.group_sizes)
        if any(n < 1 for n in self.group_sizes) or len(self.group_sizes) < 2:
            raise ValueError("need at least 2 groups with positive sizes")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be positive")
        if self.sentences_per_doc < 1 or self.tokens_per_sentence < 1:
            raise ValueError("sentence shape must be positive")
        if not 0.0 <= self.token_inclusion_prob <= 1.0:
            raise ValueError("token_inclusion_prob must be in [0, 1]")
        for term in self.planted:
            if len(term.probs) != len(self.group_sizes):
                raise ValueError(f"term {term.rendered!r}: need one probability per group")
            if any(not 0.0 <= p <= 1.0 for p in term.probs):
                raise ValueError(f"term {term.rendered!r}: probabilities must be in [0, 1]")
            if len(term.tokens) > self.tokens_per_sentence:
                raise ValueError(
                    f"term {term.rendered!r} is longer than a sentence ({self.tokens_per_sentence} tokens)"
                )
            if any(_in_vocabulary(token, self.vocab_size) for token in term.tokens):
                raise ValueError(f"term {term.rendered!r} collides with the background vocabulary")
            if tuple(tokenize(term.rendered)) != term.tokens:
                raise ValueError(f"term {term.rendered!r} does not survive tokenization")

    @classmethod
    def from_config(cls, obj) -> "SyntheticSpec":
        """Build a spec from its JSON object, the shape dataclasses.asdict gives."""
        check_json(obj, cls, "synthetic spec")
        planted = [PlantedTerm(**check_json(term, PlantedTerm, f"synthetic spec planted term {i}"))
                   for i, term in enumerate(obj.get("planted", []), start=1)]
        return cls(**{**obj, "planted": planted})


def background_vocabulary(size: int) -> list[str]:
    return [f"tok{i:05d}" for i in range(size)]


def _in_vocabulary(token: str, size: int) -> bool:
    """Whether token is in background_vocabulary(size), decided without building it."""
    digits = token[3:]
    # A word tok{i:05d} has max(5, len(str(i))) digits; the length test keeps
    # int() off absurdly long digit runs.
    return (token.startswith("tok") and digits.isascii() and digits.isdigit()
            and len(digits) <= max(5, len(str(size)))
            and f"{int(digits):05d}" == digits and int(digits) < size)


def _capitalize(sentence: str) -> str:
    return sentence[0].upper() + sentence[1:] if sentence else sentence


def generate_corpus(spec: SyntheticSpec, scheme: Optional[GroupScheme] = None) -> list[Document]:
    """Generate the corpus described by the spec; byte-identical per seed.

    Documents carry raw scores cycled from each group's score set so the
    analysis scheme reconstructs exactly the intended groups. Every sentence
    starts uppercased, keeping the generator's sentence boundaries visible to
    the splitter.
    """
    scheme = scheme or default_group_scheme()
    if len(scheme.groups) != len(spec.group_sizes):
        raise ValueError("group_sizes must align with the group scheme")
    rng = random.Random(spec.seed)
    vocab = background_vocabulary(spec.vocab_size)
    n = len(vocab)
    draws = map(vocab.__getitem__, filter(n.__gt__, map(rng.getrandbits, repeat(n.bit_length()))))
    p_keep = spec.token_inclusion_prob
    docs = []
    doc_index = 0
    for g, size in enumerate(spec.group_sizes):
        scores = sorted(scheme.groups[g][1])
        for j in range(size):
            sentences: list[list[str]] = []
            for _ in range(spec.sentences_per_doc):
                if p_keep >= 1.0:
                    sentences.append(list(islice(draws, spec.tokens_per_sentence)))
                else:
                    sentences.append([next(draws) for _ in range(spec.tokens_per_sentence) if rng.random() < p_keep])
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
            title = " ".join(islice(draws, _TITLE_TOKENS))
            keywords = list(islice(draws, _KEYWORD_COUNT))
            abstract = ". ".join(map(_capitalize, map(" ".join, filter(None, sentences)))) + "."
            ident = f"syn-{doc_index:05d}"
            docs.append(
                Document(
                    id=ident,
                    doi=f"10.9999/{ident}",
                    title=_capitalize(title),
                    journal="Journal of Synthetic Results",
                    abstract_raw=abstract,
                    keywords=keywords,
                    unit="1",
                    score=scores[j % len(scores)],
                    submitter="synthlab",
                )
            )
            doc_index += 1
    return docs


@dataclass
class DetectorMetrics:
    n_sims: int
    recall: Optional[float]         # None when the spec plants no effect terms
    fwer: float
    recall_per_sim: list[Optional[float]]
    false_positive_sims: int
    mean_m: float
    mean_threshold: Optional[float]


def evaluate_detector(
    spec: SyntheticSpec,
    config: AnalysisConfig,
    n_sims: int,
    rules=None,
    min_abstract_chars: int = 0,
) -> DetectorMetrics:
    """Run the full pipeline over n_sims fresh corpora and score the detector.

    recall: fraction of planted effect terms flagged significant. fwer:
    fraction of simulations with at least one significant term made purely of
    background tokens (sub-phrases of a planted term share its tokens and are
    genuine detections, not false positives). Each simulation derives its own
    sub-seed from (spec seed, simulation index).

    Synthetic corpora control their own document shape, so the abstract length
    filter defaults to 0 here.
    """
    if n_sims < 1:
        raise ValueError(f"n_sims must be >= 1, got {n_sims}")
    if rules is None:
        rules = default_rules()
    effect_terms = [t.rendered for t in spec.planted if t.has_effect]
    planted_tokens = {tok for t in spec.planted for tok in t.tokens}

    recall_per_sim: list[Optional[float]] = []
    fp_sims = 0
    m_values = []
    thresholds = []
    for sim in range(n_sims):
        sim_spec = replace(spec, seed=derive_seed(spec.seed, sim))
        corpus = clean_documents(generate_corpus(sim_spec, config.group_scheme), rules)
        outcome = analyze_scope(corpus, "all", config, min_abstract_chars)
        if outcome.skipped:
            raise RuntimeError(f"simulation {sim} produced a degenerate corpus: {outcome.skipped}")
        m_values.append(outcome.report.m)
        if outcome.report.threshold is not None:
            thresholds.append(outcome.report.threshold)
        hits = sum(t in outcome.significant for t in effect_terms)
        recall_per_sim.append(hits / len(effect_terms) if effect_terms else None)
        fp_sims += any(all(tok not in planted_tokens for tok in term.split(" ")) for term in outcome.significant)

    observed = [r for r in recall_per_sim if r is not None]
    return DetectorMetrics(
        n_sims=n_sims,
        recall=sum(observed) / len(observed) if observed else None,
        fwer=fp_sims / n_sims,
        recall_per_sim=recall_per_sim,
        false_positive_sims=fp_sims,
        mean_m=sum(m_values) / len(m_values),
        mean_threshold=sum(thresholds) / len(thresholds) if thresholds else None,
    )
