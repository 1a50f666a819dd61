"""Write the bundled fixture corpus (scores.jsonl / metadata.jsonl).

Deterministic by construction; rerunning reproduces the committed files
byte for byte. The corpus mixes two synthetic units with planted effects
plus handcrafted records exercising every linkage, dedup and filter edge:
duplicate submissions (odd, tied-even and equal-even score sets), a
cross-unit duplicate, a score-0 article, a short abstract, a generic
"Comment" title, duplicate metadata DOIs, a title+journal collision, an
unmatched record and an unclassified (no-unit) record.

Usage: python tests/make_fixtures.py
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

from termassoc.synth import PlantedTerm, SyntheticSpec, generate_corpus

FIXTURE_DIR = Path(__file__).parent / "fixtures"

BOILER_COPYRIGHT = " © 2019 Synthetic Press Ltd. All rights reserved."
BOILER_OA = " This is an open access article distributed under the CC BY licence."

_WORDS = (
    "alder birch cedar dogwood elm fir ginkgo hazel ironwood juniper katsura "
    "larch maple nutmeg oak poplar quince rowan spruce tupelo umbrella vine "
    "willow xylem yew zelkova acacia banyan cypress durian eucalyptus"
).split()


def prose_abstract(rng: random.Random, sentences: int = 8) -> str:
    parts = []
    for _ in range(sentences):
        words = [rng.choice(_WORDS) for _ in range(rng.randint(9, 12))]
        parts.append(" ".join(words).capitalize())
    return ". ".join(parts) + "."


def synth_unit(unit: str, sizes, planted, seed: int, prefix: str):
    spec = SyntheticSpec(
        group_sizes=sizes,
        vocab_size=150,
        sentences_per_doc=6,
        tokens_per_sentence=10,
        planted=planted,
        seed=seed,
    )
    docs = []
    for doc in generate_corpus(spec):
        new_id = f"{prefix}-{doc.id}"
        docs.append(
            dataclasses.replace(doc, id=new_id, doi=f"10.9999/{new_id}", unit=unit, panel="")
        )
    return docs


def score_record(doc):
    return {
        "id": doc.id,
        "doi": doc.doi,
        "title": doc.title,
        "journal": doc.journal,
        "unit": doc.unit,
        "panel": doc.panel,
        "score": doc.score,
        "submitter": doc.submitter,
    }


def metadata_record(meta_id, doc, abstract=None):
    return {
        "id": meta_id,
        "doi": doc.doi,
        "title": doc.title,
        "journal": doc.journal,
        "abstract": doc.abstract_raw if abstract is None else abstract,
        "keywords": doc.keywords,
    }


def main():
    FIXTURE_DIR.mkdir(exist_ok=True)
    rng = random.Random(424242)

    unit3 = synth_unit(
        "3", (40, 40, 40),
        [PlantedTerm(("zzalpha", "zzbeta"), (0.02, 0.05, 0.5))],
        seed=301, prefix="u3",
    )
    unit16 = synth_unit("16", (30, 30, 30), [], seed=1602, prefix="u16")

    scores = []
    metadata = []
    for i, doc in enumerate(unit3 + unit16):
        scores.append(score_record(doc))
        abstract = doc.abstract_raw
        if i % 5 == 0:
            abstract += BOILER_COPYRIGHT
        if i % 7 == 0:
            abstract = "Background: " + abstract + BOILER_OA
        metadata.append(metadata_record("m-" + doc.id, doc, abstract))

    def special(rec_id, unit, score, doi=None, title=None, journal="Journal of Edge Cases",
                abstract=None, own_metadata=True):
        title = title if title is not None else f"Handmade Fixture Study Number {rec_id}"
        abstract = abstract if abstract is not None else prose_abstract(rng)
        scores.append({
            "id": rec_id, "doi": doi, "title": title, "journal": journal,
            "unit": unit, "panel": "", "score": score, "submitter": "fixtures",
        })
        if own_metadata:
            metadata.append({
                "id": "m-" + rec_id, "doi": doi, "title": title, "journal": journal,
                "abstract": abstract, "keywords": ["fixture"],
            })

    # duplicate submissions inside unit 3 (shared DOI => one metadata record)
    shared = prose_abstract(rng)
    special("s-tie-a", "3", 3, doi="10.7777/tie", abstract=shared)
    special("s-tie-b", "3", 4, doi="10.7777/tie", own_metadata=False)
    shared = prose_abstract(rng)
    special("s-odd-a", "3", 2, doi="10.7777/odd", abstract=shared)
    special("s-odd-b", "3", 3, doi="10.7777/odd", own_metadata=False)
    special("s-odd-c", "3", 4, doi="10.7777/odd", own_metadata=False)
    shared = prose_abstract(rng)
    special("s-eq-a", "3", 4, doi="10.7777/eq", abstract=shared)
    special("s-eq-b", "3", 4, doi="10.7777/eq", own_metadata=False)

    # same article submitted to two units (merges only in the all scope)
    shared = prose_abstract(rng)
    special("s-cross-a", "3", 4, doi="10.7777/cross", abstract=shared)
    special("s-cross-b", "16", 2, doi="10.7777/cross", own_metadata=False)

    # filter fodder
    special("s-zero", "3", 0, doi="10.7777/zero")
    special("s-short", "3", 3, doi="10.7777/short", abstract="Too short to keep. " * 10)

    # linkage edges in unit 2 (panel A); deliberately missing the 4* group
    special("s-comment", "2", 2, title="Comment", journal="The Synthetic Journal")
    special("s-title", "2", 3, title="A Longer Unambiguous Title About Interesting Things")
    special("s-unmatched", "2", 3, title="Absent From All Metadata", own_metadata=False)

    # duplicate DOI inside metadata: record must match m-dupdoi-1 (sorted first)
    special("s-dupdoi", "3", 3, doi="10.7777/dupdoi", own_metadata=False)
    dup_doc_abstract = prose_abstract(rng)
    metadata.append({
        "id": "m-dupdoi-2", "doi": "10.7777/dupdoi", "title": "Duplicated Metadata Entry",
        "journal": "Journal of Edge Cases", "abstract": dup_doc_abstract, "keywords": [],
    })
    metadata.append({
        "id": "m-dupdoi-1", "doi": "10.7777/dupdoi", "title": "Duplicated Metadata Entry",
        "journal": "Journal of Edge Cases", "abstract": dup_doc_abstract, "keywords": [],
    })

    # title+journal collision in metadata: no match for s-collide
    special("s-collide", "3", 3, title="Colliding Title Example Here", own_metadata=False)
    for suffix, spacing in (("a", "Colliding Title Example Here"), ("b", "Colliding  Title  Example Here")):
        metadata.append({
            "id": f"m-collide-{suffix}", "doi": None, "title": spacing,
            "journal": "Journal of Edge Cases", "abstract": prose_abstract(rng), "keywords": [],
        })

    # classified nowhere: dropped by the missing-unit pre-filter
    special("s-nounit", "", 3, doi="10.7777/nounit")

    with open(FIXTURE_DIR / "scores.jsonl", "w", encoding="utf-8") as fh:
        for rec in scores:
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")
    with open(FIXTURE_DIR / "metadata.jsonl", "w", encoding="utf-8") as fh:
        for rec in metadata:
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")

    spec = SyntheticSpec(
        group_sizes=(60, 60, 60),
        vocab_size=100,
        sentences_per_doc=3,
        tokens_per_sentence=8,
        planted=[PlantedTerm(("zzalpha", "zzbeta"), (0.02, 0.05, 0.5))],
        seed=3,
    )
    with open(FIXTURE_DIR / "synth_spec.json", "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"wrote {len(scores)} score records, {len(metadata)} metadata records")


if __name__ == "__main__":
    main()
