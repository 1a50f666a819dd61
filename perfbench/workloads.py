"""Deterministic workload inputs for the benchmark, plus an answer key.

Each workload generator takes the benchmark seed and writes, into one
directory, the files the program reads (scores, metadata, a synthetic spec,
a config file) and, beside them, ``key.json``: facts known by construction
that the output checks compare against. The program never sees the key.

Run standalone to inspect a workload's inputs:

    python3 perfbench/workloads.py --workload multiscope --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

# Why each workload exists; the same text is in BENCHMARK.json.
WHY = {
    "multiscope": "pipeline --threads 2 over 4 units in 2 panels (7 scopes): each document is "
                  "extracted once per scope, and table build dominates",
    "link-titlejournal": "link only, DOI-less records matched by title+journal against a larger "
                         "metadata file: the quadratic link and the parse dominate",
    "synth-sims": "synth: many small single-scope analyses on one thread, no cross-scope reuse, "
                  "so added per-scope or per-process overhead shows as a loss",
}

# Sizes: chosen so one CLI run takes a few seconds at the seed commit on a
# 2-core machine, which lets one benchmark run take several samples.
MULTISCOPE_UNITS = ("1", "2", "7", "8")     # panels A (1, 2) and B (7, 8)
MULTISCOPE_ARTICLES_PER_UNIT = 180
MULTISCOPE_EXTRA_METADATA = 300
SENTENCES, SHORT_SENTENCES, TOKENS_PER_SENTENCE = 8, 3, 14
MIN_ABSTRACT_CHARS = 500
# Share of a unit's articles in groups low, 3 and 4 that carry its planted term.
PLANTED_SHARE = {"low": 0.03, "3": 0.08, "4": 0.6}
GROUP_LABELS = ("low", "3", "4")

LINK_RECORDS = 6_000
LINK_METADATA = 24_000

SYNTH_SIMS = 12
VOCAB = 20_000      # background tokens for multiscope and link-titlejournal

JOURNALS = tuple(f"Journal of Applied Topic {c}" for c in "ABCDEFGHIJKLMNOP")

HEADINGS = ("Background: ", "Methods: ", "Results: ", "Conclusions: ")
TAIL_COPYRIGHT = " © 2019 Example Press Ltd. All rights reserved."
OPEN_ACCESS = "This is an open access article under the CC BY license. "


def group_of(score: int) -> str:
    return "low" if score in (1, 2) else str(score)


def panel_of(unit: str) -> str:
    return "A" if int(unit) <= 6 else "B" if int(unit) <= 12 else "C" if int(unit) <= 24 else "D"


class _Words:
    """Background tokens w00000.. and unique multi-token titles."""

    def __init__(self, rng: random.Random, vocab: int):
        self.rng = rng
        self.vocab = [f"w{i:05d}" for i in range(vocab)]
        self.title_keys: set[str] = set()

    def tokens(self, n: int) -> list[str]:
        return [self.rng.choice(self.vocab) for _ in range(n)]

    def unique_title(self, journal: str, n_tokens: int, prefix: str = "") -> str:
        while True:
            title = (prefix + " ".join(self.tokens(n_tokens))).capitalize()
            key = title.lower().replace(" ", "") + journal.lower().replace(" ", "")
            if key not in self.title_keys:
                self.title_keys.add(key)
                return title


def _sentence(tokens: list[str]) -> str:
    return " ".join(tokens).capitalize() + "."


def _multiscope_abstract(rng: random.Random, words: _Words, n_sentences: int, planted) -> str:
    sentences = [words.tokens(TOKENS_PER_SENTENCE) for _ in range(n_sentences)]
    if planted:
        target = rng.choice(sentences)
        pos = rng.randrange(TOKENS_PER_SENTENCE - len(planted) + 1)
        target[pos:pos + len(planted)] = list(planted)
    rendered = [_sentence(s) for s in sentences]
    if rng.random() < 0.2:
        # Structured abstract: heading labels the default rules delete.
        for i, label in zip(range(0, n_sentences, 2), HEADINGS):
            rendered[i] = label + rendered[i]
    text = " ".join(rendered)
    if rng.random() < 0.1:
        text = OPEN_ACCESS + text
    if rng.random() < 0.25:
        text += TAIL_COPYRIGHT
    return text


def _in_scope(scope: str, unit: str) -> bool:
    kind, _, value = scope.partition(":")
    return kind == "all" or (kind == "unit" and unit == value) \
        or (kind == "panel" and panel_of(unit) == value)


def _unit_articles(rng: random.Random, unit: str, n: int) -> list[dict]:
    """n articles of one unit with exact shares of each property, shuffled.

    Exact shares keep the amount of work the same from seed to seed.
    """
    n0 = round(0.05 * n)
    third = (n - n0) // 3
    scores = [0] * n0 + [1, 2] * (third // 2) + [1] * (third % 2) + [3] * third
    scores += [4] * (n - len(scores))
    rng.shuffle(scores)
    arts = [{"unit": unit, "score": s, "short": False, "term": None, "pattern": "single"}
            for s in scores]
    for i in rng.sample(range(n), round(0.06 * n)):
        arts[i]["short"] = True
    term = f"plant{unit}a plant{unit}b"
    for g in GROUP_LABELS:
        members = [a for a in arts if a["score"] and group_of(a["score"]) == g]
        for a in rng.sample(members, round(PLANTED_SHARE[g] * len(members))):
            a["term"] = term
    free = [a for a in arts if a["score"]]
    for pattern, share in (("triple", 0.03), ("double", 0.08), ("cross", 0.06)):
        for a in rng.sample(free, round(share * n)):
            a["pattern"] = pattern
        free = [a for a in free if a["pattern"] == "single"]
    return arts


def generate_multiscope(seed: int, out: Path) -> dict:
    """Scores and metadata for 4 units in 2 panels, with planted effects.

    Per article the generator fixes its score, whether its abstract is
    short, whether it carries its unit's planted term, and how it was
    submitted (once, twice or three times within its unit, or once more in
    another unit); a tenth of all score records carry no DOI. Copies of one
    article share its score, or form an odd group whose median is its score,
    so the score dedup keeps is known.
    """
    rng = random.Random(f"multiscope|{seed}")
    words = _Words(rng, VOCAB)
    articles = [a for u in MULTISCOPE_UNITS
                for a in _unit_articles(rng, u, MULTISCOPE_ARTICLES_PER_UNIT)]
    metadata = []
    for k, art in enumerate(articles + [None] * MULTISCOPE_EXTRA_METADATA):
        journal = rng.choice(JOURNALS)
        short = art is not None and art["short"]
        planted = art["term"].split(" ") if art and art["term"] else None
        metadata.append({
            "id": f"m-{k:05d}",
            "doi": f"10.5555/ms.{k:05d}",
            "title": words.unique_title(journal, 8),
            "journal": journal,
            "abstract": _multiscope_abstract(rng, words, SHORT_SENTENCES if short else SENTENCES,
                                             planted),
            "keywords": [" ".join(words.tokens(2)), words.tokens(1)[0]] if art else [],
        })

    submissions = []
    for k, art in enumerate(articles):
        own = (art["unit"], art["score"])
        if art["pattern"] == "triple":
            s = art["score"]
            art["copies"] = [(art["unit"], rng.randint(1, s)), own, (art["unit"], rng.randint(s, 4))]
        elif art["pattern"] == "double":
            art["copies"] = [own, own]
        elif art["pattern"] == "cross":
            other = rng.choice([u for u in MULTISCOPE_UNITS if u != art["unit"]])
            art["copies"] = [own, (other, art["score"])]
        else:
            art["copies"] = [own]
        submissions += [(k, unit, score) for unit, score in art["copies"]]
    doi_less = set(rng.sample(range(len(submissions)), round(0.1 * len(submissions))))

    scores, link, groups = [], {}, {}
    for i, (k, unit, score) in enumerate(submissions):
        meta, rid = metadata[k], f"r-{i:05d}"
        bare = i in doi_less
        scores.append({
            "id": rid,
            "doi": None if bare else meta["doi"],
            # DOI-less records still match: the key ignores case and spaces.
            "title": meta["title"].upper() if bare else meta["title"],
            "journal": meta["journal"].replace(" ", "  ") if bare else meta["journal"],
            "unit": unit, "score": score, "submitter": f"inst{rng.randrange(50)}",
        })
        link[rid] = {"kind": "title_journal" if bare else "doi", "meta": meta["id"],
                     "suspicious": False}
        groups.setdefault(k, []).append(rid)
    rng.shuffle(scores)

    scopes = [f"unit:{u}" for u in MULTISCOPE_UNITS]
    scopes += [f"panel:{p}" for p in sorted({panel_of(u) for u in MULTISCOPE_UNITS})]
    scopes.append("all")
    expect = {}
    for scope in scopes:
        sizes = dict.fromkeys(GROUP_LABELS, 0)
        terms: dict[str, int] = {}
        records = deduped = 0
        for art in articles:
            copies = sum(_in_scope(scope, u) for u, _ in art["copies"])
            records += copies
            deduped += copies > 0
            if art["score"] == 0 or art["short"] or not copies:
                continue
            sizes[group_of(art["score"])] += 1
            if art["term"]:
                terms[art["term"]] = terms.get(art["term"], 0) + 1
        expect[scope] = {
            "records": records,
            "deduped": deduped,
            "n_docs": [sizes[g] for g in GROUP_LABELS],
            "planted": {f"plant{u}a plant{u}b": {"n": terms[f"plant{u}a plant{u}b"],
                                                 "direction": "4"}
                        for u in MULTISCOPE_UNITS if _in_scope(scope, u)},
        }

    config = {"threads": 2, "n_max": 5, "min_df": 10, "min_abstract_chars": MIN_ABSTRACT_CHARS}
    _write_jsonl(out / "scores.jsonl", scores)
    _write_jsonl(out / "metadata.jsonl", metadata)
    _write_json(out / "config.json", config)
    return {
        "workload": "multiscope",
        "argv": ["pipeline", "--config", "config.json", "--scores", "scores.jsonl",
                 "--metadata", "metadata.jsonl"],
        "input_records": len(scores) + len(metadata),
        "link": link,
        "duplicate_groups": [ids for ids in groups.values() if len(ids) > 1],
        "grade0_articles": [metadata[k]["id"] for k, a in enumerate(articles) if a["score"] == 0],
        "short_articles": [metadata[k]["id"] for k, a in enumerate(articles) if a["short"]],
        "scopes": expect,
    }


def generate_link(seed: int, out: Path) -> dict:
    """DOI-less score records against a larger metadata file.

    Record kinds: a title+journal match written with other case and spacing;
    a short generic title (matched, flagged suspicious); a key shared by two
    metadata records (a collision, left unmatched); a title absent from the
    metadata (unmatched).
    """
    rng = random.Random(f"link|{seed}")
    words = _Words(rng, VOCAB)
    metadata, scores, link = [], [], {}

    def add_meta(title: str, journal: str) -> str:
        mid = f"m-{len(metadata):05d}"
        metadata.append({"id": mid, "doi": f"10.7777/lk.{len(metadata):05d}", "title": title,
                         "journal": journal, "abstract": _sentence(words.tokens(12)),
                         "keywords": []})
        return mid

    kinds = [("short", 0.05), ("collision", 0.04), ("unmatched", 0.05)]
    kinds = [k for k, share in kinds for _ in range(round(share * LINK_RECORDS))]
    kinds += ["match"] * (LINK_RECORDS - len(kinds))
    rng.shuffle(kinds)
    for i, kind in enumerate(kinds):
        rid = f"r-{i:05d}"
        journal = rng.choice(JOURNALS)
        if kind == "short":
            prefix = rng.choice(("Reply ", "Erratum ", "Comment "))
            title = words.unique_title(journal, 1, prefix)
            mid = add_meta(title, journal)
        elif kind == "collision":
            title = words.unique_title(journal, 7)
            add_meta(title, journal)
            add_meta(title, journal)
            mid = ""
        elif kind == "unmatched":
            title, mid = words.unique_title(journal, 7), ""
        else:
            title = words.unique_title(journal, 7)
            mid = add_meta(title, journal)
        scores.append({
            "id": rid, "doi": None,
            "title": title.upper() if rng.random() < 0.5 else "  ".join(title.split(" ")),
            "journal": journal, "unit": str(rng.randint(1, 34)),
            "score": rng.randint(1, 4), "submitter": f"inst{rng.randrange(50)}",
        })
        link[rid] = {"kind": "title_journal" if mid else "none", "meta": mid,
                     "suspicious": kind == "short"}
    while len(metadata) < LINK_METADATA:
        journal = rng.choice(JOURNALS)
        add_meta(words.unique_title(journal, 7), journal)
    rng.shuffle(scores)
    rng.shuffle(metadata)
    _write_jsonl(out / "scores.jsonl", scores)
    _write_jsonl(out / "metadata.jsonl", metadata)
    _write_json(out / "config.json", {})
    return {
        "workload": "link-titlejournal",
        "argv": ["link", "--config", "config.json", "--scores", "scores.jsonl",
                 "--metadata", "metadata.jsonl"],
        "input_records": len(scores) + len(metadata),
        "link": link,
        "collisions": kinds.count("collision"),
    }


def generate_synth(seed: int, out: Path) -> dict:
    """Acceptance-05 shaped spec with one strongly planted effect term."""
    spec = {
        "group_sizes": [200, 200, 200],
        "vocab_size": 400,
        "sentences_per_doc": 4,
        "tokens_per_sentence": 12,
        "planted": [{"tokens": ["plantsyna", "plantsynb"], "probs": [0.1, 0.1, 0.9]}],
        "seed": seed,
    }
    _write_json(out / "spec.json", spec)
    _write_json(out / "config.json", {"n_max": 3})
    return {
        "workload": "synth-sims",
        "argv": ["synth", "--config", "config.json", "--spec", "spec.json",
                 "--sims", str(SYNTH_SIMS)],
        "n_sims": SYNTH_SIMS,
        "docs_per_sim": sum(spec["group_sizes"]),
        # Presence 0.9 against 0.1 in 200-document groups is found in every
        # simulation, so recall is exactly 1.
        "recall": 1.0,
    }


GENERATORS = {
    "multiscope": generate_multiscope,
    "link-titlejournal": generate_link,
    "synth-sims": generate_synth,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs and key.json into `out`; return the key."""
    out.mkdir(parents=True, exist_ok=True)
    key = GENERATORS[workload](seed, out)
    key["seed"] = seed
    _write_json(out / "key.json", key)
    return key


def _write_jsonl(path: Path, records: list[dict]):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
