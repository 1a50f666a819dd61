"""Any JSON value in any field of any input ends in exit 0 or 1, never an exception.

Each example takes a small valid input set, replaces one node of one input
(an object, a list, a field or an element, at any depth) with an arbitrary
JSON value, or half the time with a value of that node's own JSON type, and
runs the matching command through `cli.main` in-process. For a rule file or
a synthetic spec, an exit 1 must also name the input: its `error:` line
holds the file's path or a line number, so a fault that `cli.main`
turns into `error: …` does not pass as a diagnostic. A config value such as
n_max can also come from a flag, so the config keeps only the exit check.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from termassoc.cli import main

SCORES = [
    {"id": "r1", "doi": "10.1/a", "title": "Alpha study", "journal": "J", "unit": "3", "score": 4,
     "submitter": "s1"},
    {"id": "r2", "doi": "10.1/b", "title": "Beta study", "journal": "J", "unit": "3", "panel": "A", "score": 1},
    {"id": "r3", "title": "Gamma study", "journal": "J", "unit": "7", "score": 3},
]
METADATA = [
    {"id": "m1", "doi": "10.1/a", "title": "Alpha study", "journal": "J",
     "abstract": "Alpha rises. Beta falls. © 2020 Press.", "keywords": ["alpha"]},
    {"id": "m2", "doi": "10.1/b", "title": "Beta study", "journal": "J", "abstract": "Beta falls. Alpha rises."},
    {"id": "m3", "title": "Gamma study", "journal": "J", "abstract": "Gamma stays.", "keywords": []},
]
CORPUS = [
    {"id": "r1", "doi": "10.1/a", "title": "Alpha study", "journal": "J", "abstract": "Alpha rises. Beta falls.",
     "keywords": ["alpha"], "unit": "3", "panel": "A", "score": 4, "submitter": "s1"},
    {"id": "r2", "doi": "10.1/b", "title": "Beta study", "journal": "J", "abstract": "Beta falls. Alpha rises.",
     "abstract_clean": "Beta falls.", "keywords": [], "unit": "3", "score": 1},
    {"id": "r3", "title": "Gamma study", "journal": "J", "abstract": "Gamma stays.", "unit": "3", "score": 3},
]
RULES = [{"kind": "suffix_strip", "pattern": "©.*", "enabled": True},
         {"kind": "pattern_delete", "pattern": "falls", "enabled": False}]
CONFIG = {"seed": 1, "alpha": 0.05, "n_max": 2, "min_df": 1, "top_k": 5, "min_abstract_chars": 0,
          "scopes": ["units", "panels", "all", "unit:3"], "threads": 1, "drop_missing_unit": True,
          "groups": [["low", [1, 2]], ["3", [3]], ["4", [4]]]}
SPEC = {"group_sizes": [3, 3, 3], "vocab_size": 20, "sentences_per_doc": 2, "tokens_per_sentence": 4,
        "planted": [{"tokens": ["zzalpha", "zzbeta"], "probs": [0.1, 0.2, 0.9]}],
        "token_inclusion_prob": 1.0, "seed": 3}

# Each input, as a file name and its valid content; JSON-lines inputs are lists of records.
INPUTS = {"scores": ("scores.jsonl", SCORES), "metadata": ("metadata.jsonl", METADATA),
          "corpus": ("corpus.jsonl", CORPUS),
          "rules": ("rules.json", RULES), "config": ("config.json", CONFIG),
          "spec": ("spec.json", SPEC)}

# The inputs whose every exit-1 diagnostic must name the file or a line.
NAMED = ("rules", "spec")

# Strings draw from every code point, lone surrogates (category Cs) often:
# json.dumps writes one as an escape such as \ud800, which every input must reject.
texts = st.text(st.characters(exclude_categories=()) | st.characters(categories=("Cs",)), max_size=6)

# Integers stay small: a well-typed but huge size (say, a billion documents)
# is a legitimate request that takes that long, not malformed input.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False, allow_infinity=False)
    | texts,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(texts, children, max_size=4),
    max_leaves=8,
)


def _same_kind(node):
    """Values of the node's own JSON type, to reach the checks behind the type check."""
    for kind, strategy in ((bool, st.booleans()), (int, st.integers(-3, 40)), (float, st.floats(-1, 2)),
                           (str, texts), (list, st.lists(json_values, max_size=4)),
                           (dict, st.dictionaries(texts, json_values, max_size=4))):
        if isinstance(node, kind):
            return strategy
    return st.none()


def _paths(node, prefix=()):
    """Every location in a JSON document, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replace(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replace(node[path[0]], path[1:], value)
    return copy


def _write(path: Path, content):
    if path.suffix == ".jsonl" and isinstance(content, list):
        path.write_text("".join(json.dumps(rec) + "\n" for rec in content))
    else:
        path.write_text(json.dumps(content))


def _argv(target: str, d: Path) -> list[str]:
    if target == "rules":
        return ["clean", "--in", str(d / "metadata.jsonl"), "--rules", str(d / "rules.json")]
    if target == "spec":
        return ["synth", "--spec", str(d / "spec.json"), "--sims", "1", "--min-df", "1"]
    if target == "corpus":
        return ["analyze", "--in", str(d / "corpus.jsonl"), "--config", str(d / "config.json")]
    # The config names the rules and inputs, so its path fields are fuzzed too.
    return ["pipeline", "--config", str(d / "config.json")]


@pytest.mark.parametrize("target", sorted(INPUTS))
@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_json_value_anywhere_exits_0_or_1(target, data):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        inputs = {key: content for key, (_, content) in INPUTS.items()}
        inputs["config"] = {**CONFIG, "scores": str(d / "scores.jsonl"), "metadata": str(d / "metadata.jsonl"),
                            "rules": str(d / "rules.json")}
        path = data.draw(st.sampled_from(list(_paths(inputs[target]))), label="path")
        node = inputs[target]
        for key in path:
            node = node[key]
        value = data.draw(json_values | _same_kind(node), label="value")
        inputs[target] = _replace(inputs[target], path, value)
        for key, content in inputs.items():
            _write(d / INPUTS[key][0], content)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = main(_argv(target, d) + ["--out", str(d / "out")])
        assert rc in (0, 1)
        if rc == 1 and target in NAMED:
            (error,) = [line for line in stderr.getvalue().splitlines() if line.startswith("error: ")]
            assert str(d / INPUTS[target][0]) in error or re.search(r"\bline \d+", error), error
