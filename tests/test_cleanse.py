import json
import random
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from termassoc.cleanse import CleaningRule, clean_abstract, default_rules, load_rules

FIXTURE_ABSTRACTS = [
    "Background: Little is known about X. Methods: We surveyed 1,200 adults. "
    "Results: X rose by 40%. Conclusions: X matters. © 2019 Elsevier Ltd. All rights reserved.",
    "We measured the effect of Y on Z over two years. The effect was small but consistent. "
    "This is an open access article distributed under the terms of the CC-BY licence.",
    "Objective: To assess Q. Findings: Q is rare. Funding: This project was funded by the NIHR.",
    "Plain abstract with no boilerplate whatsoever. It has two sentences.",
    "Copyright © 2021 The Authors. Published by Elsevier B.V.",
    "   Extra   whitespace \t and\nnewlines   everywhere.  ",
    "",
]


def test_copyright_suffix_removed():
    cleaned = clean_abstract("Main results. © 2019 Elsevier Ltd. All rights reserved.", default_rules())
    assert cleaned == "Main results."


def test_heading_labels_removed_bodies_kept():
    cleaned = clean_abstract("Background: A is B. Methods: We did C.", default_rules())
    assert cleaned == "A is B. We did C."


def test_funding_label_removed_funding_body_kept():
    # the declaration text itself must survive so its phrases remain detectable
    cleaned = clean_abstract("Funding: This project was funded by the NIHR.", default_rules())
    assert cleaned == "This project was funded by the NIHR."
    assert "funded by" in cleaned


def test_no_matching_rule_is_identity_modulo_whitespace():
    text = "Nothing here matches  any rule."
    assert clean_abstract(text, default_rules()) == "Nothing here matches any rule."


def test_clean_text_is_returned_as_is():
    # A document whose abstract needs no cleaning keeps one string, not two equal ones.
    rules = default_rules()
    for text in ("Nothing here matches any rule.", "", "One. Two! Three?"):
        assert clean_abstract(text, rules) is text
        assert clean_abstract(text, []) is text
    # Text a rule or the whitespace collapse changes is a new string.
    assert clean_abstract("Two  spaces.", rules) == "Two spaces."
    assert clean_abstract("Background: Body.", rules) == "Body."


def test_open_access_statement_removed():
    text = "Real content. This is an open access article under the CC BY license. More content."
    cleaned = clean_abstract(text, default_rules())
    assert "open access" not in cleaned
    assert cleaned.startswith("Real content.") and cleaned.endswith("More content.")


def test_cleaning_never_increases_length():
    rules = default_rules()
    rng = random.Random(1)
    pieces = FIXTURE_ABSTRACTS + ["word " * n for n in range(0, 40, 7)]
    for _ in range(200):
        text = " ".join(rng.choice(pieces) for _ in range(rng.randint(1, 4)))
        assert len(clean_abstract(text, rules)) <= len(text)


# Free text mixed with fragments that trigger every default rule.
BOILERPLATE = st.sampled_from([
    "©", " Copyright © 2020 ", "Crown Copyright", "All rights reserved.", "Background:", " Methods : ",
    "This is an open access article", "This article is licensed under CC-BY.", ". ", "\n", "\t  ",
])


@given(st.lists(st.one_of(st.text(), BOILERPLATE)).map("".join))
def test_cleaning_never_lengthens_random_text(text):
    assert len(clean_abstract(text, default_rules())) <= len(text)


# The two default rules as spelled before they were made to start with a
# literal (see README, "Cleaning rules"): the oracle for the respelled ones.
OLD_SPELLINGS = {
    1: r"(?:Crown )?Copyright\s*(?:©|\(c\))?\s*(?:\d{4}|The Authors?).*",
    6: r"\b(?:Background|Objectives?|Aims?|Purpose|Design|Setting|Materials and [Mm]ethods|Methods?|Results?|"
       r"Findings|Conclusions?|Interpretation|Discussion|Limitations|Funding|Trial registration)\s*:\s*",
}
LABELS = ["Background", "Objective", "Objectives", "Aim", "Aims", "Purpose", "Design", "Setting",
          "Materials and methods", "Materials and Methods", "Method", "Methods", "Result", "Results",
          "Findings", "Conclusion", "Conclusions", "Interpretation", "Discussion", "Limitations",
          "Funding", "Trial registration"]
# Each piece is a word the two rules look for, with what may precede and
# follow it, so that labels meet colons and word characters often enough.
RULE_PIECES = st.tuples(
    st.sampled_from(["", " ", "\n", "_", "é", "7", "Sub"]),
    st.one_of(st.sampled_from(LABELS), st.sampled_from(["Crown", "Copyright", "©", "(c)", "2021", "The Authors"])),
    st.sampled_from(["", " ", "\n", ":", " : "]),
).map("".join)
NEW_RULES = default_rules()
OLD_RULES = [CleaningRule(r.kind, OLD_SPELLINGS.get(i, r.pattern), r.enabled) for i, r in enumerate(NEW_RULES)]


def test_old_spellings_are_of_the_respelled_rules():
    for i, old in OLD_SPELLINGS.items():
        assert NEW_RULES[i].kind == OLD_RULES[i].kind and NEW_RULES[i].pattern != old


@settings(max_examples=500)
@given(st.lists(RULE_PIECES, max_size=16).map("".join))
@example("Results: x. Crown Copyright © 2021 y")
@example("SubMethods: x. é Crown Copyright The Authors")
def test_respelled_rules_remove_what_the_old_spellings_did(text):
    for new, old in zip(NEW_RULES, OLD_RULES):
        assert new.apply(text) == old.apply(text)
    assert clean_abstract(text, NEW_RULES) == clean_abstract(text, OLD_RULES)


def test_cleaning_idempotent_on_fixture_corpus():
    rules = default_rules()
    for text in FIXTURE_ABSTRACTS:
        once = clean_abstract(text, rules)
        assert clean_abstract(once, rules) == once


def test_all_rules_disabled_equals_whitespace_normalization():
    rules = [CleaningRule(r.kind, r.pattern, enabled=False) for r in default_rules()]
    for text in FIXTURE_ABSTRACTS:
        assert clean_abstract(text, rules) == " ".join(text.split())


# Every whitespace code point; U+3000 is the last.
WHITESPACE = st.sampled_from([chr(c) for c in range(0x3001) if chr(c).isspace()])


@given(st.lists(st.one_of(st.text(max_size=4), WHITESPACE)).map("".join))
def test_no_rules_equals_regex_whitespace_collapse(text):
    assert clean_abstract(text, []) == re.sub(r"\s+", " ", text).strip()


def test_rules_apply_in_declared_order():
    # first rule exposes the suffix the second one strips
    rules = [
        CleaningRule("pattern_delete", r"NOISE"),
        CleaningRule("suffix_strip", r"tail\s+marker"),
    ]
    # deleting NOISE first exposes the tail for the suffix rule
    assert clean_abstract("keep this tailNOISE marker", rules) == "keep this"
    assert clean_abstract("keep this tailNOISE marker", list(reversed(rules))) == "keep this tail marker"


def test_prefix_strip():
    rules = [CleaningRule("prefix_strip", r"PRESS RELEASE:?\s*")]
    assert clean_abstract("PRESS RELEASE: the study found X.", rules) == "the study found X."
    assert clean_abstract("No prefix here PRESS RELEASE", rules) == "No prefix here PRESS RELEASE"


def test_heading_strip_removes_whole_section():
    rules = [CleaningRule("heading_strip", r"Funding|Competing interests")]
    text = "Results were good. Funding: Agency X grant 1. Competing interests: none."
    assert clean_abstract(text, rules) == "Results were good."


def test_invalid_pattern_fails_at_load_time():
    with pytest.raises(ValueError, match=r"^invalid pattern '\(unclosed'"):
        CleaningRule("pattern_delete", r"(unclosed")
    with pytest.raises(ValueError, match=r"^pattern 'a\*' matches the empty string"):
        CleaningRule("pattern_delete", r"a*")
    with pytest.raises(ValueError, match="^unknown rule kind 'delete_all'"):
        CleaningRule("delete_all", r"x")


@pytest.mark.parametrize("kind", ["prefix_strip", "pattern_delete"])
def test_global_flag_loads_where_the_pattern_runs_unwrapped(kind):
    rule = CleaningRule(kind, r"(?i)copyright")
    assert clean_abstract("COPYRIGHT body", [rule]) == "body"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="Python 3.10 accepts a global flag off the start of a regex")
@pytest.mark.parametrize("kind", ["suffix_strip", "heading_strip"])
def test_global_flag_fails_at_load_time_where_the_pattern_is_wrapped(kind):
    # These kinds wrap the pattern, which moves (?i) off the start of the regex that runs.
    with pytest.raises(ValueError, match="^invalid pattern"):
        CleaningRule(kind, r"(?i)copyright")


def test_scoped_flag_loads_for_a_wrapping_kind():
    rule = CleaningRule("suffix_strip", r"(?i:copyright).*")
    assert clean_abstract("Body text. COPYRIGHT 2020 x", [rule]) == "Body text."


def test_load_rules_from_file(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text('[{"kind": "pattern_delete", "pattern": "zap", "enabled": true}]')
    rules = load_rules(path)
    assert len(rules) == 1
    assert clean_abstract("a zap b", rules) == "a b"


def test_load_rules_rejects_bad_shapes(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text('{"kind": "pattern_delete"}')
    with pytest.raises(ValueError, match=f"^rule file {path} must contain a JSON list"):
        load_rules(path)
    path.write_text('[{"pattern": "x"}]')
    with pytest.raises(ValueError, match=re.escape(f"rule file {path}: rule 1 is missing required key(s): ['kind']")):
        load_rules(path)
    for entry in ({"kind": "pattern_delete", "pattern": 5},
                  {"kind": "pattern_delete", "pattern": "zap", "enabled": "false"},
                  {"kind": "pattern_delete", "pattern": "zap", "enabled": 0},
                  {"kind": "pattern_delete", "pattern": "zap", "enable": False}):
        path.write_text(json.dumps([entry]))
        with pytest.raises(ValueError, match="^" + re.escape(f"rule file {path}: rule 1 ")):
            load_rules(path)
