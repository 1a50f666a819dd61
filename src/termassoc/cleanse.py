"""Strip journal boilerplate from abstracts with an ordered, editable rule set.

Four rule kinds exist:

* ``prefix_strip``   - delete a match anchored at the start of the text
* ``suffix_strip``   - delete a match that runs to the end of the text
* ``pattern_delete`` - delete every match anywhere in the text
* ``heading_strip``  - delete whole sections: the pattern is a heading-label
  alternation (no colon); a match removes everything from a label up to the
  next label or the end of the text

Patterns use regular expressions; stick to the common subset (literals,
character classes, anchors, alternation, bounded repetition) to keep rule
files portable. Patterns are validated when a rule set is loaded, never at
apply time, and may not match the empty string (cleaning must not grow text).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .corpus import check_json, read_json


def _cut_prefix(regex: re.Pattern, text: str) -> str:
    m = regex.match(text)
    return text[m.end():] if m else text


def _cut_suffix(regex: re.Pattern, text: str) -> str:
    m = regex.search(text)
    return text[: m.start()] if m else text


def _heading_regex(pattern: str) -> re.Pattern:
    label = f"(?:{pattern})\\s*:"
    return re.compile(f"{label}.*?(?={label}|\\Z)", re.DOTALL)


# Rule kind -> a function that makes, from a rule's pattern, the function applying it to a text.
# The deleting kinds substitute a space so adjacent words never fuse; the
# whitespace collapse after the rules tidies up.
_APPLIERS = {
    "prefix_strip": lambda pattern: partial(_cut_prefix, re.compile(pattern)),
    "suffix_strip": lambda pattern: partial(_cut_suffix, re.compile(f"(?:{pattern})\\s*\\Z", re.DOTALL)),
    "pattern_delete": lambda pattern: partial(re.compile(pattern).sub, " "),
    "heading_strip": lambda pattern: partial(_heading_regex(pattern).sub, " "),
}
RULE_KINDS = tuple(_APPLIERS)


@dataclass
class CleaningRule:
    kind: str
    pattern: str
    enabled: bool = True

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        # Validate the regexes that run: a wrapping kind moves a global flag such as (?i) off the start.
        try:
            compiled = re.compile(self.pattern)
            self._apply = _APPLIERS[self.kind](self.pattern)
        except re.error as exc:
            raise ValueError(f"invalid pattern {self.pattern!r}: {exc}") from exc
        if compiled.search("") is not None:
            raise ValueError(f"pattern {self.pattern!r} matches the empty string")

    def apply(self, text: str) -> str:
        return self._apply(text)


def clean_abstract(text: str, rules: list[CleaningRule]) -> str:
    """Apply enabled rules in declared order, then normalize whitespace; an unchanged text is returned as is."""
    cleaned = text
    for rule in rules:
        if rule.enabled:
            cleaned = rule.apply(cleaned)
    cleaned = " ".join(cleaned.split())
    return text if cleaned == text else cleaned


def load_rules(path) -> list[CleaningRule]:
    """Load rules from a JSON file holding a list of rule objects.

    Each entry is an object {"kind": str, "pattern": str, "enabled": bool};
    enabled defaults to true. A malformed or invalid entry raises
    ValueError naming the file and the entry.
    """
    entries = read_json(path, "rule file")
    if not isinstance(entries, list):
        raise ValueError(f"rule file {path} must contain a JSON list of rule objects")
    rules = []
    for i, entry in enumerate(entries, start=1):
        what = f"rule file {path}: rule {i}"
        fields = check_json(entry, CleaningRule, what)
        try:
            rules.append(CleaningRule(**fields))
        except ValueError as exc:
            raise ValueError(f"{what}: {exc}") from None
    return rules


def default_rules() -> list[CleaningRule]:
    """The bundled rule set: copyright tails, license statements, heading labels."""
    return load_rules(Path(__file__).parent / "data" / "default_rules.json")
