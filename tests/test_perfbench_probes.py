"""perfbench's tracer wraps product functions by the name their callers bind.

A name it wraps that no longer resolves breaks the traced benchmark run; this
catches the rename on every Python version tier-1 runs on. perfbench/ is only
read here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def probe_targets() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans   # dataclasses looks the module up while building Probe
    spec.loader.exec_module(spans)
    return [probe.target for probe in spans.PROBES]


@pytest.mark.parametrize("target", probe_targets())
def test_probe_target_resolves(target):
    module_name, _, attr = target.rpartition(".")
    assert callable(getattr(importlib.import_module(module_name), attr))
