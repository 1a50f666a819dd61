"""perfbench's tracer wraps product functions by the name their callers bind.

A name it wraps that no longer resolves breaks the traced benchmark run; this
catches the rename on every Python version tier-1 runs on, and so do traced
runs of shrunk `multiscope` and `link-titlejournal` workloads, which must pass
the benchmark's output and trace checks. perfbench/ is only read here.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses looks the module up while building Probe
    spec.loader.exec_module(module)
    return module


def probe_targets() -> list[str]:
    return [probe.target for probe in load("spans").PROBES]


@pytest.mark.parametrize("target", probe_targets())
def test_probe_target_resolves(target):
    module_name, _, attr = target.rpartition(".")
    assert callable(getattr(importlib.import_module(module_name), attr))


def traced_run_problems(workloads, workload: str, tmp: Path) -> list[str]:
    """Generate the workload at seed 3 into tmp, run it traced, and return what the benchmark's checks find."""
    checks = load("checks")
    inputs, out, trace = tmp / "inputs", tmp / "out", tmp / "spans.json"
    key = workloads.generate(workload, 3, inputs)
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    run = subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), str(trace), "--", *key["argv"],
                          "--out", str(out)], cwd=inputs, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return checks.check_outputs(key, out) + checks.check_trace(key, json.loads(trace.read_text(encoding="utf-8")))


def test_traced_multiscope_run_passes_the_output_and_trace_checks(tmp_path, monkeypatch):
    workloads = load("workloads")
    # Only the unlinked metadata shrinks, as in perfbench's own tests. Their 40 articles per unit
    # put every planted term below the workload's min_df of 10, so check_scopes would find none.
    monkeypatch.setattr(workloads, "MULTISCOPE_EXTRA_METADATA", 10)
    assert traced_run_problems(workloads, "multiscope", tmp_path) == []


def test_traced_link_run_passes_the_output_and_trace_checks(tmp_path, monkeypatch):
    workloads = load("workloads")
    monkeypatch.setattr(workloads, "LINK_RECORDS", 600)
    monkeypatch.setattr(workloads, "LINK_METADATA", 2_400)
    # check_trace also requires one parsed record per input line, metadata that no record wants included.
    assert traced_run_problems(workloads, "link-titlejournal", tmp_path) == []
