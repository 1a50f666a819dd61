"""termassoc benchmark: drive the real CLI on a generated workload and report metrics.

    python3 perfbench/run.py --workload multiscope --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository (stdlib only, nothing to install). The
benchmark generates the workload's inputs from the seed (perfbench/workloads.py),
then runs `python -m termassoc.cli` in a fresh process per run, back to back,
for --seconds seconds; the setup measurement has compiled the bytecode and the
inputs were just written, so no warm-up run is needed. Every run's outputs are checked
against the generator's answer key and must be byte-identical to the first
run's. A run fails on a non-zero exit, a traceback on stderr, a failed check
or a digest mismatch.

--trace 0 reports the end-to-end metrics: `wall_s` (median seconds from spawn
to exit of one CLI run), `peak_rss_mb` (median over runs of the peak resident
memory of the run's process tree) and `setup_s` (median seconds for a fresh
interpreter to import termassoc.cli and load the workload's config and
rules; two such interpreters run after each CLI run). --trace 1 alternates untraced runs with runs of perfbench/traced_cli.py,
which wraps the program's functions in spans, and reports per-layer metrics
(the median over traced runs) plus the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The exit code is 0 only when every run passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import GENERATORS  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MIN_RUNS = 3            # untraced samples per run, even when --seconds is short
MIN_TRACED = 2
RUN_TIMEOUT_S = 60      # one CLI run; a hung run is killed and counts as failed
SETUP_PER_RUN = 2       # setup_s samples taken after each untraced CLI run
SAMPLE_PERIOD_S = 0.01

# `setup_s`: import the CLI and load config and default rules, read no input.
SETUP_CODE = ("import argparse, termassoc.cli as c; "
              "cfg = c.PipelineConfig.load('config.json', argparse.Namespace()); "
              "cfg.load_rules(); cfg.analysis_config()")

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Run:
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    code: int
    stderr: str
    output_bytes: int = 0


class TreeSampler(threading.Thread):
    """Samples VmHWM of a process and all its descendants until stopped.

    The peak of the tree is the sum over every process seen of its own
    high-water mark, so worker processes are charged in full. The child's
    wait4 rusage cannot be used: its ru_maxrss starts at the spawning
    process's high-water mark.
    """

    def __init__(self, pid: int, deadline: float, on_timeout):
        super().__init__(daemon=True)
        self.pid, self.deadline, self.on_timeout = pid, deadline, on_timeout
        self.hwm_kb: dict[int, int] = {}
        self.done = threading.Event()

    def run(self):
        while not self.done.is_set():
            for pid in _tree(self.pid):
                kb = _hwm_kb(pid)
                if kb > self.hwm_kb.get(pid, 0):
                    self.hwm_kb[pid] = kb
            if time.monotonic() > self.deadline:
                self.on_timeout()
                return
            self.done.wait(SAMPLE_PERIOD_S)

    @property
    def peak_mb(self) -> float:
        return sum(self.hwm_kb.values()) / 1024


def _tree(pid: int) -> list[int]:
    pids, i = [pid], 0
    while i < len(pids):
        try:
            for task in os.listdir(f"/proc/{pids[i]}/task"):
                with open(f"/proc/{pids[i]}/task/{task}/children") as fh:
                    pids.extend(int(c) for c in fh.read().split())
        except OSError:
            pass
        i += 1
    return pids


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def kill_tree(pid: int):
    for p in reversed(_tree(pid)):
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass


def spawn(cmd: list[str], cwd: Path, env: dict, log: Path) -> Run:
    """Run cmd to completion; wall time from spawn to exit, peak RSS of its tree."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        sampler = TreeSampler(proc.pid, time.monotonic() + RUN_TIMEOUT_S,
                              lambda: kill_tree(proc.pid))
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill_tree(proc.pid)
            proc.wait()
            raise
        finally:
            sampler.done.set()
            sampler.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(wall, sampler.peak_mb, usage.ru_utime + usage.ru_stime, proc.returncode,
               log.read_text(encoding="utf-8", errors="replace"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.inputs = work / "inputs"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        self.env.pop("TERMASSOC_LOG", None)
        self.key: dict = {}
        self.reference: dict | None = None
        self.attempted = self.failed = 0

    def generate(self):
        log = self.work / "generate.log"
        run = spawn([sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", self.workload,
                     "--seed", str(self.seed), "--out", str(self.inputs)], self.work, self.env, log)
        if run.code != 0:
            raise RuntimeError(f"input generator failed:\n{run.stderr}")
        self.key = json.loads((self.inputs / "key.json").read_text(encoding="utf-8"))

    def setup_time(self) -> float:
        run = spawn([sys.executable, "-c", SETUP_CODE], self.inputs, self.env,
                    self.work / "setup.log")
        if run.code != 0:
            raise RuntimeError(f"setup failed:\n{run.stderr}")
        return run.wall_s

    def cli_run(self, traced: bool) -> tuple[Run, list[dict] | None, list[str]]:
        """One checked CLI run; returns it, its spans if traced, and its problems."""
        self.attempted += 1
        out = self.work / f"out-{self.attempted}"
        argv = self.key["argv"] + ["--out", str(out)]
        trace_file = self.work / "spans.json"
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace_file), "--"] + argv
        else:
            cmd = [sys.executable, "-m", "termassoc.cli"] + argv
        run = spawn(cmd, self.inputs, self.env, self.work / "cli.log")
        problems = []
        if run.code != 0:
            problems.append(f"exit code {run.code}")
        if "Traceback (most recent call last)" in run.stderr:
            problems.append("traceback in output")
        recorded = None
        if not problems:
            problems += checks.check_outputs(self.key, out)
            digests = checks.output_digests(out)
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                changed = sorted(set(digests.items()) ^ set(self.reference.items()))
                problems.append(f"outputs differ from the first run: {sorted({n for n, _ in changed})}")
            run.output_bytes = sum(p.stat().st_size for p in out.iterdir())
            if traced:
                recorded = json.loads(trace_file.read_text(encoding="utf-8"))
                problems += checks.check_trace(self.key, recorded)
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            print(f"run {self.attempted} ({'traced' if traced else 'untraced'}) failed: "
                  + "; ".join(problems) + "\n" + run.stderr[-2000:], file=sys.stderr)
        return run, recorded, problems


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    bench.generate()
    bench.setup_time()      # compiles the bytecode before any timed run; not counted
    setup: list[float] = []
    plain: list[Run] = []
    traced: list[tuple[Run, list[dict]]] = []
    start = time.monotonic()
    while True:
        done = time.monotonic() - start >= seconds
        if trace:
            if done and len(plain) >= MIN_TRACED and len(traced) >= MIN_TRACED:
                break
            want_traced = len(traced) <= len(plain)
        else:
            if done and len(plain) >= MIN_RUNS:
                break
            want_traced = False
        run, recorded, problems = bench.cli_run(traced=want_traced)
        if problems:
            pass
        elif want_traced:
            traced.append((run, recorded))
        else:
            plain.append(run)
        if not trace:
            # Spread over the window, like the CLI runs, not taken in one burst.
            setup += [bench.setup_time() for _ in range(SETUP_PER_RUN)]
        if bench.failed and (done or bench.failed >= 3):
            break

    lines = [f"workload {bench.workload} seed {bench.seed}: {bench.attempted} runs, "
             f"{bench.failed} failed"]
    if not plain or (trace and not traced):
        return {"lines": lines, "metrics": {}}
    walls = [r.wall_s for r in plain]
    if not trace:
        samples = {"wall_s": walls, "peak_rss_mb": [r.peak_rss_mb for r in plain],
                   "setup_s": setup}
        metrics = {}
        for name, values in samples.items():
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": med, "unit": END_TO_END_UNITS[name]}
            lines.append(f"{name:<12} median {med:.4f} {END_TO_END_UNITS[name]}  "
                         f"p25 {q1:.4f}  p75 {q3:.4f}  n={len(values)}")
        return {"lines": lines, "metrics": metrics}

    per_run = [spans.layer_metrics(rec) for _, rec in traced]
    values = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    traced_wall = statistics.median(r.wall_s for r, _ in traced)
    values.update({
        "cli.output.bytes": plain[0].output_bytes,
        "proc.cpu_s": statistics.median(r.cpu_s for r in plain),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.median(walls),
    })
    metrics = {name: {"value": v, "unit": spans.unit(name)} for name, v in values.items()}
    lines.append(f"traced runs {len(traced)}, untraced runs {len(plain)}; tracing overhead "
                 f"{metrics['trace.overhead_s']['value']:.4f} s on a median untraced "
                 f"wall_s of {statistics.median(walls):.4f} s")
    lines += [f"{name:<34} {m['value']:.6g} {m['unit']}" for name, m in sorted(metrics.items())]
    return {"lines": lines, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="termassoc benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "termassoc" / "cli.py").is_file():
        print(f"error: {SRC / 'termassoc'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work)
    try:
        result = measure(bench, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for line in result["lines"]:
        print(line)
    rate = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"error_rate   {rate:.4f} ratio  ({bench.failed} of {bench.attempted} runs failed)")
    correct = bench.failed == 0 and bool(result["metrics"])
    print(json.dumps({"correct": correct, "attempted": max(bench.attempted, 1),
                      "failed": bench.failed if bench.attempted else 1,
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
