"""ormkit benchmark: one workload per run, closed loop, checked answers.

    python3 perfbench/run.py --workload wp-queries --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client in one thread issues the next call only after the previous
one returned.  Operations are generated from --seed in rounds (see each
workload module); rounds run for about --seconds of wall time, at least
one round.  Every answer is timed around the public ormkit
call and then checked, untimed, against the independent reference in
reference.py.

--trace 0 reports the end-to-end metrics.  --trace 1 measures for half
of --seconds, then replays the same operations with every layer wrapped
(tracer.py) and reports the per-layer metrics and the tracing overhead.  Human-readable lines and a
JSON run record come first; the last line of standard output is the
result object.  ormkit is imported from src/ of the checkout this file
sits in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path

from common import Context, Outcome
from reference import ReferenceUnavailable, Rewriter
from tracer import METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
# A fixed set, so that fixtures added to the repository later do not
# change the workloads' mix.
FIXTURE_NAMES = ("aa-a", "ab-ba", "ab-c", "aba-aca", "abab-ab", "ababbaba-ababa",
                 "babab-b", "degenerate-ab", "special-aaa", "special-ab")
SETUP_REPEATS = 7
CONTROL_REPEATS = 3
CONTROL_ITERATIONS = 1_000_000
FAILURES_SHOWN = 10

WORKLOADS = {
    "wp-queries": ("wp_queries", "WpQueries"),
    "ball-ladder": ("ball_ladder", "BallLadder"),
    "cli-checks": ("cli_checks", "CliChecks"),
}

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "decided_frac": "frac",
    "useful_work_per_s": "1/s",
}

_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ormkit, ormkit.cli
for path in sys.argv[2:]:
    with open(path) as fh:
        ormkit.cli.parse_presentation(fh.read())
print(time.perf_counter() - t0)
"""


class BenchmarkError(Exception):
    """The benchmark cannot run or cannot check its answers."""


def import_ormkit():
    if not (SRC / "ormkit" / "__init__.py").is_file():
        raise BenchmarkError(f"no ormkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    ormkit = importlib.import_module("ormkit")
    if SRC not in Path(ormkit.__file__).resolve().parents:
        raise BenchmarkError(f"imported ormkit from {ormkit.__file__}, not {SRC}")
    # the modules the workloads call; the tracer takes whatever else exists
    for sub in ("wp", "words", "cayley", "cli"):
        importlib.import_module(f"ormkit.{sub}")
    return ormkit


def fixture_paths() -> dict[str, Path]:
    paths = {name: FIXTURES / f"{name}.orm" for name in FIXTURE_NAMES}
    missing = [str(p) for p in paths.values() if not p.is_file()]
    if missing:
        raise BenchmarkError(f"missing fixtures: {', '.join(missing)}")
    return paths


def load_context(ormkit) -> Context:
    """Parse every fixture with ormkit and build its reference.  Fails
    loudly when a reference cannot be built or disagrees with the
    defining relation itself."""
    paths = fixture_paths()
    fixtures, refs = {}, {}
    for name, path in paths.items():
        P = ormkit.cli.parse_presentation(path.read_text())
        try:
            ref = Rewriter(P.alphabet, P.u, P.v)
        except ReferenceUnavailable as e:
            raise BenchmarkError(f"reference check cannot run on {name}: {e}")
        if not ref.equal(P.u, P.v):
            raise BenchmarkError(f"reference separates the sides of {name}")
        fixtures[name], refs[name] = P, ref
    return Context(paths, fixtures, refs)


def setup_once() -> float:
    """Import plus fixture parsing in a fresh interpreter."""
    args = [sys.executable, "-c", _SETUP_CHILD, str(SRC),
            *map(str, fixture_paths().values())]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchmarkError(f"set-up child failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def control_loop() -> list[float]:
    """A fixed pure-CPU loop, timed to record host noise beside a run."""
    out = []
    for _ in range(CONTROL_REPEATS):
        t0 = time.perf_counter()
        x = 0
        for i in range(CONTROL_ITERATIONS):
            x = (x * 31 + i) & 0xFFFF
        out.append(time.perf_counter() - t0)
    return out


def run_op(workload, op) -> tuple[float, Outcome]:
    t0 = time.perf_counter()
    try:
        result = workload.run(op)
    except Exception:
        dt = time.perf_counter() - t0
        return dt, Outcome(False, failed=True,
                           note="raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
    dt = time.perf_counter() - t0
    try:
        return dt, workload.check(op, result)
    except Exception as e:
        raise BenchmarkError(f"checking {workload.describe(op)} failed: {e!r}") from e


class Phase:
    """Latencies and outcome counts of one pass over the operations.

    Operations are not kept (a traced replay regenerates them from the
    seed), so the benchmark's own memory does not grow with the run and
    peak_rss_mb stays the program's.
    """

    def __init__(self, workload):
        self.workload = workload
        self.times = array("d")
        self.decided = self.failed = self.unexplained = 0
        self.work = 0.0
        self.mix: Counter = Counter()
        self.failures: list[dict] = []

    def run(self, op) -> None:
        dt, o = run_op(self.workload, op)
        self.times.append(dt)
        self.decided += o.decided
        self.work += o.work
        self.failed += o.failed
        self.unexplained += o.failed and not o.known
        self.mix[self.workload.key(op, o)] += 1
        if o.failed and len(self.failures) < FAILURES_SHOWN:
            self.failures.append({"op": self.workload.describe(op), "known": o.known,
                                  "note": o.note, "evidence": o.evidence})


def measure(workload, seed: int, seconds: float, setup: list[float]) -> tuple[Phase, int]:
    """Run rounds until the next one would end further past `seconds`
    than stopping short of it.  Set-up samples are taken between rounds,
    spread over the run, so that they see the same host as the rounds."""
    rng = random.Random(seed)
    phase = Phase(workload)
    start = time.monotonic()
    rounds = 0
    while True:
        for op in workload.make_round(rng):
            phase.run(op)
        rounds += 1
        elapsed = time.monotonic() - start
        while len(setup) < min(SETUP_REPEATS, SETUP_REPEATS * elapsed / seconds):
            setup.append(setup_once())
        if elapsed + elapsed / rounds / 2 >= seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_once())
    return phase, rounds


def replay(workload, seed: int, rounds: int) -> Phase:
    rng = random.Random(seed)
    phase = Phase(workload)
    for _ in range(rounds):
        for op in workload.make_round(rng):
            phase.run(op)
    return phase


def quantile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup: list[float], phase: Phase) -> dict:
    n = len(phase.times)
    busy = sum(phase.times)
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "decided_frac": (phase.decided / n, n),
        "useful_work_per_s": (phase.work / busy if busy else 0.0, n),
    }


def latency(phase: Phase) -> dict:
    """Per-operation latency percentiles.  Printed and recorded but not
    in BENCHMARK.json: on ball-ladder and cli-checks they rest on one or
    two operations, whose run-to-run spread exceeds any allowed bound."""
    n = len(phase.times)
    return {"latency_p50_ms": quantile(phase.times, 50) * 1000,
            "latency_p99_ms": quantile(phase.times, 99) * 1000,
            "n": n, "beyond_p99": n // 100}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    ormkit = import_ormkit()
    control_before = control_loop()
    setup = [setup_once()]
    ctx = load_context(ormkit)
    module, cls = WORKLOADS[name]
    workload = getattr(importlib.import_module(module), cls)(ctx, ormkit)

    # a traced run spends half its time untraced, half replaying traced
    phase, rounds = measure(workload, seed, seconds / 2 if trace else seconds, setup)
    e2e = end_to_end(setup, phase)
    n, busy = len(phase.times), sum(phase.times)
    correct = phase.unexplained == 0
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": rounds, "operations": n, "busy_s": busy,
        "failed": phase.failed, "failed_known": phase.failed - phase.unexplained,
        "failed_frac": phase.failed / n,
        "mix": workload.mix(phase.mix),
        "failures": phase.failures,
        "setup_runs_s": setup,
        "latency": latency(phase),
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, (v, _) in e2e.items()}

    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = replay(workload, seed, rounds)
        finally:
            tracer.uninstall()
        correct = correct and traced.unexplained == 0
        layer = tracer.metrics()
        layer["trace.overhead_s"] = sum(traced.times) - busy
        layer["trace.overhead_frac"] = layer["trace.overhead_s"] / busy
        units = {m[0]: m[1] for m in METRICS}
        metrics = {k: {"value": int(v) if units[k] == "count" else v, "unit": units[k]}
                   for k, v in layer.items()}
        record["absent_layers"] = tracer.absent
        record["traced_busy_s"] = sum(traced.times)

    record["control_loop_s"] = {"before": control_before, "after": control_loop()}
    print(f"{name}: seed {seed}, {rounds} rounds, {n} {workload.op_name}, "
          f"{phase.failed} failed ({phase.failed - phase.unexplained} known program defects), "
          f"control loop {min(control_before):.3f}/"
          f"{min(record['control_loop_s']['after']):.3f} s")
    for k, (v, count) in e2e.items():
        alias = f" ({workload.work_name})" if k == "useful_work_per_s" else ""
        print(f"  {k + alias:44s} {v:.6g} {E2E_UNITS[k]}  n={count}")
    print(f"  {'failed_frac':44s} {phase.failed / n:.6g} frac  n={n}")
    lat = record["latency"]
    print(f"  {'latency_p50_ms':44s} {lat['latency_p50_ms']:.6g} ms  n={n}")
    print(f"  {'latency_p99_ms':44s} {lat['latency_p99_ms']:.6g} ms  n={n}, "
          f"{lat['beyond_p99']} beyond")
    for f in phase.failures:
        print(f"  FAILED{' (known)' if f['known'] else ''}: {f['op']}: {f['note']}")
    if trace:
        print(f"per-layer, traced replay of the same {n} {workload.op_name}; "
              f"absent layers: {', '.join(tracer.absent) or 'none'}")
        for k, m in metrics.items():
            print(f"  {k:52s} {m['value']:.6g} {m['unit']}")
    print("record: " + json.dumps(record, sort_keys=True, default=str))
    print(json.dumps({"correct": correct, "attempted": n, "failed": phase.failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process so that peak memory is
    its own."""
    code = 0
    for name in WORKLOADS:
        args = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            code = done.returncode
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args(argv)
    if a.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        if a.workload == "all":
            return run_all(a.seed, a.seconds, bool(a.trace))
        return run_workload(a.workload, a.seed, a.seconds, bool(a.trace))
    except BenchmarkError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
