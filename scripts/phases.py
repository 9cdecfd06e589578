"""CPU and garbage-collector milliseconds per phase and fixture of one
benchmark round.

Builds the round of WORKLOAD that the benchmark runs first for --seed,
through the workload's own make_round in perfbench/, and runs it
in-process, charging each step to a (phase, fixture) row:

    ball-ladder  build (build_ball), successors (the ball's per-letter
                 successor lists), attach (attach_cells) and kernel
                 (two_cycle_basis) of each rung
    cli-checks   each command, through ormkit.cli.dispatch and emit, by
                 its kind
    wp-queries   each query, by the decider it names

CPU time is time.process_time and includes the collector; collector
time is each collection timed through gc.callbacks and charged to the
row that was running.  Every round starts after a full collection.  A
row's figures are the minimum over the repeats; a phase's and the
round's totals are the minimum of their per-round sums.  Run from the
repository root:

    python3 scripts/phases.py ball-ladder --seed 1 --repeats 7

On a shared host the minimum of one process does not survive load that
drifts over minutes.  To compare two trees, import both into one
process and interleave their rounds; do not time each tree in a process
of its own and compare the figures.
"""

import argparse
import gc
import importlib
import random
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import WORKLOADS, import_ormkit, load_context


def ladder_steps(workload, rung, clock) -> None:
    cayley, fixture = workload.cayley, rung.fixture
    ball = clock("build", fixture, cayley.build_ball, rung.presentation,
                 rung.radius)
    clock("successors", fixture, getattr, ball, "_successors")
    ball = clock("attach", fixture, cayley.attach_cells, ball,
                 cayley.CellVariant(rung.variant))
    clock("kernel", fixture, cayley.two_cycle_basis, ball)


# per workload: its phases in table order, and the steps of one operation
STEPS = {
    "ball-ladder": (("build", "successors", "attach", "kernel"), ladder_steps),
    "cli-checks": (("classify", "compress", "inject-check", "squier-check",
                    "structure-check"),
                   lambda w, op, clock: clock(op[0], op[1], w.run, op)),
    "wp-queries": (("equal_bounded", "equal_via_compression"),
                   lambda w, q, clock: clock(q.decider, q.fixture, w.run, q)),
}


class Clock:
    """CPU and collector seconds per (phase, fixture) row; a collection
    is charged to the row that was running."""

    def __init__(self):
        self.cpu: dict[tuple, float] = defaultdict(float)
        self.gc: dict[tuple, float] = defaultdict(float)
        self.row = None
        self._gc_start = 0.0

    def on_gc(self, event: str, info: dict) -> None:
        if event == "start":
            self._gc_start = time.process_time()
        elif self.row is not None:
            self.gc[self.row] += time.process_time() - self._gc_start

    def __call__(self, phase: str, fixture: str, fn, *args):
        self.row = phase, fixture
        start = time.process_time()
        out = fn(*args)
        self.cpu[self.row] += time.process_time() - start
        return out


def one_round(steps, workload, ops: list) -> Clock:
    clock = Clock()
    gc.collect()
    gc.callbacks.append(clock.on_gc)
    try:
        for op in ops:
            steps(workload, op, clock)
    finally:
        gc.callbacks.remove(clock.on_gc)
    return clock


def print_table(phases, clocks: list[Clock]) -> None:
    def line(phase: str, fixture: str, keep) -> None:
        cpu, col = (min(sum(v for row, v in getattr(c, field).items()
                            if keep(row)) for c in clocks) * 1e3
                    for field in ("cpu", "gc"))
        print(f"{phase:<24}{fixture:<18}{cpu:>10.3f}{col:>10.3f}")

    print(f"{'phase':<24}{'fixture':<18}{'cpu_ms':>10}{'gc_ms':>10}")
    for phase in phases:
        for fixture in sorted({f for p, f in clocks[0].cpu if p == phase}):
            line(phase, fixture, lambda row: row == (phase, fixture))
        line(phase, "total", lambda row: row[0] == phase)
    line("total", "", lambda row: True)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload", choices=STEPS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=5)
    a = p.parse_args()
    ormkit = import_ormkit()
    module, cls = WORKLOADS[a.workload]
    workload = getattr(importlib.import_module(module), cls)(
        load_context(ormkit), ormkit)
    ops = workload.make_round(random.Random(a.seed))
    phases, steps = STEPS[a.workload]
    clocks = [one_round(steps, workload, ops) for _ in range(max(1, a.repeats))]
    print(f"seed {a.seed}, {len(ops)} {workload.op_name}, "
          f"minimum of {len(clocks)} rounds")
    print_table(phases, clocks)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
