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
of its own and compare the figures.  --against-src does that:

    python3 scripts/phases.py wp-queries --against-src ../parent/src

imports PATH/ormkit as the package ormkit_base beside this tree's
ormkit (every import inside the package is relative), alternates their
rounds with the collector off, and prints this tree's table, the other
tree's, and per row the ratio of this tree's minimum to the other's,
the ratio of the medians, and the rounds in which this tree's row took
less CPU time.  On sub-millisecond rows one lucky round sets the
minimum, so read the median ratio and the wins beside it.  A ratio
within about 8% of 1 is noise on a 2-core host: rows whose code is
identical in both trees read up to 1.08 in A/A runs over 11 and 21
rounds, so read such a ratio with the wins column, never alone.  To
compare against a git revision, write its src/ormkit to a directory
first:

    mkdir -p ../rev && git archive HEAD~1 src/ormkit | tar -x -C ../rev
    python3 scripts/phases.py wp-queries --against-src ../rev/src
"""

import argparse
import gc
import importlib
import importlib.util
import random
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

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


def table_rows(phases, clocks: list[Clock]):
    """(phase, fixture, key) per row: each phase's fixtures and its
    total, then the round's total.  A row sums the (phase, fixture)
    rows of a Clock that start with its key."""
    for phase in phases:
        for fixture in sorted({f for p, f in clocks[0].cpu if p == phase}):
            yield phase, fixture, (phase, fixture)
        yield phase, "total", (phase,)
    yield "total", "", ()


def row_sums(clocks: list[Clock], field: str, key: tuple) -> list[float]:
    """Milliseconds of field in the rows that start with key, per round."""
    return [sum(v for row, v in getattr(c, field).items()
                if row[:len(key)] == key) * 1e3 for c in clocks]


def print_table(phases, clocks: list[Clock]) -> None:
    print(f"{'phase':<24}{'fixture':<18}{'cpu_ms':>10}{'gc_ms':>10}")
    for phase, fixture, key in table_rows(phases, clocks):
        cpu, col = (min(row_sums(clocks, f, key)) for f in ("cpu", "gc"))
        print(f"{phase:<24}{fixture:<18}{cpu:>10.3f}{col:>10.3f}")


def print_comparison(phases, mine: list[Clock], other: list[Clock]) -> None:
    print(f"{'phase':<24}{'fixture':<18}{'ratio':>10}{'med_ratio':>10}"
          f"{'wins':>10}")
    for phase, fixture, key in table_rows(phases, mine):
        a, b = row_sums(mine, "cpu", key), row_sums(other, "cpu", key)
        ratio, med = (f(a) / f(b) if f(b) else float("nan")
                      for f in (min, median))
        wins = sum(x < y for x, y in zip(a, b))
        print(f"{phase:<24}{fixture:<18}{ratio:>10.3f}{med:>10.3f}"
              f"{f'{wins}/{len(a)}':>10}")


def import_base(src: Path):
    """PATH/ormkit imported as the package ormkit_base."""
    init = src / "ormkit" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no ormkit sources under {src}")
    spec = importlib.util.spec_from_file_location(
        "ormkit_base", init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules["ormkit_base"] = package
    spec.loader.exec_module(package)
    for sub in ("wp", "words", "cayley", "cli"):
        importlib.import_module(f"ormkit_base.{sub}")
    return package


def build(name: str, package, seed: int):
    """The workload over package and its round for seed."""
    module, cls = WORKLOADS[name]
    workload = getattr(importlib.import_module(module), cls)(
        load_context(package), package)
    return workload, workload.make_round(random.Random(seed))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload", choices=STEPS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--against-src", type=Path, metavar="PATH",
                   help="a directory holding another tree's ormkit package")
    a = p.parse_args()
    phases, steps = STEPS[a.workload]
    repeats = max(1, a.repeats)
    workload, ops = build(a.workload, import_ormkit(), a.seed)
    if a.against_src is None:
        clocks = [one_round(steps, workload, ops) for _ in range(repeats)]
        print(f"seed {a.seed}, {len(ops)} {workload.op_name}, "
              f"minimum of {len(clocks)} rounds")
        print_table(phases, clocks)
        return 0
    base, base_ops = build(a.workload, import_base(a.against_src.resolve()),
                           a.seed)
    mine, other = [], []
    sides = [(mine, workload, ops), (other, base, base_ops)]
    gc.disable()
    try:
        for r in range(repeats):
            # the trees take turns going first
            for clocks, w, o in sides if r % 2 == 0 else sides[::-1]:
                clocks.append(one_round(steps, w, o))
    finally:
        gc.enable()
    print(f"seed {a.seed}, {len(ops)} {workload.op_name}, minimum of "
          f"{repeats} alternated rounds per tree, collector off")
    print(f"this tree ({ROOT / 'src'})")
    print_table(phases, mine)
    print(f"against ({a.against_src})")
    print_table(phases, other)
    print("ratio: this tree's minimum over the other's; med_ratio: its "
          "median over the other's; wins: rounds this tree took less")
    print_comparison(phases, mine, other)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
