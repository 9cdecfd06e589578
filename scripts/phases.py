"""CPU and garbage-collector milliseconds per phase and fixture of one
benchmark round or of every CLI command, and the set-up child's time.

Each view but setup runs rounds in-process and charges each step to a
(phase, fixture) row.  A benchmark workload's round is the one it runs
first for --seed, built by the workload's make_round in perfbench/:

    ball-ladder  build (build_ball), successors (the ball's per-letter
                 successor lists), attach (attach_cells) and kernel
                 (two_cycle_basis) of each rung
    cli-checks   each command, through ormkit.cli.dispatch and emit, by
                 its kind
    wp-queries   each query, by the decider it names
    commands     every command render_digest.py runs on each fixture,
                 then ball aba-aca --radius 9 --cells full (ball-r9-full),
                 whatever --seed; per kind, a row per fixture for dispatch
                 plus emit(report, "json"), and a row for each of the two

CPU time is time.process_time and includes the collector; collector
time is each collection timed through gc.callbacks and charged to the
row that was running.  Every round starts after a full collection.  A
row's figures are the minimum over the repeats; a phase's and the
round's totals are the minimum of their per-round sums.  Run from the
repository root:

    python3 scripts/phases.py ball-ladder --seed 1 --repeats 7

The minimum of one process does not survive load that drifts over
minutes, so compare two trees in one process.  --against-src PATH
imports PATH/ormkit as the package ormkit_base, alternates the trees'
rounds with the collector off, and prints both tables and per row the
ratios of this tree's minimum and median to the other's and the rounds
this tree's row took less CPU time.  One lucky round sets the minimum
of a sub-millisecond row, and on a 2-core host identical code reads
ratios up to 1.08 in A/A runs of 11 and 21 rounds, so read a ratio with
the median ratio and the wins.  Against a git revision:

    mkdir -p ../rev && git archive HEAD~1 src/ormkit | tar -x -C ../rev
    python3 scripts/phases.py wp-queries --against-src ../rev/src

The setup view runs perfbench/run.py's set-up child (import ormkit and
ormkit.cli, parse the benchmark's fixtures) in a fresh interpreter a
round, on each tree in turn, and prints each tree's median and
quartiles of its wall milliseconds and its modules with bytecode cached
for this interpreter, before the first run and after the last (compiling
is most of the child's time, and a run writes the cache unless
PYTHONDONTWRITEBYTECODE is set), then the ratio and the wins.
"""

import argparse
import gc
import importlib
import importlib.util
import random
import subprocess
import sys
import time
from collections import defaultdict
from functools import partial
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import (WORKLOADS, _SETUP_CHILD, fixture_paths, import_ormkit,
                 load_context, quantile)


def ladder_steps(workload, rung, clock) -> None:
    cayley, fixture = workload.cayley, rung.fixture
    ball = clock(("build", fixture), cayley.build_ball, rung.presentation,
                 rung.radius)
    clock(("successors", fixture), getattr, ball, "_successors")
    ball = clock(("attach", fixture), cayley.attach_cells, ball,
                 cayley.CellVariant(rung.variant))
    clock(("kernel", fixture), cayley.two_cycle_basis, ball)


def command_steps(cli, op, clock) -> None:
    kind, fixture, argv = op
    _, report = clock((kind, fixture, "dispatch"), cli.dispatch, argv)
    clock((kind, fixture, "emit"), cli.emit, report, "json")


def command_ops() -> list[tuple]:
    """(kind, fixture, argv) of every command of the commands view."""
    # render_digest imports ormkit, which the setup view must not do
    from render_digest import commands
    paths = fixture_paths()
    return [(argv[0], name, argv) for name, path in paths.items()
            for argv in commands(path)] + [
        ("ball-r9-full", "aba-aca", ["ball", str(paths["aba-aca"]),
                                     "--radius", "9", "--cells", "full"])]


# per view but setup: its phases in table order, and one operation's steps
STEPS = {
    "ball-ladder": (("build", "successors", "attach", "kernel"), ladder_steps),
    "cli-checks": (("classify", "compress", "inject-check", "squier-check",
                    "structure-check"),
                   lambda w, op, clock: clock(op[:2], w.run, op)),
    "commands": (("classify", "compress", "wp", "ball", "homology",
                  "structure-check", "inject-check", "squier-check",
                  "ball-r9-full"), command_steps),
    "wp-queries": (("equal_bounded", "equal_via_compression"),
                   lambda w, q, clock: clock((q.decider, q.fixture), w.run, q)),
}


class Clock:
    """CPU and collector seconds per (phase, fixture[, part]) row; a
    collection is charged to the row that was running."""

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

    def __call__(self, row: tuple, fn, *args):
        self.row = row
        start = time.process_time()
        out = fn(*args)
        self.cpu[row] += time.process_time() - start
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


def alternate(repeats: int, runs: list) -> list[list]:
    """Each result of each of runs, called once a round for repeats
    rounds, the runs taking turns going first."""
    results = [[] for _ in runs]
    for r in range(repeats):
        order = list(enumerate(runs))
        for i, run in order if r % 2 == 0 else order[::-1]:
            results[i].append(run())
    return results


def table_rows(phases, clocks: list[Clock]):
    """(phase, fixture, key) per row: each phase's fixtures, its parts
    and its total, then the round's total.  A row sums the rows of a
    Clock that match its key, where None matches anything."""
    for phase in phases:
        rows = [row for row in clocks[0].cpu if row[0] == phase]
        for fixture in sorted({row[1] for row in rows}):
            yield phase, fixture, (phase, fixture)
        for part in sorted({row[2] for row in rows if len(row) > 2}):
            yield phase, part, (phase, None, part)
        yield phase, "total", (phase,)
    yield "total", "", ()


def row_sums(clocks: list[Clock], field: str, key: tuple) -> list[float]:
    """Milliseconds of field in the rows that match key, per round."""
    return [sum(v for row, v in getattr(c, field).items()
                if all(k in (None, r) for k, r in zip(key, row))) * 1e3
            for c in clocks]


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


def ormkit_src(path: Path) -> Path:
    """path resolved, once it is known to hold an ormkit package."""
    if not (path / "ormkit" / "__init__.py").is_file():
        raise SystemExit(f"no ormkit sources under {path}")
    return path.resolve()


def import_base(src: Path):
    """PATH/ormkit imported as the package ormkit_base."""
    init = ormkit_src(src) / "ormkit" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        "ormkit_base", init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules["ormkit_base"] = package
    spec.loader.exec_module(package)
    for sub in ("wp", "words", "cayley", "cli"):
        importlib.import_module(f"ormkit_base.{sub}")
    return package


def build(name: str, package, seed: int):
    """The workload over package, its round for seed and its op_name."""
    if name == "commands":
        return package.cli, command_ops(), "commands"
    module, cls = WORKLOADS[name]
    workload = getattr(importlib.import_module(module), cls)(
        load_context(package), package)
    return workload, workload.make_round(random.Random(seed)), workload.op_name


def setup_seconds(src: Path, fixtures: list[str]) -> float:
    done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(src),
                           *fixtures], cwd=ROOT, capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def cached_modules(src: Path) -> int:
    """Modules of src/ormkit with a timestamp pyc this interpreter would
    load, one whose recorded source mtime and size match the source's."""
    count = 0
    for py in (src / "ormkit").glob("*.py"):
        pyc = Path(importlib.util.cache_from_source(str(py)))
        head = pyc.read_bytes()[:16] if pyc.is_file() else b""
        st = py.stat()
        count += head == (importlib.util.MAGIC_NUMBER + bytes(4)
                          + (int(st.st_mtime) & 0xFFFFFFFF).to_bytes(4, "little")
                          + (st.st_size & 0xFFFFFFFF).to_bytes(4, "little"))
    return count


def setup(repeats: int, against: Path | None) -> None:
    srcs = [ROOT / "src"] + ([ormkit_src(against)] if against else [])
    fixtures = [str(path) for path in fixture_paths().values()]
    before = [cached_modules(src) for src in srcs]
    times = alternate(repeats, [partial(setup_seconds, src, fixtures)
                                for src in srcs])
    print(f"set-up child, {repeats} runs per tree, each in a fresh "
          f"interpreter, {len(fixtures)} fixtures")
    print(f"{'tree':<10}{'median_ms':>10}{'q1_ms':>10}{'q3_ms':>10}"
          f"{'pycache':>10}  src")
    for name, src, ts, had in zip(("this", "against"), srcs, times, before):
        q1, q3 = quantile(ts, 25), quantile(ts, 75)
        print(f"{name:<10}{median(ts) * 1e3:>10.1f}{q1 * 1e3:>10.1f}"
              f"{q3 * 1e3:>10.1f}{f'{had}/{cached_modules(src)}':>10}  {src}")
    if against is not None:
        mine, other = times
        wins = sum(x < y for x, y in zip(mine, other))
        print(f"ratio {median(mine) / median(other):.3f} (this tree's median "
              f"over the other's), this tree faster in {wins}/{repeats} rounds")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("view", choices=[*STEPS, "setup"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--against-src", type=Path, metavar="PATH",
                   help="a directory holding another tree's ormkit package")
    a = p.parse_args()
    repeats = max(1, a.repeats)
    if a.view == "setup":
        setup(repeats, a.against_src)
        return 0
    phases, steps = STEPS[a.view]
    trees = [build(a.view, import_ormkit(), a.seed)]
    if a.against_src is not None:
        trees.append(build(a.view, import_base(a.against_src), a.seed))
        gc.disable()
    try:
        clocks = alternate(repeats, [partial(one_round, steps, w, ops)
                                     for w, ops, _ in trees])
    finally:
        gc.enable()
    _, ops, op_name = trees[0]
    if a.against_src is None:
        print(f"seed {a.seed}, {len(ops)} {op_name}, "
              f"minimum of {repeats} rounds")
        print_table(phases, clocks[0])
        return 0
    mine, other = clocks
    print(f"seed {a.seed}, {len(ops)} {op_name}, minimum of "
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
