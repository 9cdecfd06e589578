"""CPU and garbage-collector milliseconds per phase of one ball-ladder round.

Runs the 13 rungs of the ball-ladder benchmark (RUNGS, read from
perfbench/ball_ladder.py) with each rung's alphabet declared in the
seeded order of that seed's first benchmark round, and splits each
rung into four phases: build (build_ball), successors (the ball's
per-letter successor lists), attach (attach_cells) and kernel
(two_cycle_basis).  CPU time is time.process_time and includes the
collector; collector time is each collection timed through gc.callbacks
and charged to the phase that was running.  Every round starts after a
full collection, and each figure is the minimum over the repeats.  Run
from the repository root:

    python3 scripts/ladder_phases.py --seed 1 --repeats 7
"""

import argparse
import gc
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from ball_ladder import RUNGS

from ormkit.cayley import CellVariant, attach_cells, build_ball, two_cycle_basis
from ormkit.cli import parse_presentation
from ormkit.words import make_presentation

PHASES = ("build", "successors", "attach", "kernel")


def ladder(seed: int) -> list:
    """(presentation, radius, variant) per rung, alphabets and rung order
    shuffled as the benchmark's first round of this seed shuffles them."""
    rng = random.Random(seed)
    rungs = []
    for fixture, radius, variant in RUNGS:
        P0 = parse_presentation((ROOT / "fixtures" / f"{fixture}.orm").read_text())
        order = list(P0.alphabet)
        rng.shuffle(order)
        rungs.append((make_presentation(tuple(order), P0.u, P0.v), radius,
                      CellVariant(variant)))
    rng.shuffle(rungs)
    return rungs


class Clock:
    """CPU and collector seconds, charged to the phase set last."""

    def __init__(self):
        self.cpu = dict.fromkeys(PHASES, 0.0)
        self.gc = dict.fromkeys(PHASES, 0.0)
        self.phase = PHASES[0]
        self._gc_start = 0.0

    def on_gc(self, event: str, info: dict) -> None:
        if event == "start":
            self._gc_start = time.process_time()
        else:
            self.gc[self.phase] += time.process_time() - self._gc_start

    def run(self, phase: str, fn, *args):
        self.phase = phase
        start = time.process_time()
        out = fn(*args)
        self.cpu[phase] += time.process_time() - start
        return out


def one_round(rungs: list) -> Clock:
    clock = Clock()
    gc.collect()
    gc.callbacks.append(clock.on_gc)
    try:
        for P, radius, variant in rungs:
            ball = clock.run("build", build_ball, P, radius)
            clock.run("successors", getattr, ball, "_successors")
            ball = clock.run("attach", attach_cells, ball, variant)
            clock.run("kernel", two_cycle_basis, ball)
    finally:
        gc.callbacks.remove(clock.on_gc)
    return clock


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=7)
    a = p.parse_args()
    rungs = ladder(a.seed)
    clocks = [one_round(rungs) for _ in range(max(1, a.repeats))]
    print(f"seed {a.seed}, {len(rungs)} rungs, minimum of {len(clocks)} rounds")
    print(f"{'phase':<12}{'cpu_ms':>10}{'gc_ms':>10}")
    for phase in PHASES:
        cpu = min(c.cpu[phase] for c in clocks) * 1e3
        col = min(c.gc[phase] for c in clocks) * 1e3
        print(f"{phase:<12}{cpu:>10.1f}{col:>10.1f}")
    cpu = min(sum(c.cpu.values()) for c in clocks) * 1e3
    col = min(sum(c.gc.values()) for c in clocks) * 1e3
    print(f"{'total':<12}{cpu:>10.1f}{col:>10.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
