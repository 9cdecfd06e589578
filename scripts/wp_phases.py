"""CPU milliseconds per fixture and decider of one wp-queries round.

Runs the 40 queries of one round of the wp-queries benchmark (the list
WpQueries.make_round in perfbench/wp_queries.py builds for the seed's
first round) in-process, through the decider each query names, as the
benchmark runs them, and charges each query's CPU time
(time.process_time) to its fixture and decider.  Every round starts
after a full collection, and each figure is the minimum over the
repeats; a decider's and the round's totals are the minimum of their
per-round sums.  Run from the repository root:

    python3 scripts/wp_phases.py --seed 1 --repeats 200

A round takes about a millisecond, and on a shared host the minimum of
one process does not survive load that drifts over minutes.  To compare
two trees, import both into one process and interleave their rounds;
do not time each tree in a process of its own and compare the figures.
"""

import argparse
import gc
import random
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from run import load_context
from wp_queries import WpQueries

import ormkit.cli


def queries(seed: int) -> tuple[WpQueries, list]:
    """The workload and the queries of the benchmark's first round of
    this seed, in the order it runs them."""
    workload = WpQueries(load_context(ormkit), ormkit)
    return workload, workload.make_round(random.Random(seed))


def one_round(workload: WpQueries, ops: list) -> dict[tuple[str, str], float]:
    """CPU seconds per (decider, fixture) of one pass over the queries."""
    cpu: dict[tuple[str, str], float] = defaultdict(float)
    gc.collect()
    for q in ops:
        start = time.process_time()
        workload.run(q)
        cpu[q.decider, q.fixture] += time.process_time() - start
    return cpu


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=5)
    a = p.parse_args()
    workload, ops = queries(a.seed)
    rounds = [one_round(workload, ops) for _ in range(max(1, a.repeats))]
    print(f"seed {a.seed}, {len(ops)} queries, minimum of {len(rounds)} rounds")
    print(f"{'decider':<24}{'fixture':<18}{'cpu_ms':>10}")
    for decider in sorted({d for d, _ in rounds[0]}):
        for fixture in sorted(f for d, f in rounds[0] if d == decider):
            ms = min(r[decider, fixture] for r in rounds) * 1e3
            print(f"{decider:<24}{fixture:<18}{ms:>10.3f}")
        ms = min(sum(v for (d, _), v in r.items() if d == decider)
                 for r in rounds) * 1e3
        print(f"{decider:<24}{'total':<18}{ms:>10.3f}")
    ms = min(sum(r.values()) for r in rounds) * 1e3
    print(f"{'total':<24}{'':<18}{ms:>10.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
