"""CPU milliseconds per command kind and fixture of one cli-checks round.

Runs the commands of one round of the cli-checks benchmark (the list
CliChecks.make_round in perfbench/cli_checks.py builds for the seed's
first round) in-process through ormkit.cli.dispatch and emit, as the
benchmark runs them, and charges each command's CPU time
(time.process_time) to its kind and fixture.  Every round starts after
a full collection, and each figure is the minimum over the repeats; a
kind's and the round's totals are the minimum of their per-round sums.
Run from the repository root:

    python3 scripts/cli_phases.py --seed 1 --repeats 5
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

from cli_checks import CliChecks
from common import Context
from run import fixture_paths

import ormkit.cli


def commands(seed: int) -> list:
    """(kind, fixture, argv) per command, in the order the benchmark's
    first round of this seed runs them."""
    workload = CliChecks(Context(fixture_paths(), {}, {}), ormkit)
    return workload.make_round(random.Random(seed))


def one_round(ops: list) -> dict[tuple[str, str], float]:
    """CPU seconds per (kind, fixture) of one pass over the commands."""
    cpu: dict[tuple[str, str], float] = defaultdict(float)
    gc.collect()
    for kind, fixture, argv in ops:
        start = time.process_time()
        _, report = ormkit.cli.dispatch(argv)
        ormkit.cli.emit(report, "json")
        cpu[kind, fixture] += time.process_time() - start
    return cpu


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=5)
    a = p.parse_args()
    ops = commands(a.seed)
    rounds = [one_round(ops) for _ in range(max(1, a.repeats))]
    print(f"seed {a.seed}, {len(ops)} commands, minimum of {len(rounds)} rounds")
    print(f"{'kind':<18}{'fixture':<18}{'cpu_ms':>10}")
    for kind in sorted({k for k, _ in rounds[0]}):
        for fixture in sorted(f for k, f in rounds[0] if k == kind):
            ms = min(r[kind, fixture] for r in rounds) * 1e3
            print(f"{kind:<18}{fixture:<18}{ms:>10.1f}")
        ms = min(sum(v for (k, _), v in r.items() if k == kind)
                 for r in rounds) * 1e3
        print(f"{kind:<18}{'total':<18}{ms:>10.1f}")
    ms = min(sum(r.values()) for r in rounds) * 1e3
    print(f"{'total':<18}{'':<18}{ms:>10.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
