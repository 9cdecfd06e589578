"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload wp-queries --seeds 1-10

Runs the benchmark command from BENCHMARK.json once per seed, one run
at a time, and prints for every end-to-end metric its median and its
quartile spread (Q3 - Q1, from statistics.quantiles(values, n=4)) as a
share of the median, beside the metric's bound.  A spread under a third
of the bound is steady.  setup_s has no spread requirement, only a
bound on its median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    a = p.parse_args()

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in a.seeds:
        t0 = time.monotonic()
        done = subprocess.run(spec["command"] + ["--workload", a.workload, "--seed", str(seed),
                                                 "--seconds", str(a.seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        record = json.loads(next(x for x in lines if x.startswith("record: "))[8:])
        control = record["control_loop_s"]
        print(f"seed {seed}: {time.monotonic() - t0:.1f} s wall, control loop "
              f"{min(control['before']):.3f}/{min(control['after']):.3f} s, correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed, " + ", ".join(
                  f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for k in values:
            values[k].append(result["metrics"][k]["value"])

    worst = 0.0
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(f"{m['name']:20s} median {med:.6g} {m['unit']}  spread {spread:.3f}  "
              f"bound {m['bound']}  ({spread / m['bound']:.2f} of bound)")
    print(f"worst spread / bound, setup_s aside: {worst:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
