"""Start-up time: the benchmark's set-up child, one fresh interpreter a run.

Runs perfbench/run.py's set-up child (import ormkit and ormkit.cli, then
parse the benchmark's fixtures, timed inside the child) --repeats times
on this tree's src/, and with --against-src on PATH as well, the two
trees taking turns going first.  Run from the repository root:

    python3 scripts/startup.py --repeats 21 --against-src ../parent/src

prints each tree's median and quartiles in milliseconds, the ratio of
this tree's median to the other's and the rounds in which this tree
started faster.  A tree with a bytecode cache skips compiling the
package, which without one is most of the child's time, so each row
also counts the package's modules with up-to-date cached bytecode for
this interpreter, before the first run and after the last (a run
writes them unless PYTHONDONTWRITEBYTECODE is set).
"""

import argparse
import importlib.util
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import _SETUP_CHILD, fixture_paths, quantile


def setup_seconds(src: Path, fixtures: list[str]) -> float:
    done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(src),
                           *fixtures], cwd=ROOT, capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def cached_modules(src: Path) -> int:
    """Modules of src/ormkit whose cached bytecode this interpreter would
    load: a timestamp pyc whose recorded source mtime and size match
    (a copy that does not keep mtimes leaves its pycs stale)."""
    count = 0
    for py in (src / "ormkit").glob("*.py"):
        pyc = Path(importlib.util.cache_from_source(str(py)))
        head = pyc.read_bytes()[:16] if pyc.is_file() else b""
        st = py.stat()
        count += head == (importlib.util.MAGIC_NUMBER + bytes(4)
                          + (int(st.st_mtime) & 0xFFFFFFFF).to_bytes(4, "little")
                          + (st.st_size & 0xFFFFFFFF).to_bytes(4, "little"))
    return count


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=11)
    p.add_argument("--against-src", type=Path, metavar="PATH",
                   help="a directory holding another tree's ormkit package")
    a = p.parse_args()
    trees = [("this", ROOT / "src")]
    if a.against_src is not None:
        if not (a.against_src / "ormkit" / "__init__.py").is_file():
            raise SystemExit(f"no ormkit sources under {a.against_src}")
        trees.append(("against", a.against_src.resolve()))
    fixtures = [str(path) for path in fixture_paths().values()]
    before = [cached_modules(src) for _, src in trees]
    times: list[list[float]] = [[] for _ in trees]
    for r in range(max(1, a.repeats)):
        order = range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))
        for i in order:
            times[i].append(setup_seconds(trees[i][1], fixtures))
    print(f"set-up child, {len(times[0])} runs per tree, each in a fresh "
          f"interpreter, {len(fixtures)} fixtures")
    print(f"{'tree':<10}{'median_ms':>10}{'q1_ms':>10}{'q3_ms':>10}"
          f"{'pycache':>10}  src")
    for (name, src), ts, cached in zip(trees, times, before):
        q1, q3 = quantile(ts, 25), quantile(ts, 75)
        print(f"{name:<10}{statistics.median(ts) * 1e3:>10.1f}{q1 * 1e3:>10.1f}"
              f"{q3 * 1e3:>10.1f}{f'{cached}/{cached_modules(src)}':>10}  {src}")
    if len(trees) == 2:
        mine, other = times
        wins = sum(x < y for x, y in zip(mine, other))
        print(f"ratio {statistics.median(mine) / statistics.median(other):.3f} "
              f"(this tree's median over the other's), this tree faster in "
              f"{wins}/{len(mine)} rounds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
