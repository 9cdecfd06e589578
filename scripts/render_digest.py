"""One SHA-256 over the exit code and JSON render of every CLI command.

Runs each command in-process through ormkit.cli.dispatch and emit, on
every fixture, in a fixed order: classify, compress, wp on the relation
sides and on their two products, ball, ball with full cells, homology,
structure-check (all kinds), inject-check, and squier-check with seeds
0-3 at 300 and 1000 walk steps.  Reports key the input by its content
digest, not its path, so two checkouts with identical behaviour print
the same digest.  Run from the repository root:

    python3 scripts/render_digest.py
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ormkit.cli import dispatch, emit, parse_presentation
from ormkit.words import spell


def _arg(w) -> str:
    return spell(w) if w else "1"


def commands(fixture: Path) -> list[list[str]]:
    P = parse_presentation(fixture.read_text())
    f = str(fixture)
    out = [
        ["classify", f],
        ["compress", f],
        ["wp", f, _arg(P.u), _arg(P.v)],
        ["wp", f, _arg(P.u + P.v), _arg(P.v + P.u)],
        ["ball", f],
        ["ball", f, "--cells", "full"],
        ["homology", f],
        ["structure-check", f],
        ["inject-check", f],
    ]
    for steps in ("300", "1000"):
        for seed in range(4):
            out.append(["squier-check", f, "--walk-steps", steps,
                        "--seed", str(seed)])
    return out


def main() -> None:
    digest = hashlib.sha256()
    for fixture in sorted((ROOT / "fixtures").glob("*.orm")):
        for argv in commands(fixture):
            code, report = dispatch(argv)
            digest.update(f"{code}\n".encode())
            digest.update(emit(report, "json"))
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
