"""Smoke tests for the scripts shipped next to the library, for the
benchmark tracer, which finds each traced layer by name, and for a short
traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_worked_example_runs_every_section():
    done = subprocess.run([sys.executable, "scripts/worked_example.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          check=True)
    for header in ("relation compression", "classification", "word problem",
                   "interior 2-cycles", "parity random walk"):
        assert f"== {header} ==" in done.stdout


def test_render_digest_prints_one_sha256():
    done = subprocess.run([sys.executable, "scripts/render_digest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          check=True)
    assert re.fullmatch(r"[0-9a-f]{64}\n", done.stdout)
    # the renders are byte-identical across hash seeds; a change that
    # alters any render updates this value and says why in CHANGES.md
    assert done.stdout == (
        "568702ce6061321b14ad28e83651a56e62aaf9310a1591174f8b45bcca08be8b\n")


TEN = ["aa-a", "ab-ba", "ab-c", "aba-aca", "abab-ab", "ababbaba-ababa",
       "babab-b", "degenerate-ab", "special-aaa", "special-ab"]
LADDER = ["ab-c", "aba-aca", "ababbaba-ababa", "babab-b", "special-ab"]


# per workload at seed 1: the header's count, and each phase's fixtures
PHASES = {
    "ball-ladder": ("13 rungs", {p: LADDER for p in (
        "build", "successors", "attach", "kernel")}),
    "cli-checks": ("61 commands", {
        "classify": TEN, "compress": TEN, "inject-check": ["aba-aca"],
        "squier-check": TEN, "structure-check": TEN}),
    "wp-queries": ("40 queries", {
        "equal_bounded": TEN, "equal_via_compression": TEN}),
}


def phase_rows(workload: str) -> list[list[str]]:
    """Each phase's fixtures and its total, then the round's total."""
    return [[phase, f] for phase, fs in PHASES[workload][1].items()
            for f in [*fs, "total"]] + [["total"]]


@pytest.mark.parametrize("workload", PHASES)
def test_phases_prints_every_phase_and_fixture(workload):
    header = PHASES[workload][0]
    done = subprocess.run([sys.executable, "scripts/phases.py", workload,
                           "--seed", "1", "--repeats", "1"],
                          cwd=ROOT, capture_output=True, text=True,
                          check=True)
    lines = done.stdout.splitlines()
    assert lines[0] == f"seed 1, {header}, minimum of 1 rounds"
    assert lines[1].split() == ["phase", "fixture", "cpu_ms", "gc_ms"]
    rows = [line.split() for line in lines[2:]]
    assert [r[:-2] for r in rows] == phase_rows(workload)
    for r in rows:
        assert all(float(ms) >= 0 for ms in r[-2:])


@pytest.mark.parametrize("workload", PHASES)
def test_phases_against_a_copy_prints_both_tables(workload, tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "scripts/phases.py", workload,
                           "--seed", "1", "--repeats", "1",
                           "--against-src", str(tmp_path / "src")],
                          cwd=ROOT, capture_output=True, text=True,
                          check=True)
    # each table: its header, then rows up to the round's total
    tables, table = [], None
    for line in done.stdout.splitlines():
        cells = line.split()
        if cells[:2] == ["phase", "fixture"]:
            table = []
            tables.append((cells[2:], table))
        elif table is not None:
            table.append(cells)
            if cells[0] == "total" and len(cells) == 3:
                table = None
    assert [head for head, _ in tables] == [
        ["cpu_ms", "gc_ms"], ["cpu_ms", "gc_ms"], ["ratio", "wins"]]
    mine, other, compared = ([r[:-2] for r in rows] for _, rows in tables)
    assert mine == other == compared
    assert mine == phase_rows(workload)
    assert all(r[-1] in ("0/1", "1/1") for r in tables[2][1])


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_layer_resolves():
    """A layer the tracer cannot find drops its metrics from a traced
    benchmark run: installing must find every layer, and uninstalling
    must put every original back."""
    tracer = load_tracer()
    for _, module, _, _ in tracer.LAYERS:
        importlib.import_module(module)
    cli = sys.modules["ormkit.cli"]

    def originals():
        return ({prefix: tracer._resolve(module, path)
                 for prefix, module, path, _ in tracer.LAYERS},
                {name: dict(vars(mod)) for name, mod in sys.modules.items()
                 if name.startswith("ormkit")})

    before = originals()
    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == []
        code, _ = cli.dispatch(["classify", str(ROOT / "fixtures" / "aba-aca.orm")])
        assert code == 0
        assert t.calls["cli.dispatch"] == t.calls["classify.classify_full"] == 1
    finally:
        t.uninstall()
    assert originals() == before


def no_constant(name):
    raise ValueError(f"{name} in a benchmark result")


@pytest.mark.parametrize("workload",
                         ["wp-queries", "ball-ladder", "cli-checks"])
def test_traced_benchmark_run_reports_every_layer(workload):
    """The traced run as the benchmark starts it: run.py imports ormkit
    itself, so a layer that `import ormkit` no longer loads shows up as
    absent here, and its last line must be the result."""
    done = subprocess.run([sys.executable, "perfbench/run.py",
                           "--workload", workload, "--seed", "1",
                           "--seconds", "0.5", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True,
                          check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1], parse_constant=no_constant)
    assert result["correct"] is True
    names = [name for name, _, _ in load_tracer().METRICS]
    assert [n for n in names if n not in result["metrics"]] == []
    record, = [json.loads(line.removeprefix("record: "),
                          parse_constant=no_constant)
               for line in lines if line.startswith("record: ")]
    assert record["absent_layers"] == []
