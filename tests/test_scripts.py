"""Smoke tests for the scripts shipped next to the library, and for the
benchmark tracer, which finds each traced layer by name."""

from __future__ import annotations

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

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


def test_ladder_phases_prints_every_phase():
    done = subprocess.run([sys.executable, "scripts/ladder_phases.py",
                           "--seed", "1", "--repeats", "1"],
                          cwd=ROOT, capture_output=True, text=True,
                          check=True)
    lines = done.stdout.splitlines()
    assert lines[0] == "seed 1, 13 rungs, minimum of 1 rounds"
    assert lines[1].split() == ["phase", "cpu_ms", "gc_ms"]
    assert [line.split()[0] for line in lines[2:]] == [
        "build", "successors", "attach", "kernel", "total"]
    for line in lines[2:]:
        assert all(float(ms) >= 0 for ms in line.split()[1:])


def test_cli_phases_prints_every_command_kind():
    done = subprocess.run([sys.executable, "scripts/cli_phases.py",
                           "--seed", "1", "--repeats", "1"],
                          cwd=ROOT, capture_output=True, text=True,
                          check=True)
    lines = done.stdout.splitlines()
    assert lines[0] == "seed 1, 61 commands, minimum of 1 rounds"
    assert lines[1].split() == ["kind", "fixture", "cpu_ms"]
    rows = [line.split() for line in lines[2:]]
    kinds = ["classify", "compress", "inject-check", "squier-check",
             "structure-check"]
    assert [r[0] for r in rows if r[1] == "total"] == kinds
    assert [r[1] for r in rows if r[0] == "inject-check"] == [
        "aba-aca", "total"]
    # ten fixtures and a total for four kinds, one fixture for inject-check
    assert rows[-1][0] == "total" and len(rows) == 4 * 11 + 2 + 1
    for r in rows:
        assert float(r[-1]) >= 0


def test_wp_phases_prints_every_fixture_and_decider():
    done = subprocess.run([sys.executable, "scripts/wp_phases.py",
                           "--seed", "1", "--repeats", "1"],
                          cwd=ROOT, capture_output=True, text=True,
                          check=True)
    lines = done.stdout.splitlines()
    assert lines[0] == "seed 1, 40 queries, minimum of 1 rounds"
    assert lines[1].split() == ["decider", "fixture", "cpu_ms"]
    rows = [line.split() for line in lines[2:]]
    assert [r[0] for r in rows if r[1] == "total"] == [
        "equal_bounded", "equal_via_compression"]
    # ten fixtures and a total for each decider, then the round's total
    assert rows[-1][0] == "total" and len(rows) == 2 * 11 + 1
    assert [r[1] for r in rows[:11]] == [
        "aa-a", "ab-ba", "ab-c", "aba-aca", "abab-ab", "ababbaba-ababa",
        "babab-b", "degenerate-ab", "special-aaa", "special-ab", "total"]
    for r in rows:
        assert float(r[-1]) >= 0


def test_every_traced_layer_resolves():
    """A layer the tracer cannot find drops its metrics from a traced
    benchmark run: installing must find every layer, and uninstalling
    must put every original back."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
