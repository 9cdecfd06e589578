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
