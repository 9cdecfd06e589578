"""Smoke tests for the scripts shipped next to the library."""

from __future__ import annotations

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
