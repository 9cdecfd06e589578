"""Shared pieces of the benchmark: the per-operation outcome and the
loaded fixtures with their references."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from reference import Rewriter


@dataclass
class Outcome:
    """What the benchmark concluded about one operation's output.

    decided: the operation reached an answer (not Unknown, not an
    approximate ball, not exit 3).  failed: it raised, contradicted the
    reference, gave an Equal path that does not replay, or missed an
    expected count or exit code.  known: the failure is a listed program
    defect and the reference confirms it.  work: useful work units the
    operation completed (the numerator of useful_work_per_s).
    """

    decided: bool
    failed: bool = False
    known: bool = False
    work: float = 0.0
    note: str = ""
    evidence: list[str] = field(default_factory=list)


@dataclass
class Context:
    fixture_paths: dict[str, Path]
    fixtures: dict[str, object]
    refs: dict[str, Rewriter]
