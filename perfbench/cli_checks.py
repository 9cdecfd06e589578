"""cli-checks: in-process ormkit.cli.dispatch + emit (JSON) runs.

Here the wp layer is used as a memoized class store (Oracle.class_of and
rep, thousands of lookups per walk) rather than as fresh searches, and
cli is measured end to end.  Each round runs, in seeded order:

- classify, compress --chain shortest-first and structure-check (all
  kinds) on every fixture;
- squier-check --walk-steps 1000 on every fixture with walk seeds 0, 1
  and 2 (criterion 4 walks seeds 0-19).  They are fixed, and the
  benchmark seed only orders the commands: a walk's cost varies about 4x
  with its seed, and walk seeds drawn per run made this workload's rate
  swing by a third between runs;
- inject-check with acceptance criterion 7's settings.

Every operation has an expected outcome with its source.  A squier-check
exit 3 (parity class not saturated) is undecided, not failed.
structure-check on abab-ab and babab-b exits 1 today through false
failures (ROADMAP item 1); those operations count as failed, and each of
their failure lines must be refuted by the reference for the failure to
be attributed to the program.
"""

from __future__ import annotations

import json
import random
import re

from common import Context, Outcome

WALK_SEEDS = (0, 1, 2)
WALK_STEPS = 1000
INJECT = {"fixture": "aba-aca", "samples": 1000, "seed": 20260816}

# caseTag and torsion per fixture: acceptance criterion 3's table.
CASES = {
    "aa-a": ("SubspecialTorsionFree", False),
    "ab-ba": ("IncompressibleNonSubspecial", False),
    "ab-c": ("IncompressibleNonSubspecial", False),
    "aba-aca": ("OneStepCompressibleNonSubspecial", False),
    "abab-ab": ("SubspecialTorsionFree", False),
    "ababbaba-ababa": ("MultiStepCompressibleNonSubspecial", False),
    "babab-b": ("SubspecialTorsion", True),
    "degenerate-ab": ("Degenerate", False),
    "special-aaa": ("Special", True),
    "special-ab": ("Special", False),
}

# Exhaustive checked counts at radius 6 with zero skips: criterion 8.
CRITERION_8 = {"aba-aca": {"PsiWellDefined": 134, "PsiInjectiveOnIdeal": 43660,
                           "BasisFreeness": 8001, "LocalDivisorIso": 66430}}

# Program defects that make an operation fail today, with their source.
KNOWN_DEFECTS = {
    ("structure-check", "abab-ab"): "ROADMAP item 1: undecided classes compare equal",
    ("structure-check", "babab-b"): "ROADMAP item 1: undecided classes compare equal",
}

SOURCES = {
    "classify": "acceptance criterion 3 (caseTag, torsion); README exit codes",
    "compress": "README exit codes; a shortest-first chain ends incompressible (criterion 1's calculus)",
    "structure-check": "ROADMAP item 1 (every fixture passes); criterion 8 (aba-aca counts)",
    "squier-check": "acceptance criterion 4 (parity invariant, all steps applied); exit 3 is undecided",
    "inject-check": "acceptance criterion 7 (1000 samples, 959 singletons, nothing skipped)",
}

_LOCAL = re.compile(r"(\S+) vs (\S+): monoid says (True|False), local divisor says (True|False)$")
_COLLIDE = re.compile(r"(\S+) and (\S+) collide$")


def parse_word(s: str) -> tuple[str, ...]:
    return () if s == "ε" else tuple(s)


class CliChecks:
    op_name = "commands"
    work_name = "checked_per_s"

    def __init__(self, ctx: Context, ormkit):
        self.ctx = ctx
        self.cli = ormkit.cli

    def make_round(self, rng: random.Random) -> list[tuple[str, str, list[str]]]:
        ops = []
        for fixture, path in sorted(self.ctx.fixture_paths.items()):
            f = str(path)
            ops.append(("classify", fixture, ["classify", f]))
            ops.append(("compress", fixture, ["compress", f, "--chain", "shortest-first"]))
            ops.append(("structure-check", fixture, ["structure-check", f]))
        for fixture, path in sorted(self.ctx.fixture_paths.items()):
            for seed in WALK_SEEDS:
                ops.append(("squier-check", fixture,
                            ["squier-check", str(path), "--walk-steps", str(WALK_STEPS),
                             "--seed", str(seed)]))
        path = self.ctx.fixture_paths[INJECT["fixture"]]
        ops.append(("inject-check", INJECT["fixture"],
                    ["inject-check", str(path), "--samples", str(INJECT["samples"]),
                     "--seed", str(INJECT["seed"])]))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        code, report = self.cli.dispatch(op[2])
        return code, self.cli.emit(report, "json")

    def describe(self, op) -> str:
        return " ".join(op[2][:1] + [op[1]] + op[2][2:])

    def check(self, op, result) -> Outcome:
        command, fixture, _ = op
        code, raw = result
        out = json.loads(raw)
        payload = out.get("payload", {})
        if code == 3:
            return Outcome(False, note=f"exit 3: {payload.get('error', '')}")
        outcome = getattr(self, "_" + command.replace("-", "_"))(fixture, code, payload)
        if outcome.failed and (command, fixture) in KNOWN_DEFECTS:
            outcome.known = bool(outcome.evidence)
            outcome.note = f"{outcome.note} [{KNOWN_DEFECTS[(command, fixture)]}]"
        return outcome

    # ------------------------------------------------- expectations

    def _classify(self, fixture, code, payload) -> Outcome:
        want = CASES[fixture]
        got = (payload.get("caseTag"), payload.get("torsion"))
        if code != 0 or got != want:
            return Outcome(True, failed=True, note=f"exit {code}, {got}, expected {want}")
        return Outcome(True)

    def _compress(self, fixture, code, payload) -> Outcome:
        ref = self.ctx.refs[fixture]
        steps = payload.get("steps", [])
        if code != 0:
            return Outcome(True, failed=True, note=f"exit {code}")
        if bool(steps) != bool(ref.compressing_words()):
            return Outcome(True, failed=True,
                           note=f"{len(steps)} steps on a presentation the reference finds "
                                + ("compressible" if ref.compressing_words() else "incompressible"))
        if steps:
            lhs, rhs = steps[-1]["lhs"], steps[-1]["rhs"]
            for k in range(1, len(rhs) + 1):
                r = rhs[:k]
                if lhs[:k] == r and lhs[len(lhs) - k:] == r and rhs[len(rhs) - k:] == r:
                    return Outcome(True, failed=True, note="terminal relation is still compressible")
        return Outcome(True)

    def _squier_check(self, fixture, code, payload) -> Outcome:
        applied = payload.get("applied", 0)
        if code != 0 or not payload.get("passed") or applied != WALK_STEPS:
            return Outcome(True, failed=True, work=applied,
                           note=f"exit {code}, applied {applied}, violation {payload.get('violation')}")
        return Outcome(True, work=applied)

    def _inject_check(self, fixture, code, payload) -> Outcome:
        work = payload.get("samples", 0) + payload.get("singletonChecked", 0)
        want = {"passed": True, "samples": INJECT["samples"], "skipped": 0,
                "singletonChecked": 959, "singletonSkipped": 0}
        got = {k: payload.get(k) for k in want}
        if code != 0 or got != want:
            return Outcome(True, failed=True, work=work, note=f"exit {code}, {got}")
        return Outcome(True, work=work)

    def _structure_check(self, fixture, code, payload) -> Outcome:
        checks = [c for c in payload.get("checks", []) if c.get("applicable")]
        work = sum(c["checked"] for c in checks)
        problems = []
        for c in checks:
            want = CRITERION_8.get(fixture, {}).get(c["check"])
            if want is not None and (c["checked"], c["skipped"]) != (want, 0):
                problems.append(f"{c['check']} checked {c['checked']} skipped "
                                f"{c['skipped']}, expected {want} and 0")
        failing = [c for c in checks if not c["passed"]]
        if code == 0 and not failing and not problems:
            return Outcome(True, work=work)
        outcome = Outcome(True, failed=True, work=work)
        outcome.note = "; ".join(problems) or f"exit {code}, failing: " + \
            ", ".join(f"{c['check']} ({len(c['failures'])})" for c in failing)
        if problems:
            return outcome
        ref = self.ctx.refs[fixture]
        for c in failing:
            refuted, lines = self._refute(ref, c["check"], c["failures"])
            if refuted < lines or not lines:
                outcome.note = f"unrefuted {c['check']} failures; {outcome.note}"
                outcome.evidence = []
                return outcome
            outcome.evidence.append(f"{c['check']}: the reference refutes all {lines} "
                                    f"failure lines, e.g. {c['failures'][0]!r}")
        return outcome

    @staticmethod
    def _refute(ref, check: str, lines: list[str]) -> tuple[int, int]:
        """How many failure lines the reference shows to be false."""
        refuted = 0
        for line in lines:
            if check == "BasisFreeness":
                # "y1·r = y2·r" claims two basis words are congruent
                left, right = line.split(" = ")
                x1, x2 = (tuple(w for part in side.split("·") for w in parse_word(part))
                          for side in (left, right))
                refuted += not ref.equal(x1, x2)
            elif check == "LocalDivisorIso":
                m = _LOCAL.match(line)
                if not m:
                    continue
                w1, w2 = parse_word(m[1]), parse_word(m[2])
                claim = m[3] == "True"
                refuted += any(ref.equal(r + w1, r + w2) != claim
                               for r in ref.compressing_words())
            elif check == "PsiInjectiveOnIdeal":
                # psi is injective on the ideal, so only congruent words
                # may collide
                m = _COLLIDE.match(line)
                refuted += bool(m) and not ref.equal(parse_word(m[1]), parse_word(m[2]))
        return refuted, len(lines)

    def key(self, op, o: Outcome) -> tuple:
        status = ("failed (known defect)" if o.known else "failed") if o.failed \
            else "ok" if o.decided else "undecided"
        return op[0], op[1], status

    def mix(self, counts) -> dict:
        commands: dict[str, dict] = {}
        for (command, fixture, status), c in sorted(counts.items()):
            entry = commands.setdefault(command, {})
            entry[status] = entry.get(status, 0) + c
        return {"commands": commands,
                "walk_seeds": WALK_SEEDS,
                "inject": INJECT,
                "sources": SOURCES,
                "known_defects": {f"{c} {f}": why for (c, f), why in KNOWN_DEFECTS.items()}}
