"""Command-line surface: presentation files, dispatch, report emission.

Presentation files (.orm) declare a single-character alphabet and one
relation:

    alphabet: a b c
    relation: aba = aca

Blank lines and lines starting with # are ignored.  A relation side
written as 1 is the empty word (unless 1 is a declared letter).  Every
command prints one Report; --format picks the rendering.  Exit codes:
0 success, 1 property violation found, 2 usage, parse or precondition
error, 3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import hashlib
import json
import sys
from dataclasses import dataclass, field

from .cayley import (
    BudgetExceeded,
    CayleyBall,
    CellVariant,
    CheckKind,
    attach_cells,
    build_ball,
    matrices_csv,
    structure_checks,
    to_dot,
    to_json_dict,
    two_cycle_basis,
)
from .classify import classify_full
from .compress import Strategy, compress_chain, compress_step
from .squier import (
    UndecidableClass,
    injectivity_harness,
    random_walk_check,
    relation_edge,
)
from .words import (
    PreconditionError,
    Presentation,
    Word,
    make_presentation,
    spell,
)
from .wp import (
    BudgetTooShort,
    Distinct,
    Equal,
    OracleBudget,
    Unknown,
    equal_bounded,
)

FORMATS = ("json", "text", "dot", "csv")


class UsageError(Exception):
    """Bad flags, bad words, or a format the command cannot render."""


class PresentationSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class UndeclaredLetter(PresentationSyntaxError):
    def __init__(self, letter: str, line: int, col: int):
        super().__init__(f"undeclared letter {letter!r}", line, col)
        self.letter = letter


class MultipleRelations(PresentationSyntaxError):
    def __init__(self, line: int):
        super().__init__("more than one relation", line, 1)


# ------------------------------------------------------------ file format


def _parse_side(segment: str, line_no: int, base_col: int,
                alphabet: tuple[str, ...]) -> Word:
    if segment.strip() == "1" and "1" not in alphabet:
        return ()
    letters = []
    for off, ch in enumerate(segment):
        if ch.isspace():
            continue
        if ch not in alphabet:
            raise UndeclaredLetter(ch, line_no, base_col + off)
        letters.append(ch)
    return tuple(letters)


def parse_presentation(text: str) -> Presentation:
    """Parse .orm text into a normalized presentation."""
    alphabet: tuple[str, ...] | None = None
    relation: tuple[Word, Word] | None = None
    line_no = 0
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip()
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if line.startswith("alphabet:"):
            if alphabet is not None:
                raise PresentationSyntaxError("more than one alphabet",
                                              line_no, 1)
            tokens = line[len("alphabet:"):].split()
            for tok in tokens:
                if len(tok) != 1:
                    col = line.index(tok, len("alphabet:")) + 1
                    raise PresentationSyntaxError(
                        f"letters are single characters, got {tok!r}",
                        line_no, col)
            if len(set(tokens)) != len(tokens):
                raise PresentationSyntaxError("duplicate letter", line_no, 1)
            if not tokens:
                raise PresentationSyntaxError("empty alphabet", line_no, 1)
            alphabet = tuple(tokens)
        elif line.startswith("relation:"):
            if relation is not None:
                raise MultipleRelations(line_no)
            if alphabet is None:
                raise PresentationSyntaxError(
                    "alphabet must be declared before the relation",
                    line_no, 1)
            body = line[len("relation:"):]
            if body.count("=") != 1:
                raise PresentationSyntaxError(
                    "relation needs exactly one '='", line_no,
                    len("relation:") + 1)
            eq = body.index("=")
            lhs = _parse_side(body[:eq], line_no,
                              len("relation:") + 1, alphabet)
            rhs = _parse_side(body[eq + 1:], line_no,
                              len("relation:") + eq + 2, alphabet)
            relation = (lhs, rhs)
        else:
            raise PresentationSyntaxError(
                f"expected 'alphabet:' or 'relation:', got {line.split(':')[0]!r}",
                line_no, 1)
    if alphabet is None:
        raise PresentationSyntaxError("missing alphabet line", line_no + 1, 1)
    if relation is None:
        raise PresentationSyntaxError("missing relation line", line_no + 1, 1)
    return make_presentation(alphabet, relation[0], relation[1])


# ------------------------------------------------------------------ report


@dataclass(frozen=True)
class Report:
    command: str
    input_digest: str
    payload: dict
    verdict_counts: dict[str, int]
    seeds: tuple[int, ...]
    budgets: dict
    approximate: bool
    renders: dict[str, str] = field(default_factory=dict, repr=False,
                                    compare=False)


def _as_json_obj(report: Report) -> dict:
    return {
        "command": report.command,
        "inputDigest": report.input_digest,
        "payload": report.payload,
        "verdictCounts": report.verdict_counts,
        "seeds": list(report.seeds),
        "budgets": report.budgets,
        "approximate": report.approximate,
    }


def _text_lines(value, indent: str) -> list[str]:
    if isinstance(value, dict):
        items = [(f"{k}:", value[k]) for k in sorted(value, key=str)]
    else:
        items = [("-", v) for v in value]
    out = []
    for label, v in items:
        if isinstance(v, (dict, list, tuple)) and v:
            out.append(f"{indent}{label}")
            out.extend(_text_lines(v, indent + "  "))
        else:
            out.append(f"{indent}{label} {_scalar(v)}")
    return out


def _scalar(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (dict, list, tuple)):
        return "empty"
    return str(v)


def emit(report: Report, fmt: str = "json") -> bytes:
    """Render a report deterministically; raises UsageError on a format
    the command did not produce."""
    if fmt == "json":
        text = json.dumps(_as_json_obj(report), sort_keys=True, indent=2,
                          ensure_ascii=False)
        return (text + "\n").encode()
    if fmt == "text":
        lines = [f"command: {report.command}",
                 f"input: {report.input_digest or 'none'}"]
        lines += _text_lines(report.payload, "")
        for k in sorted(report.verdict_counts):
            lines.append(f"verdict {k}: {report.verdict_counts[k]}")
        if report.seeds:
            lines.append("seeds: " + " ".join(map(str, report.seeds)))
        for k in sorted(report.budgets, key=str):
            lines.append(f"budget {k}: {_scalar(report.budgets[k])}")
        lines.append(f"approximate: {_scalar(report.approximate)}")
        return ("\n".join(lines) + "\n").encode()
    if fmt in report.renders:
        return report.renders[fmt].encode()
    if fmt in FORMATS:
        raise UsageError(f"format {fmt!r} not supported for {report.command}")
    raise UsageError(f"unknown format {fmt!r}")


# ------------------------------------------------------------- dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _nonnegative(text: str) -> int:
    """argparse type for radii and counts."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _budget(ns) -> OracleBudget:
    kwargs = {"max_len": ns.budget_len}
    if ns.budget_words is not None:
        if ns.budget_words < 1:
            raise UsageError("--budget-words must be positive")
        kwargs["max_words"] = ns.budget_words
    return OracleBudget(**kwargs)


def _parse_file(raw: bytes) -> Presentation:
    raw = raw.removeprefix(codecs.BOM_UTF8)
    try:
        text = raw.decode()
    except UnicodeDecodeError as e:
        line_start = raw.rfind(b"\n", 0, e.start) + 1
        col = len(raw[line_start:e.start].decode()) + 1
        raise PresentationSyntaxError(
            f"invalid UTF-8 byte 0x{raw[e.start]:02x}",
            raw.count(b"\n", 0, e.start) + 1, col)
    return parse_presentation(text)


def _parse_word(text: str, P: Presentation) -> Word:
    try:
        return _parse_side(text, 1, 1, P.alphabet)
    except UndeclaredLetter as e:
        raise UsageError(f"undeclared letter {e.letter!r} in word {text!r}")


def _step_dict(data) -> dict:
    return {
        "by": spell(data.r),
        "alphabet": list(data.compressed.alphabet),
        "lhs": list(data.compressed.u),
        "rhs": list(data.compressed.v),
        "relation": data.compressed.describe(),
    }


# Each handler takes the parsed flags, the loaded presentation and the
# budget, and returns (exit code, payload, verdict counts, extra Report
# fields); dispatch assembles the Report.


def _cmd_classify(ns, P, b):
    c = classify_full(P)
    payload = {
        "caseTag": c.case.value,
        "torsion": c.torsion,
        "compressing": [spell(r) for r in c.compressing],
        "cdLeft": list(c.cd_left.as_pair()),
        "cdRight": list(c.cd_right.as_pair()),
        "gdLeft": list(c.gd_left.as_pair()),
        "gdRight": list(c.gd_right.as_pair()),
        "asphericity": c.asphericity.value,
    }
    return 0, payload, {c.case.value: 1}, {}


def _cmd_compress(ns, P, b):
    if ns.by is not None:
        data = compress_step(P, _parse_word(ns.by, P))
        return 0, {"step": _step_dict(data)}, {"steps": 1}, {}
    chain = compress_chain(P, Strategy(ns.chain))
    payload = {
        "strategy": ns.chain,
        "steps": [_step_dict(d) for d in chain.steps],
        "terminal": chain.terminal.describe(),
    }
    return 0, payload, {"steps": len(chain.steps)}, {}


def _cmd_wp(ns, P, b):
    w1 = _parse_word(ns.w1, P)
    w2 = _parse_word(ns.w2, P)
    verdict = equal_bounded(P, w1, w2, b)
    payload: dict = {
        "w1": P.text(w1) if w1 else "",
        "w2": P.text(w2) if w2 else "",
        "verdict": type(verdict).__name__,
    }
    code = 0
    if isinstance(verdict, Equal):
        payload["path"] = [P.text(w) if w else "" for w in verdict.path]
        payload["pathLength"] = verdict.path_length
    elif isinstance(verdict, Distinct):
        payload["certificate"] = verdict.certificate
    elif isinstance(verdict, Unknown):
        payload["reason"] = verdict.reason
        code = 3
    return code, payload, {payload["verdict"]: 1}, {}


def _build_complex(ns, P, b) -> CayleyBall:
    ball = build_ball(P, ns.radius, b)
    if ns.cells:
        variant = (CellVariant.FULL_RELATION if ns.cells == "full"
                   else CellVariant.COMPRESSED_IDEAL)
        ball = attach_cells(ball, variant)
    return ball


def _cmd_ball(ns, P, b):
    ball = _build_complex(ns, P, b)
    payload = {
        "radius": ns.radius,
        "cells": ns.cells,
        "graph": to_json_dict(ball),
    }
    counts = {"vertices": len(ball.vertices), "edges": len(ball.edges),
              "cells": len(ball.cells)}
    return 0, payload, counts, {"approximate": ball.approximate,
                                "renders": {"dot": to_dot(ball),
                                            "csv": matrices_csv(ball)}}


def _cmd_homology(ns, P, b):
    ball = _build_complex(ns, P, b)
    basis = two_cycle_basis(ball)
    rendered = []
    for vec in basis:
        rendered.append([])
        for i in sorted(vec):
            base = ball.vertices[ball.cells[i].base_vertex]
            rendered[-1].append({"cellIndex": i,
                                 "base": P.text(base) if base else "",
                                 "variant": ball.cells[i].variant.value,
                                 "coeff": vec[i]})
    payload = {
        "radius": ns.radius,
        "cells": ns.cells,
        "basisSize": len(basis),
        "basis": rendered,
    }
    return 0, payload, {"cycles": len(basis)}, {
        "approximate": ball.approximate,
        "renders": {"csv": matrices_csv(ball)}}


def _cmd_squier_check(ns, P, b):
    walk = random_walk_check(P, (relation_edge(),), ns.walk_steps,
                             seed=ns.seed, budget=b)
    payload = {
        "seed": walk.seed,
        "requested": walk.requested,
        "applied": walk.applied,
        "passed": walk.passed,
        "violation": walk.violation,
        "log": list(walk.log),
    }
    counts = {"applied": walk.applied,
              "violations": 0 if walk.passed else 1}
    return (0 if walk.passed else 1), payload, counts, {"seeds": (ns.seed,)}


def _cmd_inject_check(ns, P, b):
    rep = injectivity_harness(P, samples=ns.samples,
                              max_support=ns.max_support, seed=ns.seed,
                              budget=b, radius=ns.radius)
    payload = {
        "samples": rep.samples,
        "skipped": rep.skipped,
        "violations": list(rep.violations),
        "singletonChecked": rep.singleton_checked,
        "singletonSkipped": rep.singleton_skipped,
        "singletonViolations": list(rep.singleton_violations),
        "preconditions": {
            "incompressible": rep.pre_incompressible,
            "sharedLastLetter": rep.pre_shared_last_letter,
            "aspherical": rep.pre_aspherical,
        },
        "passed": rep.passed,
    }
    counts = {"violations": len(rep.violations) + len(rep.singleton_violations),
              "skipped": rep.skipped + rep.singleton_skipped}
    return (0 if rep.passed else 1), payload, counts, {"seeds": (ns.seed,)}


def _cmd_structure_check(ns, P, b):
    kinds = ([CheckKind(ns.check)] if ns.check else list(CheckKind))
    entries = []
    counts = {"passed": 0, "failed": 0, "inapplicable": 0}
    for kind in kinds:
        try:
            rep = structure_checks(P, kind, b, ns.radius)
        except PreconditionError as e:
            if ns.check:
                raise
            entries.append({"check": kind.value, "applicable": False,
                            "reason": str(e)})
            counts["inapplicable"] += 1
            continue
        entries.append({
            "check": kind.value,
            "applicable": True,
            "passed": rep.passed,
            "checked": rep.checked,
            "skipped": rep.skipped,
            "failures": list(rep.failures),
            "notes": list(rep.notes),
        })
        counts["passed" if rep.passed else "failed"] += 1
    payload = {"radius": ns.radius, "checks": entries}
    return (1 if counts["failed"] else 0), payload, counts, {}


@functools.cache
def _parser() -> _Parser:
    # built on first use and shared: parse_args keeps no state between
    # calls, and each handler looks up what it calls when it runs
    p = _Parser(prog="ormkit", allow_abbrev=False,
                description="One-relator monoid toolkit: compression, "
                            "classification, word problem, complexes.")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_Parser)

    def add(name: str, handler, **kwargs):
        sp = sub.add_parser(name, allow_abbrev=False, **kwargs)
        sp.set_defaults(handler=handler)
        sp.add_argument("file", help="presentation file (.orm)")
        sp.add_argument("--format", choices=FORMATS, default="json")
        sp.add_argument("--budget-words", type=int, default=None)
        sp.add_argument("--budget-len", type=_nonnegative, default=None)
        return sp

    add("classify", _cmd_classify, help="case tag, torsion, dimension bounds")

    sp = add("compress", _cmd_compress,
             help="compress the relation by a sealing word")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--by", default=None, metavar="WORD")
    group.add_argument("--chain", default="shortest-first",
                       choices=["shortest-first", "longest-first"],
                       metavar="STRATEGY")

    sp = add("wp", _cmd_wp, help="decide equality of two words")
    sp.add_argument("w1")
    sp.add_argument("w2")

    sp = add("ball", _cmd_ball,
             help="Cayley graph ball, optionally with 2-cells")
    sp.add_argument("--radius", type=_nonnegative, default=4)
    sp.add_argument("--cells", choices=["full", "ideal"], default=None)

    sp = add("homology", _cmd_homology,
             help="interior 2-cycle basis of the complex")
    sp.add_argument("--radius", type=_nonnegative, default=4)
    sp.add_argument("--cells", choices=["full", "ideal"], default="full")

    sp = add("squier-check", _cmd_squier_check,
             help="random-walk parity invariance check")
    sp.add_argument("--walk-steps", type=_nonnegative, default=200)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("inject-check", _cmd_inject_check,
             help="sampled formal-sum injectivity harness")
    sp.add_argument("--samples", type=_nonnegative, default=100)
    sp.add_argument("--max-support", type=int, default=4)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--radius", type=_nonnegative, default=6)

    sp = add("structure-check", _cmd_structure_check,
             help="oracle-backed structural checks")
    sp.add_argument("check", nargs="?", default=None,
                    choices=[k.value for k in CheckKind])
    sp.add_argument("--radius", type=_nonnegative, default=6)

    return p


def _error_report(command: str, message: str, digest: str,
                  budgets: dict) -> Report:
    return Report(command, digest, {"error": message}, {"error": 1}, (),
                  budgets, False)


def dispatch(argv: list[str]) -> tuple[int, Report]:
    """Run one command; never raises for user-input problems.

    Exit 2 covers bad flags, unreadable or malformed files and every
    PreconditionError; any other exception is a defect and propagates.
    An error report keeps the input digest once the file is read and
    the budgets once they are built, so it says which caps were in force.
    """
    command = digest = ""
    budgets: dict = {}
    try:
        ns = _parser().parse_args(argv)
        command = ns.command
        with open(ns.file, "rb") as fh:
            raw = fh.read()
        digest = "sha256:" + hashlib.sha256(raw).hexdigest()
        b = _budget(ns)
        budgets = {"maxWords": b.max_words, "maxLen": b.max_len}
        P = _parse_file(raw)
        code, payload, counts, extra = ns.handler(ns, P, b)
    except (UsageError, PresentationSyntaxError, PreconditionError, OSError,
            BudgetTooShort) as e:
        return 2, _error_report(command or "usage", str(e), digest, budgets)
    except BudgetExceeded as e:
        return 3, _error_report(command, f"budget exhausted: {e}", digest,
                                budgets)
    except UndecidableClass as e:
        return 3, _error_report(command,
                                f"class not saturated within budget: {e}",
                                digest, budgets)
    return code, Report(command, digest,
                        {"presentation": P.describe(), **payload}, counts,
                        extra.get("seeds", ()), budgets,
                        extra.get("approximate", False),
                        extra.get("renders", {}))


def _requested_format(argv: list[str]) -> str:
    """The last --format value in argv, the one argparse keeps; after
    the first "--" every argument is positional."""
    fmt = "json"
    for i, arg in enumerate(argv):
        if arg == "--":
            break
        if arg == "--format" and i + 1 < len(argv):
            fmt = argv[i + 1]
        elif arg.startswith("--format="):
            fmt = arg.split("=", 1)[1]
    return fmt


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    code, report = dispatch(args)
    fmt = _requested_format(args)
    if fmt not in FORMATS:
        fmt = "json"
    try:
        out = emit(report, fmt)
    except UsageError as e:
        out = emit(_error_report(report.command, str(e),
                                 report.input_digest, report.budgets))
        code = 2
    sys.stdout.buffer.write(out)
    sys.stdout.buffer.flush()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
