"""CLI tests: file parsing, dispatch exit codes, deterministic emission.

Digest expectations are recomputed with hashlib rather than frozen, so
the tests stay valid when fixture whitespace changes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ormkit.cli as cli
from ormkit.cayley import CayleyBall, to_dot
from ormkit.cli import (
    FORMATS,
    MultipleRelations,
    PresentationSyntaxError,
    Report,
    UndeclaredLetter,
    UsageError,
    _parse_side,
    _parse_word,
    dispatch,
    emit,
    main,
    parse_presentation,
)
from ormkit.words import make_presentation, word
from support import FIXTURES, fx


# ------------------------------------------------------------- parsing


def test_parse_examples():
    P = parse_presentation("alphabet: a b c\nrelation: aba = aca")
    assert P == make_presentation(("a", "b", "c"), word("aba"), word("aca"))
    Q = parse_presentation("alphabet: a\nrelation: aa = a")
    assert Q == make_presentation(("a",), word("aa"), word("a"))
    # letters are separated by any whitespace, tabs included
    T = parse_presentation("alphabet:\ta\tb\nrelation: a\tb\t= ba")
    assert T == make_presentation(("a", "b"), word("ab"), word("ba"))


def test_parse_undeclared_letter():
    with pytest.raises(UndeclaredLetter) as info:
        parse_presentation("alphabet: a\nrelation: ab = a")
    assert info.value.letter == "b"
    assert info.value.line == 2


def test_parse_error_positions():
    # an alphabet token is looked for after "alphabet:", not inside it
    single = "letters are single characters"
    for text, position, message in [
            ("alphabet: a\nrelation: xa = a", (2, 11), "undeclared letter"),
            ("alphabet: a ab\nrelation: a = a", (1, 13), single),
            ("alphabet: a bet\nrelation: a = a", (1, 13), single),
            ("alphabet:  ph\nrelation: a = a", (1, 12), single),
            ("alphabet: a\nalphabet: a\nrelation: a = a", (2, 1),
             "more than one alphabet"),
            ("alphabet:\nrelation: a = a", (1, 1), "empty alphabet"),
            ("", (1, 1), "missing alphabet line"),
            ("# c\n", (2, 1), "missing alphabet line")]:
        with pytest.raises(PresentationSyntaxError) as info:
            parse_presentation(text)
        assert (info.value.line, info.value.col) == position
        assert message in str(info.value)


def test_parse_multiple_relations():
    text = "alphabet: a\nrelation: aa = a\nrelation: a = a"
    with pytest.raises(MultipleRelations) as info:
        parse_presentation(text)
    assert info.value.line == 3


def test_parse_structural_errors():
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("alphabet: a b\n")  # no relation
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("relation: a = a\n")  # relation before alphabet
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("alphabet: a\nrelation: a == a")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("alphabet: ab cd\nrelation: ab = cd")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("alphabet: a a\nrelation: aa = a")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("letters: a\nrelation: aa = a")


def test_parse_empty_side_and_comments():
    text = "# title\n\nalphabet: a b\n# the relation\nrelation: ab = 1\n"
    P = parse_presentation(text)
    assert P == make_presentation(("a", "b"), word("ab"), ())


# ----------------------------------------------------------- dispatch


def test_classify_command():
    code, report = dispatch(["classify", fx("aba-aca.orm")])
    assert code == 0
    assert report.command == "classify"
    assert report.payload["caseTag"] == "OneStepCompressibleNonSubspecial"
    assert report.payload["compressing"] == ["a"]
    raw = (FIXTURES / "aba-aca.orm").read_bytes()
    assert report.input_digest == "sha256:" + hashlib.sha256(raw).hexdigest()


def test_wp_command_equal():
    code, report = dispatch(["wp", fx("aba-aca.orm"), "ababa", "abaca"])
    assert code == 0
    assert report.payload["verdict"] == "Equal"
    assert report.payload["pathLength"] == 1
    assert report.verdict_counts == {"Equal": 1}
    code, report = dispatch(["wp", fx("aba-aca.orm"), "ab\taba", "abaca"])
    assert (code, report.payload["verdict"]) == (0, "Equal")


def test_wp_command_distinct():
    code, report = dispatch(["wp", fx("aba-aca.orm"), "ab", "ac"])
    assert code == 0
    assert report.payload["verdict"] == "Distinct"
    assert report.payload["certificate"]


def test_wp_empty_word_spelled_as_one():
    code, report = dispatch(["wp", fx("aa-a.orm"), "1", "a"])
    assert code == 0
    assert report.payload["verdict"] == "Distinct"
    # a command-line word follows the relation-side rule for `1`
    for one in (" 1", "1 ", "\t1 "):
        code, spaced = dispatch(["wp", fx("aa-a.orm"), one, "a"])
        assert code == 0
        assert emit(spaced, "json") == emit(report, "json")


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(FIXTURES.glob("*.orm"))))
def test_word_reads_as_a_relation_side(data, name):
    P = parse_presentation(name.read_text())
    text = data.draw(st.text(st.sampled_from([*P.alphabet, " ", "\t", "1"]),
                             max_size=6))
    try:
        side = _parse_side(text, 1, 1, P.alphabet)
    except UndeclaredLetter:
        with pytest.raises(UsageError):
            _parse_word(text, P)
    else:
        assert _parse_word(text, P) == side


def test_wp_decides_infinite_classes_by_normal_forms():
    # bbbaaa is irreducible under ab -> 1, so no search can reach it
    code, report = dispatch(["wp", fx("special-ab.orm"), "bbbaaa", "1"])
    assert code == 0
    assert report.payload["verdict"] == "Distinct"
    assert report.payload["certificate"] == "NormalFormMismatch"


def test_compress_by_examples():
    code, report = dispatch(["compress", fx("ababbaba-ababa.orm"),
                             "--by", "a"])
    assert code == 0
    step = report.payload["step"]
    assert step["alphabet"] == ["ba", "bba"]
    assert step["lhs"] == ["ba", "bba", "ba"]
    assert step["rhs"] == ["ba", "ba"]

    code, report = dispatch(["compress", fx("ababbaba-ababa.orm"),
                             "--by", "aba"])
    assert code == 0
    step = report.payload["step"]
    assert step["alphabet"] == ["ba", "bbaba"]
    assert step["lhs"] == ["bbaba"]
    assert step["rhs"] == ["ba"]


def test_compress_chain_reaches_terminal():
    code, report = dispatch(["compress", fx("ababbaba-ababa.orm")])
    assert code == 0
    assert report.payload["strategy"] == "shortest-first"
    assert len(report.payload["steps"]) == report.verdict_counts["steps"] >= 2


def test_homology_contains_sphere_vector():
    code, report = dispatch(["homology", fx("aba-aca.orm"),
                             "--radius", "6", "--cells", "full"])
    assert code == 0
    assert not report.approximate
    wanted = {("ab", 1), ("ac", -1)}
    found = [vec for vec in report.payload["basis"]
             if {(t["base"], t["coeff"]) for t in vec} == wanted]
    assert found


def test_ball_command_and_renders():
    # the report carries the complex it built, and renders it on request
    code, report = dispatch(["ball", fx("aa-a.orm"), "--radius", "3",
                             "--cells", "ideal"])
    assert code == 0
    assert report.verdict_counts["vertices"] == 2
    assert isinstance(report.complex, CayleyBall)
    assert len(report.complex.vertices) == 2 and report.complex.cells
    assert emit(report, "dot") == to_dot(report.complex).encode()
    assert emit(report, "csv").startswith(b"matrix,row,col,value\n")


def test_ball_is_exact_on_a_complete_relation():
    # the 21 normal forms of length at most 5 are the words b^i a^j
    code, report = dispatch(["ball", fx("special-ab.orm"), "--radius", "5"])
    assert code == 0
    assert report.approximate is False
    assert report.verdict_counts["vertices"] == 21


def test_ideal_cells_without_compressing_word_is_usage_error():
    code, report = dispatch(["ball", fx("ab-c.orm"), "--cells", "ideal"])
    assert code == 2
    assert report.payload["error"] == "<a b c | ab = c> has no compressing word"


def test_squier_check_command():
    code, report = dispatch(["squier-check", fx("aba-aca.orm"),
                             "--walk-steps", "25", "--seed", "11"])
    assert code == 0
    assert report.payload["passed"] is True
    assert report.payload["applied"] == 25
    assert report.seeds == (11,)


def test_squier_check_log_renders_empty_contexts():
    code, report = dispatch(["squier-check", fx("aba-aca.orm"),
                             "--walk-steps", "5", "--seed", "0"])
    assert code == 0
    inserts = [m for m in report.payload["log"] if m.startswith("insert")]
    assert inserts
    for move in inserts:
        assert move.endswith((" (ε,+,ε)", " (ε,-,ε)"))


def test_inject_check_command():
    code, report = dispatch(["inject-check", fx("aba-aca.orm"),
                             "--samples", "10", "--radius", "3",
                             "--seed", "2"])
    assert code == 0
    assert report.payload["passed"] is True
    assert report.payload["violations"] == []
    assert report.seeds == (2,)


def test_ball_vertices_cap_counts_vertices_on_a_complete_rule():
    # the radius-6 ball of aba -> aca has 959 vertices; the 1093 words of
    # length at most 6 would overrun a 1000-word budget
    budget = ["--budget-words", "1000"]
    code, report = dispatch(["inject-check", fx("aba-aca.orm"),
                             "--samples", "10", *budget])
    assert code == 0
    assert report.payload["singletonChecked"] == 959
    code, report = dispatch(["structure-check", fx("aba-aca.orm"),
                             "PsiInjectiveOnIdeal", *budget])
    assert code == 0
    entry = report.payload["checks"][0]
    assert (entry["passed"], entry["checked"]) == (True, 43660)


def test_ball_budget_words_caps_vertices_on_an_incomplete_rule(tmp_path):
    # bb -> ab is not complete; its radius-8 ball has 45 vertices, though
    # the 511 words of length at most 8 would overrun a 300-word budget
    path = tmp_path / "bb-ab.orm"
    path.write_text("alphabet: a b\nrelation: bb = ab\n")
    args = ["ball", str(path), "--radius", "8", "--budget-words"]
    code, report = dispatch(args + ["300"])
    assert code == 0
    graph = report.payload["graph"]
    assert (len(graph["vertices"]), graph["approximate"]) == (45, False)
    code, report = dispatch(args + ["44"])
    assert code == 3
    assert report.payload["error"] == ("budget exhausted: more than 44 "
                                       "vertices at radius 8")


@pytest.mark.parametrize("kind", ["PsiWellDefined", "PsiInjectiveOnIdeal"])
def test_ball_checks_read_no_word_beyond_the_radius(kind):
    # both checks read the radius-6 ball of aba -> aca without the edges
    # out of its sphere, so a length cap of 6 covers every word read
    for budget_len, exit_code in (("6", 0), ("5", 2)):
        code, _ = dispatch(["structure-check", fx("aba-aca.orm"), kind,
                            "--budget-len", budget_len])
        assert code == exit_code


@pytest.mark.parametrize("name", ["aa-a.orm", "abab-ab.orm", "babab-b.orm"])
def test_inject_check_decides_by_normal_forms(name):
    # the closure store cannot saturate the translated classes of these
    # fixtures, but each rule is complete, so every sample is decided;
    # the statement's preconditions fail here, so violations are expected
    code, report = dispatch(["inject-check", fx(name), "--samples", "50"])
    assert code == 1
    assert report.payload["skipped"] == 0
    assert report.payload["singletonSkipped"] == 0
    assert report.payload["violations"]
    assert not all(report.payload["preconditions"].values())


def test_structure_check_all():
    code, report = dispatch(["structure-check", fx("aba-aca.orm"),
                             "--radius", "3"])
    assert code == 0
    assert report.verdict_counts["failed"] == 0
    assert report.verdict_counts["inapplicable"] >= 1
    names = [c["check"] for c in report.payload["checks"]]
    assert "PsiWellDefined" in names and "RTrivial" in names


@pytest.mark.parametrize("name", ["aa-a.orm", "abab-ab.orm", "babab-b.orm"])
def test_structure_check_decides_by_normal_forms(name):
    # the closure store cannot saturate some classes of these fixtures at
    # the default budget, but each rule is complete, so normal forms
    # decide every pair and nothing is skipped
    code, report = dispatch(["structure-check", fx(name)])
    assert code == 0
    assert report.verdict_counts["failed"] == 0
    applicable = [e for e in report.payload["checks"] if e["applicable"]]
    assert applicable
    for entry in applicable:
        assert entry["failures"] == []
        assert entry["skipped"] == 0


def test_structure_check_small_budget_skips(tmp_path):
    # bbb -> bab is not complete, so classes come from closures, and a
    # one-word budget saturates none of the nontrivial ones
    path = tmp_path / "bbb-bab.orm"
    path.write_text("alphabet: a b\nrelation: bbb = bab\n")
    code, report = dispatch(["structure-check", str(path),
                             "LocalDivisorIso", "--radius", "4",
                             "--budget-words", "1"])
    assert code == 0
    entry = report.payload["checks"][0]
    assert entry["passed"] is True
    assert entry["failures"] == []
    assert (entry["checked"], entry["skipped"]) == (120, 105)


def test_structure_check_single():
    code, report = dispatch(["structure-check", fx("aa-a.orm"),
                             "RegularityWitness"])
    assert code == 0
    entry = report.payload["checks"][0]
    assert entry["passed"] is True
    assert "k=2" in entry["notes"]


@pytest.mark.parametrize("kind,notes", [
    ("RegularityWitness", ["k=2", "y=abaaaba"]),
    ("KernelInclusion", ["[aaba·a] = [ε·a]"]),
])
@pytest.mark.parametrize("budget", [["--budget-words", "1"],
                                    ["--budget-len", "1"]])
def test_witness_checks_pass_under_any_budget(tmp_path, kind, notes, budget):
    # both witness paths are built from the relation and replayed, so no
    # cap leaves them undecided or rejects their words as too long
    path = tmp_path / "aabaa-a.orm"
    path.write_text("alphabet: a b\nrelation: aabaa = a\n")
    code, report = dispatch(["structure-check", str(path), kind] + budget)
    assert code == 0
    entry = report.payload["checks"][0]
    assert entry["passed"] is True
    assert (entry["checked"], entry["skipped"]) == (1, 0)
    assert entry["failures"] == []
    assert entry["notes"] == notes


# --------------------------------------------------------- exit codes


def test_exit_2_usage_and_parse_errors(tmp_path):
    assert dispatch(["no-such-command"])[0] == 2
    assert dispatch(["classify", fx("missing.orm")])[0] == 2
    code, report = dispatch(["wp", fx("aba-aca.orm"), "axa", "aca"])
    assert code == 2
    assert report.payload["error"] == "undeclared letter 'x' in word 'axa'"
    assert dispatch(["compress", fx("aba-aca.orm"), "--by", "b"])[0] == 2
    for one in ("1", " 1"):
        code, report = dispatch(["compress", fx("aba-aca.orm"), "--by", one])
        assert code == 2
        assert report.payload["error"] == \
            "'ε' does not seal both relation sides"
    assert dispatch(["structure-check", fx("aba-aca.orm"),
                     "RegularityWitness"])[0] == 2
    bad = tmp_path / "bad.orm"
    bad.write_text("alphabet: a\nrelation: ab = a\n")
    code, report = dispatch(["classify", str(bad), "--budget-words", "50"])
    assert code == 2
    assert "undeclared" in report.payload["error"]
    # the file is read and the budgets built before it is parsed, so the
    # report names both, and a bad flag is reported before a bad file
    assert report.input_digest == \
        "sha256:" + hashlib.sha256(bad.read_bytes()).hexdigest()
    assert report.budgets == {"maxWords": 50, "maxLen": None}
    code, report = dispatch(["classify", str(bad), "--budget-words", "0"])
    assert report.payload["error"] == "--budget-words must be positive"


@pytest.mark.parametrize("args,message", [
    (["structure-check", fx("aa-a.orm"), "RTrivial"],
     "R-triviality needs the longer side to not start with the shorter"),
    (["structure-check", fx("ab-c.orm"), "KernelInclusion"],
     "<a b c | ab = c> has no compressing word"),
    (["structure-check", fx("aba-aca.orm"), "RegularityWitness"],
     "regularity witness needs a nondegenerate subspecial relation"),
    (["inject-check", fx("special-ab.orm")],
     "relation sides must share their last letter"),
    (["inject-check", fx("aba-aca.orm"), "--max-support", "0"],
     "max_support must be at least 1"),
])
def test_exit_2_unmet_precondition(args, message):
    code, report = dispatch(args)
    assert code == 2
    assert report.payload["error"] == message


@pytest.mark.parametrize("name,command", [
    ("structure_checks", "structure-check"),
    ("injectivity_harness", "inject-check"),
])
def test_dispatch_propagates_plain_value_errors(monkeypatch, name, command):
    # only a PreconditionError means "does not apply"; any other
    # ValueError is a defect, never an inapplicable check or exit 2

    def defect(*args, **kwargs):
        raise ValueError("defect")

    monkeypatch.setattr(cli, name, defect)
    with pytest.raises(ValueError, match="defect"):
        dispatch([command, fx("aba-aca.orm")])


@pytest.mark.parametrize("command", [
    "ball", "homology", "squier-check", "inject-check", "structure-check",
])
def test_exit_2_budget_len_below_explored_word(command):
    # the walk on aba-aca only meets the empty left context
    name = "babab-b.orm" if command == "squier-check" else "aba-aca.orm"
    code, report = dispatch([command, fx(name), "--budget-len", "2"])
    assert code == 2
    assert report.payload["error"] == "max_len below input word length"


@pytest.mark.parametrize("args", [
    ["ball", fx("aa-a.orm"), "--radius", "-2"],
    ["homology", fx("aa-a.orm"), "--radius", "-1"],
    ["structure-check", fx("aa-a.orm"), "--radius", "-1"],
    ["squier-check", fx("aba-aca.orm"), "--walk-steps", "-5"],
    ["inject-check", fx("aba-aca.orm"), "--radius", "-1"],
    ["inject-check", fx("aba-aca.orm"), "--samples", "-3"],
    ["ball", fx("aa-a.orm"), "--budget-len", "-1"],
])
def test_exit_2_negative_counts(args):
    code, report = dispatch(args)
    assert code == 2
    assert "nonnegative" in report.payload["error"]


def test_exit_3_budget_exhaustion(tmp_path):
    code, report = dispatch(["ball", fx("aba-aca.orm"), "--radius", "9",
                             "--budget-words", "1000"])
    assert code == 3
    assert "budget" in report.payload["error"]
    assert report.budgets["maxWords"] == 1000
    assert report.input_digest.startswith("sha256:")
    code, report = dispatch(["squier-check", fx("aa-a.orm"),
                             "--walk-steps", "10", "--seed", "0"])
    assert code == 3
    # a wp search cut short is an Unknown verdict, not an error
    path = tmp_path / "aba-ab.orm"
    path.write_text("alphabet: a b\nrelation: aba = ab\n")
    code, report = dispatch(["wp", str(path), "aab", "ab",
                             "--budget-words", "3"])
    assert code == 3
    assert report.payload["verdict"] == "Unknown"
    assert report.payload["reason"] == "word budget exhausted"


def test_exit_3_names_the_empty_word_class():
    code, report = dispatch(["squier-check", fx("special-ab.orm")])
    assert code == 3
    assert report.payload["error"] == "class not saturated within budget: ε"


def test_exit_1_property_violation(tmp_path, monkeypatch):
    from ormkit.squier import WalkReport

    def fake_walk(P, start, steps, seed, budget=None):
        return WalkReport(seed, steps, 1, False, ("swap@0",), "parity changed")

    monkeypatch.setattr(cli, "random_walk_check", fake_walk)
    code, report = dispatch(["squier-check", fx("aba-aca.orm")])
    assert code == 1
    assert report.payload["violation"] == "parity changed"


def test_non_utf8_file_is_a_parse_error(tmp_path, capsysbinary):
    bad = tmp_path / "bad.orm"
    bad.write_bytes(b"alphabet: a b\nrelation: a\xffb = a\n")
    code = main(["classify", str(bad), "--budget-words", "50"])
    assert code == 2
    obj = json.loads(capsysbinary.readouterr().out)
    assert obj["payload"]["error"] == \
        "line 2, column 12: invalid UTF-8 byte 0xff"
    assert obj["inputDigest"] == \
        "sha256:" + hashlib.sha256(bad.read_bytes()).hexdigest()
    assert obj["budgets"] == {"maxWords": 50, "maxLen": None}


def test_byte_order_mark_is_skipped(tmp_path):
    """A leading UTF-8 byte-order mark is no part of the text: the file
    parses, a bad byte is placed as if the mark were absent, and the
    digest is still of the raw bytes."""
    marked = tmp_path / "marked.orm"
    marked.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "aba-aca.orm").read_bytes())
    code, report = dispatch(["classify", str(marked)])
    assert code == 0
    assert report.payload["caseTag"] == "OneStepCompressibleNonSubspecial"
    assert report.input_digest == \
        "sha256:" + hashlib.sha256(marked.read_bytes()).hexdigest()
    marked.write_bytes(b"\xef\xbb\xbfalphabet: a \xff\nrelation: a = a\n")
    code, report = dispatch(["classify", str(marked)])
    assert code == 2
    assert report.payload["error"] == \
        "line 1, column 13: invalid UTF-8 byte 0xff"


def test_flags_are_spelled_in_full(capsysbinary):
    code = main(["classify", fx("aa-a.orm"), "--form", "text"])
    assert code == 2
    obj = json.loads(capsysbinary.readouterr().out)
    assert "--form" in obj["payload"]["error"]
    code = main(["classify", fx("aa-a.orm"), "--format", "text"])
    assert code == 0
    assert capsysbinary.readouterr().out.startswith(b"command: classify\n")
    code = main(["squier-check", fx("aba-aca.orm"), "--walk-steps", "3",
                 "--format", "text"])
    assert code == 0
    assert b"\nseeds: 0\n" in capsysbinary.readouterr().out


@pytest.mark.parametrize("spell", [lambda f: ["--format", f],
                                   lambda f: [f"--format={f}"]],
                         ids=["space", "equals"])
def test_repeated_format_renders_the_last(spell, capsysbinary):
    # argparse keeps the last value of a repeated flag; the rendering
    # must follow the parsed value, not the first one written

    for first, last in (("text", "json"), ("json", "text")):
        argv = ["classify", fx("ab-ba.orm"), *spell(first), *spell(last)]
        assert cli._parser().parse_args(argv).format == last
        assert main(argv) == 0
        out = capsysbinary.readouterr().out
        assert out.startswith(b"command: classify\n") == (last == "text")
        if last == "json":
            assert json.loads(out)["command"] == "classify"


def test_format_after_double_dash_is_a_word(capsysbinary):
    # after "--" argparse reads "--format=text" as the word w2, so no
    # format was requested and the error report is JSON
    argv = ["wp", fx("ab-ba.orm"), "a", "--", "--format=text"]
    assert main(argv) == 2
    report = json.loads(capsysbinary.readouterr().out)
    assert report["command"] == "wp"
    assert "--format=text" in report["payload"]["error"]


def test_commands_in_a_row_share_one_parser():
    # the parser is built once per process; no flag value, default or
    # mutually exclusive choice of one call may reach the next
    name = fx("aba-aca.orm")
    runs = [
        ["compress", name, "--by", "a"],
        ["compress", name],
        ["compress", name, "--by", "a", "--chain", "longest-first"],
        ["ball", name, "--radius", "2"],
        ["ball", name],
        ["compress", name, "--chain", "longest-first"],
    ]
    in_a_row = [dispatch(args) for args in runs]
    assert cli._parser() is cli._parser()
    fresh = []
    for args in runs:
        cli._parser.cache_clear()
        fresh.append(dispatch(args))
    assert in_a_row == fresh
    assert [emit(r) for _, r in in_a_row] == [emit(r) for _, r in fresh]
    assert [code for code, _ in in_a_row] == [0, 0, 2, 0, 0, 0]
    assert in_a_row[0][1].payload != in_a_row[1][1].payload
    assert in_a_row[3][1].payload["radius"] == 2
    assert in_a_row[4][1].payload["radius"] == 4


# Inputs that are not fixtures: each must end in a report, never a raise.
BAD_INPUTS = {
    "non-utf8": b"alphabet: a b\nrelation: a\xffb = a\n",
    "malformed": b"alphabet: a b\nrelation: ab == a\n",
}
INPUT_NAMES = sorted([p.stem for p in FIXTURES.glob("*.orm")]
                     + list(BAD_INPUTS) + ["missing", "directory"])

# Flag values stay small, 0 and negatives included; every command gets
# its size flags so no draw falls back to a slow default.
RADIUS = st.integers(-1, 3).map(str)
COMMAND_FLAGS = {
    "classify": {},
    "compress": {"--chain": st.sampled_from(["shortest-first",
                                             "longest-first"])},
    "wp": {},
    "ball": {"--radius": RADIUS,
             "--cells": st.sampled_from(["full", "ideal"])},
    "homology": {"--radius": RADIUS,
                 "--cells": st.sampled_from(["full", "ideal"])},
    "squier-check": {"--walk-steps": st.integers(-1, 30).map(str),
                     "--seed": st.integers(-1, 3).map(str)},
    "inject-check": {"--samples": st.integers(-1, 20).map(str),
                     "--max-support": st.integers(-1, 4).map(str),
                     "--radius": RADIUS},
    "structure-check": {"--radius": RADIUS},
}
BUDGET_FLAGS = {"--budget-words": st.integers(-1, 3000).map(str),
                "--budget-len": st.integers(-1, 8).map(str)}


@pytest.fixture(scope="module")
def input_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    paths = {p.stem: str(p) for p in FIXTURES.glob("*.orm")}
    for name, raw in BAD_INPUTS.items():
        (root / f"{name}.orm").write_bytes(raw)
        paths[name] = str(root / f"{name}.orm")
    paths["missing"] = str(root / "missing.orm")
    paths["directory"] = str(root)
    return paths


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    words = st.text("ab1x", max_size=4)
    args = [draw(words), draw(words)] if command == "wp" else []
    for flag, values in COMMAND_FLAGS[command].items():
        args += [flag, draw(values)]
    for flag, values in BUDGET_FLAGS.items():
        if draw(st.booleans()):
            args += [flag, draw(values)]
    return command, args


@settings(max_examples=150, deadline=None)
@example(name="non-utf8", invocation=("classify", []))
@given(name=st.sampled_from(INPUT_NAMES), invocation=invocations())
def test_dispatch_never_raises(input_paths, name, invocation):
    command, args = invocation
    code, report = dispatch([command, input_paths[name], *args])
    assert code in (0, 1, 2, 3)
    json.loads(emit(report, "json"))
    for fmt in FORMATS:
        try:
            emit(report, fmt)
        except UsageError:
            # only a report without a complex cannot render a graph
            assert fmt in ("dot", "csv") and report.complex is None


# ------------------------------------------------------------ emission


def test_emit_json_deterministic():
    runs = [emit(dispatch(["classify", fx("aba-aca.orm")])[1], "json")
            for _ in range(2)]
    assert runs[0] == runs[1]
    obj = json.loads(runs[0])
    assert obj["payload"]["caseTag"] == "OneStepCompressibleNonSubspecial"
    assert obj["budgets"]["maxWords"] == 200000


def test_emit_json_deterministic_across_processes(tmp_path):
    # closure iterates sets, whose order depends on the string hash seed;
    # aba -> ab is not complete, so this ball is built by closure search
    path = tmp_path / "aba-ab.orm"
    path.write_text("alphabet: a b\nrelation: aba = ab\n")
    args = [sys.executable, "-m", "ormkit.cli", "ball", str(path),
            "--radius", "4"]
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(FIXTURES.parent / "src"))
        done = subprocess.run(args, env=env, capture_output=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["approximate"] is True
    code, report = dispatch(["ball", fx("babab-b.orm"), "--radius", "5"])
    assert code == 0 and report.approximate is False


def test_emit_dot_and_csv_deterministic():
    args = ["ball", fx("aa-a.orm"), "--radius", "3", "--cells", "full"]
    a = emit(dispatch(args)[1], "dot")
    b = emit(dispatch(args)[1], "dot")
    assert a == b
    assert a.startswith(b"digraph")
    assert emit(dispatch(args)[1], "csv").startswith(b"matrix,row,col,value")


def test_json_and_text_never_render_the_complex(monkeypatch):
    def refuse(ball):
        raise AssertionError("rendered a graph that was not requested")

    monkeypatch.setattr(cli, "to_dot", refuse)
    monkeypatch.setattr(cli, "matrices_csv", refuse)
    for command in ("ball", "homology"):
        report = dispatch([command, fx("aba-aca.orm"), "--radius", "4",
                           "--cells", "full"])[1]
        assert report.complex is not None
        json.loads(emit(report, "json"))
        assert emit(report, "text").startswith(f"command: {command}".encode())
        with pytest.raises(AssertionError, match="not requested"):
            emit(report, "dot")


def test_homology_renders_the_ball_it_built():
    for fmt in ("dot", "csv"):
        homology = emit(dispatch(["homology", fx("aba-aca.orm"),
                                  "--radius", "4"])[1], fmt)
        ball = emit(dispatch(["ball", fx("aba-aca.orm"), "--radius", "4",
                              "--cells", "full"])[1], fmt)
        assert homology == ball


def test_emit_text_agrees_on_numbers():
    report = dispatch(["homology", fx("aba-aca.orm"), "--radius", "4",
                       "--cells", "full"])[1]
    text = emit(report, "text").decode()
    assert f"basisSize: {report.payload['basisSize']}" in text
    assert f"verdict cycles: {report.verdict_counts['cycles']}" in text


def test_emit_text_renders_the_readme_example():
    raw = (FIXTURES / "aa-a.orm").read_bytes()
    report = dispatch(["wp", fx("aa-a.orm"), "aaa", "a"])[1]
    assert emit(report, "text").decode().splitlines() == [
        "command: wp",
        "input: sha256:" + hashlib.sha256(raw).hexdigest(),
        "path:",
        "  - aaa",
        "  - aa",
        "  - a",
        "pathLength: 2",
        "presentation: <a | aa = a>",
        "verdict: Equal",
        "w1: aaa",
        "w2: a",
        "verdict Equal: 1",
        "budget maxLen: none",
        "budget maxWords: 200000",
        "approximate: false",
    ]


def test_emit_rejects_unsupported_format():
    report = dispatch(["classify", fx("aba-aca.orm")])[1]
    with pytest.raises(UsageError):
        emit(report, "dot")
    with pytest.raises(UsageError):
        emit(report, "yaml")


def test_main_writes_report_and_returns_code(capsysbinary):
    code = main(["classify", fx("aba-aca.orm")])
    assert code == 0
    obj = json.loads(capsysbinary.readouterr().out)
    assert obj["command"] == "classify"

    code = main(["classify", fx("aba-aca.orm"), "--format", "dot"])
    assert code == 2
    obj = json.loads(capsysbinary.readouterr().out)
    assert "error" in obj["payload"]

    # a format argparse rejects is reported in JSON, with its message
    code = main(["classify", fx("aba-aca.orm"), "--format", "bogus"])
    assert code == 2
    obj = json.loads(capsysbinary.readouterr().out)
    assert "invalid choice: 'bogus'" in obj["payload"]["error"]


def test_main_keeps_the_error_of_a_report_under_dot_and_csv(capsysbinary):
    # an error report renders as JSON, with dispatch's message and code
    cases = [
        (["ball", fx("nonexistent.orm"), "--format", "dot"], 2,
         "No such file"),
        (["ball", fx("ab-c.orm"), "--cells", "ideal", "--format", "csv"], 2,
         "has no compressing word"),
        (["ball", fx("aba-aca.orm"), "--radius", "9", "--budget-words", "10",
          "--format", "dot"], 3, "budget exhausted"),
        # a command that builds no graph offers no graph format
        (["classify", fx("aba-aca.orm"), "--format", "dot"], 2,
         "invalid choice: 'dot'"),
    ]
    for argv, code, message in cases:
        assert main(argv) == code
        obj = json.loads(capsysbinary.readouterr().out)
        assert message in obj["payload"]["error"]


def test_format_choices_are_the_formats_a_command_renders():
    sub = next(a for a in cli._parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert len(sub.choices) == 8
    for name, sp in sub.choices.items():
        fmt = next(a for a in sp._actions if a.dest == "format")
        graph = ("dot", "csv") if name in ("ball", "homology") else ()
        assert tuple(fmt.choices) == ("json", "text", *graph), name


def test_unrenderable_format_is_refused_before_any_work(monkeypatch,
                                                        capsysbinary):
    def refuse(P):
        raise AssertionError("classified under a format it cannot render")

    monkeypatch.setattr(cli, "classify_full", refuse)
    assert main(["classify", fx("aba-aca.orm"), "--format", "dot"]) == 2
    obj = json.loads(capsysbinary.readouterr().out)
    assert "invalid choice: 'dot'" in obj["payload"]["error"]


def test_report_is_plain_data():
    report = dispatch(["inject-check", fx("aba-aca.orm"), "--samples", "2",
                       "--radius", "2"])[1]
    assert isinstance(report, Report)
    json.dumps(report.payload)  # payload must be JSON-pure
