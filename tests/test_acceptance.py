"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with -s) and enforces the
criterion's runtime budget where one is stated.  Expected values are
frozen: counts were derived once by independent brute-force prototypes
and must not drift.
"""

from __future__ import annotations

import time

from ormkit.cayley import (
    CellVariant,
    CheckKind,
    NotCompressible,
    attach_cells,
    build_ball,
    structure_checks,
    two_cycle_basis,
)
from ormkit.classify import INF, Case, classify_full
from ormkit.compress import compress_step, delta_factorize, t_membership
from ormkit.squier import SquierEdge, injectivity_harness, random_walk_check
from ormkit.words import (
    EMPTY,
    ends_with,
    find_occurrences,
    is_sof,
    make_presentation,
    starts_with,
    word,
)
from ormkit.wp import (
    Equal,
    Oracle,
    OracleBudget,
    Unknown,
    equal_bounded,
    equal_via_compression,
    replay,
)
from ormkit.cli import dispatch
from support import aba_aca, all_words, big_example, fx


def _done(n: int, t0: float, limit: float | None, detail: str):
    elapsed = time.monotonic() - t0
    print(f"criterion {n}: PASS ({elapsed:.1f}s) {detail}")
    if limit is not None:
        assert elapsed < limit, f"criterion {n} exceeded {limit}s: {elapsed:.1f}s"


def test_criterion_01_compression_fidelity():
    t0 = time.monotonic()
    code, report = dispatch(["compress", fx("ababbaba-ababa.orm"), "--by", "a"])
    assert code == 0
    step = report.payload["step"]
    assert step["alphabet"] == ["ba", "bba"]
    assert step["lhs"] == ["ba", "bba", "ba"]
    assert step["rhs"] == ["ba", "ba"]

    code, report = dispatch(["compress", fx("ababbaba-ababa.orm"), "--by", "aba"])
    assert code == 0
    step = report.payload["step"]
    assert step["alphabet"] == ["ba", "bbaba"]
    assert step["lhs"] == ["bbaba"]
    assert step["rhs"] == ["ba"]

    P = big_example()
    once = compress_step(P, word("a"))
    twice = compress_step(once.compressed, ("ba",))
    other = compress_step(P, word("aba"))
    assert twice.compressed == other.compressed
    _done(1, t0, 1.0, "two compressions agree after recompression")


def test_criterion_02_sphere_cycle():
    t0 = time.monotonic()
    ball = attach_cells(build_ball(aba_aca(), 6), CellVariant.FULL_RELATION)
    assert not ball.approximate
    cell_at = {ball.cells[i].base_vertex: i for i in range(len(ball.cells))}
    target = {cell_at[ball.vertex_of(word("ab"))]: 1,
              cell_at[ball.vertex_of(word("ac"))]: -1}
    basis = two_cycle_basis(ball)
    assert target in basis
    _done(2, t0, 30.0, f"basis of {len(basis)} cycles contains the sphere vector")


def test_criterion_03_classification_table():
    t0 = time.monotonic()
    table = [
        ("ab", "ab", "ab", Case.DEGENERATE, False, (0, 1)),
        ("ab", "ab", "", Case.SPECIAL, False, (0, 2)),
        ("a", "aaa", "", Case.SPECIAL, True, (INF, INF)),
        ("ab", "babab", "b", Case.SUBSPECIAL_TORSION, True, (INF, INF)),
        ("a", "aa", "a", Case.SUBSPECIAL_TORSION_FREE, False, (0, 2)),
        ("ab", "abab", "ab", Case.SUBSPECIAL_TORSION_FREE, False, (0, 2)),
        ("ab", "ab", "ba", Case.INCOMPRESSIBLE_NON_SUBSPECIAL, False, (0, 2)),
        ("abc", "ab", "c", Case.INCOMPRESSIBLE_NON_SUBSPECIAL, False, (0, 2)),
        ("abc", "aba", "aca", Case.ONE_STEP_COMPRESSIBLE_NON_SUBSPECIAL,
         False, (INF, INF)),
        ("ab", "ababbaba", "ababa",
         Case.MULTI_STEP_COMPRESSIBLE_NON_SUBSPECIAL, False, (3, INF)),
    ]
    for alphabet, lhs, rhs, case, torsion, bound in table:
        c = classify_full(make_presentation(tuple(alphabet), word(lhs),
                                            word(rhs)))
        assert c.case == case, (alphabet, lhs, rhs)
        assert c.torsion == torsion
        for b in (c.cd_left, c.cd_right, c.gd_left, c.gd_right):
            assert (b.lower, b.upper) == bound, (alphabet, lhs, rhs)
    assert {row[3] for row in table} == set(Case)
    _done(3, t0, 1.0, "10 fixtures, all 7 case tags covered")


def test_criterion_04_parity_invariance():
    t0 = time.monotonic()
    P = aba_aca()
    start = (SquierEdge(EMPTY, 1, word("aca")),
             SquierEdge(word("aba"), 1, EMPTY),
             SquierEdge(EMPTY, -1, word("aba")))
    for seed in range(20):
        report = random_walk_check(P, start, 1000, seed=seed)
        assert report.passed, (seed, report.violation)
        assert report.applied == 1000, seed
    _done(4, t0, 60.0, "20 seeds x 1000 steps, zero violations")


def test_criterion_05_word_problem_cross_validation():
    t0 = time.monotonic()
    P = big_example()
    budget = OracleBudget(max_words=5000, max_len=18)
    words = all_words(P.alphabet, 7)
    pairs = decisive = agreed = 0
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            pairs += 1
            vb = equal_bounded(P, words[i], words[j], budget)
            vc = equal_via_compression(P, words[i], words[j], budget)
            if isinstance(vb, Unknown) or isinstance(vc, Unknown):
                continue
            decisive += 1
            agreed += isinstance(vb, Equal) == isinstance(vc, Equal)
    assert pairs == 32385
    assert decisive == pairs  # both deciders decide every pair here
    assert agreed == decisive
    _done(5, t0, 300.0, f"{decisive} decisive pairs, 100% agreement")


def test_criterion_06_interior_kernel_empty():
    t0 = time.monotonic()
    runs = [
        (big_example(), CellVariant.COMPRESSED_IDEAL),
        (make_presentation(("a", "b"), word("ab"), word("ba")),
         CellVariant.FULL_RELATION),
        (make_presentation(("a",), word("aa"), word("a")),
         CellVariant.COMPRESSED_IDEAL),
    ]
    for P, variant in runs:
        for radius in range(1, 7):
            ball = attach_cells(build_ball(P, radius), variant)
            assert two_cycle_basis(ball) == [], (P.describe(), radius)
    _done(6, t0, 120.0, "3 torsion-free fixtures, radii 1..6")


def test_criterion_07_injectivity_harness():
    t0 = time.monotonic()
    report = injectivity_harness(aba_aca(), samples=1000, max_support=4,
                                 seed=20260816, radius=6)
    assert report.passed
    assert report.violations == ()
    assert report.skipped == 0
    assert report.singleton_checked == 959
    assert report.singleton_skipped == 0
    assert report.singleton_violations == ()
    _done(7, t0, 120.0, "1000 formal sums and 959 singletons, zero equalities")


def test_criterion_08_psi_checks():
    t0 = time.monotonic()
    P = aba_aca()
    expected = {
        CheckKind.PSI_WELL_DEFINED: 134,
        CheckKind.PSI_INJECTIVE_ON_IDEAL: 43660,
        CheckKind.BASIS_FREENESS: 8001,
        CheckKind.LOCAL_DIVISOR_ISO: 66430,
    }
    for kind, count in expected.items():
        report = structure_checks(P, kind, radius=6)
        assert report.passed, (kind, report.failures[:3])
        assert report.skipped == 0, kind
        assert report.checked == count, (kind, report.checked)
    _done(8, t0, 120.0, "4 checks exhaustive at radius 6, zero skips")


def test_criterion_09_chain_identities_and_replay():
    t0 = time.monotonic()
    corpus = [
        (("a", "b"), "ab", "ab"), (("a", "b"), "ab", ""),
        (("a",), "aaa", ""), (("a", "b"), "babab", "b"),
        (("a",), "aa", "a"), (("a", "b"), "abab", "ab"),
        (("a", "b"), "ab", "ba"), (("a", "b", "c"), "ab", "c"),
        (("a", "b", "c"), "aba", "aca"), (("a", "b"), "ababbaba", "ababa"),
    ]
    complexes = replayed = 0
    for alphabet, lhs, rhs in corpus:
        P = make_presentation(alphabet, word(lhs), word(rhs))
        for variant in CellVariant:
            try:
                ball = attach_cells(build_ball(P, 4), variant)
            except NotCompressible:
                continue
            complexes += 1
            by_cell: dict[int, dict[int, int]] = {}
            for (e, c), v in ball.d2.items():
                by_cell.setdefault(c, {})[e] = v
            incidence: dict[int, list[tuple[int, int]]] = {}
            for (vtx, e), v in ball.d1.items():
                incidence.setdefault(e, []).append((vtx, v))
            for c, col in by_cell.items():
                acc: dict[int, int] = {}
                for e, v in col.items():
                    for vtx, w in incidence.get(e, ()):
                        acc[vtx] = acc.get(vtx, 0) + w * v
                assert all(x == 0 for x in acc.values()), (P.describe(), c)
        oracle = Oracle(P, OracleBudget(max_words=2000))
        words = all_words(P.alphabet, 4)
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                verdict = oracle.equal(words[i], words[j])
                if isinstance(verdict, Equal):
                    assert replay(P, verdict.path), (words[i], words[j])
                    assert verdict.path[0] == words[i]
                    assert verdict.path[-1] == words[j]
                    replayed += 1
    assert complexes == 16
    assert replayed == 125
    _done(9, t0, None, f"{complexes} complexes compose to zero, "
                       f"{replayed} Equal paths replayed")


def test_criterion_10_small_word_invariants():
    t0 = time.monotonic()
    for alphabet in (("a", "b"), ("a", "b", "c")):
        words = all_words(alphabet, 6)
        for r in words:
            if not r:
                continue
            members = {w for w in words if ends_with(r + w, r)}
            for w in words:
                assert t_membership(r, w) == (w in members), (r, w)
            for m in members:
                for cut in range(1, len(m)):
                    if m[:cut] in members:
                        assert m[cut:] in members, (r, m, cut)
            delta = {m for m in members if m and not any(
                m[:c] in members and m[c:] in members
                for c in range(1, len(m)))}
            ordered = sorted(delta, key=len)
            for i, d1 in enumerate(ordered):
                for d2 in ordered[i + 1:]:
                    assert not starts_with(d2, d1), (r, d1, d2)
            for m in members:
                factors = delta_factorize(r, m)
                assert tuple(x for f in factors for x in f) == m
                assert all(f in delta for f in factors), (r, m)
            if is_sof(r):
                formula = {s + r for s in words
                           if len(s) + len(r) <= 6
                           and not find_occurrences(s, r)}
                assert delta == formula, r

    cases = [
        make_presentation(("a", "b"), word("ab"), word("ba")),
        make_presentation(("a", "b"), word("ababbaba"), word("ababa")),
        make_presentation(("a", "b", "c"), word("aba"), word("aca")),
        make_presentation(("a", "b", "c"), word("ab"), word("c")),
    ]
    for P in cases:
        assert not starts_with(P.u, P.v)
        oracle = Oracle(P, OracleBudget(max_words=5000))
        for w in all_words(P.alphabet, 6):
            for extra in all_words(P.alphabet, 6 - len(w)):
                if not extra:
                    continue
                verdict = oracle.equal(w, w + extra)
                assert not isinstance(verdict, Unknown), (P.describe(), w, extra)
                assert not isinstance(verdict, Equal), (P.describe(), w, extra)
    _done(10, t0, 120.0, "T(r), prefix codes, SOF formula, R-triviality")
