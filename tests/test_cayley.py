"""Cayley ball tests.

For length-preserving relations the congruence restricted to a ball is
computed independently by union-find over single rewrites, which gives
an exact oracle for vertex sets, edge sets, and vertex lookups.  One
breadth-first builder serves every rule.  Balls of complete rules,
built over normal forms, are also compared with the balls the builder
places through the Oracle when completeness is hidden from it, with the
normal forms themselves, and with the loops that built them and
attached their cells before the KMP automaton.  Balls of incomplete
rules are compared with the loops that enumerated every word of length
at most the radius before the builder was shared.  The views d1, d2,
the interior mask and the 2-cycle basis they feed are compared with the
eager loops that computed them before they were derived from the edges
and cells.  Kernel routines are checked against hand-computed matrices
and an independent rank computation over exact rationals.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import fields
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

import re

import ormkit.cayley as cayley
from ormkit.cayley import (
    BudgetExceeded,
    CayleyBall,
    CellVariant,
    CheckKind,
    NotCompressible,
    Pair,
    Star,
    _integer_kernel,
    attach_cells,
    ball_vertices,
    build_ball,
    enumerate_classes,
    matrices_csv,
    psi_map,
    structure_checks,
    to_dot,
    to_json_dict,
    two_cycle_basis,
)
from ormkit.cli import parse_presentation
from ormkit.compress import DeltaLetter, NotCompressing
from ormkit.words import (
    EMPTY,
    PreconditionError,
    compressing_words,
    make_presentation,
    word,
)
from ormkit.wp import (
    BudgetTooShort,
    Equal,
    Oracle,
    OracleBudget,
    equal_bounded,
    is_complete,
    neighbors,
    normal_form,
    replay,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def aba_aca():
    return make_presentation(("a", "b", "c"), word("aba"), word("aca"))


def commuting():
    return make_presentation(("a", "b"), word("ab"), word("ba"))


def idempotent():
    return make_presentation(("a",), word("aa"), word("a"))


def big_example():
    return make_presentation(("a", "b"), word("ababbaba"), word("ababa"))


# ------------------------------------------------- independent oracles


class UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def brute_partition(P, radius, reach=None):
    """Union-find over the words of length at most reach (default radius).

    Exact on the ball when congruent ball words are joined through words
    of length at most reach, as they are with reach = radius for
    length-preserving relations.
    """
    assert reach is not None or len(P.u) == len(P.v)
    uf = UnionFind()
    for n in range((radius if reach is None else reach) + 1):
        for w in product(P.alphabet, repeat=n):
            uf.find(w)
            for m in neighbors(P, w):
                uf.union(w, m)
    return uf


def brute_rank(columns):
    """Row-echelon rank over exact rationals."""
    rows = sorted({r for col in columns for r in col})
    dense = [[Fraction(col.get(r, 0)) for col in columns] for r in rows]
    mat = [row[:] for row in dense]
    r = 0
    for c in range(len(columns)):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def compose_is_zero(ball: CayleyBall) -> bool:
    acc: dict[tuple[int, int], int] = {}
    for (e, c), v2 in ball.d2.items():
        for (vtx, e2), v1 in ball.d1.items():
            if e2 == e:
                acc[(vtx, c)] = acc.get((vtx, c), 0) + v1 * v2
    return all(v == 0 for v in acc.values())


# ------------------------------------------------------------ build_ball


def test_radius_zero_ball():
    ball = build_ball(aba_aca(), 0)
    assert ball.vertices == (EMPTY,)
    assert ball.edges == ()
    assert not ball.approximate


def test_ball_merges_the_relation():
    ball = build_ball(aba_aca(), 3)
    assert ball.vertex_of(word("aba")) == ball.vertex_of(word("aca"))
    for w in ("", "a", "b", "c"):
        assert word(w) in ball.vertices
    assert not ball.approximate


def test_ball_matches_brute_partition():
    P = aba_aca()
    radius = 5
    ball = build_ball(P, radius)
    uf = brute_partition(P, radius)
    words = [w for n in range(radius + 1)
             for w in product(P.alphabet, repeat=n)]
    roots = {uf.find(w) for w in words}
    assert len(ball.vertices) == len(roots)
    for w1 in words[:200]:
        for w2 in words[200:280]:
            same_ball = ball.vertex_of(w1) == ball.vertex_of(w2)
            assert same_ball == (uf.find(w1) == uf.find(w2))


@pytest.mark.parametrize("lhs,rhs,radius,reach,size", [
    ("bb", "ab", 5, 5, 21),
    ("bbb", "bab", 5, 5, 47),
    # b = aa: every word of weight n <= 10 meets a^n within length 10
    ("aa", "b", 5, 10, 11),
], ids=["bb-ab", "bbb-bab", "aa-b"])
def test_incomplete_ball_matches_brute_partition(lhs, rhs, radius, reach,
                                                 size):
    # none of these rules is complete, so classes and edges come from the
    # closure store; every class is finite, so no pairwise search runs
    P = make_presentation(("a", "b"), word(lhs), word(rhs))
    ball = build_ball(P, radius)
    uf = brute_partition(P, radius, reach)
    words = [w for n in range(radius + 1)
             for w in product(P.alphabet, repeat=n)]
    roots = {uf.find(w) for w in words}
    assert not ball.approximate
    assert len(ball.vertices) == len(roots) == size
    for w1 in words:
        for w2 in words:
            same_ball = ball.vertex_of(w1) == ball.vertex_of(w2)
            assert same_ball == (uf.find(w1) == uf.find(w2))
    expected = {(uf.find(w), x, uf.find(w + (x,)))
                for w in words for x in P.alphabet}
    expected = {e for e in expected if e[2] in roots}
    got = {(uf.find(ball.vertices[s]), x, uf.find(ball.vertices[t]))
           for s, x, t in ball.edges}
    assert got == expected


def test_approximate_ball_merges_only_proven_pairs():
    # aba -> ab is not complete and its classes are infinite, so words are
    # placed by pairwise verdicts, some of which come back Unknown
    P = make_presentation(("a", "b"), word("aba"), word("ab"))
    ball = build_ball(P, 3)
    assert ball.approximate
    assert len(ball.vertices) == 14
    for w in (w for n in range(4) for w in product(P.alphabet, repeat=n)):
        verdict = equal_bounded(P, w, ball.vertices[ball.vertex_of(w)])
        assert isinstance(verdict, Equal)
        assert replay(P, verdict.path)


def test_ball_edges_match_brute_edges():
    P = aba_aca()
    radius = 4
    ball = build_ball(P, radius)
    uf = brute_partition(P, radius)
    expected = set()
    for n in range(radius):
        for w in product(P.alphabet, repeat=n):
            for x in P.alphabet:
                expected.add((uf.find(w), x, uf.find(w + (x,))))
    got = {(uf.find(ball.vertices[s]), x, uf.find(ball.vertices[t]))
           for s, x, t in ball.edges}
    assert got == expected


def test_edges_respect_right_multiplication():
    ball = build_ball(aba_aca(), 4)
    for s, x, t in ball.edges:
        target = ball.vertex_of(ball.vertices[s] + (x,))
        if target is not None:
            assert target == t


def test_interior_mask_margin():
    P = aba_aca()
    ball = build_ball(P, 5)
    for rep, inside in zip(ball.vertices, ball.interior_mask):
        assert inside == (len(rep) <= 5 - 3)


def test_ball_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        build_ball(aba_aca(), 9, OracleBudget(max_words=1000))


def test_complete_ball_budget_counts_vertices():
    # the word count of special-ab at radius 40 is 2^41 - 1
    special = make_presentation(("a", "b"), word("ab"), EMPTY)
    for P, radius, size in ((special, 40, 861), (commuting(), 30, 496)):
        ball = build_ball(P, radius)
        assert len(ball.vertices) == size
        assert not ball.approximate
    exact_fit = build_ball(special, 40, OracleBudget(max_words=861))
    assert len(exact_fit.vertices) == 861
    with pytest.raises(BudgetExceeded):
        build_ball(special, 40, OracleBudget(max_words=860))


def test_complete_ball_length_cap_covers_edge_words():
    # the edges out of the radius-3 sphere read words of length 4
    with pytest.raises(BudgetTooShort):
        build_ball(aba_aca(), 3, OracleBudget(max_len=3))
    assert build_ball(aba_aca(), 3, OracleBudget(max_len=4)).vertices


def complete_fixture_orders():
    for path in sorted(FIXTURES.glob("*.orm")):
        P = parse_presentation(path.read_text())
        for order in permutations(P.alphabet):
            Q = make_presentation(order, P.u, P.v)
            if is_complete(Q):
                yield pytest.param(Q, id=f"{path.stem}-{''.join(order)}")


@pytest.mark.parametrize("P", complete_fixture_orders())
def test_normal_form_ball_matches_enumerated_ball(P, monkeypatch):
    # with completeness hidden from cayley, build_ball places every word
    # through the Oracle as it does on incomplete rules; Oracle.rep still
    # decides by normal forms, so that ball is exact
    bfs = [build_ball(P, radius) for radius in range(7)]
    monkeypatch.setattr(cayley, "is_complete", lambda _: False)
    for radius, ball in enumerate(bfs):
        enumerated = build_ball(P, radius)
        assert not enumerated.approximate
        assert ball.vertices == enumerated.vertices
        assert ball.edges == enumerated.edges
        assert ball.interior_mask == enumerated.interior_mask
        assert ball.d1 == enumerated.d1
        index = {v: i for i, v in enumerate(ball.vertices)}
        for n in range(radius + 1):
            for w in product(P.alphabet, repeat=n):
                assert ball.vertex_of(w) == index[normal_form(P, w)]
        for w in product(P.alphabet, repeat=radius + 1):
            assert ball.vertex_of(w) is None


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.orm")),
                         ids=lambda p: p.stem)
def test_ball_vertices_are_the_ball_vertices(path):
    # breadth first on a complete rule, enumerate_classes otherwise
    P = parse_presentation(path.read_text())
    assert ball_vertices(Oracle(P), 4) == build_ball(P, 4).vertices


def test_idempotent_ball_is_exact_and_tiny():
    ball = build_ball(idempotent(), 6)
    assert ball.vertices == (EMPTY, word("a"))
    assert not ball.approximate
    assert ball.vertex_of(word("aaaa")) == ball.vertex_of(word("a"))


def complete_small_relations():
    # every two-letter relation with distinct sides of length at most 3
    # whose single rule is complete
    words = [w for n in range(4) for w in product("ab", repeat=n)]
    for lhs, rhs in combinations(words, 2):
        P = make_presentation(("a", "b"), lhs, rhs)
        if is_complete(P):
            yield P


def test_exact_ball_has_one_vertex_per_normal_form():
    relations = list(complete_small_relations())
    assert len(relations) > 50
    for P in relations:
        forms = {w: normal_form(P, w)
                 for n in range(6) for w in product(P.alphabet, repeat=n)}
        for radius in range(6):
            ball = build_ball(P, radius)
            assert not ball.approximate
            assert len(set(ball.vertices)) == len(ball.vertices)
            assert set(ball.vertices) == {
                nf for w, nf in forms.items() if len(w) <= radius}
            targets = {(i, x): normal_form(P, v + (x,))
                       for i, v in enumerate(ball.vertices)
                       for x in P.alphabet}
            for i, x, j in ball.edges:
                assert targets[i, x] == ball.vertices[j]
            assert len(ball.edges) == sum(
                len(nf) <= radius for nf in targets.values())


# The breadth-first ball and the cell attachment as they ran before
# edges were located through the KMP automaton of u and cells traced
# through per-letter successor lists, kept verbatim as the reference.


def reference_normal_form_ball(P, radius, budget):
    vertices = [()]
    index = {(): 0}
    edges = []
    for i, w in enumerate(vertices):
        for x in P.alphabet:
            target = w + (x,)
            if cayley.ends_with(target, P.u):
                target = normal_form(P, (x,), w)
            j = index.get(target)
            if j is None and len(target) <= radius:
                if len(vertices) >= budget.max_words:
                    raise BudgetExceeded(f"more than {budget.max_words} "
                                         f"vertices at radius {radius}")
                j = index[target] = len(vertices)
                vertices.append(target)
            if j is not None:
                edges.append((i, x, j))
    budget.cap_for(P, vertices[-1] + P.alphabet[:1])
    return tuple(vertices), index, edges


def reference_trace(edge_map, base, label):
    cur = base
    path = []
    for letter in label:
        hop = edge_map.get((cur, letter))
        if hop is None:
            return None
        e, cur = hop
        path.append(e)
    return path, cur


def reference_attach_cells(ball, variant):
    P = ball.presentation
    if variant is CellVariant.COMPRESSED_IDEAL:
        z = cayley._compressing_words(P)[-1]
        side_u, side_v = P.u[len(z):], P.v[len(z):]
        bases = [i for i, rep in enumerate(ball.vertices)
                 if cayley.ends_with(rep, z)]
    else:
        side_u, side_v = P.u, P.v
        bases = list(range(len(ball.vertices)))
    edge_map = {(s, x): (e, t) for e, (s, x, t) in enumerate(ball.edges)}
    cells = []
    d2 = {}
    for base in bases:
        walked_u = reference_trace(edge_map, base, side_u)
        walked_v = reference_trace(edge_map, base, side_v)
        if walked_u is None or walked_v is None:
            continue
        u_edges, end_u = walked_u
        v_edges, end_v = walked_v
        if end_u != end_v:
            if ball.approximate:
                continue
            raise AssertionError("boundary paths disagree in an exact ball")
        boundary = tuple((e, 1) for e in u_edges)
        boundary += tuple((e, -1) for e in reversed(v_edges))
        col = len(cells)
        cells.append(cayley.TwoCell(base, variant, boundary))
        for e, sign in boundary:
            val = d2.get((e, col), 0) + sign
            if val:
                d2[(e, col)] = val
            else:
                d2.pop((e, col), None)
    return cayley.replace(ball, cells=tuple(cells)), d2


# The boundary matrix d1, the interior mask and the 2-cycle kernel as
# build_ball and two_cycle_basis computed them before d1, d2 and the
# mask became views of the edges and cells, kept verbatim as the
# reference; the kernel read d2 regrouped into cell columns.


def reference_d1(edges):
    d1 = {}
    for e, (src, _, dst) in enumerate(edges):
        if src != dst:
            d1[(dst, e)] = 1
            d1[(src, e)] = -1
    return d1


def reference_interior(P, radius, reps):
    margin = max(len(P.u), len(P.v))
    return tuple(len(rep) <= radius - margin for rep in reps)


def reference_two_cycle_basis(ball, d2):
    interior = reference_interior(ball.presentation, ball.radius,
                                  ball.vertices)
    selected = [i for i, cell in enumerate(ball.cells)
                if interior[cell.base_vertex]]
    by_cell = defaultdict(dict)
    for (e, c), val in d2.items():
        by_cell[c][e] = val
    kernel = _integer_kernel([by_cell.get(i, {}) for i in selected])
    return [{selected[j]: v for j, v in vec.items()} for vec in kernel]


def reference_ball(oracle, radius, sphere):
    vertices, _, edges = reference_normal_form_ball(oracle.P, radius,
                                                    oracle.budget)
    return vertices, edges, False


def _build_or_error(P, radius, budget, monkeypatch, reference):
    with monkeypatch.context() as m:
        if reference:
            m.setattr(cayley, "_ball", reference_ball)
        try:
            return build_ball(P, radius, budget)
        except (BudgetExceeded, BudgetTooShort) as exc:
            return type(exc)


def assert_same_views(got, want, want_d2):
    """got's derived views against the reference loops run on want's
    stored fields and want_d2, the reference's d2, order included."""
    assert got.interior_mask == reference_interior(
        want.presentation, want.radius, want.vertices)
    assert list(got.d1.items()) == list(reference_d1(want.edges).items())
    assert list(got.d2.items()) == list(want_d2.items())
    assert two_cycle_basis(got) == reference_two_cycle_basis(want, want_d2)


def assert_same_ball(got, want, want_d2=None):
    # field by field, order included; want_d2 is empty when no cells are
    # attached
    assert got.vertices == want.vertices
    assert got.edges == want.edges
    assert ([got.vertex_of(v) for v in got.vertices]
            == [want.vertex_of(v) for v in want.vertices])
    assert got.cells == want.cells
    assert_same_views(got, want, want_d2 or {})
    assert got.approximate is want.approximate is False


@pytest.mark.parametrize("P", complete_fixture_orders())
def test_ball_and_cells_match_the_reference_loops(P, monkeypatch):
    variants = [CellVariant.FULL_RELATION]
    if compressing_words(P):
        variants.append(CellVariant.COMPRESSED_IDEAL)
    for radius in range(8):
        got = build_ball(P, radius)
        want = _build_or_error(P, radius, cayley.DEFAULT_BUDGET, monkeypatch,
                               reference=True)
        assert_same_ball(got, want)
        for variant in variants:
            assert_same_ball(attach_cells(got, variant),
                             *reference_attach_cells(want, variant))
        # the same caps stop both: max_words at the vertex count, and
        # max_len at the longest word read, the last vertex and a letter
        size, longest = len(got.vertices), len(got.vertices[-1]) + 1
        for budget, stopped in (
                (OracleBudget(max_words=size - 1),
                 BudgetExceeded if size > 1 else None),
                (OracleBudget(max_words=size), None),
                (OracleBudget(max_len=longest - 1), BudgetTooShort),
                (OracleBudget(max_len=longest), None)):
            outcomes = [_build_or_error(P, radius, budget, monkeypatch,
                                        reference)
                        for reference in (False, True)]
            if stopped is None:
                assert_same_ball(*outcomes)
                assert outcomes[0].vertices == got.vertices
            else:
                assert outcomes == [stopped, stopped]


# The ball of an incomplete rule as it was built before the builder was
# shared: every word of length at most the radius placed in shortlex
# order, then one edge located per vertex and letter, kept verbatim as
# the reference.


def reference_incomplete_ball(P, radius, budget):
    """Outcomes of ball_vertices, which was the enumeration alone, and of
    build_ball, which went on to the edges with the same oracle; each is
    the exception type raised, if one was."""
    oracle = Oracle(P, budget)
    try:
        reps, assign, approximate = enumerate_classes(oracle, radius)
    except (BudgetExceeded, BudgetTooShort) as exc:
        return type(exc), type(exc)
    edges = []
    try:
        for i, rep in enumerate(reps):
            for letter in P.alphabet:
                j, unknown = cayley._locate(oracle, rep + (letter,), assign,
                                            reps)
                approximate = approximate or unknown
                if j is not None:
                    edges.append((i, letter, j))
    except BudgetTooShort:
        return reps, BudgetTooShort
    return reps, (reps, edges, approximate, assign)


def _outcome(build, *args):
    try:
        return build(*args)
    except (BudgetExceeded, BudgetTooShort) as exc:
        return type(exc)


def assert_same_incomplete_ball(P, radius, budget):
    """build_ball and ball_vertices against the reference loops; returns
    build_ball's outcome, an exception type or the vertex count and the
    approximate flag."""
    vertices, want = reference_incomplete_ball(P, radius, budget)
    assert _outcome(ball_vertices, Oracle(P, budget), radius) == vertices
    got = _outcome(build_ball, P, radius, budget)
    if isinstance(want, type):
        assert got is want
        return want
    reps, edges, approximate, assign = want
    assert got.vertices == reps
    assert list(got.edges) == edges
    assert got.approximate is approximate
    assert {w: got.vertex_of(w) for w in assign} == assign
    for w in product(P.alphabet, repeat=radius + 1):
        assert got.vertex_of(w) is None
    return len(reps), approximate


INCOMPLETE_TWO_LETTER = ["bb = ab", "bbb = bab", "aa = b", "aba = ab",
                         "aaba = ab", "abba = 1", "abab = aab", "aaa = ab",
                         "bab = a", "aba = ba"]
INCOMPLETE_THREE_LETTER = ["aba = ac", "aca = b", "bab = c", "bcb = a",
                           "cac = ab", "aaa = bc", "bbb = ca"]


def test_incomplete_ball_matches_the_reference_loops():
    # max_words below the word count stops both builds, at the vertex
    # count too; at the word count or 300, closures are cut short and
    # some balls come out approximate
    approximate = 0
    for relation in INCOMPLETE_TWO_LETTER:
        P = parse_presentation(f"alphabet: a b\nrelation: {relation}")
        assert not is_complete(P)
        for radius in range(6):
            words = 2 ** (radius + 1) - 1
            size, flag = assert_same_incomplete_ball(
                P, radius, OracleBudget(max_words=words))
            approximate += flag
            for max_words in (size - 1, size, words - 1):
                outcome = assert_same_incomplete_ball(
                    P, radius, OracleBudget(max_words=max_words))
                assert (outcome is BudgetExceeded) == (max_words < words)
            if radius < 4:
                approximate += assert_same_incomplete_ball(
                    P, radius, OracleBudget(max_words=300))[1]
            # the edges out of the sphere read words one longer than it
            budget = OracleBudget(max_len=radius)
            assert _outcome(build_ball, P, radius, budget) is BudgetTooShort
            assert reference_incomplete_ball(P, radius, budget)[1] is (
                BudgetTooShort)
    assert approximate


def test_incomplete_ball_length_caps_match_the_reference_loops():
    # max_len = radius stops build_ball at the edges out of the sphere,
    # but not ball_vertices, which reads no word longer than the radius
    seen = set()
    for relation in INCOMPLETE_THREE_LETTER:
        P = parse_presentation(f"alphabet: a b c\nrelation: {relation}")
        assert not is_complete(P)
        for radius in range(4):
            for max_len in (None, radius, radius + 1):
                budget = OracleBudget(max_len=max_len)
                outcome = assert_same_incomplete_ball(P, radius, budget)
                seen.add(outcome if isinstance(outcome, type)
                         else outcome[1])
                if max_len == radius:
                    assert outcome is BudgetTooShort
                    assert ball_vertices(Oracle(P, budget), radius)
    assert seen == {BudgetTooShort, False, True}


def _read(edges, w):
    """The vertex w reads to along edges from vertex 0."""
    succ = {(i, x): j for i, x, j in edges}
    cur = 0
    for x in w:
        cur = succ[cur, x]
    return cur


def test_incomplete_ball_merges_only_proven_words_the_reference_split():
    # the reference placed every word, so under a tight length cap a word
    # whose prefix had joined another class opened a vertex of its own
    # when its pairwise search was cut short; the builder reaches that
    # class through the prefix's class instead, so it keeps a subset of
    # the reference's vertices, in the same order, and each word it
    # drops is proven equal to the vertex it reads to
    split = []
    for relation in INCOMPLETE_TWO_LETTER:
        P = parse_presentation(f"alphabet: a b\nrelation: {relation}")
        for radius in range(6):
            for max_len in (radius, radius + 1):
                budget = OracleBudget(max_len=max_len)
                reps, want = reference_incomplete_ball(P, radius, budget)
                vertices, edges, _ = cayley._ball(Oracle(P, budget), radius,
                                                  sphere=False)
                assert vertices == ball_vertices(Oracle(P, budget), radius)
                kept = set(vertices)
                assert tuple(v for v in reps if v in kept) == vertices
                dropped = [v for v in reps if v not in kept]
                for w in dropped:
                    target = vertices[_read(edges, w)]
                    verdict = equal_bounded(P, w, target)
                    assert isinstance(verdict, Equal)
                    assert replay(P, verdict.path)
                if max_len == radius:
                    split += [(relation, radius, max_len)] if dropped else []
                    continue
                ball = build_ball(P, radius, budget)
                assert ball.vertices == vertices
                if dropped:
                    split.append((relation, radius, max_len))
                    assert ball.approximate and want[2]
                else:
                    assert list(ball.edges) == want[1]
                    assert ball.approximate is want[2]
    assert split == [("aa = b", 3, 3), ("aa = b", 4, 4), ("aa = b", 5, 5),
                     ("aba = ab", 5, 5), ("aaa = ab", 4, 4),
                     ("aaa = ab", 5, 5), ("aaa = ab", 5, 6), ("bab = a", 4, 5),
                     ("bab = a", 5, 5), ("bab = a", 5, 6), ("aba = ba", 5, 5)]


def test_incomplete_ball_views_match_the_reference_loops():
    # d1, d2, the interior mask and the 2-cycle basis against the eager
    # reference loops, on exact and approximate balls of incomplete rules
    # and with both cell variants where a compressing word exists
    seen = set()
    for relation in INCOMPLETE_TWO_LETTER:
        P = parse_presentation(f"alphabet: a b\nrelation: {relation}")
        variants = [CellVariant.FULL_RELATION]
        if compressing_words(P):
            variants.append(CellVariant.COMPRESSED_IDEAL)
        for radius in range(5):
            # the budgets of the reference tests above, under which some
            # closures are cut short
            for budget in (OracleBudget(max_words=2 ** (radius + 1) - 1),
                           OracleBudget(max_words=300),
                           OracleBudget(max_len=radius + 1)):
                ball = build_ball(P, radius, budget)
                seen.add(ball.approximate)
                assert_same_views(ball, ball, {})
                for variant in variants:
                    seen.add(variant)
                    assert_same_views(attach_cells(ball, variant),
                                      *reference_attach_cells(ball, variant))
    assert seen == {False, True, *CellVariant}


def test_cell_pipeline_builds_no_boundary_matrix():
    # the fields are what a ball cannot derive; build, attach and the
    # kernel never build d1 or d2, which exist only once read
    assert [f.name for f in fields(CayleyBall)] == [
        "presentation", "radius", "vertices", "edges", "cells", "approximate"]
    ball = attach_cells(build_ball(aba_aca(), 6), CellVariant.FULL_RELATION)
    assert two_cycle_basis(ball)
    assert "d1" not in ball.__dict__ and "d2" not in ball.__dict__
    assert ball.d2 and "d2" in ball.__dict__


def incomplete_length_preserving_relations():
    # every two-letter relation with distinct sides of one length at most
    # 3 whose single rule is not complete
    words = [w for n in range(1, 4) for w in product("ab", repeat=n)]
    for lhs, rhs in combinations(words, 2):
        P = make_presentation(("a", "b"), lhs, rhs)
        if len(lhs) == len(rhs) and not is_complete(P):
            yield P


def test_incomplete_exact_ball_has_one_vertex_per_class():
    # the classes keep word length, so they are finite and union-find over
    # the words of length at most the radius finds them exactly
    relations = list(incomplete_length_preserving_relations())
    assert len(relations) == 16
    for P in relations:
        uf = brute_partition(P, 5)
        least = {}
        for n in range(6):
            for w in product(P.alphabet, repeat=n):
                least.setdefault(uf.find(w), w)
        for radius in range(6):
            ball = build_ball(P, radius)
            assert not ball.approximate
            index = {v: i for i, v in enumerate(ball.vertices)}
            assert len(index) == len(ball.vertices)
            assert set(index) == {w for w in least.values()
                                  if len(w) <= radius}

            def vertex(w):
                return index[least[uf.find(w)]]

            for n in range(radius + 1):
                for w in product(P.alphabet, repeat=n):
                    assert ball.vertex_of(w) == vertex(w)
                    assert ball.vertex_of(w + ("c",)) is None
            expected = [(i, x, vertex(v + (x,)))
                        for i, v in enumerate(ball.vertices)
                        if len(v) < radius for x in P.alphabet]
            assert list(ball.edges) == expected


# ---------------------------------------------------------- attach_cells


def test_full_cells_trace_both_sides():
    P = aba_aca()
    ball = attach_cells(build_ball(P, 4), CellVariant.FULL_RELATION)
    bases = {c.base_vertex for c in ball.cells}
    assert ball.vertex_of(EMPTY) in bases
    assert ball.vertex_of(word("a")) in bases
    for cell in ball.cells:
        assert len(cell.boundary_edges) == len(P.u) + len(P.v)
    assert compose_is_zero(ball)


def test_ideal_cells_sit_on_the_ideal():
    P = aba_aca()
    ball = attach_cells(build_ball(P, 4), CellVariant.COMPRESSED_IDEAL)
    assert ball.cells
    for cell in ball.cells:
        rep = ball.vertices[cell.base_vertex]
        assert rep and rep[-1] == "a"
        assert len(cell.boundary_edges) == 4
    covered = {c.base_vertex for c in ball.cells}
    for i, rep in enumerate(ball.vertices):
        if rep and rep[-1] == "a" and len(rep) <= 4 - 2:
            assert i in covered
    assert compose_is_zero(ball)


def test_ideal_cells_need_a_compressing_word():
    ball = build_ball(commuting(), 3)
    with pytest.raises(NotCompressible):
        attach_cells(ball, CellVariant.COMPRESSED_IDEAL)


def test_big_example_ideal_ball_has_no_attachable_cells():
    P = big_example()
    ball = attach_cells(build_ball(P, 6), CellVariant.COMPRESSED_IDEAL)
    assert not ball.approximate
    assert ball.cells == ()
    assert two_cycle_basis(ball) == []


# --------------------------------------------------------- exact kernels


def test_integer_kernel_hand_matrices():
    assert _integer_kernel([{0: 1}, {0: 1}]) == [{0: 1, 1: -1}]
    assert _integer_kernel([{}]) == [{0: 1}]
    assert _integer_kernel([{0: 1}, {1: 1}]) == []
    assert _integer_kernel([{0: 2}, {0: 3}]) == [{0: 3, 1: -2}]
    assert _integer_kernel([]) == []


def test_kernel_dimension_matches_independent_rank():
    P = aba_aca()
    ball = attach_cells(build_ball(P, 5), CellVariant.FULL_RELATION)
    selected = [i for i, c in enumerate(ball.cells)
                if ball.interior_mask[c.base_vertex]]
    cols = []
    for i in selected:
        cols.append({e: v for (e, c), v in ball.d2.items() if c == i})
    basis = two_cycle_basis(ball)
    assert len(basis) == len(selected) - brute_rank(cols)
    for vec in basis:
        image: dict[int, int] = {}
        for cell, coeff in vec.items():
            for (e, c), v in ball.d2.items():
                if c == cell:
                    image[e] = image.get(e, 0) + coeff * v
        assert all(v == 0 for v in image.values())


def test_sphere_cycle_detected():
    P = aba_aca()
    ball = attach_cells(build_ball(P, 6), CellVariant.FULL_RELATION)
    assert not ball.approximate
    idx_ab = ball.vertex_of(word("ab"))
    idx_ac = ball.vertex_of(word("ac"))
    cell_at = {c.base_vertex: i for i, c in enumerate(ball.cells)}
    expected = {cell_at[idx_ab]: 1, cell_at[idx_ac]: -1}
    assert expected in two_cycle_basis(ball)


def test_commuting_relation_has_no_interior_cycles():
    ball = attach_cells(build_ball(commuting(), 6), CellVariant.FULL_RELATION)
    assert not ball.approximate
    assert two_cycle_basis(ball) == []
    assert compose_is_zero(ball)


def test_idempotent_full_versus_ideal_cycles():
    P = idempotent()
    base = build_ball(P, 6)
    full = attach_cells(base, CellVariant.FULL_RELATION)
    v_empty, v_a = full.vertex_of(EMPTY), full.vertex_of(word("a"))
    cell_at = {c.base_vertex: i for i, c in enumerate(full.cells)}
    assert two_cycle_basis(full) == [{cell_at[v_empty]: 1, cell_at[v_a]: -1}]
    ideal = attach_cells(base, CellVariant.COMPRESSED_IDEAL)
    assert [c.base_vertex for c in ideal.cells] == [v_a]
    assert two_cycle_basis(ideal) == []


def test_no_cells_means_no_cycles():
    assert two_cycle_basis(build_ball(aba_aca(), 3)) == []


# ---------------------------------------------------------------- psi map


def test_psi_examples():
    P = aba_aca()
    assert psi_map(P, word("a"), word("bcb")) == Star()
    assert psi_map(P, word("a"), word("bab")) == Pair(word("ba"), ())
    assert psi_map(P, word("a"), word("abac")) == \
        Pair(word("a"), (DeltaLetter(word("ba")),))
    with pytest.raises(NotCompressing):
        psi_map(P, word("ab"), word("aba"))


def test_psi_base_has_single_occurrence():
    P = big_example()
    for r in (word("a"), word("aba")):
        for n in range(7):
            for tup in product(P.alphabet, repeat=n):
                img = psi_map(P, r, tup)
                if isinstance(img, Pair):
                    assert img.base[-len(r):] == r


# ------------------------------------------------------ structure checks


def test_psi_checks_pass_on_small_ball():
    P = aba_aca()
    for kind in (CheckKind.PSI_WELL_DEFINED, CheckKind.PSI_INJECTIVE_ON_IDEAL):
        report = structure_checks(P, kind, radius=4)
        assert report.passed, report.failures
        assert report.checked > 0
        assert report.skipped == 0


def test_basis_freeness_small():
    report = structure_checks(aba_aca(), CheckKind.BASIS_FREENESS, radius=3)
    assert report.passed and report.checked > 0


def test_local_divisor_small():
    report = structure_checks(aba_aca(), CheckKind.LOCAL_DIVISOR_ISO, radius=3)
    assert report.passed and report.checked > 0


def test_regularity_witness_examples():
    report = structure_checks(idempotent(), CheckKind.REGULARITY_WITNESS)
    assert report.passed
    assert "k=2" in report.notes and "y=a" in report.notes

    P = make_presentation(("a", "b"), word("babab"), word("b"))
    assert structure_checks(P, CheckKind.REGULARITY_WITNESS).passed

    with pytest.raises(PreconditionError):
        structure_checks(aba_aca(), CheckKind.REGULARITY_WITNESS)
    degenerate = make_presentation(("a", "b"), word("ab"), word("ab"))
    with pytest.raises(PreconditionError):
        structure_checks(degenerate, CheckKind.REGULARITY_WITNESS)


def test_r_trivial_check():
    report = structure_checks(aba_aca(), CheckKind.R_TRIVIAL, radius=4)
    assert report.passed and report.skipped == 0
    with pytest.raises(PreconditionError):
        structure_checks(idempotent(), CheckKind.R_TRIVIAL)


def test_kernel_inclusion_check():
    report = structure_checks(aba_aca(), CheckKind.KERNEL_INCLUSION)
    assert report.passed and report.checked == 1
    with pytest.raises(NotCompressible):
        structure_checks(commuting(), CheckKind.KERNEL_INCLUSION)


def test_unknown_check_kind_is_no_precondition():
    with pytest.raises(ValueError) as info:
        structure_checks(aba_aca(), "NoSuchCheck")
    assert not isinstance(info.value, PreconditionError)


class _Collapsing:
    """Stand-in oracle that puts every word in the class of ε."""

    def __init__(self, P, budget=None):
        self.P = P
        self.budget = budget or OracleBudget()

    def rep(self, w):
        return EMPTY

    def equal(self, w1, w2):
        return Equal((tuple(w1), tuple(w2)))


@pytest.mark.parametrize("kind,count,first", [
    (CheckKind.PSI_WELL_DEFINED, 6, "ε vs a: mixed star and pair images"),
    (CheckKind.BASIS_FREENESS, 21, "ε·a = b·a"),
    (CheckKind.LOCAL_DIVISOR_ISO, 7,
     "ε vs a: monoid says True, local divisor says False"),
    (CheckKind.R_TRIVIAL, 21, "[ε] = [a]"),
])
def test_pair_checks_report_what_a_collapsing_oracle_merges(
        monkeypatch, kind, count, first):
    # merging every class must fail each pair check, one line per pair
    monkeypatch.setattr(cayley, "Oracle", _Collapsing)
    report = structure_checks(aba_aca(), kind, radius=2)
    assert not report.passed
    assert len(report.failures) == count
    assert report.failures[0] == first


def test_psi_injective_reports_collisions(monkeypatch):
    # exact on P, but every class of the compressed presentation merged
    P = aba_aca()

    class CollapseCompressed(Oracle):
        def rep(self, w):
            return EMPTY if self.P != P else super().rep(w)

    monkeypatch.setattr(cayley, "Oracle", CollapseCompressed)
    report = structure_checks(P, CheckKind.PSI_INJECTIVE_ON_IDEAL, radius=3)
    assert report.failures == ("a and aba collide",)


# The pair loops the three key-grouping checks ran before they counted
# pairs from key groups, kept verbatim as the reference for that count.


def reference_psi_injective(P, b, radius):
    cands = cayley._compressing_words(P)
    reps = ball_vertices(cayley.Oracle(P, b), radius)
    checked = skipped = 0
    failures: list[str] = []
    for r in cands:
        C = cayley.compress_step(P, r)
        oracle = cayley.Oracle(C.compressed, b)
        ideal_reps = [w for w in reps if cayley.ends_with(w, r)]
        keyed = []
        for w in ideal_reps:
            img = psi_map(P, r, w)
            keyed.append((w, img.base,
                          cayley._free_product_key(C, img.tail, oracle)))
        for i, (w1, b1, k1) in enumerate(keyed):
            for w2, b2, k2 in keyed[i + 1:]:
                checked += 1
                if b1 != b2:
                    continue
                if k1 is None or k2 is None:
                    skipped += 1
                elif k1 == k2:
                    failures.append(f"{P.text(w1)} and {P.text(w2)} collide")
    return cayley.CheckReport(CheckKind.PSI_INJECTIVE_ON_IDEAL, checked,
                              skipped, tuple(failures))


def reference_basis_freeness(P, b, radius):
    oracle = cayley.Oracle(P, b)
    checked = skipped = 0
    failures: list[str] = []
    for r in cayley._compressing_words(P):
        basis = [w for w in cayley._all_words(P.alphabet, radius)
                 if cayley.find_occurrences(w + r, r) == [len(w)]]
        keyed = [(y, oracle.rep(y + r)) for y in basis]
        for i, (y1, k1) in enumerate(keyed):
            for y2, k2 in keyed[i + 1:]:
                checked += 1
                if k1 is None or k2 is None:
                    skipped += 1
                elif k1 == k2:
                    failures.append(f"{P.text(y1)}·{P.text(r)} = "
                                    f"{P.text(y2)}·{P.text(r)}")
    return cayley.CheckReport(CheckKind.BASIS_FREENESS, checked, skipped,
                              tuple(failures))


def reference_local_divisor(P, b, radius):
    outer = cayley.Oracle(P, b)
    checked = skipped = 0
    failures: list[str] = []
    for r in cayley._compressing_words(P):
        C = cayley.compress_step(P, r)
        inner = cayley.Oracle(C.compressed, b)
        members = [w for w in cayley._all_words(P.alphabet, radius)
                   if cayley.t_membership(r, w)]
        keyed = []
        for w in members:
            mk = outer.rep(r + w)
            lk = cayley._free_product_key(
                C, tuple(cayley.delta_factorize(r, w)), inner)
            keyed.append((w, mk, lk))
        for i, (w1, m1, l1) in enumerate(keyed):
            for w2, m2, l2 in keyed[i + 1:]:
                checked += 1
                if m1 is None or m2 is None or l1 is None or l2 is None:
                    skipped += 1
                    continue
                if (m1 == m2) != (l1 == l2):
                    failures.append(f"{P.text(w1)} vs {P.text(w2)}: monoid "
                                    f"says {m1 == m2}, local divisor says "
                                    f"{l1 == l2}")
    return cayley.CheckReport(CheckKind.LOCAL_DIVISOR_ISO, checked, skipped,
                              tuple(failures))


REFERENCE_CHECKS = {
    CheckKind.PSI_INJECTIVE_ON_IDEAL: reference_psi_injective,
    CheckKind.BASIS_FREENESS: reference_basis_freeness,
    CheckKind.LOCAL_DIVISOR_ISO: reference_local_divisor,
}


def _weight(w):
    return sum(ord(ch) for letter in w for ch in letter)


class _Colliding(Oracle):
    """Deterministic stand-in: about a tenth of all words undecided, the
    rest in three classes that ignore the relation."""

    def rep(self, w):
        weight = _weight(w)
        return None if weight % 11 == 5 else (weight % 3,)


def _undecided_when_compressed(P):
    """Exact on P; on any other presentation (the compressed one) the
    words of odd weight are undecided."""

    class UndecidedWhenCompressed(Oracle):
        def rep(self, w):
            if self.P != P and _weight(w) % 2:
                return None
            return super().rep(w)

    return UndecidedWhenCompressed


def _report_or_error(check, *args):
    try:
        return check(*args)
    except PreconditionError as exc:
        return type(exc)


@pytest.mark.parametrize("stand_in", ["exact", "colliding",
                                      "undecided-when-compressed"])
@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.orm")),
                         ids=lambda p: p.stem)
def test_pair_checks_match_the_reference_loops(path, stand_in, monkeypatch):
    # same checked and skipped counts and the same failure lines in the
    # same order as the pairwise loops, under oracles that decide every
    # key, collide and leave keys undecided, or leave only keys of the
    # compressed presentation undecided
    P = parse_presentation(path.read_text())
    if stand_in != "exact":
        monkeypatch.setattr(cayley, "Oracle", _Colliding
                            if stand_in == "colliding"
                            else _undecided_when_compressed(P))
    seen = {kind: [0, 0] for kind in REFERENCE_CHECKS}
    for radius in range(6):
        for kind, reference in REFERENCE_CHECKS.items():
            got = _report_or_error(structure_checks, P, kind, None, radius)
            want = _report_or_error(reference, P, cayley.DEFAULT_BUDGET,
                                    radius)
            assert got == want, (kind, radius)
            if isinstance(got, cayley.CheckReport):
                seen[kind][0] += got.skipped
                seen[kind][1] += len(got.failures)
    # on aba-aca the stand-ins exercise the rule: every check skips and
    # fails under collisions, and same-base pairs are skipped on
    # undecided compressed keys alone
    if path.stem == "aba-aca" and stand_in == "colliding":
        assert all(skipped and failed for skipped, failed in seen.values())
    if path.stem == "aba-aca" and stand_in == "undecided-when-compressed":
        assert seen[CheckKind.PSI_INJECTIVE_ON_IDEAL][0]


@pytest.mark.parametrize("kind,checked", [
    (CheckKind.PSI_INJECTIVE_ON_IDEAL, 3_073_960),
    (CheckKind.LOCAL_DIVISOR_ISO, 5_380_840),
    (CheckKind.BASIS_FREENESS, 130_305),
])
def test_pair_counts_at_radius_eight(kind, checked):
    # millions of pairs, counted from key groups in a fraction of a second
    report = structure_checks(aba_aca(), kind, radius=8)
    assert (report.checked, report.skipped, report.failures) == (
        checked, 0, ())


# ---------------------------------------------------------------- exports


def test_dot_export_is_deterministic():
    ball = build_ball(aba_aca(), 1)
    out = to_dot(ball)
    assert out == to_dot(build_ball(aba_aca(), 1))
    assert out.startswith("digraph cayley_ball {")
    assert 'label="ε"' in out
    assert '[label="a"]' in out or 'label="a"' in out


def test_dot_labels_are_escaped():
    # a quote or a backslash letter must not end or escape its label early
    label = re.compile(r'label=("(?:[^"\\]|\\.)*")[ \]]')
    for text, spelled in (('alphabet: a "\nrelation: a" = "a', '"a\\""'),
                          ('alphabet: a \\\nrelation: a\\ = \\a',
                           '"a\\\\"')):
        ball = build_ball(parse_presentation(text), 2)
        out = to_dot(ball)
        labels = [m.group(1) for m in label.finditer(out)]
        assert len(labels) == out.count("label=")
        assert len(labels) == len(ball.vertices) + len(ball.edges)
        assert spelled in labels


def test_json_export_shape():
    ball = attach_cells(build_ball(aba_aca(), 3), CellVariant.FULL_RELATION)
    data = to_json_dict(ball)
    assert data["radius"] == 3
    assert data["vertices"][0] == ""
    assert all(len(t) == 3 for t in data["d1"])
    assert all(len(t) == 3 for t in data["d2"])
    assert data["cells"]
    assert data["approximate"] is False


def test_matrices_csv_shape():
    ball = attach_cells(build_ball(aba_aca(), 3), CellVariant.FULL_RELATION)
    lines = matrices_csv(ball).strip().splitlines()
    assert lines[0] == "matrix,row,col,value"
    assert all(len(line.split(",")) == 4 for line in lines[1:])
    assert {line.split(",")[0] for line in lines[1:]} == {"d1", "d2"}


def test_enumerate_classes_membership_is_total():
    P = aba_aca()
    reps, assign, approx = enumerate_classes(Oracle(P), 3)
    assert not approx
    total = sum(3 ** n for n in range(4))
    assert len(assign) == total
    for w, idx in assign.items():
        assert 0 <= idx < len(reps)
