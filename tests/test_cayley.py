"""Cayley ball tests.

For length-preserving relations the congruence restricted to a ball is
computed independently by union-find over single rewrites, which gives
an exact oracle for vertex sets, edge sets, and memberships.  Kernel
routines are checked against hand-computed matrices and an independent
rank computation over exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

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
    build_ball,
    enumerate_classes,
    matrices_csv,
    psi_map,
    structure_checks,
    to_dot,
    to_json_dict,
    two_cycle_basis,
)
from ormkit.compress import DeltaLetter, NotCompressing
from ormkit.words import EMPTY, make_presentation, word
from ormkit.wp import Oracle, OracleBudget, neighbors


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
    # closure store and the pairwise search
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


def test_idempotent_ball_is_exact_and_tiny():
    ball = build_ball(idempotent(), 6)
    assert ball.vertices == (EMPTY, word("a"))
    assert not ball.approximate
    assert ball.vertex_of(word("aaaa")) == ball.vertex_of(word("a"))


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

    with pytest.raises(ValueError):
        structure_checks(aba_aca(), CheckKind.REGULARITY_WITNESS)
    degenerate = make_presentation(("a", "b"), word("ab"), word("ab"))
    with pytest.raises(ValueError):
        structure_checks(degenerate, CheckKind.REGULARITY_WITNESS)


def test_r_trivial_check():
    report = structure_checks(aba_aca(), CheckKind.R_TRIVIAL, radius=4)
    assert report.passed and report.skipped == 0
    with pytest.raises(ValueError):
        structure_checks(idempotent(), CheckKind.R_TRIVIAL)


def test_kernel_inclusion_check():
    report = structure_checks(aba_aca(), CheckKind.KERNEL_INCLUSION)
    assert report.passed and report.checked == 1
    with pytest.raises(NotCompressible):
        structure_checks(commuting(), CheckKind.KERNEL_INCLUSION)


# ---------------------------------------------------------------- exports


def test_dot_export_is_deterministic():
    ball = build_ball(aba_aca(), 1)
    out = to_dot(ball)
    assert out == to_dot(build_ball(aba_aca(), 1))
    assert out.startswith("digraph cayley_ball {")
    assert 'label="ε"' in out
    assert '[label="a"]' in out or 'label="a"' in out


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
    sheets = matrices_csv(ball)
    assert set(sheets) == {"d1", "d2"}
    for text in sheets.values():
        lines = text.strip().splitlines()
        assert lines[0] == "row,col,value"
        assert all(len(line.split(",")) == 3 for line in lines[1:])


def test_enumerate_classes_membership_is_total():
    P = aba_aca()
    reps, assign, approx = enumerate_classes(Oracle(P), 3)
    assert not approx
    total = sum(3 ** n for n in range(4))
    assert len(assign) == total
    for w, idx in assign.items():
        assert 0 <= idx < len(reps)
