"""Classification tests: the case table, torsion detection, asphericity."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ormkit.classify import (
    INF,
    Asphericity,
    Case,
    DimBound,
    asphericity_certificate,
    classify_full,
    has_torsion,
    is_subspecial,
)
from ormkit.words import make_presentation, seals, word


def mk(alphabet, lhs, rhs):
    return make_presentation(tuple(alphabet), word(lhs), word(rhs))


# ------------------------------------------------------------- subspecial


def test_is_subspecial_examples():
    assert is_subspecial(mk("a", "aa", "a"))
    assert is_subspecial(mk("ab", "babab", "b"))
    assert is_subspecial(mk("ab", "ab", ""))       # special counts
    assert not is_subspecial(mk("abc", "aba", "aca"))
    assert not is_subspecial(mk("ab", "ababbaba", "ababa"))
    assert is_subspecial(mk("ab", "ab", "ab"))     # degenerate counts


def test_has_torsion_examples():
    assert has_torsion(mk("ab", "babab", "b"))       # tail abab = (ab)^2
    assert not has_torsion(mk("a", "aa", "a"))       # tail a
    assert has_torsion(mk("a", "aaa", ""))           # special, tail aaa = a^3
    assert not has_torsion(mk("ab", "ab", ""))       # special, tail ab
    assert not has_torsion(mk("abc", "aba", "aca"))  # non-subspecial
    assert not has_torsion(mk("ab", "ab", "ab"))     # degenerate


# ------------------------------------------------------------ asphericity


def test_asphericity_examples():
    assert asphericity_certificate(mk("ab", "ab", "ba")) == \
        Asphericity.PROVEN_STRICTLY_ASPHERICAL
    assert asphericity_certificate(mk("abc", "aba", "aca")) == Asphericity.UNKNOWN
    assert asphericity_certificate(mk("a", "aa", "a")) == Asphericity.UNKNOWN
    # incompressible non-subspecial with overlapping affixes is still certified
    assert asphericity_certificate(mk("abc", "ab", "c")) == \
        Asphericity.PROVEN_STRICTLY_ASPHERICAL
    # special presentations are never certified here
    assert asphericity_certificate(mk("ab", "ab", "")) == Asphericity.UNKNOWN


def two_criterion_asphericity(P):
    """The former definition, by brute force: P is not subspecial, v is
    nonempty, and either the longest common suffix of u and v does not
    overlap their longest common prefix, or no word seals both sides."""
    u, v = P.u, P.v
    if is_subspecial(P) or not v:
        return False
    n = min(len(u), len(v))
    lam = max((u[:k] for k in range(n + 1) if u[:k] == v[:k]), key=len)
    rho = max((u[len(u) - k:] for k in range(n + 1)
               if u[len(u) - k:] == v[len(v) - k:]), key=len)
    overlap = any(rho[len(rho) - k:] == lam[:k]
                  for k in range(1, min(len(rho), len(lam)) + 1))
    sealed = any(seals(u[:k], u) and seals(u[:k], v)
                 for k in range(1, len(u) + 1))
    return not overlap or not sealed


words_abc = st.builds(tuple, st.lists(st.sampled_from("abc"), max_size=6))


@given(words_abc, words_abc)
def test_asphericity_matches_the_two_criterion_definition(x, y):
    P = make_presentation(("a", "b", "c"), x, y)
    certified = (asphericity_certificate(P)
                 is Asphericity.PROVEN_STRICTLY_ASPHERICAL)
    assert certified == two_criterion_asphericity(P)


# -------------------------------------------------------------- the table

TABLE = [
    ("ab", "ab", "ab", Case.DEGENERATE, False, (0, 1)),
    ("ab", "ab", "", Case.SPECIAL, False, (0, 2)),
    ("a", "aaa", "", Case.SPECIAL, True, (INF, INF)),
    ("ab", "babab", "b", Case.SUBSPECIAL_TORSION, True, (INF, INF)),
    ("a", "aa", "a", Case.SUBSPECIAL_TORSION_FREE, False, (0, 2)),
    ("ab", "abab", "ab", Case.SUBSPECIAL_TORSION_FREE, False, (0, 2)),
    ("ab", "ab", "ba", Case.INCOMPRESSIBLE_NON_SUBSPECIAL, False, (0, 2)),
    ("abc", "ab", "c", Case.INCOMPRESSIBLE_NON_SUBSPECIAL, False, (0, 2)),
    ("abc", "aba", "aca", Case.ONE_STEP_COMPRESSIBLE_NON_SUBSPECIAL, False,
     (INF, INF)),
    ("ab", "ababbaba", "ababa", Case.MULTI_STEP_COMPRESSIBLE_NON_SUBSPECIAL,
     False, (3, INF)),
]


@pytest.mark.parametrize("alphabet,lhs,rhs,case,torsion,bound", TABLE)
def test_classification_table(alphabet, lhs, rhs, case, torsion, bound):
    c = classify_full(mk(alphabet, lhs, rhs))
    assert c.case == case
    assert c.torsion == torsion
    for b in (c.cd_left, c.cd_right, c.gd_left, c.gd_right):
        assert (b.lower, b.upper) == bound


def test_all_case_tags_covered_by_table():
    assert {row[3] for row in TABLE} == set(Case)


def test_compressing_word_counts_match_case():
    for alphabet, lhs, rhs, case, _, _ in TABLE:
        c = classify_full(mk(alphabet, lhs, rhs))
        if case == Case.INCOMPRESSIBLE_NON_SUBSPECIAL:
            assert len(c.compressing) == 0
        if case == Case.ONE_STEP_COMPRESSIBLE_NON_SUBSPECIAL:
            assert len(c.compressing) == 1
        if case == Case.MULTI_STEP_COMPRESSIBLE_NON_SUBSPECIAL:
            assert len(c.compressing) >= 2


# -------------------------------------------------------------- invariants


def test_torsion_forces_infinite_bounds():
    for alphabet, lhs, rhs, _, torsion, _ in TABLE:
        c = classify_full(mk(alphabet, lhs, rhs))
        if c.torsion:
            for b in (c.cd_left, c.cd_right, c.gd_left, c.gd_right):
                assert b.lower == INF and b.upper == INF


def test_incompressible_non_subspecial_is_always_certified_aspherical():
    for alphabet, lhs, rhs, case, _, _ in TABLE:
        c = classify_full(mk(alphabet, lhs, rhs))
        if case == Case.INCOMPRESSIBLE_NON_SUBSPECIAL:
            assert c.asphericity == Asphericity.PROVEN_STRICTLY_ASPHERICAL


def test_cd_never_exceeds_gd():
    for alphabet, lhs, rhs, *_ in TABLE:
        c = classify_full(mk(alphabet, lhs, rhs))
        assert c.cd_left.lower <= c.gd_left.upper
        assert c.cd_right.lower <= c.gd_right.upper


@given(st.builds(tuple, st.lists(st.sampled_from("ab"), max_size=6)),
       st.builds(tuple, st.lists(st.sampled_from("ab"), max_size=6)))
def test_classify_invariant_under_side_swap(x, y):
    assert classify_full(make_presentation(("a", "b"), x, y)) == \
        classify_full(make_presentation(("a", "b"), y, x))


@given(st.builds(tuple, st.lists(st.sampled_from("ab"), max_size=6)),
       st.builds(tuple, st.lists(st.sampled_from("ab"), max_size=6)))
def test_classify_invariant_under_relabeling(x, y):
    ren = {"a": "q", "b": "p"}
    c1 = classify_full(make_presentation(("a", "b"), x, y))
    c2 = classify_full(make_presentation(
        ("q", "p"),
        tuple(ren[t] for t in x),
        tuple(ren[t] for t in y)))
    assert (c1.case, c1.torsion, c1.asphericity) == (c2.case, c2.torsion,
                                                     c2.asphericity)
    assert c1.cd_left == c2.cd_left and c1.gd_right == c2.gd_right


def test_dim_bound_validation():
    with pytest.raises(ValueError):
        DimBound(3, 2)
    with pytest.raises(ValueError):
        DimBound(-1, 2)
    assert DimBound(3, INF).as_pair() == ("3", "inf")
