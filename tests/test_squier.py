"""Rewriting-path tests: endpoints, homotopy moves, parity invariance,
the seeded walk, and the formal-sum injectivity harness.

Parity keys are cross-checked against a union-find congruence oracle on
the length-preserving running example, where every class is finite and
the canonical representative is computable by exhaustion.
"""

from __future__ import annotations

from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ormkit.squier import (
    DeleteCancelPair,
    HarnessReport,
    InsertCancelPair,
    NonComposable,
    NotApplicable,
    PullUpPushDown,
    SquierEdge,
    UndecidableClass,
    _parity,
    apply_move,
    edge_source,
    edge_target,
    injectivity_harness,
    inverse,
    is_rightmost,
    parity_vector,
    random_walk_check,
    validate_path,
)
from ormkit.words import EMPTY, make_presentation, word
from ormkit.wp import normal_form


def aba_aca():
    return make_presentation(("a", "b", "c"), word("aba"), word("aca"))


def idempotent():
    return make_presentation(("a",), word("aa"), word("a"))


E_TOP = SquierEdge(EMPTY, 1, EMPTY)
E_DOWN = SquierEdge(EMPTY, -1, EMPTY)


# ------------------------------------------------- independent oracle


class UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


def brute_rep(P, w):
    """Shortlex-least congruent word, by exhausting one length level.

    Only valid when both relation sides have the same length.
    """
    assert len(P.u) == len(P.v)
    n = len(w)
    uf = UnionFind()
    for letters in product(P.alphabet, repeat=n):
        x = tuple(letters)
        for i in range(n - len(P.u) + 1):
            if x[i:i + len(P.u)] == P.u:
                uf.union(x, x[:i] + P.v + x[i + len(P.u):])
    cls = [x for x in map(tuple, product(P.alphabet, repeat=n))
           if uf.find(x) == uf.find(tuple(w))]
    return min(cls, key=P.shortlex_key)


def brute_parity(P, path):
    bits = {}
    for e in path:
        if e.w2:
            continue
        rep = brute_rep(P, e.w1)
        bits[rep] = bits.get(rep, 0) ^ 1
    return {k: v for k, v in bits.items() if v}


# ------------------------------------------------------ edges and paths


def test_edge_endpoints():
    P = aba_aca()
    assert (P.u, P.v) == (word("aca"), word("aba"))
    assert edge_source(P, E_TOP) == word("aca")
    assert edge_target(P, E_TOP) == word("aba")
    e = SquierEdge(word("b"), -1, word("c"))
    assert edge_source(P, e) == word("babac")
    assert edge_target(P, e) == word("bacac")


def test_sign_validated():
    with pytest.raises(ValueError):
        SquierEdge(EMPTY, 0, EMPTY)


def test_inverse_swaps_endpoints():
    P = aba_aca()
    e = SquierEdge(word("ab"), 1, word("c"))
    assert inverse(inverse(e)) == e
    assert edge_source(P, inverse(e)) == edge_target(P, e)
    assert edge_target(P, inverse(e)) == edge_source(P, e)


def test_is_rightmost():
    assert is_rightmost(E_TOP)
    assert not is_rightmost(SquierEdge(EMPTY, 1, word("a")))


def test_validate_path_examples():
    P = aba_aca()
    assert validate_path(P, ()) == (None, None)
    assert validate_path(P, (E_TOP,)) == (word("aca"), word("aba"))
    assert validate_path(P, (E_TOP, E_DOWN)) == (word("aca"), word("aca"))
    loop = (SquierEdge(EMPTY, 1, word("aca")),
            SquierEdge(word("aba"), 1, EMPTY),
            SquierEdge(EMPTY, -1, word("aba")))
    assert validate_path(P, loop) == (word("acaaca"), word("acaaba"))


def test_validate_path_noncomposable():
    P = aba_aca()
    bad = (E_TOP, SquierEdge(word("b"), 1, EMPTY))
    with pytest.raises(NonComposable, match="at index 1"):
        validate_path(P, bad)


# ------------------------------------------------------------- moves


def test_insert_then_delete_roundtrip():
    P = aba_aca()
    path = (E_TOP,)
    grown = apply_move(P, path, InsertCancelPair(1, E_DOWN))
    assert grown == (E_TOP, E_DOWN, E_TOP)
    assert validate_path(P, grown) == validate_path(P, path)
    assert apply_move(P, grown, DeleteCancelPair(1)) == path


def test_insert_into_empty_path():
    P = aba_aca()
    assert apply_move(P, (), InsertCancelPair(0, E_TOP)) == (E_TOP, E_DOWN)


def test_insert_rejects_mismatched_seam():
    P = aba_aca()
    with pytest.raises(NotApplicable):
        apply_move(P, (E_TOP,), InsertCancelPair(0, SquierEdge(word("b"), 1, word("b"))))
    with pytest.raises(NotApplicable):
        apply_move(P, (E_TOP,), InsertCancelPair(5, E_TOP))


def test_delete_requires_cancelling_pair():
    P = aba_aca()
    assert apply_move(P, (E_TOP, E_DOWN), DeleteCancelPair(0)) == ()
    skew = (SquierEdge(EMPTY, 1, word("aca")), SquierEdge(word("aba"), 1, EMPTY))
    with pytest.raises(NotApplicable):
        apply_move(P, skew, DeleteCancelPair(0))
    with pytest.raises(NotApplicable):
        apply_move(P, (E_TOP,), DeleteCancelPair(0))


def test_swap_frozen_example_and_involution():
    P = aba_aca()
    before = (SquierEdge(EMPTY, 1, word("aca")), SquierEdge(word("aba"), 1, EMPTY))
    after = (SquierEdge(word("aca"), 1, EMPTY), SquierEdge(EMPTY, 1, word("aba")))
    assert apply_move(P, before, PullUpPushDown(0)) == after
    assert apply_move(P, after, PullUpPushDown(0)) == before
    assert validate_path(P, before) == validate_path(P, after)


def test_swap_rejects_overlapping_sites():
    P = aba_aca()
    with pytest.raises(NotApplicable):
        apply_move(P, (E_TOP, E_DOWN), PullUpPushDown(0))


# ------------------------------------------------------------- parity


def test_parity_single_edge():
    P = aba_aca()
    assert parity_vector(P, (E_TOP,)) == {EMPTY: 1}


def test_parity_cancelling_pair_is_zero():
    P = aba_aca()
    assert parity_vector(P, (E_TOP, E_DOWN)) == {}


def test_parity_ignores_non_rightmost():
    P = aba_aca()
    assert parity_vector(P, (SquierEdge(EMPTY, 1, word("a")),)) == {}


def test_parity_key_is_class_representative():
    P = aba_aca()
    path = (SquierEdge(word("aca"), 1, EMPTY),)
    assert parity_vector(P, path) == {word("aba"): 1}
    assert parity_vector(P, path) == brute_parity(P, path)


def test_parity_matches_brute_oracle():
    P = aba_aca()
    path = (SquierEdge(EMPTY, 1, word("aca")),
            SquierEdge(word("aba"), 1, EMPTY),
            SquierEdge(EMPTY, -1, word("aba")))
    assert parity_vector(P, path) == brute_parity(P, path)


def test_parity_invariant_under_each_move():
    P = aba_aca()
    path = (SquierEdge(EMPTY, 1, word("aca")), SquierEdge(word("aba"), 1, EMPTY))
    before = parity_vector(P, path)
    assert parity_vector(P, apply_move(P, path, PullUpPushDown(0))) == before
    grown = apply_move(P, path, InsertCancelPair(0, SquierEdge(EMPTY, 1, word("aca"))))
    assert parity_vector(P, grown) == before
    assert parity_vector(P, apply_move(P, grown, DeleteCancelPair(0))) == before


def test_parity_not_invariant_with_empty_side():
    # With v empty a swap can change the rightmost-edge count of a class,
    # so exact class keys (normal forms of the complete rule ab -> 1)
    # see the parity flip; the invariant needs both sides nonempty.
    P = make_presentation(("a", "b"), word("ab"), EMPTY)
    ab = word("ab")
    path = (SquierEdge(ab, -1, EMPTY), SquierEdge(ab, -1, ab),
            SquierEdge(ab, 1, ab), SquierEdge(ab, 1, EMPTY),
            SquierEdge(EMPTY, 1, EMPTY))
    validate_path(P, path)
    exact = SimpleNamespace(P=P, class_of=lambda w: (None, normal_form(P, w)))
    assert _parity(exact, path) == {EMPTY: 1}
    swapped = apply_move(P, path, PullUpPushDown(2))
    assert validate_path(P, swapped) == validate_path(P, path)
    assert _parity(exact, swapped) == {}


def test_parity_undecidable_class():
    P = idempotent()
    with pytest.raises(UndecidableClass):
        parity_vector(P, (SquierEdge(word("a"), 1, EMPTY),))


# -------------------------------------------------------------- walks


def test_walk_200_steps():
    report = random_walk_check(aba_aca(), (E_TOP,), 200, seed=42)
    assert report.passed
    assert report.violation is None
    assert report.applied == 200
    assert len(report.log) == 200


def test_walk_zero_steps():
    report = random_walk_check(aba_aca(), (E_TOP,), 0, seed=0)
    assert report.passed
    assert report.applied == 0


def test_walk_from_empty_path():
    report = random_walk_check(aba_aca(), (), 50, seed=1)
    assert report.passed
    assert report.applied == 50


def test_walk_deterministic():
    a = random_walk_check(aba_aca(), (E_TOP,), 40, seed=9)
    b = random_walk_check(aba_aca(), (E_TOP,), 40, seed=9)
    assert a == b


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_walk_passes_for_any_seed(seed):
    assert random_walk_check(aba_aca(), (E_TOP,), 30, seed=seed).passed


# ------------------------------------------------------------ harness


def test_harness_running_example():
    report = injectivity_harness(aba_aca(), samples=50, max_support=3,
                                 seed=7, radius=4)
    assert isinstance(report, HarnessReport)
    assert report.passed
    assert report.violations == ()
    assert report.singleton_violations == ()
    assert report.skipped == 0
    assert report.singleton_skipped == 0
    assert report.singleton_checked > 0
    assert report.pre_incompressible is False
    assert report.pre_shared_last_letter is True
    assert report.pre_aspherical is False


def test_harness_requires_shared_last_letter():
    P = make_presentation(("a", "b"), word("ba"), word("ab"))
    with pytest.raises(ValueError):
        injectivity_harness(P, samples=1, max_support=1, seed=0)


def test_harness_requires_positive_support():
    with pytest.raises(ValueError):
        injectivity_harness(aba_aca(), samples=1, max_support=0, seed=0)
