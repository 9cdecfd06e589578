"""Word-problem oracle tests.

The independent oracle for length-preserving relations is a union-find
over all words of a fixed length with one-rewrite edges; that congruence
is fully decidable, so every verdict of the search-based deciders can be
checked against it exhaustively on small words.
"""

from __future__ import annotations

from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ormkit.cli import parse_presentation
from ormkit.compress import DeltaLetter, compress_step
from ormkit.words import EMPTY, find_occurrences, make_presentation, word
from ormkit.wp import (
    CERT_ABELIAN,
    CERT_EXHAUSTED,
    CERT_LEFT_PREFIX,
    CERT_NORMAL_FORM,
    CERT_RIGHT_TAIL,
    CERT_SUFFIX,
    CERT_SYLLABLE,
    Distinct,
    Equal,
    Oracle,
    OracleBudget,
    Unknown,
    closure,
    equal_bounded,
    equal_via_compression,
    freeproduct_equal,
    neighbors,
    normal_form,
    replay,
)

FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures")
                  .glob("*.orm"))


def aba_aca():
    return make_presentation(("a", "b", "c"), word("aba"), word("aca"))


def big_example():
    return make_presentation(("a", "b"), word("ababbaba"), word("ababa"))


def incomplete():
    """Length-preserving, so its classes are finite, but the rule
    bb -> ab leaves the critical pair of bbb unresolved: normal forms
    do not decide it and equal_bounded must search."""
    return make_presentation(("a", "b"), word("bb"), word("ab"))


def all_words(alphabet, max_len):
    for n in range(max_len + 1):
        for tup in product(tuple(alphabet), repeat=n):
            yield tup


# ----------------------------------------------------- union-find oracle


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


def brute_partition(P, length):
    """Exact congruence on words of one length, for |u| == |v| only."""
    assert len(P.u) == len(P.v)
    uf = UnionFind()
    for w in product(P.alphabet, repeat=length):
        uf.find(w)
        for n in neighbors(P, w):
            uf.union(w, n)
    return uf


# -------------------------------------------------------------- neighbors


def test_neighbors_examples():
    P = aba_aca()
    assert neighbors(P, word("ab")) == set()
    assert neighbors(P, word("aba")) == {word("aca")}
    assert neighbors(P, word("ababa")) == {word("acaba"), word("abaca")}
    special = make_presentation(("a",), word("a"), EMPTY)
    assert neighbors(special, EMPTY) == {word("a")}
    assert neighbors(special, word("a")) == {EMPTY, word("aa")}
    degenerate = make_presentation(("a", "b"), word("ab"), word("ab"))
    assert neighbors(degenerate, word("ab")) == set()


# ---------------------------------------------------------- equal_bounded


def test_equal_bounded_examples():
    P = aba_aca()
    v = equal_bounded(P, word("ababa"), word("abaca"))
    assert isinstance(v, Equal) and v.path_length == 1
    assert replay(P, v.path)

    v = equal_bounded(P, word("ab"), word("ac"))
    assert v == Distinct(CERT_NORMAL_FORM)

    v = equal_bounded(incomplete(), word("ab"), word("ba"))
    assert v == Distinct(CERT_EXHAUSTED)

    v = equal_bounded(big_example(), word("baa"), word("bab"))
    assert v == Distinct(CERT_SUFFIX)

    v = equal_bounded(P, word("ab"), word("abb"))
    assert v == Distinct(CERT_ABELIAN)


def test_equal_bounded_reflexive_and_symmetric():
    P = aba_aca()
    v = equal_bounded(P, word("aba"), word("aba"))
    assert isinstance(v, Equal) and v.path_length == 0
    a = equal_bounded(P, word("ababa"), word("acaca"))
    b = equal_bounded(P, word("acaca"), word("ababa"))
    assert isinstance(a, Equal) and isinstance(b, Equal)
    assert a.path_length == b.path_length


def test_equal_bounded_special_insertion():
    P = make_presentation(("a", "b"), word("a"), EMPTY)
    v = equal_bounded(P, word("ba"), word("ab"))
    assert isinstance(v, Equal)
    assert replay(P, v.path)
    # one-sided exhaustion separates classes that cannot shrink together
    Q = make_presentation(("a",), word("aa"), word("a"))
    v = equal_bounded(Q, EMPTY, word("aaa"))
    assert isinstance(v, Distinct)
    v2 = equal_bounded(Q, word("a"), word("aaaa"))
    assert isinstance(v2, Equal) and replay(Q, v2.path)


def test_equal_bounded_budget_unknown():
    # growing classes with a tiny budget cannot be decided
    P = make_presentation(("a", "b"), word("a"), EMPTY)
    tiny = OracleBudget(max_words=4, max_len=None)
    v = equal_bounded(P, word("baab"), word("abba"))
    assert isinstance(v, Equal)
    assert isinstance(equal_bounded(P, word("baab"), word("abba"), tiny),
                      (Unknown, Equal))


def test_equal_bounded_exhaustive_against_union_find():
    # aba-aca takes the normal-form path, the incomplete relation the search
    for P in (aba_aca(), incomplete()):
        for length in (3, 4, 5):
            uf = brute_partition(P, length)
            words = list(product(P.alphabet, repeat=length))
            for i, w1 in enumerate(words):
                for w2 in words[i + 1:]:
                    verdict = equal_bounded(P, w1, w2)
                    expected = uf.find(w1) == uf.find(w2)
                    if expected:
                        assert isinstance(verdict, Equal), (P, w1, w2)
                        assert replay(P, verdict.path)
                        assert verdict.path[0] == w1
                        assert verdict.path[-1] == w2
                    else:
                        assert isinstance(verdict, Distinct), (P, w1, w2)


def test_closure_stays_in_suffix_ideal():
    # words ending in a compressing word only rewrite to words ending in it
    P = big_example()
    for r in (word("a"), word("aba")):
        for start in (word("ababa"), word("abaa"), word("bbaba")):
            if start[-len(r):] != r:
                continue
            parents, saturated = closure(P, start, 20, 10_000)
            assert saturated
            for member in parents:
                assert member[-len(r):] == r


# ----------------------------------------------------------- normal_form


def test_normal_form_on_every_fixture_and_alphabet_order():
    for path in FIXTURES:
        P = parse_presentation(path.read_text())
        for order in permutations(P.alphabet):
            Q = make_presentation(order, P.u, P.v)
            for w in all_words(order, 4):
                nf = normal_form(Q, w)
                assert nf is not None, (Q, w)
                assert Q.shortlex_key(nf) <= Q.shortlex_key(w)
                assert normal_form(Q, nf) == nf
                if Q.u != Q.v:
                    assert not find_occurrences(nf, Q.u)


def test_normal_form_none_when_incomplete():
    for lhs, rhs in (("bb", "ab"), ("aba", "ab"), ("aa", "b")):
        P = make_presentation(("a", "b"), word(lhs), word(rhs))
        assert normal_form(P, word("ab")) is None
        assert normal_form(P, EMPTY) is None


def test_normal_form_examples():
    degenerate = make_presentation(("a", "b"), word("ab"), word("ab"))
    assert normal_form(degenerate, word("abab")) == word("abab")
    bicyclic = make_presentation(("a", "b"), word("ab"), EMPTY)
    assert normal_form(bicyclic, word("aabbba")) == word("ba")
    assert normal_form(bicyclic, word("bbbaaa")) == word("bbbaaa")
    assert normal_form(aba_aca(), word("acaca")) == word("ababa")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_equal_bounded_agrees_with_saturated_classes(data):
    P = parse_presentation(data.draw(st.sampled_from(FIXTURES)).read_text())
    letters = st.sampled_from(P.alphabet)
    w1 = data.draw(st.lists(letters, max_size=6).map(tuple))
    got = Oracle(P, OracleBudget(max_words=2000)).class_of(w1)
    if got is not None and data.draw(st.booleans()):
        w2 = data.draw(st.sampled_from(sorted(got[0])))
    else:
        w2 = data.draw(st.lists(letters, max_size=6).map(tuple))
    verdict = equal_bounded(P, w1, w2)
    if got is not None:
        assert isinstance(verdict, Equal) == (w2 in got[0]), (P, w1, w2)
    assert not isinstance(verdict, Unknown), (P, w1, w2)
    if isinstance(verdict, Equal):
        assert verdict.path[0] == w1 and verdict.path[-1] == w2
        assert replay(P, verdict.path)


# ------------------------------------------------------------- Oracle.rep


def test_oracle_rep_examples():
    P = aba_aca()
    assert Oracle(P).rep(word("abaca")) == word("ababa")
    parents, saturated = closure(P, word("abaca"), 10, 1000)
    assert saturated
    assert set(parents) == {word("ababa"), word("abaca"),
                            word("acaba"), word("acaca")}
    assert Oracle(P).rep(EMPTY) == EMPTY
    assert Oracle(P).rep(word("bcb")) == word("bcb")


def test_oracle_class_of_none_for_growing_class():
    # class_of is the closure store alone; rep answers by the normal form
    # when u -> v is complete and is undecided only on incomplete rules
    P = make_presentation(("a",), word("aa"), word("a"))
    oracle = Oracle(P)
    assert oracle.class_of(word("a")) is None
    assert oracle.rep(word("a")) == word("a")
    Q = make_presentation(("a", "b"), word("aba"), word("ab"))
    assert Oracle(Q).rep(word("ab")) is None


def test_oracle_rep_is_class_invariant_and_least():
    P = aba_aca()
    for length in (4, 5):
        uf = brute_partition(P, length)
        reps = {}
        for w in product(P.alphabet, repeat=length):
            r = Oracle(P).rep(w)
            root = uf.find(w)
            reps.setdefault(root, set()).add(r)
            assert P.shortlex_key(r) <= P.shortlex_key(w)
        for made in reps.values():
            assert len(made) == 1


# ----------------------------------------------------------------- Oracle


def test_oracle_agrees_with_pure_functions():
    P = aba_aca()
    oracle = Oracle(P)
    words = [w for w in all_words("abc", 4)]
    for w1 in words[:40]:
        for w2 in words[:40]:
            a = oracle.equal(w1, w2)
            b = equal_bounded(P, w1, w2)
            assert type(a) is type(b)
            if isinstance(a, Equal):
                assert replay(P, a.path)
                assert a.path[0] == w1 and a.path[-1] == w2
    assert oracle.rep(word("abaca")) == word("ababa")


# ------------------------------------------------- equal_via_compression


def test_equal_via_compression_examples():
    P = aba_aca()
    v = equal_via_compression(P, word("ababa"), word("abaca"))
    assert isinstance(v, Equal)
    assert replay(P, v.path)

    v = equal_via_compression(big_example(), word("ababbaba"), word("ababa"))
    assert isinstance(v, Equal)
    assert replay(big_example(), v.path)
    assert v.path[0] == word("ababbaba") and v.path[-1] == word("ababa")

    # incompressible falls through to search
    Q = make_presentation(("a", "b"), word("ab"), word("ba"))
    v = equal_via_compression(Q, word("ab"), word("ba"))
    assert isinstance(v, Equal) and v.path_length == 1


def test_equal_via_compression_distinct_certificates():
    P = aba_aca()
    # different tails after the last occurrence of the compressing word
    assert equal_via_compression(P, word("ab"), word("ac")) == \
        Distinct(CERT_RIGHT_TAIL)
    # same tail, different prefix before the first occurrence
    assert equal_via_compression(P, word("ba"), word("ca")) == \
        Distinct(CERT_LEFT_PREFIX)


def test_equal_via_compression_agrees_with_search():
    P = aba_aca()
    words = [w for w in all_words("abc", 5)]
    import random
    rng = random.Random(7)
    sample = rng.sample(words, 60)
    for w1 in sample:
        for w2 in rng.sample(words, 20):
            a = equal_via_compression(P, w1, w2)
            b = equal_bounded(P, w1, w2)
            assert isinstance(a, Equal) == isinstance(b, Equal), (w1, w2)
            if isinstance(a, Equal):
                assert replay(P, a.path)
                assert a.path[0] == w1 and a.path[-1] == w2


# --------------------------------------------------------- free product


def test_freeproduct_equal_examples():
    P = aba_aca()
    C = compress_step(P, word("a"))
    x = DeltaLetter(word("a"))          # outside the compressed alphabet
    ba = DeltaLetter(word("ba"))
    ca = DeltaLetter(word("ca"))
    v = freeproduct_equal(C, (x, ba), (x, ca))
    assert isinstance(v, Equal)
    assert freeproduct_equal(C, (), ()) == Equal(((),))
    # separator sequences must agree positionally
    v = freeproduct_equal(C, (x, ba), (ba, x))
    assert v == Distinct(CERT_SYLLABLE)


def test_freeproduct_rejects_non_delta_letters():
    P = aba_aca()
    C = compress_step(P, word("a"))
    with pytest.raises(ValueError):
        freeproduct_equal(C, (DeltaLetter(word("b")),), ())
    with pytest.raises(ValueError):
        freeproduct_equal(C, (DeltaLetter(word("aba")),), ())


# ----------------------------------------------------------- replay path


def test_replay_rejects_fake_paths():
    P = aba_aca()
    assert not replay(P, (word("ab"), word("ac")))
    assert replay(P, (word("aba"), word("aca")))
    assert not replay(P, ())


@settings(max_examples=60)
@given(st.builds(tuple, st.lists(st.sampled_from("abc"), min_size=0, max_size=6)),
       st.builds(tuple, st.lists(st.sampled_from("abc"), min_size=0, max_size=6)))
def test_every_equal_verdict_replays(w1, w2):
    P = aba_aca()
    for decide in (equal_bounded, equal_via_compression):
        v = decide(P, w1, w2)
        if isinstance(v, Equal):
            assert v.path[0] == w1 and v.path[-1] == w2
            assert replay(P, v.path)


def test_budget_validation():
    P = aba_aca()
    with pytest.raises(ValueError):
        equal_bounded(P, word("ababa"), word("aba"),
                      OracleBudget(max_len=3))
