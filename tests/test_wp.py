"""Word-problem oracle tests.

The independent oracle for length-preserving relations is a union-find
over all words up to a fixed length with one-rewrite edges; that
congruence is fully decidable, so every verdict of the search-based deciders can be
checked against it exhaustively on small words.
"""

from __future__ import annotations

import heapq
from dataclasses import fields
from itertools import permutations, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ormkit import wp
from ormkit.cli import parse_presentation
from ormkit.compress import compress_step, delta_cuts
from ormkit.words import (
    EMPTY,
    compressing_words,
    find_occurrences,
    make_presentation,
    word,
)
from ormkit.wp import (
    CERT_ABELIAN,
    CERT_EXHAUSTED,
    CERT_LEFT_PREFIX,
    CERT_NORMAL_FORM,
    CERT_RIGHT_TAIL,
    CERT_SUFFIX,
    CERT_SYLLABLE,
    BudgetTooShort,
    Distinct,
    Equal,
    Oracle,
    OracleBudget,
    Unknown,
    _abelian_mismatch,
    _ideal_certificate,
    _join,
    _reduce,
    _relation_counts,
    _rewrites,
    closure,
    equal_bounded,
    equal_via_compression,
    is_complete,
    neighbors,
    normal_form,
    replay,
)
from support import (
    FIXTURES,
    aba_aca,
    all_words,
    big_example,
    brute_partition,
    reference_reduce,
)

ORM_FILES = sorted(FIXTURES.glob("*.orm"))


def incomplete():
    """Length-preserving, so its classes are finite, but the rule
    bb -> ab leaves the critical pair of bbb unresolved: normal forms
    do not decide it and equal_bounded must search."""
    return make_presentation(("a", "b"), word("bb"), word("ab"))


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


def test_verdicts_say_whether_their_words_are_congruent():
    """congruent is a class attribute, not a field, so equality, repr
    and every render see only the path, certificate or reason."""
    cases = [(Equal, True, ["path"]), (Distinct, False, ["certificate"]),
             (Unknown, None, ["reason"])]
    for cls, congruent, names in cases:
        assert cls.congruent is congruent
        assert [f.name for f in fields(cls)] == names
    assert repr(Unknown("word budget exhausted")) == (
        "Unknown(reason='word budget exhausted')")


def reference_abelian_mismatch(P, w1, w2):
    """The per-letter loop _abelian_mismatch replaced."""
    diff = [a - b for a, b in zip(P.letter_counts(w1), P.letter_counts(w2))]
    rel, _ = _relation_counts(P)
    if all(x == 0 for x in rel):
        return any(x != 0 for x in diff)
    k = None
    for d, r in zip(diff, rel):
        if r == 0:
            if d != 0:
                return True
            continue
        if d % r != 0:
            return True
        q = d // r
        if k is None:
            k = q
        elif q != k:
            return True
    return False


def test_abelian_mismatch_matches_the_reference_loop():
    """Both depend only on letter counts, so one relation per count
    difference of sides up to length 3, and one word pair per count
    difference of words up to length 4, cover every case there."""
    for alphabet in (("a", "b"), ("a", "b", "c")):
        sides = all_words(alphabet, 3)
        words = all_words(alphabet, 4)
        rels = {}
        for u, v in product(sides, repeat=2):
            if u != v:
                P = make_presentation(alphabet, u, v)
                rels.setdefault(_relation_counts(P)[0], P)
        pairs = {}
        for w1, w2 in product(words, repeat=2):
            diff = tuple(w1.count(a) - w2.count(a) for a in alphabet)
            pairs.setdefault(diff, (w1, w2))
        assert (0,) * len(alphabet) in rels
        for P in rels.values():
            for w1, w2 in pairs.values():
                assert (_abelian_mismatch(P, w1, w2)
                        == reference_abelian_mismatch(P, w1, w2)), (P, w1, w2)


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


def test_equal_bounded_unknown_names_the_cap():
    # aba -> ab is not complete and its classes are infinite
    P = make_presentation(("a", "b"), word("aba"), word("ab"))
    b = OracleBudget(max_words=2000)
    assert equal_bounded(P, word("ab"), word("aab"), b) == \
        Unknown("length cap pruned both closures")
    assert equal_bounded(P, word("abbb"), word("aabbb"), b) == \
        Unknown("word budget exhausted")


def test_equal_bounded_exhaustive_against_union_find():
    # aba-aca takes the normal-form path, the incomplete relation the search
    for P in (aba_aca(), incomplete()):
        uf = brute_partition(P, 5)
        for length in (3, 4, 5):
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


# ------------------------------------------------------- frontier engine


def reference_closure(P, w, max_len, max_words):
    """The one-sided loop closure ran before the one frontier engine."""
    key = P.shortlex_key
    parent = {w: None}
    heap = [(key(w), w)]
    pruned = False
    while heap:
        _, cur = heapq.heappop(heap)
        for n in neighbors(P, cur):
            if n in parent:
                continue
            if len(n) > max_len:
                pruned = True
                continue
            if len(parent) >= max_words:
                return parent, False
            parent[n] = cur
            heapq.heappush(heap, (key(n), n))
    return parent, not pruned


class ReferenceSide:
    def __init__(self, key, start):
        self.parent = {start: None}
        self.heap = [(key(start), start)]
        self.pruned = False


def reference_chain(parent, w):
    out = [w]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])
    return out


def reference_equal_bounded(P, w1, w2, budget):
    """equal_bounded as it was before the one decider order, on an
    incomplete rule: the certificates, then its own two-sided loop."""
    assert not is_complete(P)
    max_len = budget.cap_for(P, w1, w2)
    if w1 == w2:
        return Equal((w1,))
    cert = _ideal_certificate(P, w1, w2)
    if cert:
        return Distinct(cert)
    if _abelian_mismatch(P, w1, w2):
        return Distinct(CERT_ABELIAN)
    key = P.shortlex_key
    sides = (ReferenceSide(key, w1), ReferenceSide(key, w2))
    explored = 2
    while True:
        live = [s for s in sides if s.heap]
        if not live:
            break
        for s in sides:
            if not s.heap and not s.pruned:
                return Distinct(CERT_EXHAUSTED)
        side = min(live, key=lambda s: len(s.heap))
        other = sides[1] if side is sides[0] else sides[0]
        _, cur = heapq.heappop(side.heap)
        for n in sorted(neighbors(P, cur), key=key):
            if n in side.parent:
                continue
            if len(n) > max_len:
                side.pruned = True
                continue
            if explored >= budget.max_words:
                return Unknown("word budget exhausted")
            side.parent[n] = cur
            explored += 1
            if n in other.parent:
                left = reference_chain(sides[0].parent, n)
                right = reference_chain(sides[1].parent, n)
                return Equal(tuple(reversed(left)) + tuple(right[1:]))
            heapq.heappush(side.heap, (key(n), n))
    for s in sides:
        if not s.pruned:
            return Distinct(CERT_EXHAUSTED)
    return Unknown("length cap pruned both closures")


INCOMPLETE = ("bb=ab", "bbb=bab", "aba=ab", "abba=", "aaba=ab", "abab=aab",
              "aa=b")


def test_search_matches_the_reference_loops():
    """closure and equal_bounded's search, now one engine, give what the
    two loops gave: the verdict with its path or reason, and the
    saturated flag with the whole class map when it saturates."""
    words = all_words("ab", 3)
    for rel in INCOMPLETE:
        lhs, rhs = rel.split("=")
        P = make_presentation(("a", "b"), word(lhs), word(rhs))
        for max_words in (1, 2, 3, 5, 50, 500):
            budget = OracleBudget(max_words=max_words)
            for w in words:
                for max_len in (len(w), len(w) + 2, 12):
                    got, saturated = closure(P, w, max_len, max_words)
                    ref, ref_saturated = reference_closure(P, w, max_len,
                                                           max_words)
                    assert saturated == ref_saturated, (rel, w, max_len)
                    assert got == ref if saturated else len(got) == len(ref)
            for w1, w2 in product(words, repeat=2):
                assert (repr(equal_bounded(P, w1, w2, budget))
                        == repr(reference_equal_bounded(P, w1, w2, budget))), \
                    (rel, w1, w2, max_words)


def test_closure_budget_runs_out_on_the_last_frontier_word():
    # bbb's only neighbour bab overruns a one-word budget while bbb, the
    # last frontier word, is expanded; a has no neighbour at all
    P = make_presentation(("a", "b"), word("bbb"), word("bab"))
    assert closure(P, word("bbb"), 20, 1) == ({word("bbb"): None}, False)
    assert closure(P, word("a"), 20, 1) == ({word("a"): None}, True)


# ----------------------------------------------------------- normal_form


def test_normal_form_on_every_fixture_and_alphabet_order():
    for path in ORM_FILES:
        P = parse_presentation(path.read_text())
        for order in permutations(P.alphabet):
            Q = make_presentation(order, P.u, P.v)
            for w in all_words(order, 4):
                nf = normal_form(Q, w)
                assert nf is not None, (Q, w)
                assert Q.shortlex_key(nf) <= Q.shortlex_key(w)
                assert normal_form(Q, nf) == nf
                if w:
                    # the normal form of a prefix, extended by the last letter
                    assert normal_form(Q, normal_form(Q, w[:-1]) + w[-1:]) == nf
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


@st.composite
def rule_and_word(draw):
    """A single-rule presentation, its letters one character long or
    not, and a word of up to a few hundred letters built from pieces of
    its relation sides, so that it holds occurrences of u."""
    size = draw(st.integers(1, 3))
    if draw(st.booleans()):
        alphabet = tuple("abc"[:size])
    else:
        # names as compression makes them, some longer than one character
        alphabet = tuple(draw(st.lists(st.text("ab", min_size=1, max_size=3),
                                       min_size=size, max_size=size,
                                       unique=True)))
    letters = st.sampled_from(alphabet)
    lhs = tuple(draw(st.lists(letters, min_size=1, max_size=5)))
    rhs = draw(st.one_of(st.just(()), st.just(lhs),
                         st.lists(letters, max_size=len(lhs)).map(tuple)))
    P = make_presentation(alphabet, lhs, rhs)
    pieces = st.one_of(st.just(P.u), st.just(P.v), letters.map(lambda x: (x,)),
                       st.lists(letters, max_size=8).map(tuple))
    repeat = draw(st.integers(1, 40))
    w = sum(draw(st.lists(pieces, max_size=12)), ()) * repeat
    return P, w[:draw(st.integers(0, 400))]


@settings(max_examples=300, deadline=None)
@given(rule_and_word())
def test_reduce_matches_the_reference_stack_pass(case):
    P, w = case
    got, want = [], []
    assert _reduce(P, w, got) == reference_reduce(P, w, want)
    assert got == want


@pytest.mark.parametrize("lhs, rhs, runs", [
    ("aa", "a", "a*5000"),
    ("aa", "a", "b*2500 a*2500"),
    ("abab", "ab", "ab*2500"),
    ("bab", "b", "ba*2500 b*1"),
    ("ba", "a", "b*5000 a*1"),
    ("ba", "ab", "b*5000 a*1"),
    ("bba", "abb", "b*4980 a*20"),
    ("ba", "ab", "b*4990 a*10"),
])
def test_reduce_long_words_match_the_reference(lhs, rhs, runs):
    """Words far longer than the window: the rewrites run into the text
    left of it, which is handed back, and leftward cascades grow it until
    its right end is pushed back to be read again."""
    P = make_presentation(("a", "b"), word(lhs), word(rhs))
    w = word("".join(piece * int(n) for piece, n in
                     (run.split("*") for run in runs.split())))
    got, want = [], []
    assert _reduce(P, w, got) == reference_reduce(P, w, want)
    assert got == want


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_equal_bounded_agrees_with_saturated_classes(data):
    P = parse_presentation(data.draw(st.sampled_from(ORM_FILES)).read_text())
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


CROSS_CHECKED = [parse_presentation(p.read_text()) for p in ORM_FILES] + [
    incomplete(),
    make_presentation(("a", "b"), word("bbb"), word("bab")),
]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_deciders_never_disagree(data):
    P = data.draw(st.sampled_from(CROSS_CHECKED))
    letters = st.sampled_from(P.alphabet)
    w1 = data.draw(st.lists(letters, max_size=6).map(tuple))
    w2 = data.draw(st.lists(letters, max_size=6).map(tuple))
    if data.draw(st.booleans()):
        # plant a relation side and rewrite a few times, so that long
        # Equal paths occur, not only w1 == w2
        w1 = w1[:3] + data.draw(st.sampled_from((P.u, P.v))) + w1[3:]
        w2, seen = w1, {w1}
        for _ in range(data.draw(st.integers(1, 6))):
            fresh = sorted(neighbors(P, w2) - seen)
            if not fresh:
                break
            w2 = data.draw(st.sampled_from(fresh))
            seen.add(w2)
    b = OracleBudget(max_words=3000)
    verdicts = [equal_bounded(P, w1, w2, b),
                equal_via_compression(P, w1, w2, b),
                Oracle(P, b).equal(w1, w2)]
    decided = {isinstance(v, Equal) for v in verdicts
               if not isinstance(v, Unknown)}
    assert len(decided) <= 1, (P, w1, w2, verdicts)
    for v in verdicts:
        if isinstance(v, Equal):
            assert v.path[0] == w1 and v.path[-1] == w2
            assert replay(P, v.path)


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
    uf = brute_partition(P, 5)
    reps = {}
    for w in all_words(P.alphabet, 5):
        r = Oracle(P).rep(w)
        reps.setdefault(uf.find(w), set()).add(r)
        assert P.shortlex_key(r) <= P.shortlex_key(w)
    assert all(len(made) == 1 for made in reps.values())


# ----------------------------------------------------------------- Oracle


def test_oracle_agrees_with_pure_functions():
    P = aba_aca()
    oracle = Oracle(P)
    words = all_words("abc", 4)
    for w1 in words[:40]:
        for w2 in words[:40]:
            a = oracle.equal(w1, w2)
            b = equal_bounded(P, w1, w2)
            assert type(a) is type(b)
            if isinstance(a, Equal):
                assert replay(P, a.path)
                assert a.path[0] == w1 and a.path[-1] == w2
    assert oracle.rep(word("abaca")) == word("ababa")


def test_oracle_equal_is_equal_bounded_on_complete_rules():
    # normal forms decide first, so the store is never read and even the
    # paths agree; a length cap below a word's length is a usage error,
    # for identical words too, on a complete and an incomplete rule
    for P in [parse_presentation(p.read_text()) for p in ORM_FILES]:
        assert is_complete(P)
        oracle = Oracle(P)
        words = all_words(P.alphabet, 3)
        for w1, w2 in product(words, repeat=2):
            assert oracle.equal(w1, w2) == equal_bounded(P, w1, w2), (P, w1, w2)
    short = OracleBudget(max_len=2)
    for P in (aba_aca(), make_presentation(("a", "b"), word("bbb"), word("bab"))):
        for decide in (Oracle(P, short).equal,
                       lambda w1, w2: equal_bounded(P, w1, w2, short)):
            with pytest.raises(BudgetTooShort):
                decide(word("abab"), word("abab"))


def test_oracle_equal_runs_the_certificates_before_its_store():
    # on an incomplete rule the store is read after the certificates, so
    # every Distinct names the certificate equal_bounded names
    for P in (incomplete(), make_presentation(("a", "b"), word("aba"),
                                              word("ab"))):
        oracle = Oracle(P, OracleBudget(max_words=500))
        certificates = set()
        for w1, w2 in product(all_words("ab", 4), repeat=2):
            a = oracle.equal(w1, w2)
            b = equal_bounded(P, w1, w2, OracleBudget(max_words=500))
            if isinstance(a, Distinct) and isinstance(b, Distinct):
                assert a == b, (P, w1, w2)
                certificates.add(a.certificate)
        assert CERT_EXHAUSTED in certificates and len(certificates) > 1


def test_oracle_equal_answers_from_its_store():
    # a fresh closure is rooted at its start word, so the path from w1
    # to a stored class member runs up that member's parent chain
    P = make_presentation(("a", "b"), word("bbb"), word("bab"))
    paths = set()
    for w1 in all_words("ab", 6):
        oracle = Oracle(P)
        parent, _ = oracle.class_of(w1)
        for w2 in parent:
            path = tuple(reversed(reference_chain(parent, w2)))
            assert oracle.equal(w1, w2) == Equal(path), (w1, w2)
            paths.add(path)
    assert max(len(p) for p in paths) > 3


def test_oracle_store_agrees_with_search_on_an_incomplete_rule():
    # bb -> ab is not complete, so Oracle.equal answers from its closure
    # store, and every later pair in a stored class is a lookup
    P = incomplete()
    oracle = Oracle(P)
    words = all_words("ab", 4)
    assert len(words) ** 2 == 961
    for w1 in words:
        for w2 in words:
            a = oracle.equal(w1, w2)
            b = equal_bounded(P, w1, w2)
            assert type(a) is type(b), (w1, w2)
            if isinstance(a, Equal):
                assert replay(P, a.path)
                assert a.path[0] == w1 and a.path[-1] == w2


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

    # several free-product runs: the stitched path copies later runs
    # verbatim while an earlier one is rewritten
    for w1, w2 in [("abaa", "acaa"),         # run 0 of 2 rewritten
                   ("abaaba", "acaaca"),     # runs 0 and 1
                   ("abaaaba", "acaaaca")]:  # runs 0 and 2
        v = equal_via_compression(P, word(w1), word(w2))
        assert isinstance(v, Equal)
        assert replay(P, v.path)
        assert v.path[0] == word(w1) and v.path[-1] == word(w2)

    # incompressible falls through to search
    Q = make_presentation(("a", "b"), word("ab"), word("ba"))
    v = equal_via_compression(Q, word("ab"), word("ba"))
    assert isinstance(v, Equal) and v.path_length == 1

    # an undecided run is the verdict: aba = aaa compresses to the
    # incomplete <a ba | a a = ba>, whose search 4 words cut short
    R = make_presentation(("a", "b"), word("aba"), word("aaa"))
    with mock.patch.object(wp, "_free_product",
                           wraps=wp._free_product) as free_product:
        v = equal_via_compression(R, word("aaaaa"), word("abaaa"),
                                  OracleBudget(max_words=4))
    assert v == Unknown("word budget exhausted")
    assert free_product.call_count == 1


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
    words = all_words("abc", 5)
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


def composed_compression(P, w1, w2):
    """equal_via_compression specified by brute force: each word splits
    as t r m z at the first and last occurrence of r, found by testing
    every position; the z must agree, then the t, then the m, cut into
    Delta_r letters by delta_cuts, in the free product; the path is
    lifted by putting t r and z back around each m."""
    if w1 == w2:
        return Equal((w1,))
    cands = compressing_words(P)
    if not cands:
        return equal_bounded(P, w1, w2)
    r, n = cands[-1], len(cands[-1])

    def split(w):
        at = [i for i in range(len(w) - n + 1) if w[i:i + n] == r]
        if at:
            return w[:at[0]], w[at[0] + n:at[-1] + n], w[at[-1] + n:]

    s1, s2 = split(w1), split(w2)
    if s1 is None or s2 is None or s1[2] != s2[2]:
        return Distinct(CERT_RIGHT_TAIL)
    (t1, m1, z1), (t2, m2, _) = s1, s2
    if t1 != t2:
        return Distinct(CERT_LEFT_PREFIX)
    verdict = wp._free_product(compress_step(P, r), m1, delta_cuts(r, m1),
                               m2, delta_cuts(r, m2), None)
    if not isinstance(verdict, Equal):
        return verdict
    return Equal(tuple(t1 + r + m + z1 for m in verdict.path))


def test_equal_via_compression_matches_the_composed_factorizations():
    for path in ORM_FILES:
        P = parse_presentation(path.read_text())
        words = all_words(P.alphabet, 4)
        for w1 in words:
            for w2 in words:
                assert (repr(equal_via_compression(P, w1, w2))
                        == repr(composed_compression(P, w1, w2))), (P, w1, w2)


def test_normal_forms_first_keep_the_certificate_order():
    """On a complete rule equal_bounded decides by normal forms, and a
    Distinct names the first of the ideal, abelian and normal-form
    certificates that fires; no certificate fires on an Equal pair."""
    for path in ORM_FILES:
        P = parse_presentation(path.read_text())
        assert is_complete(P)
        words = all_words(P.alphabet, 4)
        for w1 in words:
            for w2 in words:
                first = (_ideal_certificate(P, w1, w2)
                         or _abelian_mismatch(P, w1, w2) and CERT_ABELIAN)
                verdict = equal_bounded(P, w1, w2)
                if normal_form(P, w1) == normal_form(P, w2):
                    assert isinstance(verdict, Equal) and not first
                else:
                    assert verdict == Distinct(first or CERT_NORMAL_FORM)


# --------------------------------------------------------- free product


def test_freeproduct_equal_examples():
    # Delta_a letters a (outside the compressed alphabet), ba and ca
    C = compress_step(aba_aca(), word("a"))

    def free_product(w1, w2):
        return wp._free_product(C, w1, delta_cuts(C.r, w1),
                                w2, delta_cuts(C.r, w2), None)

    assert free_product(word("aba"), word("aca")) == Equal((word("aba"),
                                                            word("aca")))
    assert free_product(EMPTY, EMPTY) == Equal(((),))
    # separator sequences must agree positionally
    assert free_product(word("aba"), word("baa")) == Distinct(CERT_SYLLABLE)


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


def test_complete_rule_paths_spell_only_the_joined_chains():
    """On a complete rule the Equal path is the one the two full
    reduction chains give once _join trims their shared tail, and the
    words spelled for it are the path's, its meeting word twice."""
    spelled = []

    def rewrites(P, w, starts):
        chain = _rewrites(P, w, starts)
        spelled.append(len(chain))
        return chain

    pairs = 0
    for path in ORM_FILES:
        P = parse_presentation(path.read_text())
        if not is_complete(P):
            continue
        by_normal_form = {}
        for w in all_words(P.alphabet, 5):
            by_normal_form.setdefault(normal_form(P, w), []).append(w)
        for words in by_normal_form.values():
            for w1, w2 in product(words[:12], repeat=2):
                s1, s2 = [], []
                _reduce(P, w1, s1)
                _reduce(P, w2, s2)
                want = _join(_rewrites(P, w1, s1), _rewrites(P, w2, s2))
                spelled.clear()
                with mock.patch.object(wp, "_rewrites", rewrites):
                    got = equal_bounded(P, w1, w2)
                assert got == Equal(want), (path.name, w1, w2)
                if w1 != w2:
                    assert sum(spelled) == len(want) + 1
                pairs += 1
    assert pairs == 2194


def test_budget_validation():
    P = aba_aca()
    with pytest.raises(ValueError):
        equal_bounded(P, word("ababa"), word("aba"),
                      OracleBudget(max_len=3))
