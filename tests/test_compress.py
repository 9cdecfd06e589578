"""Compression calculus tests.

The factorization oracle enumerates *all* ways to split a word into
irreducible T(r)-blocks; uniqueness of that splitting is itself one of
the checked properties, and the greedy implementation must agree with
the unique splitting everywhere.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ormkit import compress
from ormkit.compress import (
    DeltaLetter,
    NoOccurrence,
    NotCompressing,
    NotInT,
    Strategy,
    compress_chain,
    compress_step,
    delta_factorize,
    left_canonical,
    p_delta_membership,
    relabel_equivalent,
    right_canonical,
    t_membership,
)
from ormkit.words import (
    EMPTY,
    compressing_words,
    is_sof,
    make_presentation,
    word,
)

# ---------------------------------------------------------------- oracles


def all_words(alphabet, max_len):
    for n in range(max_len + 1):
        for tup in product(tuple(alphabet), repeat=n):
            yield tup


def in_delta(r, w):
    """Irreducible nonempty member of T(r): no proper nonempty prefix in T(r)."""
    if not w or not t_membership(r, w):
        return False
    return all(not t_membership(r, w[:k]) for k in range(1, len(w)))


def brute_splittings(r, w):
    """All factorizations of w into Delta_r letters, by exhaustive search."""
    if w == EMPTY:
        return [()]
    out = []
    for k in range(1, len(w) + 1):
        if in_delta(r, w[:k]):
            for rest in brute_splittings(r, w[k:]):
                out.append((w[:k],) + rest)
    return out


def big_example():
    return make_presentation(("a", "b"), word("ababbaba"), word("ababa"))


def aba_aca():
    return make_presentation(("a", "b", "c"), word("aba"), word("aca"))


# ------------------------------------------------------------ membership


def test_t_membership_examples():
    r = word("a")
    assert t_membership(r, EMPTY)
    assert t_membership(r, word("ba"))
    assert t_membership(r, word("babbaba"))
    assert not t_membership(r, word("b"))
    r2 = word("aba")
    assert t_membership(r2, word("ba"))
    assert t_membership(r2, word("bbaba"))
    assert not t_membership(r2, word("b"))


@given(st.builds(tuple, st.lists(st.sampled_from("ab"), max_size=5)),
       st.builds(tuple, st.lists(st.sampled_from("ab"), max_size=5)),
       st.sampled_from([("a",), ("a", "b"), ("a", "b", "a"), ("b", "a")]))
def test_t_is_left_unitary(z, w, r):
    # z in T(r) and z w in T(r) together force w in T(r)
    if t_membership(r, z) and t_membership(r, z + w):
        assert t_membership(r, w)


@given(st.builds(tuple, st.lists(st.sampled_from("ab"), max_size=5)),
       st.builds(tuple, st.lists(st.sampled_from("ab"), max_size=5)),
       st.sampled_from([("a",), ("a", "b"), ("a", "b", "a")]))
def test_t_is_a_submonoid(x, y, r):
    if t_membership(r, x) and t_membership(r, y):
        assert t_membership(r, x + y)


def test_delta_is_a_prefix_code():
    for r in (word("a"), word("aba"), word("ab")):
        delta = [w for w in all_words("ab", 6) if in_delta(r, w)]
        for x in delta:
            for y in delta:
                if x != y:
                    assert y[: len(x)] != x, (r, x, y)


def test_sof_delta_formula():
    # for self-overlap-free r: Delta_r = (words avoiding r as a factor) r
    for r in (word("a"), word("ab"), word("aab")):
        assert is_sof(r)
        for w in all_words("ab", 6):
            lhs = in_delta(r, w)
            stem = w[: len(w) - len(r)]
            rhs = (len(w) >= len(r) and w[len(w) - len(r):] == r
                   and all(w[i:i + len(r)] != r for i in range(len(w) - len(r))))
            assert lhs == rhs, (r, w)


def test_non_sof_delta_differs_from_sof_formula():
    # r = aba is not self-overlap-free: bbaba is irreducible even though
    # its stem does not avoid r in the formula sense; spot-check members
    r = word("aba")
    assert in_delta(r, word("ba"))
    assert in_delta(r, word("bbaba"))
    assert not in_delta(r, word("baba"))  # wait: checked against oracle below
    # full agreement with oracle is covered by test_delta_is_a_prefix_code
    # plus factorization tests; this test freezes a few shapes.


# --------------------------------------------------------- factorization


def test_delta_factorize_worked_examples():
    fa = delta_factorize(word("a"), word("babbaba"))
    assert [d.spelling for d in fa] == [word("ba"), word("bba"), word("ba")]
    fb = delta_factorize(word("aba"), word("bbaba"))
    assert [d.spelling for d in fb] == [word("bbaba")]
    assert delta_factorize(word("a"), EMPTY) == ()
    with pytest.raises(NotInT):
        delta_factorize(word("a"), word("b"))


@given(st.builds(tuple, st.lists(st.sampled_from("ab"), max_size=8)),
       st.sampled_from([("a",), ("a", "b", "a"), ("a", "b"), ("b", "a")]))
def test_factorization_unique_and_greedy_agrees(w, r):
    splits = brute_splittings(r, w)
    if t_membership(r, w):
        assert len(splits) == 1
        assert tuple(DeltaLetter(p) for p in splits[0]) == delta_factorize(r, w)
    else:
        assert splits == []
        if w:
            with pytest.raises(NotInT):
                delta_factorize(r, w)


@given(st.builds(tuple, st.lists(st.sampled_from("ab"), max_size=8)),
       st.sampled_from([("a",), ("a", "b", "a")]))
def test_factorize_roundtrip(w, r):
    if t_membership(r, w):
        parts = delta_factorize(r, w)
        flat = tuple(x for d in parts for x in d.spelling)
        assert flat == w


def test_p_delta_membership():
    r = word("a")
    assert p_delta_membership(r, word("b"))
    assert p_delta_membership(r, word("bb"))
    assert not p_delta_membership(r, word("ba"))
    assert p_delta_membership(r, EMPTY)


# ------------------------------------------------- canonical factorizations


def test_right_canonical_examples():
    r = word("a")
    assert right_canonical(r, word("bab")) == (word("ba"), word("b"))
    assert right_canonical(r, word("abac")) == (word("aba"), word("c"))
    assert right_canonical(r, word("bbb")) == (EMPTY, word("bbb"))
    y, tail = right_canonical(word("aba"), word("ababab"))
    assert y == word("ababa") and tail == word("b")


@given(st.builds(tuple, st.lists(st.sampled_from("abc"), max_size=8)),
       st.sampled_from([("a",), ("a", "b", "a"), ("a", "b")]))
def test_right_canonical_shape(s, r):
    y, tail = right_canonical(r, s)
    assert y + tail == s
    if y:
        assert y[-len(r):] == r
        assert p_delta_membership(r, tail)
    else:
        assert not [i for i in range(len(s) - len(r) + 1) if s[i:i + len(r)] == r]


def test_left_canonical_examples():
    r = word("a")
    y, parts = left_canonical(r, word("ba"))
    assert y == word("b") and parts == ()
    y, parts = left_canonical(r, word("aba"))
    assert y == EMPTY and [d.spelling for d in parts] == [word("ba")]
    with pytest.raises(NoOccurrence):
        left_canonical(r, word("ab"))


@given(st.builds(tuple, st.lists(st.sampled_from("ab"), max_size=8)),
       st.sampled_from([("a",), ("a", "b", "a")]))
def test_left_canonical_shape(s, r):
    if len(s) >= len(r) and s[-len(r):] == r:
        y, parts = left_canonical(r, s)
        flat = tuple(x for d in parts for x in d.spelling)
        assert y + r + flat == s
        # y is the part before the first occurrence
        assert all(s[i:i + len(r)] != r for i in range(len(y)))


# ------------------------------------------------ one occurrence scan


WORDS = st.builds(tuple, st.lists(st.sampled_from("abc"), max_size=9))
SEALS = st.sampled_from([("a",), ("a", "b", "a"), ("a", "b"), ("b", "a"),
                         ("a", "a"), ("a", "b", "a", "b", "a")])


@given(WORDS, SEALS)
def test_delta_factorize_cuts_where_r_ends_in_r_w(w, r):
    rw, n = r + w, len(r)
    ends = [e for e in range(n, len(rw) + 1) if rw[e - n:e] == r]
    if not t_membership(r, w):
        with pytest.raises(NotInT):
            delta_factorize(r, w)
        return
    cuts = [0]
    for d in delta_factorize(r, w):
        cuts.append(cuts[-1] + len(d.spelling))
    assert cuts == [e - n for e in ends]


@given(WORDS, SEALS)
def test_right_canonical_is_the_brute_force_split(s, r):
    """y is the longest prefix of s ending in r, and when r occurs no
    nonempty prefix of the tail lies in T(r)."""
    n = len(r)
    k = max((k for k in range(n, len(s) + 1) if s[k - n:k] == r), default=0)
    assert right_canonical(r, s) == (s[:k], s[k:])
    if k:
        assert not any(t_membership(r, s[k:j]) for j in range(k + 1, len(s) + 1))


@given(WORDS, SEALS)
def test_left_canonical_is_the_brute_force_split(s, r):
    """y ends before the first occurrence of r, and the rest after it is
    the unique splitting into irreducible members of T(r)."""
    n = len(r)
    if len(s) < n or s[-n:] != r:
        with pytest.raises(NoOccurrence):
            left_canonical(r, s)
        return
    first = min(i for i in range(len(s)) if s[i:i + n] == r)
    y, parts = left_canonical(r, s)
    assert y == s[:first]
    assert brute_splittings(r, s[first + n:]) == [tuple(d.spelling for d in parts)]


def test_right_canonical_checks_its_tail(monkeypatch):
    monkeypatch.setattr(compress, "p_delta_membership", lambda r, w: False)
    with pytest.raises(AssertionError):
        right_canonical(word("a"), word("ab"))


# --------------------------------------------------------- compress_step


def test_compress_by_sof_word_worked_example():
    data = compress_step(big_example(), word("a"))
    assert data.u_prime == word("babbaba")
    assert data.v_prime == word("baba")
    assert [d.name for d in data.u_factors] == ["ba", "bba", "ba"]
    assert [d.name for d in data.v_factors] == ["ba", "ba"]
    assert {d.name for d in data.lambda_r} == {"ba", "bba"}
    C = data.compressed
    assert C.alphabet == ("ba", "bba")
    assert C.u == ("ba", "bba", "ba")
    assert C.v == ("ba", "ba")


def test_compress_by_longest_word_worked_example():
    data = compress_step(big_example(), word("aba"))
    assert [d.name for d in data.u_factors] == ["bbaba"]
    assert [d.name for d in data.v_factors] == ["ba"]
    assert {d.name for d in data.lambda_r} == {"ba", "bbaba"}
    C = data.compressed
    assert C.alphabet == ("ba", "bbaba")
    assert C.u == ("bbaba",)
    assert C.v == ("ba",)


def test_recompression_matches_one_step_compression_exactly():
    two_step = compress_step(compress_step(big_example(), word("a")).compressed,
                             ("ba",))
    one_step = compress_step(big_example(), word("aba"))
    assert two_step.compressed == one_step.compressed
    assert relabel_equivalent(two_step.compressed, one_step.compressed)


def test_compress_step_rejects_non_sealing_word():
    with pytest.raises(NotCompressing):
        compress_step(big_example(), word("ab"))
    with pytest.raises(NotCompressing):
        compress_step(big_example(), EMPTY)


def test_compress_step_factor_counts_shrink():
    for P, r in ((big_example(), word("a")), (big_example(), word("aba")),
                 (aba_aca(), word("a"))):
        data = compress_step(P, r)
        assert len(data.u_factors) < len(P.u)
        if P.v:
            assert len(data.v_factors) < len(P.v)


def test_delta_letters_lie_in_ideal_of_shortest_compressing_word():
    # every Delta-letter spelling used in the compressed relation ends with
    # the self-overlap-free compressing word
    for P in (big_example(), aba_aca()):
        y = compressing_words(P)[0]
        for r in compressing_words(P):
            data = compress_step(P, r)
            for d in data.lambda_r:
                assert d.spelling[-len(y):] == y


# --------------------------------------------------------- compress_chain


def test_chain_shortest_first_two_steps():
    chain = compress_chain(big_example(), Strategy.SHORTEST_FIRST)
    assert len(chain.steps) == 2
    assert chain.steps[0].r == word("a")
    assert chain.steps[0].compressed.describe() == "<ba bba | ba bba ba = ba ba>"
    assert chain.steps[1].r == ("ba",)
    assert chain.terminal.alphabet == ("ba", "bbaba")
    assert chain.terminal.u == ("bbaba",)
    assert chain.terminal.v == ("ba",)


def test_chain_longest_first_single_step():
    chain = compress_chain(big_example(), Strategy.LONGEST_FIRST)
    assert len(chain.steps) == 1
    assert chain.terminal == compress_chain(big_example(),
                                            Strategy.SHORTEST_FIRST).terminal
    assert compressing_words(chain.terminal) == ()


def test_chain_terminates_on_incompressible_input():
    P = make_presentation(("a", "b"), word("ab"), word("ba"))
    chain = compress_chain(P, Strategy.SHORTEST_FIRST)
    assert chain.steps == () and chain.terminal == P


@pytest.mark.parametrize("alphabet,lhs,rhs", [
    ("ab", "ababbaba", "ababa"),
    ("abc", "aba", "aca"),
    ("a", "aa", "a"),
    ("ab", "aabaa", "aa"),
    ("ab", "babab", "b"),
    ("abc", "abacaba", "abaaba"),
])
def test_chain_strategies_reach_equivalent_terminals(alphabet, lhs, rhs):
    P = make_presentation(tuple(alphabet), word(lhs), word(rhs))
    short = compress_chain(P, Strategy.SHORTEST_FIRST)
    long = compress_chain(P, Strategy.LONGEST_FIRST)
    assert len(long.steps) <= 1
    assert compressing_words(short.terminal) == ()
    assert compressing_words(long.terminal) == ()
    assert relabel_equivalent(short.terminal, long.terminal)


def test_subspecial_preserved_along_chains():
    def subspecial(P):
        return P.u[: len(P.v)] == P.v and (not P.v or P.u[-len(P.v):] == P.v)

    for alphabet, lhs, rhs in [("a", "aa", "a"), ("ab", "aabaa", "aa"),
                               ("ab", "babab", "b"), ("ab", "ababbaba", "ababa"),
                               ("abc", "aba", "aca")]:
        P = make_presentation(tuple(alphabet), word(lhs), word(rhs))
        base = subspecial(P)
        for step in compress_chain(P, Strategy.SHORTEST_FIRST).steps:
            assert subspecial(step.compressed) == base


# ---------------------------------------------------- relabel_equivalent


def test_relabel_equivalent_examples():
    P = make_presentation(("x", "y"), ("x", "y", "x"), ("x", "x"))
    Q = make_presentation(("p", "q"), ("p", "q", "p"), ("p", "p"))
    assert relabel_equivalent(P, Q)
    R = make_presentation(("p", "q"), ("q", "p", "q"), ("p", "p"))
    assert not relabel_equivalent(P, R)
    assert not relabel_equivalent(P, aba_aca())
