"""Word primitive tests.

Derived expected values are frozen from the brute-force oracles defined
at the top of this file; the oracles themselves run in the same tests so
any drift between implementation and oracle fails loudly.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ormkit.words import (
    EMPTY,
    Presentation,
    compressing_words,
    find_occurrences,
    is_sof,
    make_presentation,
    proper_power_root,
    seals,
    word,
)
from support import aba_aca, all_words, big_example

# ---------------------------------------------------------------- oracles


def brute_ovl(x, y):
    """Every nonempty word that is a suffix of x and a prefix of y."""
    suffixes = {x[i:] for i in range(len(x))}
    prefixes = {y[:j] for j in range(1, len(y) + 1)}
    return {w for w in suffixes & prefixes if w}


def brute_compressing_words(P):
    """Search all nonempty words up to |v|, not only prefixes of v."""
    return [r for r in all_words(P.alphabet, len(P.v))[1:]
            if seals(r, P.u) and seals(r, P.v)]


def brute_power_root(w):
    best = (w, 1)
    for d in range(1, len(w)):
        if len(w) % d == 0 and w[:d] * (len(w) // d) == w:
            return (w[:d], len(w) // d)
    return best


words_ab = st.builds(tuple, st.lists(st.sampled_from("ab"), max_size=8))
nonempty_ab = st.builds(tuple, st.lists(st.sampled_from("ab"), min_size=1, max_size=8))


# ---------------------------------------------------------------- is_sof


def test_is_sof_examples():
    assert is_sof(word("a"))
    assert is_sof(word("ab"))
    assert not is_sof(word("aba"))
    assert not is_sof(word("aa"))
    assert is_sof(word("aab"))
    with pytest.raises(ValueError):
        is_sof(EMPTY)


@given(nonempty_ab)
def test_is_sof_iff_self_overlap_is_whole_word(r):
    assert is_sof(r) == (brute_ovl(r, r) == {r})


# ----------------------------------------------------------------- seals


def test_seals_examples():
    assert seals(word("aba"), word("ababa"))
    assert seals(word("a"), word("aba"))
    assert seals(word("aba"), word("aba"))
    assert not seals(word("ab"), word("aba"))
    assert not seals(word("b"), word("aba"))
    with pytest.raises(ValueError):
        seals(EMPTY, word("a"))


@given(nonempty_ab, nonempty_ab, nonempty_ab)
def test_sealing_is_transitive(r, s, w):
    if seals(r, s) and seals(s, w):
        assert seals(r, w)


# ----------------------------------------------- compressing_words


def test_compressing_words_examples():
    # frozen from brute_compressing_words
    assert compressing_words(big_example()) == (word("a"), word("aba"))
    assert compressing_words(aba_aca()) == (word("a"),)
    special = make_presentation(("a", "b"), word("ab"), EMPTY)
    assert compressing_words(special) == ()
    incompressible = make_presentation(("a", "b"), word("ab"), word("ba"))
    assert compressing_words(incompressible) == ()


@pytest.mark.parametrize(
    "alphabet,lhs,rhs",
    [
        ("ab", "ababbaba", "ababa"),
        ("abc", "aba", "aca"),
        ("ab", "ab", "ba"),
        ("ab", "babab", "b"),
        ("a", "aa", "a"),
        ("ab", "abaab", "aab"),
        ("ab", "aabaa", "aa"),
    ],
)
def test_compressing_words_matches_whole_language_search(alphabet, lhs, rhs):
    P = make_presentation(tuple(alphabet), word(lhs), word(rhs))
    assert compressing_words(P) == tuple(brute_compressing_words(P))


def test_compressing_words_form_a_sealing_chain():
    cw = compressing_words(big_example())
    for r, s in zip(cw, cw[1:]):
        assert seals(r, s)


def test_shortest_compressing_word_is_the_unique_sof_one():
    for P in (big_example(), aba_aca()):
        cw = compressing_words(P)
        assert is_sof(cw[0])
        assert all(not is_sof(r) for r in cw[1:])


@given(st.builds(tuple, st.lists(st.sampled_from("ab"), min_size=1, max_size=6)),
       st.builds(tuple, st.lists(st.sampled_from("ab"), max_size=6)))
def test_compressing_words_chain_property(lhs, rhs):
    P = make_presentation(("a", "b"), lhs, rhs)
    cw = compressing_words(P)
    for r, s in zip(cw, cw[1:]):
        assert seals(r, s)
    if cw:
        assert is_sof(cw[0])


# --------------------------------------------------- proper_power_root


def test_proper_power_root_examples():
    assert proper_power_root(word("abab")) == (word("ab"), 2)
    assert proper_power_root(word("aba")) == (word("aba"), 1)
    assert proper_power_root(word("aaa")) == (word("a"), 3)
    with pytest.raises(ValueError):
        proper_power_root(EMPTY)


@given(nonempty_ab)
def test_proper_power_root_matches_brute_force(w):
    assert proper_power_root(w) == brute_power_root(w)


@given(nonempty_ab, st.integers(min_value=1, max_value=4))
def test_proper_power_root_roundtrip(p, k):
    root, e = proper_power_root(p * k)
    assert root * e == p * k
    assert e % k == 0 or k % e == 0 or True  # exponent maximality below
    # maximality: no strictly larger exponent works
    n = len(p * k)
    for d in range(1, len(root)):
        if n % d == 0:
            assert root[:d] * (n // d) != p * k


# ------------------------------------------------------- normalization


def test_make_presentation_orders_sides():
    P = make_presentation(("a", "b"), word("ababa"), word("ababbaba"))
    assert P.u == word("ababbaba") and P.v == word("ababa")
    # shortlex tie-break at equal lengths: u must be the larger side
    Q = make_presentation(("a", "b"), word("ab"), word("ba"))
    assert Q.u == word("ba") and Q.v == word("ab")
    Q2 = make_presentation(("a", "b"), word("ba"), word("ab"))
    assert Q2 == Q


def test_presentation_rejects_bad_input():
    with pytest.raises(ValueError):
        Presentation(("a", "a"), word("a"), EMPTY)
    with pytest.raises(ValueError):
        Presentation(("a",), word("ab"), word("a"))
    with pytest.raises(ValueError):
        Presentation(("a", "b"), word("ab"), word("ba"))  # not normalized
    with pytest.raises(ValueError, match="letter 'b' not declared"):
        make_presentation(("a",), word("b"), EMPTY)


@given(words_ab, words_ab)
def test_normalization_invariant_under_swap(x, y):
    assert make_presentation(("a", "b"), x, y) == make_presentation(("a", "b"), y, x)
    P = make_presentation(("a", "b"), x, y)
    assert P.shortlex_key(P.u) >= P.shortlex_key(P.v)
    assert len(P.v) <= len(P.u)


# ------------------------------------------------------- find_occurrences


def test_find_occurrences_overlapping():
    assert find_occurrences(word("ababa"), word("aba")) == [0, 2]
    assert find_occurrences(word("aaa"), word("a")) == [0, 1, 2]
    assert find_occurrences(word("ab"), EMPTY) == [0, 1, 2]
    assert find_occurrences(word("ab"), word("ba")) == []
