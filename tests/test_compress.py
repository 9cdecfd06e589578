"""Compression calculus tests.

The factorization oracle enumerates *all* ways to split a word into
irreducible T(r)-blocks; uniqueness of that splitting is itself one of
the checked properties, and the greedy implementation must agree with
the unique splitting everywhere.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ormkit.cli import parse_presentation
from ormkit.compress import (
    NotCompressing,
    NotInT,
    Strategy,
    compress_chain,
    compress_step,
    delta_cuts,
    delta_factorize,
    t_membership,
)
from ormkit.words import (
    EMPTY,
    compressing_words,
    is_sof,
    make_presentation,
    spell,
    word,
)
from support import FIXTURES, aba_aca, all_words, big_example

# ---------------------------------------------------------------- oracles


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
    for f in (t_membership, delta_cuts):
        with pytest.raises(ValueError, match="requires nonempty r"):
            f(EMPTY, word("b"))


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
            rhs = (len(w) >= len(r) and w[len(w) - len(r):] == r
                   and all(w[i:i + len(r)] != r for i in range(len(w) - len(r))))
            assert lhs == rhs, (r, w)


def test_non_sof_delta_differs_from_sof_formula():
    # r = aba overlaps itself, so Delta_r is not (words avoiding r)·r:
    # ba is a letter although it is not of the form s·r, and baba, which
    # is b·aba with b avoiding r, is not one letter but two
    r = word("aba")
    assert delta_factorize(r, word("ba")) == (word("ba"),)
    assert delta_factorize(r, word("baba")) == (word("ba"), word("ba"))
    assert delta_factorize(r, word("bbaba")) == (word("bbaba"),)
    assert in_delta(r, word("ba")) and not in_delta(r, word("baba"))


# --------------------------------------------------------- factorization


def test_delta_factorize_worked_examples():
    fa = delta_factorize(word("a"), word("babbaba"))
    assert fa == (word("ba"), word("bba"), word("ba"))
    fb = delta_factorize(word("aba"), word("bbaba"))
    assert fb == (word("bbaba"),)
    assert delta_factorize(word("a"), EMPTY) == ()
    with pytest.raises(NotInT):
        delta_factorize(word("a"), word("b"))


@given(st.builds(tuple, st.lists(st.sampled_from("ab"), max_size=8)),
       st.sampled_from([("a",), ("a", "b", "a"), ("a", "b"), ("b", "a")]))
def test_factorization_unique_and_greedy_agrees(w, r):
    splits = brute_splittings(r, w)
    if t_membership(r, w):
        assert len(splits) == 1
        assert splits[0] == delta_factorize(r, w)
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
        flat = tuple(x for d in parts for x in d)
        assert flat == w


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
        cuts.append(cuts[-1] + len(d))
    assert cuts == [e - n for e in ends]


# --------------------------------------------------------- compress_step


def test_compress_by_sof_word_worked_example():
    data = compress_step(big_example(), word("a"))
    assert data.spellings == {"ba": word("ba"), "bba": word("bba")}
    C = data.compressed
    assert C.alphabet == ("ba", "bba")
    assert C.u == ("ba", "bba", "ba")
    assert C.v == ("ba", "ba")


def test_compress_by_longest_word_worked_example():
    data = compress_step(big_example(), word("aba"))
    assert data.spellings == {"ba": word("ba"), "bbaba": word("bbaba")}
    C = data.compressed
    assert C.alphabet == ("ba", "bbaba")
    assert C.u == ("bbaba",)
    assert C.v == ("ba",)


def test_recompression_matches_one_step_compression_exactly():
    two_step = compress_step(compress_step(big_example(), word("a")).compressed,
                             ("ba",))
    one_step = compress_step(big_example(), word("aba"))
    assert two_step.compressed == one_step.compressed


def test_compress_step_rejects_non_sealing_word():
    with pytest.raises(NotCompressing):
        compress_step(big_example(), word("ab"))
    with pytest.raises(NotCompressing):
        compress_step(big_example(), EMPTY)


def test_compress_step_factor_counts_shrink():
    # the compressed sides are the spelled factorizations of the tails,
    # swapped when normalizing finds the tails in the other order: on
    # abbba = ababa by a, the tail bbba is one letter and baba two
    for P, r, swapped in (
            (big_example(), word("a"), False),
            (big_example(), word("aba"), False),
            (aba_aca(), word("a"), False),
            (make_presentation(("a", "b"), word("abbba"), word("ababa")),
             word("a"), True)):
        u_factors = delta_factorize(r, P.u[len(r):])
        v_factors = delta_factorize(r, P.v[len(r):])
        assert len(u_factors) < len(P.u)
        if P.v:
            assert len(v_factors) < len(P.v)
        sides = (tuple(map(spell, u_factors)), tuple(map(spell, v_factors)))
        C = compress_step(P, r).compressed
        assert (C.u, C.v) == (sides[::-1] if swapped else sides)


def test_delta_letters_lie_in_ideal_of_shortest_compressing_word():
    # spellings keys exactly the compressed alphabet, in its order, by
    # spell() of each letter; every letter is an irreducible member of
    # T(r) and ends with the self-overlap-free compressing word
    fixtures = [parse_presentation(path.read_text())
                for path in sorted(FIXTURES.glob("*.orm"))]
    for P in [big_example(), aba_aca(), *fixtures]:
        cands = compressing_words(P)
        for r in cands:
            data = compress_step(P, r)
            assert tuple(data.spellings) == data.compressed.alphabet
            for name, d in data.spellings.items():
                assert name == spell(d)
                assert in_delta(r, d), (P, r, d)
                assert d[-len(cands[0]):] == cands[0], (P, r, d)


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


def chains_agree(P) -> bool:
    """Both strategies reach the same incompressible terminal, longest
    first in at most one step; True when P compresses at all."""
    short = compress_chain(P, Strategy.SHORTEST_FIRST)
    long = compress_chain(P, Strategy.LONGEST_FIRST)
    assert len(long.steps) <= 1
    assert compressing_words(short.terminal) == ()
    assert compressing_words(long.terminal) == ()
    assert short.terminal == long.terminal
    return bool(long.steps)


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
    assert chains_agree(P)


def test_chain_strategies_agree_on_every_small_relation():
    # every relation with two letters and sides of length at most 4, or
    # three letters and sides of length at most 3
    relations = [make_presentation(tuple(alphabet), lhs, rhs)
                 for alphabet, n in (("ab", 4), ("abc", 3))
                 for lhs, rhs in combinations(all_words(alphabet, n), 2)]
    assert len(relations) == 1245
    assert sum(map(chains_agree, relations)) == 88


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

