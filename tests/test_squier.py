"""Rewriting-path tests: endpoints, homotopy moves, parity invariance,
the seeded walk, and the formal-sum injectivity harness.

Parity keys are cross-checked against a union-find congruence oracle on
the length-preserving running example, where every class is finite and
the canonical representative is computable by exhaustion.  The walk,
which keeps its move pools and its parity vector between steps, is
compared against a reference walk that rebuilds every pool and
recomputes the parity in full at every step.  The injectivity harness,
which keys each singleton by normal forms and memoizes the reps of its
formal sums, is compared with the harness that asked the oracle again
for every singleton and sample.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ormkit import squier, wp
from ormkit.cayley import BudgetExceeded
from ormkit.cli import parse_presentation
from ormkit.squier import (
    DeleteCancelPair,
    HarnessReport,
    InsertCancelPair,
    NonComposable,
    NotApplicable,
    PullUpPushDown,
    SquierEdge,
    UndecidableClass,
    WalkReport,
    _describe,
    _parity,
    _side,
    _swap_disjoint,
    apply_move,
    edge_source,
    edge_target,
    injectivity_harness,
    inverse,
    is_rightmost,
    parity_vector,
    random_walk_check,
    relation_edge,
    validate_path,
)
from ormkit.words import (
    EMPTY,
    PreconditionError,
    find_occurrences,
    make_presentation,
    word,
)
from ormkit.wp import (
    CERT_NORMAL_FORM,
    BudgetTooShort,
    Distinct,
    Equal,
    OracleBudget,
    equal_bounded,
    normal_form,
    replay,
)
from support import FIXTURES, aba_aca, all_words, brute_partition, idempotent

E_TOP = SquierEdge(EMPTY, 1, EMPTY)
E_DOWN = SquierEdge(EMPTY, -1, EMPTY)


# ------------------------------------------------- independent oracle


def brute_rep(P, w):
    """Shortlex-least congruent word, by exhausting the words up to w's
    length.  Only valid when both relation sides have the same length.
    """
    uf = brute_partition(P, len(w))
    return min((x for x in all_words(P.alphabet, len(w))
                if uf.find(x) == uf.find(w)), key=P.shortlex_key)


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
    # near misses: each differs from the inverse in one field only
    for near in (E_TOP, SquierEdge(word("a"), -1, EMPTY),
                 SquierEdge(EMPTY, -1, word("a"))):
        with pytest.raises(NotApplicable):
            apply_move(P, (E_TOP, near), DeleteCancelPair(0))


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
    with pytest.raises(NotApplicable, match="swap position out of range"):
        apply_move(P, (E_TOP,), PullUpPushDown(0))


def test_apply_move_rejects_an_unknown_move():
    with pytest.raises(NotApplicable, match="unknown move"):
        apply_move(aba_aca(), (E_TOP, E_DOWN), object())


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


# ------------------------------------------- reference walk, pools rebuilt


def _insert_candidates(P, path):
    out = []
    for pos in range(len(path) + 1):
        if path:
            carrier = (edge_source(P, path[pos]) if pos < len(path)
                       else edge_target(P, path[-1]))
        else:
            carrier = P.u
        for sign in (1, -1):
            side = _side(P, sign)
            for i in find_occurrences(carrier, side):
                e = SquierEdge(carrier[:i], sign, carrier[i + len(side):])
                out.append(InsertCancelPair(pos, e))
    return out


def _delete_candidates(path):
    return [DeleteCancelPair(i) for i in range(len(path) - 1)
            if path[i + 1] == inverse(path[i])]


def _swap_candidates(P, path):
    return [PullUpPushDown(i) for i in range(len(path) - 1)
            if _swap_disjoint(P, path[i], path[i + 1]) is not None]


def reference_walk(P, start, steps, seed, budget=None):
    """The walk with every candidate pool rebuilt from scratch each step."""
    validate_path(P, start)
    oracle = squier.Oracle(P, budget)
    rng = random.Random(seed)
    path = tuple(start)
    expected = _parity(oracle, path)
    log = []
    for _ in range(steps):
        pools = [p for p in (_insert_candidates(P, path),
                             _delete_candidates(path),
                             _swap_candidates(P, path)) if p]
        if not pools:
            break
        move = rng.choice(rng.choice(pools))
        path = apply_move(P, path, move)
        log.append(_describe(P, move))
        if _parity(oracle, path) != expected:
            return WalkReport(seed, steps, len(log), False, tuple(log),
                              f"parity changed after {log[-1]}")
    return WalkReport(seed, steps, len(log), True, tuple(log))


def walk_outcome(walk, P, start, steps, seed):
    try:
        return walk(P, start, steps, seed)
    except UndecidableClass as e:
        return f"UndecidableClass: {e}"


C4_START = (SquierEdge(EMPTY, 1, word("aca")),
            SquierEdge(word("aba"), 1, EMPTY),
            SquierEdge(EMPTY, -1, word("aba")))


def test_walk_matches_reference_on_fixtures():
    undecided = set()
    kinds = set()
    for path in sorted(FIXTURES.glob("*.orm")):
        P = parse_presentation(path.read_text())
        starts = [(relation_edge(),), ()]
        if path.name == "aba-aca.orm":
            # a cancelling pair in context: seed 0 deletes it first, and
            # the empty path then anchors on u again
            pair = SquierEdge(word("b"), 1, word("c"))
            starts += [C4_START, (pair, inverse(pair))]
        for start in starts:
            for seed in range(5):
                want = walk_outcome(reference_walk, P, start, 300, seed)
                got = walk_outcome(random_walk_check, P, start, 300, seed)
                assert got == want, (path.name, start, seed)
                if isinstance(want, str):
                    undecided.add(path.name)
                else:
                    kinds.update(m.partition("@")[0] for m in want.log)
    assert len(undecided) == 5
    # the splice rule is compared on every move kind
    assert kinds == {"insert", "delete", "swap"}


class NormalFormKeys:
    """Exact class keys for a complete rule, so that with an empty side
    the parity can change and a walk stops early with a violation."""

    def __init__(self, P, budget=None):
        self.P = P

    def class_of(self, w):
        return None, normal_form(self.P, w)


short_words = st.lists(st.sampled_from("ab"), max_size=3).map(tuple)
relations = st.tuples(short_words, short_words).filter(lambda s: s[0] != s[1])


@settings(max_examples=60, deadline=None)
@given(sides=relations,
       start_kind=st.sampled_from(["relation", "empty", "pair"]),
       context=st.tuples(short_words, short_words),
       steps=st.integers(0, 150), seed=st.integers(0, 10_000))
def test_walk_matches_reference_property(sides, start_kind, context, steps,
                                         seed):
    P = make_presentation(("a", "b"), *sides)
    if normal_form(P, EMPTY) is None:
        keys = squier.Oracle  # incomplete rule: the closure store
    else:
        keys = NormalFormKeys
    if start_kind == "relation":
        start = (relation_edge(),)
    elif start_kind == "empty":
        start = ()
    else:
        # a cancelling pair away from u: deleting it empties the path,
        # which then anchors on u again
        e = SquierEdge(context[0], 1, context[1])
        start = (e, inverse(e))
    with mock.patch.object(squier, "Oracle", keys):
        want = walk_outcome(reference_walk, P, start, steps, seed)
        got = walk_outcome(random_walk_check, P, start, steps, seed)
    assert got == want


class CountingOracle(squier.Oracle):
    asked = []

    def class_of(self, w):
        CountingOracle.asked.append(w)
        return super().class_of(w)


def test_walk_looks_up_only_the_edges_a_move_put_in():
    """Parity is updated from the changed edges, and a left context's
    class key is memoized: no context is asked twice, although every
    rightmost edge of this walk has the left context ε."""
    start, steps = (relation_edge(),), 1000
    CountingOracle.asked = []
    with mock.patch.object(squier, "Oracle", CountingOracle):
        report = random_walk_check(aba_aca(), start, steps, seed=0)
    assert report.passed and report.applied == steps
    assert CountingOracle.asked == [EMPTY]


@pytest.mark.parametrize("start, pairs, swapped, words", [
    ((relation_edge(),), 2, 0, 2),
    (C4_START, 16, 331, 4),
])
def test_walk_works_out_each_pair_and_seam_word_once(start, pairs, swapped,
                                                      words):
    """_swap_disjoint runs once per distinct ordered adjacent pair, and
    again only inside apply_move for each swap applied; _insertions runs
    once per distinct seam word."""
    with mock.patch.object(squier, "_swap_disjoint",
                           wraps=_swap_disjoint) as swap, \
            mock.patch.object(squier, "_insertions",
                              wraps=squier._insertions) as insertions:
        report = random_walk_check(aba_aca(), start, 1000, seed=0)
    assert report.passed and report.applied == 1000
    assert sum(m.startswith("swap@") for m in report.log) == swapped
    seen = [c.args[1:] for c in swap.call_args_list]
    assert len(set(seen)) == pairs and len(seen) == pairs + swapped
    seams = [c.args[1] for c in insertions.call_args_list]
    assert len(set(seams)) == len(seams) == words


@pytest.mark.parametrize("seed", range(3))
def test_long_walk_that_swaps_matches_reference(seed):
    """The id tables only grow with the walk, so criterion 4's start,
    which swaps, is compared at 1000 steps."""
    P = aba_aca()
    want = reference_walk(P, C4_START, 1000, seed)
    assert random_walk_check(P, C4_START, 1000, seed) == want
    assert any(m.startswith("swap@") for m in want.log)


PASSING = ["ab-ba", "ab-c", "aba-aca", "ababbaba-ababa", "degenerate-ab"]


@pytest.mark.parametrize("name", PASSING)
def test_walk_applies_each_move_once_through_apply_move(name):
    """The walk updates its pools by move kind, but every step it takes
    is still one call of the module's apply_move."""
    P = parse_presentation((FIXTURES / f"{name}.orm").read_text())
    for seed in range(3):
        with mock.patch.object(squier, "apply_move",
                               wraps=apply_move) as applied:
            report = random_walk_check(P, (relation_edge(),), 1000, seed)
        assert report.passed
        assert applied.call_count == report.applied == 1000


def test_inserted_pair_can_swap_with_an_empty_side():
    """With an empty side an edge and its inverse rewrite disjoint
    sites, so the pair an insert puts in can be swapped at once."""
    P = make_presentation(("a", "b"), word("ab"), EMPTY)
    assert _swap_disjoint(P, E_TOP, E_DOWN) == (
        SquierEdge(word("ab"), -1, EMPTY), SquierEdge(EMPTY, 1, word("ab")))
    start = (E_TOP, E_DOWN)
    with mock.patch.object(squier, "Oracle", NormalFormKeys):
        # the pair inserted at 2 is still at 2 when it swaps
        want = reference_walk(P, start, 1000, seed=2)
        assert random_walk_check(P, start, 1000, seed=2) == want
        assert want.log == ("insert@0 (ε,-,ab)", "insert@2 (ε,+,ε)",
                            "insert@6 (a,-,b)", "swap@2")
        assert want.violation == "parity changed after swap@2"
        # the start pair itself swaps first
        want = reference_walk(P, start, 1000, seed=5)
        assert random_walk_check(P, start, 1000, seed=5) == want
        assert want.log == ("swap@0",)


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


def test_a_passing_harness_is_no_proof_of_injectivity():
    """Criterion 7's harness passes on aba-aca, but right multiplication
    by h = ac - ab, the relation's heads, is not injective there:
    x = [ab] - [ac] has x·h = 0, since ab·ac = ac·ac and ab·ab = ac·ab in
    the monoid, while ab and ac are distinct."""
    P = aba_aca()
    assert (P.u[:-1], P.v[:-1]) == (word("ac"), word("ab"))
    for w1, w2 in (("abac", "acac"), ("abab", "acab")):
        verdict = equal_bounded(P, word(w1), word(w2))
        assert isinstance(verdict, Equal) and replay(P, verdict.path)
    assert (equal_bounded(P, word("ab"), word("ac"))
            == Distinct(CERT_NORMAL_FORM))


class LastLetterReps(squier.Oracle):
    """Stand-in classes keyed by the last letter: on aba-aca every u sum
    is then weight·[c] and every v sum weight·[b], so the two agree
    exactly when the weights cancel and both sums drop to zero."""

    def rep(self, w):
        return w[-1:]


def test_harness_drops_zero_terms():
    with mock.patch.object(squier, "Oracle", LastLetterReps):
        report = injectivity_harness(aba_aca(), samples=200, max_support=3,
                                     seed=0, radius=3)
    assert report.skipped == 0 and report.violations
    for terms in report.violations:
        assert sum(int(t.split("·")[0]) for t in terms.split(" + ")) == 0


def test_harness_reduces_each_keyed_word_once():
    # criterion 7's settings; singletons and formal sums share one rep
    # per (vertex, head), so no word is reduced twice
    P = aba_aca()
    wp.is_complete(P)
    with mock.patch.object(wp, "_reduce", wraps=wp._reduce) as reduce:
        report = injectivity_harness(P, samples=1000, max_support=4,
                                     seed=20260816, radius=6)
    assert report.passed and report.singleton_checked == 959
    assert reduce.call_count <= 2 * report.singleton_checked


def reference_harness(P, samples, max_support, seed, budget=None,
                      radius=6):
    """The harness as it ran before singletons and formal sums shared
    one memo of reps: every singleton goes to Oracle.equal and every
    sample asks rep again."""
    if not P.u or not P.v or P.u[-1] != P.v[-1]:
        raise PreconditionError("relation sides must share their last letter")
    if max_support < 1:
        raise PreconditionError("max_support must be at least 1")
    head_u, head_v = P.u[:-1], P.v[:-1]
    oracle = squier.Oracle(P, budget)
    reps = squier.ball_vertices(oracle, radius)

    singleton_skipped = 0
    singleton_violations = []
    for w in reps:
        verdict = oracle.equal(w + head_u, w + head_v)
        if isinstance(verdict, wp.Unknown):
            singleton_skipped += 1
        elif isinstance(verdict, wp.Equal):
            singleton_violations.append(P.text(w))

    def formal_sum(support, weights, head):
        acc = {}
        for w, z in zip(support, weights):
            rep = oracle.rep(w + head)
            if rep is None:
                return None
            acc[rep] = acc.get(rep, 0) + z
        return {k: z for k, z in acc.items() if z}

    rng = random.Random(seed)
    skipped = 0
    violations = []
    coeffs = [z for z in range(-3, 4) if z]
    for _ in range(samples):
        k = rng.randint(1, min(max_support, len(reps)))
        support = rng.sample(reps, k)
        weights = [rng.choice(coeffs) for _ in support]
        sum_u = formal_sum(support, weights, head_u)
        sum_v = None if sum_u is None else formal_sum(support, weights, head_v)
        if sum_v is None:
            skipped += 1
        elif sum_u == sum_v:
            violations.append(" + ".join(f"{z}·[{P.text(w)}]"
                                         for w, z in zip(support, weights)))
    return HarnessReport(
        samples=samples, skipped=skipped, violations=tuple(violations),
        singleton_checked=len(reps), singleton_skipped=singleton_skipped,
        singleton_violations=tuple(singleton_violations),
        pre_incompressible=not squier.compressing_words(P),
        pre_shared_last_letter=True,
        pre_aspherical=(squier.asphericity_certificate(P)
                        is squier.Asphericity.PROVEN_STRICTLY_ASPHERICAL))


def harness_outcome(harness, *args):
    try:
        return harness(*args)
    except (PreconditionError, BudgetTooShort, BudgetExceeded) as exc:
        return type(exc)


@settings(max_examples=80, deadline=None)
@given(sides=st.tuples(short_words, short_words), radius=st.integers(0, 4),
       samples=st.integers(0, 40), max_support=st.integers(1, 4),
       seed=st.integers(0, 10_000),
       max_words=st.sampled_from([20, 300, 2000]),
       max_len=st.sampled_from([None, 4, 8]))
# an incomplete rule whose cut closures skip 4 singletons and 7 samples
@example(sides=(word("bab"), word("ab")), radius=3, samples=10,
         max_support=3, seed=5, max_words=300, max_len=None)
def test_harness_matches_the_reference_property(sides, radius, samples,
                                                max_support, seed, max_words,
                                                max_len):
    # complete and incomplete rules alike: the same report, or the same
    # error
    P = make_presentation(("a", "b"), *sides)
    args = (P, samples, max_support, seed,
            OracleBudget(max_words=max_words, max_len=max_len), radius)
    assert (harness_outcome(injectivity_harness, *args)
            == harness_outcome(reference_harness, *args))


class PartlyKeyed(squier.Oracle):
    """Exact verdicts, but about a third of the words have no rep to
    key by, so their singletons ask Oracle.equal."""

    def rep(self, w):
        return None if len(w) % 3 == 1 else super().rep(w)


@pytest.mark.parametrize("name", ["aba-aca", "ababbaba-ababa", "aa-a"])
def test_harness_mixes_keys_and_verdicts_like_the_reference(name):
    P = parse_presentation((FIXTURES / f"{name}.orm").read_text())
    with mock.patch.object(squier, "Oracle", PartlyKeyed):
        got = injectivity_harness(P, 300, 4, 1, None, 5)
        want = reference_harness(P, 300, 4, 1, None, 5)
    assert got == want


def test_harness_requires_shared_last_letter():
    P = make_presentation(("a", "b"), word("ba"), word("ab"))
    with pytest.raises(PreconditionError):
        injectivity_harness(P, samples=1, max_support=1, seed=0)


def test_harness_requires_positive_support():
    with pytest.raises(PreconditionError):
        injectivity_harness(aba_aca(), samples=1, max_support=0, seed=0)
