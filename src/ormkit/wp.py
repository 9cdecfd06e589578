"""Bounded word-problem oracles.

Verdicts are three-valued and certified.  Equal always carries a
concrete rewrite path (each consecutive pair differs by one application
of the relation), so it can be replayed; Distinct always names a sound
separation certificate; Unknown only ever means a budget ran out.

Two independent deciders are provided.  equal_bounded checks cheap
invariant certificates first: for every compressing word r, membership
in the words-ending-in-r ideal and in the words-starting-with-r ideal
are congruence invariants, and after those the letter-count difference
must be an integer multiple of the relation's count vector.  When the
shortlex-oriented rule u -> v is complete it then decides exactly by
normal forms; otherwise it runs a bidirectional shortlex-ordered
closure, where a side whose closure saturates without meeting the other
word proves distinctness outright.  equal_via_compression instead peels
one compression level: words split around their last and first
occurrence of the longest compressing word, equality reduces to literal
equality of the outer parts plus equality of Delta-letter sequences in
a free product, whose syllables are compared recursively in the
compressed presentation.  Equal paths found downstairs are lifted back
upstairs through the factorizations, so replayability survives the
recursion.  Bulk callers ask Oracle, the one class interface.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

from .compress import (
    CompressionData,
    DeltaLetter,
    compress_step,
    left_canonical,
    right_canonical,
    t_membership,
    _shortest_t_prefix,
)
from .words import (
    EMPTY,
    Presentation,
    Word,
    compressing_words,
    ends_with,
    find_occurrences,
    starts_with,
)

CERT_ABELIAN = "AbelianMismatch"
CERT_SUFFIX = "SuffixClassMismatch"
CERT_PREFIX = "PrefixClassMismatch"
CERT_EXHAUSTED = "ExhaustedFiniteClasses"
CERT_RIGHT_TAIL = "RightTailMismatch"
CERT_LEFT_PREFIX = "LeftPrefixMismatch"
CERT_SYLLABLE = "SyllableMismatch"
CERT_NORMAL_FORM = "NormalFormMismatch"


@dataclass(frozen=True)
class Equal:
    """Words are congruent; path is a concrete rewrite chain w1 .. w2."""

    path: tuple[Word, ...]

    @property
    def path_length(self) -> int:
        return len(self.path) - 1


@dataclass(frozen=True)
class Distinct:
    certificate: str


@dataclass(frozen=True)
class Unknown:
    reason: str


Verdict = Equal | Distinct | Unknown


class BudgetTooShort(ValueError):
    """A length cap is below the length of a word the query must explore."""


@dataclass(frozen=True)
class OracleBudget:
    """Exploration caps.  max_len defaults per query to
    |w1| + |w2| + 4 max(|u|, |v|)."""

    max_words: int = 200_000
    max_len: int | None = None

    def cap_for(self, P: Presentation, *ws: Word) -> int:
        if self.max_len is not None:
            if ws and self.max_len < max(len(w) for w in ws):
                raise BudgetTooShort("max_len below input word length")
            return self.max_len
        slack = 4 * max(len(P.u), len(P.v), 1)
        if len(ws) >= 2:
            return len(ws[0]) + len(ws[1]) + slack
        return 2 * len(ws[0]) + slack if ws else slack


DEFAULT_BUDGET = OracleBudget()


def neighbors(P: Presentation, w: Word) -> set[Word]:
    """All words one application of the relation away from w.

    Both directions count; an empty relation side acts by insertion and
    deletion.
    """
    out: set[Word] = set()
    for src, dst in ((P.u, P.v), (P.v, P.u)):
        if src == dst:
            continue
        n = len(src)
        for i in find_occurrences(w, src):
            out.add(w[:i] + dst + w[i + n:])
    return out


def is_single_application(P: Presentation, x: Word, y: Word) -> bool:
    """True when y arises from x by one application of u = v."""
    for src, dst in ((P.u, P.v), (P.v, P.u)):
        n = len(src)
        for i in find_occurrences(x, src):
            if y == x[:i] + dst + x[i + n:]:
                return True
    return False


def replay(P: Presentation, path: tuple[Word, ...]) -> bool:
    """Check a rewrite path step by step."""
    if not path:
        return False
    return all(is_single_application(P, a, b) for a, b in zip(path, path[1:]))


# --------------------------------------------------------- normal forms


def _reduce(P: Presentation, w: Word, trail: list[Word] | None = None) -> Word:
    """An irreducible descendant of w under the rule u -> v.

    One left-to-right stack pass: letters move from the input to the
    output, and whenever the output ends in u, u is popped and v pushed
    back onto the input.  The output never contains u, so each new
    occurrence ends at its top.  The rule is shortlex-decreasing, so the
    pass terminates.  When trail is given, every intermediate word is
    appended to it; consecutive words differ by one application of the
    relation.
    """
    u, v = P.u, P.v
    if u == v:
        return w
    n, last = len(u), u[-1]
    out: list[str] = []
    todo = list(reversed(w))
    while todo:
        x = todo.pop()
        out.append(x)
        if x == last and len(out) >= n and tuple(out[-n:]) == u:
            del out[-n:]
            todo.extend(reversed(v))
            if trail is not None:
                trail.append(tuple(out) + tuple(reversed(todo)))
    return tuple(out)


@lru_cache(maxsize=1024)
def _complete(P: Presentation) -> bool:
    """True when the single rule u -> v is a complete rewriting system.

    With one rule the only critical pairs come from the proper
    self-overlaps of u: u[:k] == u[-k:] makes u + u[k:] rewrite at either
    occurrence of u.  The rule terminates, so it is confluent exactly when
    every such pair reaches one normal form (Newman's lemma).  The
    degenerate relation u = v is complete with no rule at all.
    """
    u, v = P.u, P.v
    return u == v or all(_reduce(P, v + u[k:]) == _reduce(P, u[:-k] + v)
                         for k in range(1, len(u)) if u[-k:] == u[:k])


def normal_form(P: Presentation, w: Word) -> Word | None:
    """Normal form of w under u -> v, which is the shortlex-least member
    of its congruence class; None when the rule is not complete, so
    normal forms do not decide the word problem."""
    return _reduce(P, tuple(w)) if _complete(P) else None


def _join(c1: list[Word], c2: list[Word]) -> tuple[Word, ...]:
    """Path from c1[0] to c2[0] through the common last word of both
    chains, shared tail trimmed so the path has no immediate
    backtracking."""
    i1, i2 = len(c1) - 1, len(c2) - 1
    while i1 > 0 and i2 > 0 and c1[i1 - 1] == c2[i2 - 1]:
        i1 -= 1
        i2 -= 1
    return tuple(c1[: i1 + 1]) + tuple(reversed(c2[:i2]))


# --------------------------------------------------------- certificates


def _abelian_mismatch(P: Presentation, w1: Word, w2: Word) -> bool:
    diff = [a - b for a, b in zip(P.letter_counts(w1), P.letter_counts(w2))]
    rel = [a - b for a, b in zip(P.letter_counts(P.u), P.letter_counts(P.v))]
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


def _ideal_certificate(P: Presentation, w1: Word, w2: Word) -> str | None:
    for r in compressing_words(P):
        if ends_with(w1, r) != ends_with(w2, r):
            return CERT_SUFFIX
        if starts_with(w1, r) != starts_with(w2, r):
            return CERT_PREFIX
    return None


# ------------------------------------------------------- closure engine


class _Side:
    __slots__ = ("parent", "heap", "pruned")

    def __init__(self, key, start: Word):
        self.parent: dict[Word, Word | None] = {start: None}
        self.heap: list[tuple[tuple, Word]] = [(key(start), start)]
        self.pruned = False


def _chain(parent: dict[Word, Word | None], w: Word) -> list[Word]:
    out = [w]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])
    return out


def closure(P: Presentation, w: Word, max_len: int,
            max_words: int) -> tuple[dict[Word, Word | None], bool]:
    """One-sided congruence closure with parent pointers.

    Returns (parents, saturated).  saturated means the parent map is the
    entire congruence class of w: nothing was pruned and the frontier
    drained.
    """
    key = P.shortlex_key
    parent: dict[Word, Word | None] = {w: None}
    heap: list[tuple[tuple, Word]] = [(key(w), w)]
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


def equal_bounded(P: Presentation, w1: Word, w2: Word,
                  budget: OracleBudget | None = None) -> Verdict:
    """Certified equality: normal forms when u -> v is complete,
    bidirectional search otherwise.

    The search is always total when |u| = |v| with default budgets,
    since congruence classes are then finite.
    """
    b = budget or DEFAULT_BUDGET
    w1, w2 = tuple(w1), tuple(w2)
    max_len = b.cap_for(P, w1, w2)
    if w1 == w2:
        return Equal((w1,))
    cert = _ideal_certificate(P, w1, w2)
    if cert:
        return Distinct(cert)
    if _abelian_mismatch(P, w1, w2):
        return Distinct(CERT_ABELIAN)
    if _complete(P):
        # each chain runs from its word to its normal form
        c1, c2 = [w1], [w2]
        if _reduce(P, w1, c1) != _reduce(P, w2, c2):
            return Distinct(CERT_NORMAL_FORM)
        return Equal(_join(c1, c2))

    key = P.shortlex_key
    sides = (_Side(key, w1), _Side(key, w2))
    explored = 2

    while True:
        live = [s for s in sides if s.heap]
        if not live:
            break
        # saturation of either side is decisive on its own
        for s, other in ((sides[0], sides[1]), (sides[1], sides[0])):
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
            if explored >= b.max_words:
                return Unknown("word budget exhausted")
            side.parent[n] = cur
            explored += 1
            if n in other.parent:
                left = _chain(sides[0].parent, n)   # n .. w1
                right = _chain(sides[1].parent, n)  # n .. w2
                return Equal(tuple(reversed(left)) + tuple(right[1:]))
            heapq.heappush(side.heap, (key(n), n))

    for s in sides:
        if not s.pruned:
            return Distinct(CERT_EXHAUSTED)
    return Unknown("length cap pruned both closures")


# ---------------------------------------------------------------- Oracle


class Oracle:
    """Class interface: rep and equal answer by normal forms when u -> v
    is complete, else from a memoizing closure store, which class_of
    alone reads on any rule.

    Each saturated class is stored once, as its closure parent map and
    its shortlex-least member, and indexed by every member, so equality
    within a stored class is a dictionary lookup.  A class whose closure
    does not saturate within budget is undecided: class_of and rep
    return None for it.
    """

    def __init__(self, P: Presentation, budget: OracleBudget | None = None):
        self.P = P
        self.budget = budget or DEFAULT_BUDGET
        self._classes: dict[Word, tuple[dict[Word, Word | None], Word]] = {}
        self._unsaturated: set[Word] = set()

    def class_of(self, w: Word) -> tuple[dict[Word, Word | None], Word] | None:
        """(parent map, representative) of the class of w, or None when
        its closure does not saturate within budget."""
        w = tuple(w)
        hit = self._classes.get(w)
        if hit is not None:
            return hit
        if w in self._unsaturated:
            return None
        parent, saturated = closure(self.P, w, self.budget.cap_for(self.P, w),
                                    self.budget.max_words)
        if not saturated:
            self._unsaturated.add(w)
            return None
        entry = (parent, min(parent, key=self.P.shortlex_key))
        for m in parent:
            self._classes[m] = entry
        return entry

    def rep(self, w: Word) -> Word | None:
        """Shortlex-least member of the class of w; None when undecided.
        A length cap below |w| is a usage error."""
        if _complete(self.P):
            self.budget.cap_for(self.P, w)
            return _reduce(self.P, w)
        got = self.class_of(w)
        return None if got is None else got[1]

    def equal(self, w1: Word, w2: Word) -> Verdict:
        if _complete(self.P):
            return equal_bounded(self.P, w1, w2, self.budget)
        w1, w2 = tuple(w1), tuple(w2)
        if w1 == w2:
            return Equal((w1,))
        got = self.class_of(w1)
        if got is None:
            return equal_bounded(self.P, w1, w2, self.budget)
        parent, _ = got
        if w2 in parent:
            # both chains run to the closure root
            return Equal(_join(_chain(parent, w1), _chain(parent, w2)))
        return Distinct(CERT_EXHAUSTED)


# ------------------------------------------- compression-based decider


def _flatten(parts: tuple[DeltaLetter, ...]) -> Word:
    return tuple(x for d in parts for x in d.spelling)


def _validate_delta(C: CompressionData, seq: tuple[DeltaLetter, ...]) -> None:
    for d in seq:
        if not d.spelling or not t_membership(C.r, d.spelling):
            raise ValueError(f"{d!r} is not an irreducible block for this step")
        if _shortest_t_prefix(C.r, d.spelling) != len(d.spelling):
            raise ValueError(f"{d!r} is reducible, not a Delta letter")


def _syllables(C: CompressionData,
               seq: tuple[DeltaLetter, ...]) -> tuple[list[tuple[DeltaLetter, ...]],
                                                      list[DeltaLetter]]:
    """Split into maximal runs of compressed-alphabet letters separated by
    outside letters.  n separators produce n+1 runs, empties included."""
    runs: list[tuple[DeltaLetter, ...]] = []
    seps: list[DeltaLetter] = []
    cur: list[DeltaLetter] = []
    for d in seq:
        if d in C.lambda_r:
            cur.append(d)
        else:
            runs.append(tuple(cur))
            cur = []
            seps.append(d)
    runs.append(tuple(cur))
    return runs, seps


def freeproduct_equal(C: CompressionData, m1: tuple[DeltaLetter, ...],
                      m2: tuple[DeltaLetter, ...],
                      budget: OracleBudget | None = None) -> Verdict:
    """Equality of Delta-letter sequences in the free product of the free
    monoid on the outside letters with the compressed monoid.

    Outside letters must agree positionally; the compressed-letter runs
    between them (empty runs included) are compared in the compressed
    presentation.  An Equal verdict carries a path of Delta-letter
    sequences, one run rewritten at a time.
    """
    _validate_delta(C, m1)
    _validate_delta(C, m2)
    if m1 == m2:
        return Equal((m1,))
    runs1, seps1 = _syllables(C, m1)
    runs2, seps2 = _syllables(C, m2)
    if seps1 != seps2:
        return Distinct(CERT_SYLLABLE)

    by_name = {d.name: d for d in C.lambda_r}
    sub_paths: list[list[tuple[DeltaLetter, ...]]] = []
    for r1, r2 in zip(runs1, runs2):
        word1 = tuple(d.name for d in r1)
        word2 = tuple(d.name for d in r2)
        verdict = equal_via_compression(C.compressed, word1, word2, budget)
        if isinstance(verdict, Distinct):
            # the run is proven unequal downstairs, so the syllable
            # decompositions disagree regardless of the inner certificate
            return Distinct(CERT_SYLLABLE)
        if isinstance(verdict, Unknown):
            return verdict
        sub_paths.append([tuple(by_name[x] for x in w) for w in verdict.path])

    # stitch: rewrite run i while runs < i are already in their m2 form
    path = [m1]
    for i, sub in enumerate(sub_paths):
        for step_word in sub[1:]:
            pieces: list[DeltaLetter] = []
            for j in range(len(runs1)):
                if j < i:
                    pieces.extend(runs2[j])
                elif j == i:
                    pieces.extend(step_word)
                else:
                    pieces.extend(runs1[j])
                if j < len(seps1):
                    pieces.append(seps1[j])
            path.append(tuple(pieces))
    if path[-1] != m2:
        raise AssertionError("stitched free-product path missed its endpoint")
    # drop consecutive duplicates left by no-op runs
    clean = [path[0]]
    for p in path[1:]:
        if p != clean[-1]:
            clean.append(p)
    return Equal(tuple(clean))


def equal_via_compression(P: Presentation, w1: Word, w2: Word,
                          budget: OracleBudget | None = None) -> Verdict:
    """Decide equality by peeling one compression level.

    Incompressible presentations fall through to equal_bounded.  Equal
    paths from the compressed level are lifted back: a sequence element
    m downstairs becomes  t + r + flatten(m) + z  upstairs, which turns
    one application of the compressed relation into one application of
    the original relation.
    """
    w1, w2 = tuple(w1), tuple(w2)
    if w1 == w2:
        return Equal((w1,))
    cands = compressing_words(P)
    if not cands:
        return equal_bounded(P, w1, w2, budget)
    r = cands[-1]
    C = compress_step(P, r)

    y1, z1 = right_canonical(r, w1)
    y2, z2 = right_canonical(r, w2)
    if z1 != z2:
        return Distinct(CERT_RIGHT_TAIL)
    if (not y1) != (not y2):
        # the empty word is congruent only to itself when both relation
        # sides are nonempty, which holds for any compressible presentation
        return Distinct(CERT_RIGHT_TAIL)
    if not y1:
        # both tails equal and both heads empty would mean w1 == w2
        raise AssertionError("unreachable: identical words handled above")

    t1, m1 = left_canonical(r, y1)
    t2, m2 = left_canonical(r, y2)
    if t1 != t2:
        return Distinct(CERT_LEFT_PREFIX)

    verdict = freeproduct_equal(C, m1, m2, budget)
    if not isinstance(verdict, Equal):
        return verdict
    z = z1
    lifted = tuple(t1 + r + _flatten(m) + z for m in verdict.path)
    return Equal(lifted)
