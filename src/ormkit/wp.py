"""Bounded word-problem oracles.

Verdicts are three-valued and certified.  Equal always carries a
concrete rewrite path (each consecutive pair differs by one application
of the relation), so it can be replayed; Distinct always names a sound
separation certificate; Unknown only ever means a budget ran out.  A
verdict's congruent attribute says which: True, False or None, so a
caller that needs no certificate reads it instead of the class.

Two independent deciders are provided.  equal_bounded walks the one
decider order: identity; normal forms when the shortlex-oriented rule
u -> v is complete; the cheap invariant certificates (for every
compressing word r, membership in the words-ending-in-r ideal and in
the words-starting-with-r ideal are congruence invariants, and the
letter-count difference must be an integer multiple of the relation's
count vector), which on a complete rule only name the Distinct that
the normal forms found, since a sound certificate never separates an
Equal pair; and last a bidirectional closure search, where a side
whose closure saturates without meeting the other word proves
distinctness outright.  Oracle.equal walks the same order and reads its
class store just before the search.  One frontier engine grows every
closure: closure runs it from one word, the search from two.

equal_via_compression instead peels one compression level: one scan
for the longest compressing word r splits each word around its first
and last occurrence of r, equality reduces to literal equality of the
outer parts plus equality of Delta_r-letter sequences in a free
product, whose syllables are compared recursively, by letter name, in
the compressed presentation.  Equal paths found downstairs are lifted
back upstairs, so replayability survives the recursion.  Bulk callers
ask Oracle, the one class interface.
"""

from __future__ import annotations

import heapq
from functools import lru_cache

from .compress import (
    CompressionData,
    compress_step,
    syllables,
)
from .records import record
from .words import (
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


class Equal(record("Equal", "path")):
    """Words are congruent; path is a concrete rewrite chain w1 .. w2."""

    __slots__ = ()
    congruent = True

    @property
    def path_length(self) -> int:
        return len(self.path) - 1


class Distinct(record("Distinct", "certificate")):
    __slots__ = ()
    congruent = False


class Unknown(record("Unknown", "reason")):
    __slots__ = ()
    congruent = None


Verdict = Equal | Distinct | Unknown


class BudgetTooShort(ValueError):
    """A length cap is below the length of a word the query must explore."""


class OracleBudget(record("OracleBudget", "max_words max_len",
                          defaults=(200_000, None))):
    """Exploration caps.  max_len defaults per query to
    |w1| + |w2| + 4 max(|u|, |v|).  max_words caps the words of each
    closure and search; a Cayley ball also takes it as its vertex cap.
    On an incomplete rule the ball's edges are placed by closures under
    the same cap, so a max_words at the vertex count can cut them short:
    aa = b at radius 3 has 7 vertices, is refused at max_words 7, comes
    out approximate at 8 and exact at 15."""

    __slots__ = ()

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


def replay(P: Presentation, path: tuple[Word, ...]) -> bool:
    """Check a rewrite path step by step: each word is a neighbor of the
    one before it."""
    if not path:
        return False
    return all(b in neighbors(P, a) for a, b in zip(path, path[1:]))


# --------------------------------------------------------- normal forms


def _reduce(P: Presentation, w: Word, starts: list[int] | None = None) -> Word:
    """The irreducible descendant of w under the rule u -> v.

    Each rewrite replaces the leftmost occurrence of u, which str.find
    locates in w spelled one code per letter.  The rule is
    shortlex-decreasing, so the rewriting terminates.  When starts is
    given, the position where each rewrite replaces u by v in the word
    it rewrites is appended to it; _rewrites spells the chain of words
    from them.

    Rewrites splice v into a window, so that none copies the whole
    word; k = 64 + 2|u| sets the window's scale.  Text left of the
    window holds no occurrence of u, and none starts left of position
    at in the window: a rewrite at i leaves none before i - |u| + 1.
    When that bound falls left of the window, the text there is handed
    back, at most k letters at a time, and a window that grows past 3k
    letters sends all but its next k letters from at back to be read
    again.  Text right of the window is read k letters at a time once
    the window holds no occurrence of u; the window keeps its last
    |u| - 1 letters then, as they may begin one.
    """
    u, v = P._spelled
    n = len(u)
    if u == v or len(w) < n:
        return tuple(w)
    codes = P._codes
    s = "".join(w if codes is None else map(codes.__getitem__, w))
    k = 64 + 2 * n
    win, read = s[:k], k
    done: list[str] = []   # irreducible text left of the window
    off = 0                # its length
    back: list[str] = []   # text to read again before s[read:], next last
    at = 0
    while True:
        if at < 0:
            while at < 0 and done:
                piece = done.pop()
                if len(piece) > k:
                    done.append(piece[:-k])
                    piece = piece[-k:]
                win = piece + win
                off -= len(piece)
                at += len(piece)
            if at < 0:
                at = 0
            if len(win) > 3 * k:
                back.append(win[at + k:])
                win = win[:at + k]
        i = win.find(u, at)
        if i >= 0:
            win = win[:i] + v + win[i + n:]
            if starts is not None:
                starts.append(off + i)
            at = i - n + 1
            continue
        if back:
            piece = back.pop()
        elif read < len(s):
            piece = s[read:read + k]
            read += k
        else:
            break
        at = len(win) - n + 1
        if at > 0:
            done.append(win[:at])
            off += at
            win = win[at:]
            at = 0
        win += piece
    s = "".join(done) + win if done else win
    return tuple(s if codes is None else map(P._letters.__getitem__, s))


def _rewrites(P: Presentation, w: Word, starts: list[int]) -> list[Word]:
    """The words of the reduction of w whose rewrites start at starts."""
    n, v = len(P.u), P.v
    chain = [w]
    for i in starts:
        w = w[:i] + v + w[i + n:]
        chain.append(w)
    return chain


@lru_cache(maxsize=1024)
def is_complete(P: Presentation) -> bool:
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
    return _reduce(P, tuple(w)) if is_complete(P) else None


def _join(c1: list[Word], c2: list[Word]) -> tuple[Word, ...]:
    """Path from c1[0] to c2[0] through the common last word of both
    chains, shared tail trimmed so the path has no immediate
    backtracking."""
    i1, i2 = len(c1) - 1, len(c2) - 1
    while i1 > 0 and i2 > 0 and c1[i1 - 1] == c2[i2 - 1]:
        i1 -= 1
        i2 -= 1
    return tuple(c1[: i1 + 1]) + tuple(reversed(c2[:i2]))


def _reduction_path(P: Presentation, w1: Word, s1: list[int], w2: Word,
                    s2: list[int]) -> tuple[Word, ...]:
    """_join(_rewrites(P, w1, s1), _rewrites(P, w2, s2)) for two words
    with one normal form, spelling only the words it keeps.

    _reduce rewrites each word at the leftmost occurrence of u (its
    output holds none but the one at its top), so two reductions that
    reach a common word go on alike from it: their shared tail is the
    common suffix of their start lists, and only the rewrites before it
    are spelled.
    """
    i1, i2 = len(s1), len(s2)
    while i1 and i2 and s1[i1 - 1] == s2[i2 - 1]:
        i1, i2 = i1 - 1, i2 - 1
    c2 = _rewrites(P, w2, s2[:i2])
    return tuple(_rewrites(P, w1, s1[:i1])) + tuple(reversed(c2[:-1]))


# --------------------------------------------------------- certificates


@lru_cache(maxsize=1024)
def _relation_counts(P: Presentation) -> tuple[tuple[int, ...], int | None]:
    """Letter counts of u minus those of v, and the index of the first
    nonzero count (None when all are 0), computed once per
    presentation."""
    rel = tuple(a - b for a, b in zip(P.letter_counts(P.u),
                                      P.letter_counts(P.v)))
    return rel, next((i for i, r in enumerate(rel) if r), None)


def _abelian_mismatch(P: Presentation, w1: Word, w2: Word) -> bool:
    """Whether the letter counts of w1 minus those of w2 are not an
    integer multiple of the relation's."""
    diff = [a - b for a, b in zip(P.letter_counts(w1), P.letter_counts(w2))]
    rel, i = _relation_counts(P)
    if i is None:
        return any(diff)
    # the only candidate multiple; it misses diff[i] unless rel[i] divides it
    k = diff[i] // rel[i]
    return diff != [k * r for r in rel]


def _ideal_certificate(P: Presentation, w1: Word, w2: Word) -> str | None:
    for r in compressing_words(P):
        if ends_with(w1, r) != ends_with(w2, r):
            return CERT_SUFFIX
        if starts_with(w1, r) != starts_with(w2, r):
            return CERT_PREFIX
    return None


# ------------------------------------------------------- frontier engine


def _chain(parent: dict[Word, Word | None], w: Word) -> list[Word]:
    out = [w]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])
    return out


def _search(P: Presentation, starts: tuple[Word, ...], max_len: int,
            max_words: int) -> tuple[list[dict[Word, Word | None]],
                                     Word | bool | None]:
    """The one frontier engine: a shortlex-ordered closure with parent
    pointers from each of one or two start words.

    Each step expands the least word of the side with the smaller heap
    (the first on a tie), its new neighbours in shortlex order; max_words
    caps the words of all sides together.  Returns the parent maps and
    the stop: the word where two sides met; True when a side saturated
    (its frontier drained and nothing was pruned, so its map is the whole
    class); False when the word budget ran out, even on the last frontier
    word; None when the length cap pruned every side.
    """
    key = P.shortlex_key
    parents = [{w: None} for w in starts]
    heaps = [[(key(w), w)] for w in starts]
    pruned = [False] * len(starts)
    others = parents[::-1] if len(starts) > 1 else [{}]
    live = list(range(len(starts)))
    explored = len(starts)
    while live:
        # the side with the smaller heap, the first on a tie
        i = live[0] if len(heaps[live[0]]) <= len(heaps[live[-1]]) else live[-1]
        seen, heap, other = parents[i], heaps[i], others[i]
        _, cur = heapq.heappop(heap)
        new = [n for n in neighbors(P, cur) if n not in seen]
        fresh = sorted([(key(n), n) for n in new if len(n) <= max_len])
        if len(fresh) < len(new):
            pruned[i] = True
        for k, n in fresh:
            if explored >= max_words:
                return parents, False
            seen[n] = cur
            explored += 1
            if n in other:
                return parents, n
            heapq.heappush(heap, (k, n))
        if not heap:
            if not pruned[i]:
                return parents, True
            live.remove(i)
    return parents, None


def closure(P: Presentation, w: Word, max_len: int,
            max_words: int) -> tuple[dict[Word, Word | None], bool]:
    """One-sided congruence closure with parent pointers: the frontier
    engine from w alone.  Returns (parents, saturated); saturated means
    the parent map is the entire congruence class of w: nothing was
    pruned and the frontier drained."""
    parents, stop = _search(P, (w,), max_len, max_words)
    return parents[0], stop is True


def _decide(P: Presentation, w1: Word, w2: Word, budget: OracleBudget,
            store: Oracle | None) -> Verdict:
    """The one decider order: identity; normal forms when u -> v is
    complete, the ideal and abelian certificates then only naming a
    Distinct; on any other rule those certificates, the class of w1 in
    store when it saturates, and last the two-sided search.  An explicit
    length cap below an input word is refused before any of them."""
    if budget.max_len is not None:
        budget.cap_for(P, w1, w2)
    if w1 == w2:
        return Equal((w1,))
    complete = is_complete(P)
    if complete:
        s1, s2 = [], []
        if _reduce(P, w1, s1) == _reduce(P, w2, s2):
            return Equal(_reduction_path(P, w1, s1, w2, s2))
    cert = _ideal_certificate(P, w1, w2)
    if cert:
        return Distinct(cert)
    if _abelian_mismatch(P, w1, w2):
        return Distinct(CERT_ABELIAN)
    if complete:
        return Distinct(CERT_NORMAL_FORM)
    got = store.class_of(w1) if store is not None else None
    if got is not None:
        parent, _ = got
        if w2 not in parent:
            return Distinct(CERT_EXHAUSTED)
        # both chains run to the closure root
        return Equal(_join(_chain(parent, w1), _chain(parent, w2)))
    (p1, p2), stop = _search(P, (w1, w2), budget.cap_for(P, w1, w2),
                             budget.max_words)
    if stop is True:
        return Distinct(CERT_EXHAUSTED)
    if stop is False:
        return Unknown("word budget exhausted")
    if stop is None:
        return Unknown("length cap pruned both closures")
    return Equal(tuple(reversed(_chain(p1, stop))) + tuple(_chain(p2, stop)[1:]))


def equal_bounded(P: Presentation, w1: Word, w2: Word,
                  budget: OracleBudget | None = None) -> Verdict:
    """Certified equality: the decider order with no class store.

    The search is always total when |u| = |v| with default budgets,
    since congruence classes are then finite.
    """
    return _decide(P, tuple(w1), tuple(w2), budget or DEFAULT_BUDGET, None)


# ---------------------------------------------------------------- Oracle


class Oracle:
    """Class interface: equal walks the decider order of equal_bounded
    with this oracle as the class store, consulted just before the
    search; normal_form answers when u -> v is complete and never runs a
    closure; rep answers from normal_form first, else from the store,
    which class_of alone reads on any rule.  Bulk callers key each word
    once by normal_form, compare keys where both are known, and ask
    equal only for the other pairs, reading the verdict's congruent:
    True or False decides the pair, None leaves it undecided.

    The store memoizes closure: each saturated class is stored once, as
    its parent map and its shortlex-least member, and indexed by every
    member, so equality within a stored class is a dictionary lookup.  A
    class whose closure does not saturate within budget is undecided:
    class_of and rep return None for it.
    """

    def __init__(self, P: Presentation, budget: OracleBudget | None = None):
        self.P = P
        self.budget = budget or DEFAULT_BUDGET
        self._classes: dict[Word, tuple[dict[Word, Word | None], Word]] = {}
        self._unsaturated: set[Word] = set()
        self._complete = is_complete(P)

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

    def normal_form(self, w: Word) -> Word | None:
        """Normal form of w when u -> v is complete, None otherwise; it
        never runs a closure.  A length cap below |w| is a usage error."""
        if self.budget.max_len is not None:
            self.budget.cap_for(self.P, w)
        return _reduce(self.P, tuple(w)) if self._complete else None

    def rep(self, w: Word) -> Word | None:
        """Shortlex-least member of the class of w; None when undecided.
        A length cap below |w| is a usage error."""
        nf = self.normal_form(w)
        if nf is not None:
            return nf
        got = self.class_of(w)
        return None if got is None else got[1]

    def equal(self, w1: Word, w2: Word) -> Verdict:
        return _decide(self.P, tuple(w1), tuple(w2), self.budget, self)


# ------------------------------------------- compression-based decider


def _free_product(C: CompressionData, w1: Word, ends1: list[int], w2: Word,
                  ends2: list[int], budget: OracleBudget | None) -> Verdict:
    """Equality of the Delta letters of w1 and w2, cut at ends1 and ends2,
    in the free product of the free monoid on the outside letters with
    the compressed monoid; what lies outside the first and last cut must
    agree.  Outside letters must agree positionally and the runs between
    them (empties included) recurse in the compressed presentation.  An
    Equal path rewrites one run at a time."""
    runs1, seps1 = syllables(C, w1, ends1)
    runs2, seps2 = syllables(C, w2, ends2)
    if seps1 != seps2:
        return Distinct(CERT_SYLLABLE)
    path = [w1]
    for (x1, _, end1), (x2, start2, _) in zip(runs1, runs2):
        verdict = equal_via_compression(C.compressed, x1, x2, budget)
        if isinstance(verdict, Distinct):
            # the run is proven unequal downstairs, so the syllable
            # decompositions disagree regardless of the inner certificate
            return Distinct(CERT_SYLLABLE)
        if isinstance(verdict, Unknown):
            return verdict
        # runs before this one are already as in w2, later ones as in w1
        head, tail = w2[:start2], w1[end1:]
        path.extend(head + tuple(x for name in step for x in C.spellings[name])
                    + tail for step in verdict.path[1:])
    if path[-1] != w2:
        raise AssertionError("stitched free-product path missed its endpoint")
    return Equal(tuple(path))


def equal_via_compression(P: Presentation, w1: Word, w2: Word,
                          budget: OracleBudget | None = None) -> Verdict:
    """Decide equality by peeling one compression level.

    Incompressible presentations fall through to equal_bounded.  Else one
    scan for the longest compressing word r reads each word as  t r m z:
    t before the first occurrence, z after the last, and m over Delta_r,
    whose letters end where the later occurrences end.  The z must agree,
    then the t, then the m in the free product.  A downstairs Equal path
    lifts word by word to  t r spell(m) z,  which turns one application
    of the compressed relation into one of the original relation.
    """
    w1, w2 = tuple(w1), tuple(w2)
    if w1 == w2:
        return Equal((w1,))
    cands = compressing_words(P)
    if not cands:
        return equal_bounded(P, w1, w2, budget)
    r = cands[-1]
    C = compress_step(P, r)
    n = len(r)
    ends1 = [i + n for i in find_occurrences(w1, r)]
    ends2 = [i + n for i in find_occurrences(w2, r)]
    # with no occurrence of r, z is the whole word; the empty word is
    # congruent only to itself, as both relation sides are nonempty
    if not ends1 or not ends2 or w1[ends1[-1]:] != w2[ends2[-1]:]:
        return Distinct(CERT_RIGHT_TAIL)
    if w1[:ends1[0] - n] != w2[:ends2[0] - n]:
        return Distinct(CERT_LEFT_PREFIX)
    return _free_product(C, w1, ends1, w2, ends2, budget)
