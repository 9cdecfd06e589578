"""Rewriting-graph paths, homotopy moves, the rightmost-edge parity
invariant, and a sampled injectivity harness for formal sums.

An edge replaces one relation side by the other inside a fixed left and
right context.  Paths compose edges; the three homotopy moves are
insertion and deletion of a cancelling pair and the exchange of two
adjacent edges acting on disjoint parts of the word.  The parity vector
counts, modulo two, the rightmost edges of a path per congruence class
of their left context.  When both relation sides are nonempty it is
invariant under all three moves, which the seeded random walk exercises
move by move.  With an empty side it is not: in <a b | ab = 1> one
exchange turns the path (ab,-,ε) (ab,-,ab) (ab,+,ab) (ab,+,ε) (ε,+,ε),
with three rightmost edges in the class of ε, into one with four.

The walk keeps its path as interned edge ids, and between steps its
move pools by seam, the number of cancelling and of exchangeable pairs,
and the parity vector, updating them around the position each move
changed; random_walk_check describes its tables and update shapes.
parity_vector, and the reference walk the tests compare against,
recompute the vector in full.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate

from .cayley import ball_vertices
from .classify import Asphericity, asphericity_certificate
from .records import record
from .words import (
    PreconditionError,
    Presentation,
    Word,
    compressing_words,
    find_occurrences,
)
from .wp import Oracle, OracleBudget


class NonComposable(Exception):
    """Adjacent path edges whose endpoint words disagree."""


class NotApplicable(Exception):
    """The requested move does not fit the path at that position."""


class UndecidableClass(Exception):
    """A parity key class could not be saturated within budget."""


class SquierEdge(record("SquierEdge", "w1 sign w2")):
    """One relation application: left context, direction, right context.

    sign +1 replaces the first relation side by the second, -1 the
    reverse.
    """

    __slots__ = ()

    def __new__(cls, w1: Word, sign: int, w2: Word) -> SquierEdge:
        if sign not in (1, -1):
            raise ValueError("sign is +1 or -1")
        return tuple.__new__(cls, (w1, sign, w2))


def _side(P: Presentation, sign: int) -> Word:
    return P.u if sign == 1 else P.v


def edge_source(P: Presentation, e: SquierEdge) -> Word:
    return e.w1 + _side(P, e.sign) + e.w2


def edge_target(P: Presentation, e: SquierEdge) -> Word:
    return e.w1 + _side(P, -e.sign) + e.w2


def inverse(e: SquierEdge) -> SquierEdge:
    return SquierEdge(e.w1, -e.sign, e.w2)


def is_rightmost(e: SquierEdge) -> bool:
    return not e.w2


def relation_edge() -> SquierEdge:
    """The edge rewriting the bare relation side u to v."""
    return SquierEdge((), 1, ())


SquierPath = tuple[SquierEdge, ...]


def validate_path(P: Presentation,
                  path: SquierPath) -> tuple[Word | None, Word | None]:
    """Endpoints of a composable path; (None, None) for the empty path."""
    if not path:
        return None, None
    cur = edge_source(P, path[0])
    start = cur
    for i, e in enumerate(path):
        if edge_source(P, e) != cur:
            raise NonComposable(f"at index {i}")
        cur = edge_target(P, e)
    return start, cur


# ----------------------------------------------------------------- moves


class InsertCancelPair(record("InsertCancelPair", "pos edge")):
    __slots__ = ()


class DeleteCancelPair(record("DeleteCancelPair", "pos")):
    __slots__ = ()


class PullUpPushDown(record("PullUpPushDown", "pos")):
    __slots__ = ()


Move = InsertCancelPair | DeleteCancelPair | PullUpPushDown


def _swap_disjoint(
    P: Presentation, first: SquierEdge, second: SquierEdge,
) -> tuple[SquierEdge, SquierEdge] | None:
    """Exchange two adjacent edges rewriting disjoint parts of the word.

    The second edge's site is either entirely right or entirely left of
    the word the first edge wrote; in both cases the same two sites are
    rewritten in the other order.  None when the sites overlap.
    """
    a1, e1, b1 = first.w1, first.sign, first.w2
    a2, e2, b2 = second.w1, second.sign, second.w2
    out_first = _side(P, -e1)
    if len(a2) >= len(a1) + len(out_first):
        gap = a2[len(a1) + len(out_first):]
        if a2 == a1 + out_first + gap and b1 == gap + _side(P, e2) + b2:
            return (SquierEdge(a1 + _side(P, e1) + gap, e2, b2),
                    SquierEdge(a1, e1, gap + _side(P, -e2) + b2))
    if len(a2) + len(_side(P, e2)) <= len(a1):
        gap = a1[len(a2) + len(_side(P, e2)):]
        if a1 == a2 + _side(P, e2) + gap and b2 == gap + out_first + b1:
            return (SquierEdge(a2, e2, gap + _side(P, e1) + b1),
                    SquierEdge(a2 + _side(P, -e2) + gap, e1, b1))
    return None


def apply_move(P: Presentation, path: SquierPath, move: Move) -> SquierPath:
    """One homotopy move; the result has the same endpoints."""
    path = tuple(path)
    n = len(path)
    if isinstance(move, InsertCancelPair):
        if not 0 <= move.pos <= n:
            raise NotApplicable("insert position out of range")
        src = edge_source(P, move.edge)
        if n:
            anchor = (edge_source(P, path[move.pos]) if move.pos < n
                      else edge_target(P, path[-1]))
            if src != anchor:
                raise NotApplicable("inserted pair does not fit the seam")
        pair = (move.edge, inverse(move.edge))
        return path[:move.pos] + pair + path[move.pos:]
    if isinstance(move, DeleteCancelPair):
        if not 0 <= move.pos < n - 1:
            raise NotApplicable("delete position out of range")
        e, f = path[move.pos], path[move.pos + 1]
        if f.sign == e.sign or f.w1 != e.w1 or f.w2 != e.w2:
            raise NotApplicable("edges at the position do not cancel")
        return path[:move.pos] + path[move.pos + 2:]
    if isinstance(move, PullUpPushDown):
        if not 0 <= move.pos < n - 1:
            raise NotApplicable("swap position out of range")
        swapped = _swap_disjoint(P, path[move.pos], path[move.pos + 1])
        if swapped is None:
            raise NotApplicable("edges do not rewrite disjoint sites")
        return path[:move.pos] + swapped + path[move.pos + 2:]
    raise NotApplicable(f"unknown move {move!r}")


# ---------------------------------------------------------------- parity


def _parity(oracle: Oracle, path: SquierPath) -> dict[Word, int]:
    """Keys are closure-store representatives (class_of), not rep: with
    an empty relation side, where parity is not invariant, normal forms
    would turn the undecided walks into reported violations."""
    bits: dict[Word, int] = {}
    for e in path:
        if not is_rightmost(e):
            continue
        got = oracle.class_of(e.w1)
        if got is None:
            raise UndecidableClass(oracle.P.text(e.w1))
        bits[got[1]] = bits.get(got[1], 0) ^ 1
    return {k: v for k, v in bits.items() if v}


def parity_vector(P: Presentation, path: SquierPath,
                  budget: OracleBudget | None = None) -> dict[Word, int]:
    """Rightmost-edge count per left-context class, modulo two.

    Keys are canonical class representatives; zero entries are dropped,
    so the empty dict is the zero vector.
    """
    validate_path(P, path)
    return _parity(Oracle(P, budget), path)


# ----------------------------------------------------------- random walk


class WalkReport(record("WalkReport",
                        "seed requested applied passed log violation",
                        defaults=(None,))):
    __slots__ = ()


def _describe(P: Presentation, move: Move) -> str:
    if isinstance(move, InsertCancelPair):
        e = move.edge
        sign = "+" if e.sign == 1 else "-"
        return f"insert@{move.pos} ({P.text(e.w1)},{sign},{P.text(e.w2)})"
    if isinstance(move, DeleteCancelPair):
        return f"delete@{move.pos}"
    return f"swap@{move.pos}"


def _insertions(P: Presentation, w: Word) -> tuple[SquierEdge, ...]:
    """Edges with source w: sign +1 first, then -1, occurrences in
    ascending order."""
    return tuple(SquierEdge(w[:i], sign, w[i + len(side):])
                 for sign in (1, -1)
                 for side in (_side(P, sign),)
                 for i in find_occurrences(w, side))


# the applicable move kinds, by which of the delete and swap pools are
# nonempty; an insert always applies
_KINDS = ((0,), (0, 1), (0, 2), (0, 1, 2))


def random_walk_check(P: Presentation, start: SquierPath, steps: int,
                      seed: int,
                      budget: OracleBudget | None = None) -> WalkReport:
    """Apply random homotopy moves and assert parity invariance each step.

    The invariant holds only when both relation sides are nonempty; with
    an empty side a reported parity change need not be a fault.
    Move kinds are sampled uniformly among the applicable kinds, then a
    uniform instance of the chosen kind.  When the path is empty,
    insertions anchor on the relation side u.

    The walk keeps, beside the path apply_move returns, a parallel list
    of edge ids.  Each distinct edge is interned once, with its inverse,
    the first time it appears (start path, insertions of a seam word or
    result of a swap); its row holds the edge, its inverse id, the
    insertion ids of its target (the edges with that source, from
    _insertions once per distinct word).  Seam k is the source of edge
    k, the last seam the target of the last edge.  The move pools are
    kept by seam between steps: the number of its insertions, and the
    cancel flag, inv[a] == b, and swap flag of the pair (a, b) of edges
    meeting there, the swap flag read from one memo per ordered id pair
    that holds the ids _swap_disjoint exchanged them to; the two end
    seams carry no pair.  An insert always applies: every seam word
    contains the relation side its edge rewrites there (an empty side
    matches at every position), and the empty path anchors on u.  A
    delete or a swap applies when its pool holds a set flag, and the
    walk counts the set flags of each.  Every kind is drawn alike, by
    bisecting the running sums of its pool; the move drawn is one object
    per (position, edge id) for an insert and per position for a delete
    or swap, built and described once, and goes through apply_move and
    its checks.

    Each kind then updates the pools in a fixed shape.  An insert at p
    adds seams p+1 and p+2, and the pair at seam p gives way to the
    pairs at seams p..p+2.  A delete at p removes seams p+1 and p+2, and
    the pairs at seams p..p+2 give way to the one now meeting at seam p.
    A swap at p changes only seam p+1, since seam p+2 is the common
    target of both orders, and recomputes the pairs at seams p..p+2.
    Only a swap flips the parity vector, by the rightmost edges it took
    out and put in, and compares it with the start's.  An insert or a
    delete cannot move it: its pair is an edge and its inverse, which
    share their left context and are both rightmost or neither, so their
    two flips cancel.  With an empty side such a pair can still rewrite
    disjoint sites and swap, as (ε,+,ε) (ε,-,ε) exchanges to (ab,-,ε)
    (ε,+,ab) in <a b | ab = 1>, so the middle pair of an insert goes
    through the swap memo like any other.  Drawing a move is all that
    reads the whole pools.

    An edge's class key is read from a memo by its left context each
    time the edge is inserted or flipped, and class_of is asked
    only for a context not seen before: a saturated class never changes,
    and an undecided one raises at the same step and with the same word
    as a full recompute would.  reference_walk in tests/test_squier.py
    rebuilds every pool and recomputes the parity in full at every step,
    and must give the same report.
    """
    validate_path(P, start)
    oracle = Oracle(P, budget)
    rng = random.Random(seed)
    path = tuple(start)
    log: list[str] = []

    # one row per edge id: the edge, its inverse id and the insertion ids
    # of its target (None until that is a seam)
    ids: dict[SquierEdge, int] = {}
    edges: list[SquierEdge] = []
    inv: list[int] = []
    ins: list[tuple[int, ...] | None] = []

    def intern(e: SquierEdge) -> int:
        i = ids.get(e)
        if i is None:
            i = len(edges)
            for f, j in ((e, i + 1), (inverse(e), i)):
                ids[f] = len(edges)
                edges.append(f)
                inv.append(j)
                ins.append(None)
        return i

    memo: dict[Word, tuple[int, ...]] = {}  # insertion ids per seam word

    def insertions(w: Word) -> tuple[int, ...]:
        got = memo.get(w)
        if got is None:
            got = memo[w] = tuple(map(intern, _insertions(P, w)))
        return got

    def seam(i: int) -> tuple[int, ...]:
        """Insertion ids of the target of edge i."""
        got = ins[i]
        if got is None:
            got = ins[i] = insertions(edge_target(P, edges[i]))
        return got

    contexts: dict[Word, Word] = {}  # class key per rightmost left context
    bits: dict[Word, int] = {}       # the current parity vector, zeros dropped

    def key(i: int) -> Word | bool:
        """Class key of edge i, False off the right end."""
        e = edges[i]
        if e.w2:
            return False
        k = contexts.get(e.w1)
        if k is None:
            got = oracle.class_of(e.w1)
            if got is None:
                raise UndecidableClass(P.text(e.w1))
            k = contexts[e.w1] = got[1]
        return k

    def flip(stretch: list[int] | tuple[int, ...]) -> None:
        for i in stretch:
            k = key(i)
            if k is not False and not bits.pop(k, 0):
                bits[k] = 1

    at = [intern(e) for e in path]
    flip(at)
    expected = dict(bits)

    def seam_at(k: int) -> tuple[int, ...]:
        """Insertion ids of seam k; u's on the empty path."""
        if k < len(at):
            return seam(inv[at[k]])
        return seam(at[-1]) if at else insertions(P.u)

    swapped: dict[tuple[int, int], tuple[int, int] | None] = {}

    def swap_of(a: int, b: int) -> tuple[int, int] | None:
        got = swapped.get((a, b), False)
        if got is False:
            pair = _swap_disjoint(P, edges[a], edges[b])
            got = swapped[a, b] = (None if pair is None
                                   else (intern(pair[0]), intern(pair[1])))
        return got

    def flags(k: int) -> tuple[bool, bool]:
        """Cancel and swap flag of the pair meeting at seam k; the two
        end seams carry no pair."""
        if 0 < k < len(at):
            a, b = at[k - 1], at[k]
            return inv[a] == b, swap_of(a, b) is not None
        return False, False

    # the pools, by seam: its insertion count and the cancel and swap
    # flags of the pair meeting there
    counts = [len(seam_at(k)) for k in range(len(at) + 1)]
    flagged = [flags(k) for k in range(len(at) + 1)]
    cancels = [c for c, _ in flagged]
    swaps = [s for _, s in flagged]
    n_del, n_swp = sum(cancels), sum(swaps)
    pools = (counts, cancels, swaps)
    # (move, log line) by (p, edge id) for an insert, by (p, -1) for a
    # delete and by (p, -2) for a swap
    moves: dict[tuple[int, int], tuple[Move, str]] = {}
    for _ in range(steps):
        kinds = _KINDS[(n_del > 0) | (n_swp > 0) << 1]
        kind = kinds[rng.randrange(len(kinds))]
        ends = list(accumulate(pools[kind]))
        j = rng.randrange(ends[-1])
        p = bisect_right(ends, j)
        if kind == 0:
            i = seam_at(p)[j - ends[p] + counts[p]]
        else:
            i, p = -kind, p - 1  # the pair at seam p is pair p-1
        got = moves.get((p, i))
        if got is None:
            move: Move = (InsertCancelPair(p, edges[i]) if kind == 0 else
                          (DeleteCancelPair, PullUpPushDown)[kind - 1](p))
            got = moves[p, i] = (move, _describe(P, move))
        path = apply_move(P, path, got[0])
        log.append(got[1])
        if kind == 0:
            # the parity stays; the key is read so that class_of is
            # asked at this step
            key(i)
            e = inv[i]
            at[p:p] = i, e
            counts[p + 1:p + 1] = len(seam(i)), len(seam(e))
            # the pair at seam p gives way to those at seams p..p+2
            (c0, s0), (c1, s1), (c2, s2) = flags(p), flags(p + 1), flags(p + 2)
            n_del += c0 + c1 + c2 - cancels[p]
            n_swp += s0 + s1 + s2 - swaps[p]
            cancels[p:p + 1] = c0, c1, c2
            swaps[p:p + 1] = s0, s1, s2
        elif kind == 1:
            # seams p+1 and p+2 go; the pairs at seams p..p+2 give way to
            # the one now meeting at seam p
            del at[p:p + 2]
            n_del -= cancels[p + 1] + cancels[p + 2]
            n_swp -= swaps[p + 1] + swaps[p + 2]
            del counts[p + 1:p + 3], cancels[p + 1:p + 3], swaps[p + 1:p + 3]
            c, s = flags(p)
            n_del += c - cancels[p]
            n_swp += s - swaps[p]
            cancels[p], swaps[p] = c, s
            if not at:
                counts[0] = len(insertions(P.u))
        else:
            old = at[p:p + 2]
            at[p:p + 2] = swapped[old[0], old[1]]
            flip(old)
            flip(at[p:p + 2])
            # seam p+1 is the new first edge's target; p+2 is unchanged
            counts[p + 1] = len(seam(at[p]))
            for k in range(p, p + 3):
                c, s = flags(k)
                n_del += c - cancels[k]
                n_swp += s - swaps[k]
                cancels[k], swaps[k] = c, s
            if bits != expected:
                return WalkReport(seed, steps, len(log), False, tuple(log),
                                  f"parity changed after {log[-1]}")
    return WalkReport(seed, steps, len(log), True, tuple(log))


# -------------------------------------------------- injectivity sampling


class HarnessReport(record(
        "HarnessReport", "samples skipped violations singleton_checked "
        "singleton_skipped singleton_violations pre_incompressible "
        "pre_shared_last_letter pre_aspherical")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.violations and not self.singleton_violations


def injectivity_harness(P: Presentation, samples: int, max_support: int,
                        seed: int, budget: OracleBudget | None = None,
                        radius: int = 6) -> HarnessReport:
    """Probe injectivity of the relation-module boundary on formal sums.

    Each sample draws up to max_support distinct ball classes with
    nonzero integer coefficients from -3 to 3 and compares the two
    translated formal sums obtained by appending each relation side
    minus its last letter.  Singletons and formal sums read the rep of
    each (vertex, head), w·head_u and w·head_v, from one memo per head,
    filled by Oracle.rep the first time it decides one; a singleton
    whose two keys are known compares them, and any other asks
    Oracle.equal.  The preconditions of the underlying statement are
    recorded, not enforced, except for the shared last letter which the
    construction needs.  A violation on a presentation with all three
    flags set would refute the statement rather than the sample, so
    violations are reported verbatim for inspection.
    """
    if not P.u or not P.v or P.u[-1] != P.v[-1]:
        raise PreconditionError("relation sides must share their last letter")
    if max_support < 1:
        raise PreconditionError("max_support must be at least 1")
    head_u, head_v = P.u[:-1], P.v[:-1]
    oracle = Oracle(P, budget)
    reps = ball_vertices(oracle, radius)

    # decided reps per head, by vertex; an undecided one is asked again
    memo: dict[Word, dict[Word, Word]] = {head_u: {}, head_v: {}}

    def rep_of(w: Word, head: Word) -> Word | None:
        rep = memo[head].get(w)
        if rep is None:
            rep = oracle.rep(w + head)
            if rep is not None:
                memo[head][w] = rep
        return rep

    singleton_skipped = 0
    singleton_violations: list[str] = []
    for w in reps:
        key_u, key_v = rep_of(w, head_u), rep_of(w, head_v)
        same = (oracle.equal(w + head_u, w + head_v).congruent
                if key_u is None or key_v is None else key_u == key_v)
        if same is None:
            singleton_skipped += 1
        elif same:
            singleton_violations.append(P.text(w))

    def formal_sum(support: list[Word], weights: list[int],
                   head: Word) -> dict[Word, int] | None:
        """Sum of weight·[w head], zeros dropped; None when a class is
        undecided."""
        acc: dict[Word, int] = {}
        for w, z in zip(support, weights):
            rep = rep_of(w, head)
            if rep is None:
                return None
            acc[rep] = acc.get(rep, 0) + z
        return {k: z for k, z in acc.items() if z}

    rng = random.Random(seed)
    skipped = 0
    violations: list[str] = []
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
            terms = " + ".join(f"{z}·[{P.text(w)}]"
                               for w, z in zip(support, weights))
            violations.append(terms)

    return HarnessReport(
        samples=samples,
        skipped=skipped,
        violations=tuple(violations),
        singleton_checked=len(reps),
        singleton_skipped=singleton_skipped,
        singleton_violations=tuple(singleton_violations),
        pre_incompressible=not compressing_words(P),
        pre_shared_last_letter=True,
        pre_aspherical=(asphericity_certificate(P)
                        is Asphericity.PROVEN_STRICTLY_ASPHERICAL),
    )
