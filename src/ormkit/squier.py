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
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cayley import enumerate_classes
from .classify import Asphericity, asphericity_certificate
from .words import Presentation, Word, compressing_words, find_occurrences
from .wp import Equal, Oracle, OracleBudget, Unknown


class NonComposable(Exception):
    """Adjacent path edges whose endpoint words disagree."""


class NotApplicable(Exception):
    """The requested move does not fit the path at that position."""


class UndecidableClass(Exception):
    """A parity key class could not be saturated within budget."""


@dataclass(frozen=True)
class SquierEdge:
    """One relation application: left context, direction, right context.

    sign +1 replaces the first relation side by the second, -1 the
    reverse.
    """

    w1: Word
    sign: int
    w2: Word

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign is +1 or -1")


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


def relation_edge(sign: int = 1) -> SquierEdge:
    """The edge rewriting one bare relation side to the other."""
    return SquierEdge((), sign, ())


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


@dataclass(frozen=True)
class InsertCancelPair:
    pos: int
    edge: SquierEdge


@dataclass(frozen=True)
class DeleteCancelPair:
    pos: int


@dataclass(frozen=True)
class PullUpPushDown:
    pos: int
    direction: str | None = None


Move = InsertCancelPair | DeleteCancelPair | PullUpPushDown


def _swap_disjoint(P: Presentation, first: SquierEdge,
                   second: SquierEdge,
                   direction: str | None) -> tuple[SquierEdge, SquierEdge]:
    """Exchange two adjacent edges rewriting disjoint parts of the word.

    The second edge's site is either entirely right or entirely left of
    the word the first edge wrote; in both cases the same two sites are
    rewritten in the other order.
    """
    a1, e1, b1 = first.w1, first.sign, first.w2
    a2, e2, b2 = second.w1, second.sign, second.w2
    out_first = _side(P, -e1)
    if direction in (None, "right") and len(a2) >= len(a1) + len(out_first):
        gap = a2[len(a1) + len(out_first):]
        if a2 == a1 + out_first + gap and b1 == gap + _side(P, e2) + b2:
            return (SquierEdge(a1 + _side(P, e1) + gap, e2, b2),
                    SquierEdge(a1, e1, gap + _side(P, -e2) + b2))
    if direction in (None, "left") and len(a2) + len(_side(P, e2)) <= len(a1):
        gap = a1[len(a2) + len(_side(P, e2)):]
        if a1 == a2 + _side(P, e2) + gap and b2 == gap + out_first + b1:
            return (SquierEdge(a2, e2, gap + _side(P, e1) + b1),
                    SquierEdge(a2 + _side(P, -e2) + gap, e1, b1))
    raise NotApplicable("edges do not rewrite disjoint sites")


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
        if path[move.pos + 1] != inverse(path[move.pos]):
            raise NotApplicable("edges at the position do not cancel")
        return path[:move.pos] + path[move.pos + 2:]
    if isinstance(move, PullUpPushDown):
        if not 0 <= move.pos < n - 1:
            raise NotApplicable("swap position out of range")
        swapped = _swap_disjoint(P, path[move.pos], path[move.pos + 1],
                                 move.direction)
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


@dataclass(frozen=True)
class WalkReport:
    seed: int
    requested: int
    applied: int
    passed: bool
    log: tuple[str, ...]
    violation: str | None = None


def _insert_candidates(P: Presentation, path: SquierPath,
                       base_word: Word) -> list[InsertCancelPair]:
    out: list[InsertCancelPair] = []
    for pos in range(len(path) + 1):
        if path:
            carrier = (edge_source(P, path[pos]) if pos < len(path)
                       else edge_target(P, path[-1]))
        else:
            carrier = base_word
        for sign in (1, -1):
            side = _side(P, sign)
            for i in find_occurrences(carrier, side):
                e = SquierEdge(carrier[:i], sign, carrier[i + len(side):])
                out.append(InsertCancelPair(pos, e))
    return out


def _delete_candidates(path: SquierPath) -> list[DeleteCancelPair]:
    return [DeleteCancelPair(i) for i in range(len(path) - 1)
            if path[i + 1] == inverse(path[i])]


def _swap_candidates(P: Presentation,
                     path: SquierPath) -> list[PullUpPushDown]:
    out = []
    for i in range(len(path) - 1):
        try:
            _swap_disjoint(P, path[i], path[i + 1], None)
        except NotApplicable:
            continue
        out.append(PullUpPushDown(i))
    return out


def _describe(P: Presentation, move: Move) -> str:
    if isinstance(move, InsertCancelPair):
        e = move.edge
        sign = "+" if e.sign == 1 else "-"
        return f"insert@{move.pos} ({P.text(e.w1)},{sign},{P.text(e.w2)})"
    if isinstance(move, DeleteCancelPair):
        return f"delete@{move.pos}"
    return f"swap@{move.pos}"


def random_walk_check(P: Presentation, start: SquierPath, steps: int,
                      seed: int, budget: OracleBudget | None = None,
                      base_word: Word | None = None) -> WalkReport:
    """Apply random homotopy moves and assert parity invariance each step.

    The invariant holds only when both relation sides are nonempty; with
    an empty side a reported parity change need not be a fault.
    Move kinds are sampled uniformly among the applicable kinds, then a
    uniform instance of the chosen kind.  base_word anchors insertions
    when the path is empty; it defaults to the first relation side.
    """
    validate_path(P, start)
    oracle = Oracle(P, budget)
    base = tuple(base_word) if base_word is not None else P.u
    rng = random.Random(seed)
    path = tuple(start)
    expected = _parity(oracle, path)
    log: list[str] = []
    for _ in range(steps):
        pools = [p for p in (_insert_candidates(P, path, base),
                             _delete_candidates(path),
                             _swap_candidates(P, path)) if p]
        if not pools:
            break
        move = rng.choice(rng.choice(pools))
        path = apply_move(P, path, move)
        log.append(_describe(P, move))
        found = _parity(oracle, path)
        if found != expected:
            return WalkReport(seed, steps, len(log), False, tuple(log),
                              f"parity changed after {log[-1]}")
    return WalkReport(seed, steps, len(log), True, tuple(log))


# -------------------------------------------------- injectivity sampling


@dataclass(frozen=True)
class HarnessReport:
    samples: int
    skipped: int
    violations: tuple[str, ...]
    singleton_checked: int
    singleton_skipped: int
    singleton_violations: tuple[str, ...]
    pre_incompressible: bool
    pre_shared_last_letter: bool
    pre_aspherical: bool

    @property
    def passed(self) -> bool:
        return not self.violations and not self.singleton_violations


def injectivity_harness(P: Presentation, samples: int, max_support: int,
                        seed: int, budget: OracleBudget | None = None,
                        radius: int = 6,
                        coeff_bound: int = 3) -> HarnessReport:
    """Probe injectivity of the relation-module boundary on formal sums.

    Each sample draws up to max_support distinct ball classes with
    nonzero integer coefficients and compares the two translated formal
    sums obtained by appending each relation side minus its last letter.
    The preconditions of the underlying statement are recorded, not
    enforced, except for the shared last letter which the construction
    needs.  A violation on a presentation with all three flags set would
    refute the statement rather than the sample, so violations are
    reported verbatim for inspection.
    """
    if not P.u or not P.v or P.u[-1] != P.v[-1]:
        raise ValueError("relation sides must share their last letter")
    if max_support < 1:
        raise ValueError("max_support must be at least 1")
    head_u, head_v = P.u[:-1], P.v[:-1]
    oracle = Oracle(P, budget)
    reps, _, _ = enumerate_classes(oracle, radius)

    singleton_skipped = 0
    singleton_violations: list[str] = []
    for w in reps:
        verdict = oracle.equal(w + head_u, w + head_v)
        if isinstance(verdict, Unknown):
            singleton_skipped += 1
        elif isinstance(verdict, Equal):
            singleton_violations.append(P.text(w))

    rng = random.Random(seed)
    skipped = 0
    violations: list[str] = []
    coeffs = [z for z in range(-coeff_bound, coeff_bound + 1) if z]
    for _ in range(samples):
        k = rng.randint(1, min(max_support, len(reps)))
        support = rng.sample(reps, k)
        weights = [rng.choice(coeffs) for _ in support]
        sum_u: dict[Word, int] = {}
        sum_v: dict[Word, int] = {}
        bad = False
        for w, z in zip(support, weights):
            for head, acc in ((head_u, sum_u), (head_v, sum_v)):
                rep = oracle.rep(w + head)
                if rep is None:
                    bad = True
                    break
                acc[rep] = acc.get(rep, 0) + z
            if bad:
                break
        if bad:
            skipped += 1
            continue
        sum_u = {k2: v for k2, v in sum_u.items() if v}
        sum_v = {k2: v for k2, v in sum_v.items() if v}
        if sum_u == sum_v:
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
