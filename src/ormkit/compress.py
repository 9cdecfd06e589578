"""Compression calculus for one-relator presentations.

For a word r sealing both sides of the relation, the set
T(r) = {w : r w ends with r} is a free submonoid (left unitary in the
ambient free monoid), freely generated by the prefix code Delta_r of its
nonzero-length irreducible elements.  Every member of T(r) factorizes
uniquely over Delta_r, and the greedy rule (repeatedly split off the
shortest nonempty prefix lying in T(r)) computes that factorization.

Compressing the relation u = r u', v = r v' rewrites both tails over
Delta_r and keeps only the letters that actually occur; the result is a
presentation with a strictly shorter relation.  Iterating reaches an
incompressible presentation, and choosing the longest compressing word
gets there in a single step.  The terminal does not depend on the
strategy: compressed letters are named by their flattened base spellings,
which makes iterated and one-step compression produce literally equal
presentations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import permutations

from .words import (
    EMPTY,
    Presentation,
    Word,
    compressing_words,
    ends_with,
    find_occurrences,
    make_presentation,
    seals,
)


class NotInT(ValueError):
    """Word is not a member of T(r)."""


class NoOccurrence(ValueError):
    """Left canonical factorization needs a word ending in r."""


class NotCompressing(ValueError):
    """The given word does not seal both sides of the relation."""


@dataclass(frozen=True)
class DeltaLetter:
    """An irreducible element of T(r), identified by its spelling.

    As a letter of a compressed alphabet it is named by the flattened
    spelling; distinct irreducibles always get distinct names because the
    letters in play form a prefix code, hence decode uniquely.
    """

    spelling: Word

    @property
    def name(self) -> str:
        return "".join(self.spelling)

    def __repr__(self) -> str:  # compact in test output
        return f"Δ({self.name})"


def t_membership(r: Word, w: Word) -> bool:
    """True when w is in T(r), i.e. r w ends with r.  T(r) contains ε."""
    if not r:
        raise ValueError("T(r) requires nonempty r")
    return ends_with(r + w, r)


def _shortest_t_prefix(r: Word, w: Word) -> int | None:
    for k in range(1, len(w) + 1):
        if t_membership(r, w[:k]):
            return k
    return None


def p_delta_membership(r: Word, w: Word) -> bool:
    """True when no nonempty prefix of w lies in T(r).

    These are exactly the proper prefixes of Delta_r elements, the words
    that appear as right tails of right canonical factorizations.
    """
    return _shortest_t_prefix(r, w) is None


def delta_factorize(r: Word, w: Word) -> tuple[DeltaLetter, ...]:
    """Unique factorization of w over the prefix code Delta_r.

    Greedy: split off the shortest nonempty prefix lying in T(r); that
    prefix is automatically irreducible, and the remainder stays in T(r)
    by left unitarity.  Raises NotInT when w is not in T(r).
    """
    parts: list[DeltaLetter] = []
    rest = w
    while rest:
        k = _shortest_t_prefix(r, rest)
        if k is None:
            raise NotInT(f"{''.join(w)!r} is not in T({''.join(r)!r})")
        parts.append(DeltaLetter(rest[:k]))
        rest = rest[k:]
    return tuple(parts)


def right_canonical(r: Word, s: Word) -> tuple[Word, Word]:
    """Split s = y w with y the longest prefix ending in r (or empty).

    y ends at the last occurrence of r in s; the tail w then has no
    nonempty prefix in T(r), which is checked.
    """
    occ = find_occurrences(s, r) if r else []
    if not r:
        raise ValueError("right canonical factorization requires nonempty r")
    if not occ:
        return EMPTY, s
    cut = occ[-1] + len(r)
    y, tail = s[:cut], s[cut:]
    if not p_delta_membership(r, tail):
        raise AssertionError("tail after last occurrence has a prefix in T(r)")
    return y, tail


def left_canonical(r: Word, s: Word) -> tuple[Word, tuple[DeltaLetter, ...]]:
    """Split s = y r w around the first occurrence of r, with w over Delta_r.

    Requires s to end in r (so s is in the left ideal of words ending in
    r); raises NoOccurrence otherwise.  The part after the first
    occurrence lies in T(r) and comes back factorized.
    """
    if not r:
        raise ValueError("left canonical factorization requires nonempty r")
    if len(s) < len(r) or not ends_with(s, r):
        raise NoOccurrence(f"{''.join(s)!r} does not end in {''.join(r)!r}")
    first = find_occurrences(s, r)[0]
    y = s[:first]
    tail = s[first + len(r):]
    return y, delta_factorize(r, tail)


@dataclass(frozen=True)
class CompressionData:
    """Everything produced by one compression step."""

    base: Presentation
    r: Word
    u_prime: Word
    v_prime: Word
    u_factors: tuple[DeltaLetter, ...]
    v_factors: tuple[DeltaLetter, ...]
    lambda_r: frozenset[DeltaLetter]
    compressed: Presentation


def compress_step(P: Presentation, r: Word) -> CompressionData:
    """Compress P by the sealing word r.

    The compressed presentation lives on the letters of Delta_r occurring
    in the factorizations of the two relation tails, ordered by shortlex
    of their spellings, and is normalized like any presentation.
    """
    r = tuple(r)
    if not r or not (seals(r, P.u) and seals(r, P.v)):
        raise NotCompressing(f"{P.text(r)!r} does not seal both relation sides")
    u_prime = P.u[len(r):]
    v_prime = P.v[len(r):]
    u_factors = delta_factorize(r, u_prime)
    v_factors = delta_factorize(r, v_prime)
    lam = frozenset(u_factors) | frozenset(v_factors)
    ordered = sorted(lam, key=lambda d: P.shortlex_key(d.spelling))
    alphabet = tuple(d.name for d in ordered)
    compressed = make_presentation(alphabet,
                                   tuple(d.name for d in u_factors),
                                   tuple(d.name for d in v_factors))
    return CompressionData(P, r, u_prime, v_prime, u_factors, v_factors,
                           lam, compressed)


class Strategy(enum.Enum):
    SHORTEST_FIRST = "shortest-first"
    LONGEST_FIRST = "longest-first"


@dataclass(frozen=True)
class CompressionChain:
    steps: tuple[CompressionData, ...]
    terminal: Presentation


def compress_chain(P: Presentation, strategy: Strategy) -> CompressionChain:
    """Compress repeatedly until incompressible.

    SHORTEST_FIRST always picks the self-overlap-free compressing word;
    LONGEST_FIRST picks the longest and terminates after at most one
    step.  Both strategies reach the same terminal presentation.
    """
    steps: list[CompressionData] = []
    cur = P
    while True:
        cands = compressing_words(cur)
        if not cands:
            return CompressionChain(tuple(steps), cur)
        pick = cands[0] if strategy is Strategy.SHORTEST_FIRST else cands[-1]
        step = compress_step(cur, pick)
        steps.append(step)
        cur = step.compressed


def relabel_equivalent(P: Presentation, Q: Presentation) -> bool:
    """True when some alphabet bijection carries P's relation onto Q's.

    Alphabet sizes must match; the bijection may also swap the two sides
    when they have equal lengths, since normalization order can differ
    across labelings.
    """
    if len(P.alphabet) != len(Q.alphabet):
        return False
    targets = [(Q.u, Q.v)]
    if len(Q.u) == len(Q.v):
        targets.append((Q.v, Q.u))
    for image in permutations(Q.alphabet):
        phi = dict(zip(P.alphabet, image))

        def apply(w: Word) -> Word:
            return tuple(phi[x] for x in w)

        for tu, tv in targets:
            if apply(P.u) == tu and apply(P.v) == tv:
                return True
    return False
