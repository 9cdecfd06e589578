"""Compression calculus for one-relator presentations.

For a word r sealing both sides of the relation, the set
T(r) = {w : r w ends with r} is a free submonoid (left unitary in the
ambient free monoid), freely generated by the prefix code Delta_r of its
nonzero-length irreducible elements.  Every member of T(r) factorizes
uniquely over Delta_r, cut after every prefix w[:k] lying in T(r), that
is wherever r occurs at k in r w, so one occurrence scan factorizes it.
A factorization is the tuple of its Delta_r letters, each a plain word
over the base alphabet.

Compressing the relation u = r u', v = r v' rewrites both tails over
Delta_r and keeps only the letters that actually occur; the result is a
presentation with a strictly shorter relation.  Iterating reaches an
incompressible presentation, and choosing the longest compressing word
gets there in a single step.  The terminal does not depend on the
strategy: each compressed letter is named by spell() of its Delta_r
word, which makes iterated and one-step compression produce literally
equal presentations.  Distinct letters get distinct names, since the
letters in play form a prefix code and so decode uniquely.
"""

from __future__ import annotations

import enum
from functools import lru_cache

from .records import record
from .words import (
    Presentation,
    PreconditionError,
    Word,
    compressing_words,
    ends_with,
    find_occurrences,
    make_presentation,
    seals,
    spell,
)


class NotInT(ValueError):
    """Word is not a member of T(r)."""


class NotCompressing(PreconditionError):
    """The given word does not seal both sides of the relation."""


def t_membership(r: Word, w: Word) -> bool:
    """True when w is in T(r), i.e. r w ends with r.  T(r) contains ε."""
    if not r:
        raise ValueError("T(r) requires nonempty r")
    return ends_with(r + w, r)


def delta_cuts(r: Word, w: Word) -> list[int]:
    """Every k with w[:k] in T(r), ascending: the starts of r in r w.

    w is in T(r) when the last is len(w), and by left unitarity its
    Delta_r letters are then the pieces between consecutive cuts."""
    if not r:
        raise ValueError("T(r) requires nonempty r")
    return find_occurrences(r + w, r)


def delta_factorize(r: Word, w: Word) -> tuple[Word, ...]:
    """Unique factorization of w over the prefix code Delta_r, as the
    pieces of w cut at every prefix lying in T(r).  Raises NotInT when w
    is not in T(r).
    """
    cuts = delta_cuts(r, w)
    if cuts[-1] != len(w):
        raise NotInT(f"{''.join(w)!r} is not in T({''.join(r)!r})")
    return tuple(w[a:b] for a, b in zip(cuts, cuts[1:]))


class CompressionData(record("CompressionData", "r compressed spellings")):
    """Everything produced by one compression step: the sealing word r
    and the compressed presentation.

    Each letter of the compressed alphabet is named by spell() of its
    Delta_r word, and spellings maps each name back to its spelling
    over the base alphabet.
    """

    __slots__ = ()


def syllables(C: CompressionData, w: Word, ends: list[int]) -> tuple[list, list]:
    """The maximal runs of C's compressed letters among the Delta letters
    between consecutive ends of w, each as (names, start, end) in w, and
    the spellings of the outside letters between them; n separators give
    n+1 runs, empties included."""
    runs, seps, cur, start = [], [], [], ends[0]
    for a, b in zip(ends, ends[1:]):
        name = "".join(w[a:b])
        if name in C.spellings:
            cur.append(name)
        else:
            runs.append((tuple(cur), start, a))
            seps.append(w[a:b])
            cur, start = [], b
    runs.append((tuple(cur), start, ends[-1]))
    return runs, seps


@lru_cache(maxsize=1024)
def compress_step(P: Presentation, r: Word) -> CompressionData:
    """Compress P by the sealing word r.

    The compressed presentation lives on the letters of Delta_r occurring
    in the factorizations of the two relation tails, ordered by shortlex
    of their spellings, and is normalized like any presentation.  Cached:
    the result is frozen, so every caller shares one per (P, r).
    """
    if not r or not (seals(r, P.u) and seals(r, P.v)):
        raise NotCompressing(f"{P.text(r)!r} does not seal both relation sides")
    u_factors = delta_factorize(r, P.u[len(r):])
    v_factors = delta_factorize(r, P.v[len(r):])
    letters = sorted({*u_factors, *v_factors}, key=P.shortlex_key)
    compressed = make_presentation(tuple(map(spell, letters)),
                                   tuple(map(spell, u_factors)),
                                   tuple(map(spell, v_factors)))
    return CompressionData(r, compressed, {spell(d): d for d in letters})


class Strategy(enum.Enum):
    SHORTEST_FIRST = "shortest-first"
    LONGEST_FIRST = "longest-first"


class CompressionChain(record("CompressionChain", "steps terminal")):
    __slots__ = ()


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
