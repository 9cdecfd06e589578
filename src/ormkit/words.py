"""Word primitives for one-relator monoid presentations.

A word is a tuple of letter names.  Letter names are single characters in
the file format, but compression introduces letters whose names are the
spellings of words over the previous alphabet (for example "ba"), so
nothing in this module assumes one-character names.

The central notion is *sealing*: a nonempty word r seals w when w both
starts and ends with r (the two occurrences may overlap, so "aba" seals
"ababa").  A word sealing both sides of the defining relation is a
*compressing word*; these form a chain under sealing, the shortest one is
self-overlap-free, and they drive the whole compression calculus.
"""

from __future__ import annotations

from functools import lru_cache, partial

Word = tuple[str, ...]

EMPTY: Word = ()


class PreconditionError(ValueError):
    """The input lies outside what a construction or check applies to."""


def word(text: str) -> Word:
    """Build a word from a string of single-character letters."""
    return tuple(text)


def spell(w: Word) -> str:
    """Flatten a word to the concatenation of its letter names."""
    return "".join(w)


def starts_with(w: Word, prefix: Word) -> bool:
    return w[: len(prefix)] == prefix


def ends_with(w: Word, suffix: Word) -> bool:
    if not suffix:
        return True
    return w[-len(suffix):] == suffix


def find_occurrences(haystack: Word, needle: Word) -> list[int]:
    """All start positions of needle in haystack, overlaps included.

    An empty needle occurs at every boundary position 0..len(haystack).
    """
    n = len(needle)
    if n == 0:
        return list(range(len(haystack) + 1))
    return [i for i in range(len(haystack) - n + 1) if haystack[i:i + n] == needle]


class Presentation:
    """A normalized one-relator presentation <alphabet | u = v>.

    Normalized means |v| <= |u|, with the shortlex tie-break u >= v when
    the lengths agree.  Shortlex uses the alphabet declaration order.
    Construct through :func:`make_presentation` to get normalization for
    free; the constructor itself rejects unnormalized input.  It works
    out its hash once, and a one-character code per letter, so that a
    word can be spelled as a string: each letter as itself when every
    letter is one character, else as a private-use code point.  Setting
    an attribute raises AttributeError; equality and the repr see only
    alphabet, u and v.
    """

    __slots__ = ("alphabet", "u", "v", "_index", "_hash",
                 # the code of each letter and the letter of each code,
                 # None when every letter is one character
                 "_codes", "_letters",
                 # u and v spelled
                 "_spelled")

    def __init__(self, alphabet: tuple[str, ...], u: Word, v: Word) -> None:
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("duplicate letters in alphabet")
        missing = (set(u) | set(v)) - set(alphabet)
        if missing:
            raise ValueError(f"letters not declared in alphabet: {sorted(missing)}")
        codes = letters = None
        if any(len(a) != 1 for a in alphabet):
            codes = {a: chr(0xE000 + i) for i, a in enumerate(alphabet)}
            letters = {c: a for a, c in codes.items()}
        init = partial(object.__setattr__, self)
        init("alphabet", alphabet)
        init("u", u)
        init("v", v)
        init("_index", {a: i for i, a in enumerate(alphabet)})
        init("_hash", hash((alphabet, u, v)))
        init("_codes", codes)
        init("_letters", letters)
        init("_spelled", tuple(
            "".join(w if codes is None else map(codes.__getitem__, w))
            for w in (u, v)))
        if self.shortlex_key(u) < self.shortlex_key(v):
            raise ValueError("presentation not normalized: need u >= v in shortlex")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if type(other) is not Presentation:
            return NotImplemented
        return (self.alphabet, self.u, self.v) == (other.alphabet, other.u, other.v)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Presentation(alphabet={self.alphabet!r}, u={self.u!r}, v={self.v!r})"

    def __reduce__(self):
        return Presentation, (self.alphabet, self.u, self.v)

    def shortlex_key(self, w: Word) -> tuple:
        idx = self._index
        return (len(w), tuple(idx[x] for x in w))

    def letter_counts(self, w: Word) -> tuple[int, ...]:
        return tuple(map(w.count, self.alphabet))

    def text(self, w: Word) -> str:
        """w for display; the empty word is ε."""
        if not w:
            return "ε"
        # multi-character letter names would be ambiguous when flattened
        return ("" if self._codes is None else " ").join(w)

    def describe(self) -> str:
        lhs = self.text(self.u) if self.u else "1"
        rhs = self.text(self.v) if self.v else "1"
        return f"<{' '.join(self.alphabet)} | {lhs} = {rhs}>"


def make_presentation(alphabet: tuple[str, ...] | list[str],
                      lhs: Word, rhs: Word) -> Presentation:
    """Normalize and build a presentation from an unordered relation pair."""
    alphabet = tuple(alphabet)
    for w in (lhs, rhs):
        for x in w:
            if x not in alphabet:
                raise ValueError(f"letter {x!r} not declared in alphabet")
    # the trivial relation on the alphabet supplies its shortlex order
    key = Presentation(alphabet, EMPTY, EMPTY).shortlex_key
    if key(lhs) >= key(rhs):
        return Presentation(alphabet, tuple(lhs), tuple(rhs))
    return Presentation(alphabet, tuple(rhs), tuple(lhs))


def is_sof(r: Word) -> bool:
    """True when no proper nonempty prefix of r is also a suffix of r.

    Raises on the empty word, for which the notion is not defined.
    """
    if not r:
        raise ValueError("self-overlap-freeness is undefined for the empty word")
    return all(r[:k] != r[-k:] for k in range(1, len(r)))


def seals(r: Word, w: Word) -> bool:
    """True when nonempty r is both a prefix and a suffix of w.

    The occurrences may overlap: ("a","b","a") seals ("a","b","a","b","a").
    """
    if not r:
        raise ValueError("only nonempty words can seal")
    return len(r) <= len(w) and starts_with(w, r) and ends_with(w, r)


@lru_cache(maxsize=1024)
def compressing_words(P: Presentation) -> tuple[Word, ...]:
    """All nonempty words sealing both sides of the relation, shortest first.

    Any such word is a prefix (and suffix) of the shorter side v, so only
    prefixes of v need checking.  The result is empty exactly when P is
    incompressible; in particular whenever v is empty.  The words form a
    chain under sealing and the first one is self-overlap-free.  Cached:
    each presentation's tuple is computed once and shared by all callers.
    """
    out = []
    for k in range(1, len(P.v) + 1):
        r = P.v[:k]
        if seals(r, P.u) and seals(r, P.v):
            out.append(r)
    return tuple(out)


def proper_power_root(w: Word) -> tuple[Word, int]:
    """Write w as p^k with k maximal; returns (p, k).

    k >= 2 exactly when w is a proper power.  Raises on the empty word.
    """
    n = len(w)
    if n == 0:
        raise ValueError("the empty word has no power root")
    for d in range(1, n):
        if n % d == 0 and w[:d] * (n // d) == w:
            return w[:d], n // d
    return w, 1
