"""Independent reference for the word problem of <A | u = v>.

Normal forms come from the single rewriting rule u -> v, which is
shortlex-decreasing because presentations are normalized (u >= v in
shortlex), so rewriting terminates.  When every critical pair resolves
the rule is locally confluent, hence confluent by Newman's lemma, and
its normal forms decide the word problem exactly.  With one rule the
only critical pairs come from the proper self-overlaps of u; a Rewriter
refuses to exist unless all of them resolve.  A degenerate relation
u = v is the identity.

Nothing here imports ormkit: the reference shares no code with the
program it checks.  Words are tuples of single-character letters, as in
the .orm files; internally they are joined into strings.
"""

from __future__ import annotations

from itertools import product


class ReferenceUnavailable(Exception):
    """The single rule is not a complete rewriting system, so its normal
    forms cannot serve as a reference."""


def _key(order: dict[str, int], w: str) -> tuple:
    return (len(w), tuple(order[x] for x in w))


class Rewriter:
    """Normal forms under the rule u -> v over a declared alphabet."""

    def __init__(self, alphabet, u, v):
        self.alphabet = tuple(alphabet)
        if any(len(a) != 1 for a in self.alphabet):
            raise ReferenceUnavailable("letters must be single characters")
        self.u, self.v = "".join(u), "".join(v)
        self.identity = self.u == self.v
        order = {a: i for i, a in enumerate(self.alphabet)}
        if not self.identity and _key(order, self.u) <= _key(order, self.v):
            raise ReferenceUnavailable(f"{self.u} -> {self.v} is not shortlex-decreasing")
        unresolved = self._unresolved_pairs()
        if unresolved:
            raise ReferenceUnavailable(
                f"critical pairs of {self.u} -> {self.v} do not resolve: {unresolved}")

    def _unresolved_pairs(self) -> list[str]:
        if self.identity:
            return []
        u, v = self.u, self.v
        bad = []
        for k in range(1, len(u)):
            if u[-k:] == u[:k]:
                # u + u[k:] rewrites at either occurrence of u
                if self._nf(v + u[k:]) != self._nf(u[:-k] + v):
                    bad.append(u + u[k:])
        return bad

    def _nf(self, s: str) -> str:
        if self.identity:
            return s
        u, v = self.u, self.v
        while u in s:
            s = s.replace(u, v, 1)
        return s

    def nf(self, w) -> tuple[str, ...]:
        return tuple(self._nf("".join(w)))

    def equal(self, w1, w2) -> bool:
        return self._nf("".join(w1)) == self._nf("".join(w2))

    def neighbors(self, w) -> list[tuple[str, ...]]:
        """Words one application of u = v away, in both directions,
        sorted so that seeded choices among them are reproducible."""
        if self.identity:
            return []
        s = "".join(w)
        out = set()
        for src, dst in ((self.u, self.v), (self.v, self.u)):
            for i in range(len(s) - len(src) + 1):
                if s.startswith(src, i):
                    out.add(s[:i] + dst + s[i + len(src):])
        return [tuple(x) for x in sorted(out)]

    def is_step(self, x, y) -> bool:
        """True when y arises from x by one application of u = v."""
        return "".join(y) in {"".join(n) for n in self.neighbors(x)}

    def replays(self, path) -> bool:
        return bool(path) and all(self.is_step(a, b) for a, b in zip(path, path[1:]))

    def irreducible_words(self, max_len: int) -> list[tuple[str, ...]]:
        """All normal forms of length at most max_len.  An irreducible
        word extends to an irreducible word unless u becomes a suffix."""
        if self.identity:
            return [t for n in range(max_len + 1)
                    for t in product(self.alphabet, repeat=n)]
        level = [""]
        out = [()]
        for _ in range(max_len):
            level = [w + a for w in level for a in self.alphabet
                     if not (w + a).endswith(self.u)]
            out.extend(tuple(w) for w in level)
        return out

    def compressing_words(self) -> list[tuple[str, ...]]:
        """Nonempty words that are a prefix and a suffix of both sides."""
        u, v = self.u, self.v
        return [tuple(v[:k]) for k in range(1, len(v) + 1)
                if u.startswith(v[:k]) and u.endswith(v[:k]) and v.endswith(v[:k])]
