"""What the test modules share: the fixture directory, the running
example presentations, a word enumerator written independently of the
package's, a one-step rewriter and the union-find congruence oracle
built on it, both apart from wp.neighbors, which decides replay and
grows every closure, and a reference for the reduction by the single
rule."""

from __future__ import annotations

from itertools import product
from pathlib import Path

from ormkit.words import make_presentation, word

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def aba_aca():
    return make_presentation(("a", "b", "c"), word("aba"), word("aca"))


def big_example():
    return make_presentation(("a", "b"), word("ababbaba"), word("ababa"))


def idempotent():
    return make_presentation(("a",), word("aa"), word("a"))


def all_words(alphabet, max_len: int) -> list[tuple[str, ...]]:
    """Every word over alphabet of length at most max_len, shortest first."""
    return [w for n in range(max_len + 1)
            for w in product(tuple(alphabet), repeat=n)]


class UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def one_step(P, w) -> set[tuple[str, ...]]:
    """Every word one application of u = v away from w: each slice of w
    that spells a side, replaced by the other side.  An empty side is
    the empty slice at every position; u = v gives no step."""
    out = set()
    if P.u == P.v:
        return out
    for src, dst in ((P.u, P.v), (P.v, P.u)):
        n = len(src)
        for i in range(len(w) - n + 1):
            if w[i:i + n] == src:
                out.add(w[:i] + dst + w[i + n:])
    return out


def brute_partition(P, radius, reach=None):
    """Union-find over the words of length at most reach (default radius).

    Exact on the ball when congruent ball words are joined through words
    of length at most reach, as they are with reach = radius for
    length-preserving relations.
    """
    assert reach is not None or len(P.u) == len(P.v)
    uf = UnionFind()
    for w in all_words(P.alphabet, radius if reach is None else reach):
        uf.find(w)
        for m in one_step(P, w):
            uf.union(w, m)
    return uf


def reference_reduce(P, w, starts=None):
    """The irreducible descendant of w under u -> v by one left-to-right
    stack pass, with the position of each rewrite appended to starts as
    wp._reduce appends it.

    Letters move from the input to the output, and whenever the output
    ends in u, u is popped and v pushed back onto the input.  The output
    never contains u, so each new occurrence ends at its top, and each
    rewrite is at the leftmost occurrence of u.
    """
    u, v = P.u, P.v
    if u == v:
        return tuple(w)
    n, last = len(u), u[-1]
    out = []
    todo = list(reversed(w))
    while todo:
        x = todo.pop()
        out.append(x)
        if x == last and len(out) >= n and tuple(out[-n:]) == u:
            del out[-n:]
            todo.extend(reversed(v))
            if starts is not None:
                starts.append(len(out))
    return tuple(out)
