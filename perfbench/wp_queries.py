"""wp-queries: single word-pair queries against the two bounded deciders.

Only the wp layer runs, one fresh query at a time with no cache.  Each
round holds one query per (fixture, kind, decider) cell, 40 in all, in
seeded order, so every run has exactly the same mix and only the words
change with the seed.

- equal: a random word of 5-10 letters with one relation side planted
  in it, and the end of a 2-8 step rewrite walk from it, staying within
  5-10 letters.
- near-miss: the same walk plus one adjacent swap that the reference
  proves takes the pair out of the class.  Where no swap can do that
  (one-letter alphabets, ab = ba) any swap is kept, or none.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import product
from typing import NamedTuple

from common import Context, Outcome

BUDGET_WORDS = 5000
MIN_LEN, MAX_LEN = 5, 10
MIN_STEPS, MAX_STEPS = 2, 8
KINDS = ("equal", "near-miss")
DECIDERS = ("equal_bounded", "equal_via_compression")
TRIES = 50


class Query(NamedTuple):
    fixture: str
    kind: str
    decider: str
    w1: tuple
    w2: tuple
    truth_equal: bool


class WpQueries:
    op_name = "queries"
    work_name = "decided_queries_per_s"

    def __init__(self, ctx: Context, ormkit):
        self.ctx = ctx
        self.wp = ormkit.wp
        self.budget = ormkit.wp.OracleBudget(max_words=BUDGET_WORDS)

    def make_round(self, rng: random.Random) -> list[Query]:
        cells = list(product(sorted(self.ctx.fixtures), KINDS, DECIDERS))
        rng.shuffle(cells)
        return [self._query(rng, *cell) for cell in cells]

    def _walk(self, rng: random.Random, ref) -> tuple[tuple, tuple]:
        for _ in range(TRIES):
            w = tuple(rng.choice(ref.alphabet)
                      for _ in range(rng.randint(MIN_LEN, MAX_LEN)))
            if ref.identity:
                return w, w
            # plant a relation side so that the walk can start
            side = tuple(rng.choice([s for s in (ref.u, ref.v) if s and len(s) <= len(w)]))
            i = rng.randint(0, len(w) - len(side))
            cur = w = w[:i] + side + w[i + len(side):]
            for _ in range(rng.randint(MIN_STEPS, MAX_STEPS)):
                steps = [n for n in ref.neighbors(cur) if MIN_LEN <= len(n) <= MAX_LEN]
                if not steps:
                    break
                cur = rng.choice(steps)
            else:
                return w, cur
        raise RuntimeError(f"no {MIN_STEPS}-step walk within length bounds "
                           f"over {ref.alphabet}")

    def _query(self, rng, fixture: str, qkind: str, decider: str) -> Query:
        ref = self.ctx.refs[fixture]
        w1, w2 = self._walk(rng, ref)
        if qkind == "near-miss":
            fallback = None
            for _ in range(TRIES):
                swaps = [j for j in range(len(w2) - 1) if w2[j] != w2[j + 1]]
                rng.shuffle(swaps)
                for j in swaps:
                    x = w2[:j] + (w2[j + 1], w2[j]) + w2[j + 2:]
                    if not ref.equal(w1, x):
                        return Query(fixture, qkind, decider, w1, x, False)
                    fallback = fallback or (w1, x)
                w1, w2 = self._walk(rng, ref)
            w1, w2 = fallback or (w1, w2)
        return Query(fixture, qkind, decider, w1, w2, ref.equal(w1, w2))

    def run(self, q: Query):
        decide = getattr(self.wp, q.decider)
        return decide(self.ctx.fixtures[q.fixture], q.w1, q.w2, self.budget)

    def check(self, q: Query, verdict) -> Outcome:
        ref = self.ctx.refs[q.fixture]
        got = type(verdict).__name__  # by name, to survive refactors of wp
        if got == "Unknown":
            return Outcome(decided=False, note="Unknown, reference says "
                           + ("Equal" if q.truth_equal else "Distinct"))
        if got == "Equal":
            path = tuple(tuple(w) for w in verdict.path)
            if not q.truth_equal:
                return Outcome(True, failed=True, note="Equal, reference says Distinct")
            if not path or path[0] != q.w1 or path[-1] != q.w2:
                return Outcome(True, failed=True, note="Equal path misses its endpoints")
            if not ref.replays(path):
                return Outcome(True, failed=True, note="Equal path does not replay")
            return Outcome(True, work=1)
        if got == "Distinct":
            if q.truth_equal:
                return Outcome(True, failed=True, note="Distinct, reference says Equal")
            return Outcome(True, work=1)
        return Outcome(False, failed=True, note=f"unexpected verdict {got}")

    def describe(self, q: Query) -> str:
        return f"{q.decider} {q.fixture} {''.join(q.w1)} {''.join(q.w2)}"

    def key(self, q: Query, o: Outcome) -> tuple:
        return q.fixture, q.kind, q.decider, q.truth_equal, o.decided

    def mix(self, counts: Counter) -> dict:
        n = sum(counts.values())

        def shares(field: int) -> dict:
            by: Counter = Counter()
            for k, c in counts.items():
                by[k[field]] += c
            return {name: round(c / n, 4) for name, c in sorted(by.items())}

        unknown: Counter = Counter()
        for (fixture, _, _, truth, decided), c in counts.items():
            if not decided:
                unknown[fixture, "Equal" if truth else "Distinct"] += c
        return {
            "budget": {"max_words": BUDGET_WORDS, "max_len": None},
            "fixture_shares": shares(0),
            "kind_shares": shares(1),
            "decider_shares": shares(2),
            "reference_equal_share": shares(3).get(True, 0.0),
            "undecided": {f"{f} (reference {t})": c for (f, t), c in sorted(unknown.items())},
        }
