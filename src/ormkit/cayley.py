"""Finite balls of the right Cayley graph, 2-cell attachment, exact
integer 2-cycle bases, the vertex compression map, and structural checks.

A ball of radius r has one vertex per monoid element that some word of
length at most r represents, and one builder makes it for every rule,
breadth first: each new vertex is an earlier vertex followed by one
letter, and each edge leads from a vertex w with letter x to the class
of w·x.  When the rule u -> v is complete, the vertices are the
irreducible words of length at most r, a prefix-closed set, and each
edge target is a normal form.  Every vertex carries its state in the
Knuth-Morris-Pratt automaton of u, so one table step says whether the
vertex followed by a letter ends in u; only those words are reduced,
every other one is a new vertex or lies beyond the radius, and the
budget's max_words bounds the number of vertices.  A vertex is found
from any word by reading the word's letters along the edges from the
empty word.

Every other class lookup (w·x on an incomplete rule, and the keys of
the structure checks) asks one Oracle per presentation: rep for the
class's shortlex-least member, None when undecided, and equal for a
certified verdict.  On an incomplete rule max_words bounds the number of
words of length at most r; an undecided w·x joins the first vertex
proven Equal to it, so a ball is never over-merged, and if any needed
verdict comes back Unknown the ball is marked approximate instead of
guessing.  The pair checks key each witness once and count pairs from
the key groups, skipping a pair with an undecided key, so their cost
follows the witnesses and the collisions, not the pairs; the two witness
checks replay a path built from the relation instead.  Cells can be
attached two ways: one cell per vertex tracing the full relation, or
cells only at vertices whose representative ends in the longest
compressing word, tracing the relation with that word stripped from the
front of both sides; a boundary is traced through one successor list
per letter, indexed by vertex.  A ball stores its vertices, edges and
cells once: the boundary matrices d1 and d2, sparse integer
dictionaries, and the interior mask are views derived from them on
first read.  The 2-cycle kernel reads the columns of the interior cells
straight from their boundaries; kernels are computed exactly over
rationals, then scaled to primitive integer vectors.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import comb, gcd, lcm

from .classify import is_subspecial
from .compress import (
    CompressionData,
    DeltaLetter,
    NotCompressing,
    compress_step,
    delta_factorize,
    left_canonical,
    right_canonical,
    syllables,
    t_membership,
)
from .words import (
    PreconditionError,
    Presentation,
    Word,
    compressing_words,
    ends_with,
    find_occurrences,
    starts_with,
)
from .wp import (
    DEFAULT_BUDGET,
    Equal,
    Oracle,
    OracleBudget,
    Unknown,
    is_complete,
    normal_form,
    replay,
)


class BudgetExceeded(Exception):
    """Building the ball would overrun the word budget: its vertex count
    on a complete rule, its count of words otherwise."""


class NotCompressible(PreconditionError):
    """Ideal cells need a compressing word and this relation has none."""


class CellVariant(str, Enum):
    FULL_RELATION = "FullRelation"
    COMPRESSED_IDEAL = "CompressedIdeal"


@dataclass(frozen=True)
class TwoCell:
    """A 2-cell: boundary reads one relation side out of the base vertex
    and the other side back, as a signed edge sequence."""

    base_vertex: int
    variant: CellVariant
    boundary_edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CayleyBall:
    """A finite piece of the Cayley complex.  It stores its vertices,
    edges and cells; the boundary matrices d1 and d2 and the interior
    mask are views derived from them on first read."""

    presentation: Presentation
    radius: int
    vertices: tuple[Word, ...]
    edges: tuple[tuple[int, str, int], ...]
    cells: tuple[TwoCell, ...]
    approximate: bool

    @cached_property
    def d1(self) -> dict[tuple[int, int], int]:
        """Sparse (vertex, edge) boundary of the edges; a loop has none."""
        d1: dict[tuple[int, int], int] = {}
        for e, (src, _, dst) in enumerate(self.edges):
            if src != dst:
                d1[(dst, e)] = 1
                d1[(src, e)] = -1
        return d1

    @cached_property
    def d2(self) -> dict[tuple[int, int], int]:
        """Sparse (edge, cell) boundary of the cells, column by column."""
        return {(e, c): val for c, cell in enumerate(self.cells)
                for e, val in _column(cell).items()}

    @cached_property
    def interior_mask(self) -> tuple[bool, ...]:
        """Vertices far enough inside that a cell based there stays in
        the ball: length at most radius - max(|u|, |v|)."""
        P = self.presentation
        margin = self.radius - max(len(P.u), len(P.v))
        return tuple(len(rep) <= margin for rep in self.vertices)

    @cached_property
    def _successors(self) -> dict[str, list[tuple[int, int] | None]]:
        """succ[x][i]: (edge, target) of the edge reading x out of
        vertex i, None when that edge leaves the ball."""
        succ: dict[str, list[tuple[int, int] | None]] = {
            x: [None] * len(self.vertices) for x in self.presentation.alphabet}
        for e, (s, x, t) in enumerate(self.edges):
            succ[x][s] = (e, t)
        return succ

    def vertex_of(self, w: Word) -> int | None:
        """Index of the vertex of w, read along the edges from vertex 0;
        None when |w| > radius or w has a letter outside the alphabet."""
        rows = [self._successors.get(x) for x in w]
        if len(rows) > self.radius or None in rows:
            return None
        walked = _trace(rows, 0)
        return None if walked is None else walked[1]


def _compressing_words(P: Presentation) -> tuple[Word, ...]:
    """compressing_words(P), raising NotCompressible when there are none."""
    cands = compressing_words(P)
    if not cands:
        raise NotCompressible(f"{P.describe()} has no compressing word")
    return cands


def _ball_word_count(k: int, max_len: int) -> int:
    if k == 1:
        return max_len + 1
    return (k ** (max_len + 1) - 1) // (k - 1)


def enumerate_classes(
    oracle: Oracle, max_len: int,
) -> tuple[tuple[Word, ...], dict[Word, int], bool]:
    """Partition all words of length at most max_len into congruence
    classes of oracle.P.

    Words are visited in shortlex order, so each class's least member,
    its representative, comes first.  A word whose representative
    oracle.rep decides opens a new class when it is that representative
    and otherwise joins the representative's class; the partition is
    exact when every class is decided.  An undecided word falls back to
    pairwise oracle verdicts against existing representatives, and any
    Unknown verdict flips the approximate flag.
    """
    P = oracle.P
    if _ball_word_count(len(P.alphabet), max_len) > oracle.budget.max_words:
        raise BudgetExceeded(f"{len(P.alphabet)} letters at radius {max_len}")
    reps: list[Word] = []
    assign: dict[Word, int] = {}
    approximate = False
    for w in _all_words(P.alphabet, max_len):
        idx, unknown = _locate(oracle, w, assign, reps)
        approximate = approximate or unknown
        if idx is None:
            idx = len(reps)
            reps.append(w)
        assign[w] = idx
    return tuple(reps), assign, approximate


def _locate(oracle: Oracle, w: Word, assign: dict[Word, int],
            reps: Sequence[Word]) -> tuple[int | None, bool]:
    """Index of w's class among the classes placed so far, whose
    representatives are reps; assign indexes every word placed.

    Returns (index or None, sawUnknown).  A decided representative is
    the shortest member of its class, so the class is placed exactly
    when its representative is.  An undecided word takes the first
    representative proven Equal to it; None with sawUnknown False is a
    proof that no placed class holds w.
    """
    if w in assign:
        return assign[w], False
    rep = oracle.rep(w)
    if rep is not None:
        return assign.get(rep), False
    unknown = False
    for i, r in enumerate(reps):
        verdict = oracle.equal(w, r)
        if isinstance(verdict, Equal):
            return i, unknown
        if isinstance(verdict, Unknown):
            unknown = True
    return None, unknown


def _ball(oracle: Oracle, radius: int, sphere: bool,
          ) -> tuple[tuple[Word, ...], list[tuple[int, str, int]], bool]:
    """Vertices, edges and approximate flag of the ball of oracle.P.

    Breadth first: the vertex list grows while it is read, vertex w with
    letter x leads to the class of w·x, and a w·x of length at most
    radius whose class holds no vertex yet becomes a new vertex.  With
    sphere False the edges out of the vertices of length radius are not
    located, which leaves the vertex list as it is.

    On a complete rule the classes are normal forms and the oracle is
    not consulted.  Each vertex carries its state in the KMP automaton
    of u: the length of the longest suffix of w that is a proper prefix
    of u.  One table step from that state says whether w·x ends in u.  A
    vertex is irreducible, so w·x is irreducible exactly when it does
    not; then it is a new vertex, or lies beyond the radius and is
    dropped unbuilt.  Irreducible words are prefix-closed, and w is the
    only vertex with a letter leading to w·x without a reduction, so w·x
    has not been placed before.  The degenerate rule u = v rewrites
    nothing, so its automaton never matches.

    Only when w·x ends in u is the reduction run, resuming after the
    irreducible prefix w, and its target is always indexed already.
    Vertices are read in shortlex order and letters in alphabet order,
    so new vertices are appended in shortlex order, and while w is read
    every normal form of length at most |w| is indexed, and so is every
    normal form y·z of length |w| + 1 with y before w, or y = w and z
    before x.  The rule is shortlex-decreasing, so the target is
    shortlex-less than w·x: shorter, hence indexed, or of length |w| + 1
    and then one of those.  It can be that long only when |u| = |v|,
    and it lies beyond the radius only when |w| = radius; those edges
    are skipped without reducing.  Each vertex is the shortlex-least
    word of its class, and max_words bounds the number of vertices.  A
    length cap below the last vertex followed by a letter, the longest
    word the build reads with sphere True, raises BudgetTooShort either
    way.

    On any other rule the automaton has one state that always matches,
    and every w·x is placed by _locate among the vertices so far, all
    shortlex-less than w·x; an Unknown verdict marks the ball
    approximate.  max_words bounds the count of words of length at most
    radius, and the oracle raises BudgetTooShort on a word read beyond
    its length cap.
    """
    P, budget, alphabet = oracle.P, oracle.budget, oracle.P.alphabet
    complete = is_complete(P)
    if not complete and (_ball_word_count(len(alphabet), radius)
                         > budget.max_words):
        raise BudgetExceeded(f"{len(alphabet)} letters at radius {radius}")
    if not complete or P.u == P.v:
        # one state, a match on every letter of an incomplete rule and on
        # none of the degenerate rule
        accept, step = int(complete), [[0] * len(alphabet)]
    else:
        # step[s][k]: state after letter k from state s; len(u) is a match
        accept, step, restart = len(P.u), [], 0
        for s, y in enumerate(P.u):
            k = alphabet.index(y)
            row = list(step[restart]) if s else [0] * len(alphabet)
            row[k] = s + 1
            step.append(row)
            if s:
                restart = step[restart][k]
    stop = not sphere or complete and len(P.u) == len(P.v)
    vertices: list[Word] = [()]
    states = [0]
    index: dict[Word, int] = {(): 0}
    edges: list[tuple[int, str, int]] = []
    approximate = False
    for i, w in enumerate(vertices):
        inside = len(w) < radius
        if not inside and stop:
            break
        for x, t in zip(alphabet, step[states[i]]):
            j = None
            if t == accept and complete:
                j = index.get(normal_form(P, (x,), w))
                if j is None:
                    raise AssertionError("a reduced edge target is not indexed")
            elif t == accept:
                j, unknown = _locate(oracle, w + (x,), index, vertices)
                approximate = approximate or unknown
            if j is None:
                if not inside:
                    continue
                j = len(vertices)
                if j >= budget.max_words:
                    raise BudgetExceeded(f"more than {budget.max_words} "
                                         f"vertices at radius {radius}")
                target = w + (x,)
                index[target] = j
                vertices.append(target)
                states.append(t)
            edges.append((i, x, j))
    if complete:
        budget.cap_for(P, vertices[-1] + alphabet[:1])
    return tuple(vertices), edges, approximate


def ball_vertices(oracle: Oracle, radius: int) -> tuple[Word, ...]:
    """The class representatives of the ball, in shortlex order: the
    vertices of build_ball, built without locating the edges out of the
    sphere.  max_words caps them as it caps build_ball; on an incomplete
    rule the longest word read, which a length cap must not be below,
    is then a sphere vertex."""
    return _ball(oracle, radius, sphere=False)[0]


def build_ball(P: Presentation, radius: int,
               budget: OracleBudget | None = None) -> CayleyBall:
    """Ball of congruence classes of all words of length at most radius.

    Edges carry right multiplication by a letter and are included
    whenever both endpoint classes are present.  The ball is built
    breadth first (see _ball): exact on a complete rule, where the
    budget's max_words caps its vertices; otherwise placed through one
    Oracle, where max_words caps the count of words of length at most
    radius.  Either way a length cap below the longest word the build
    reads raises BudgetTooShort.  Cells start empty; see attach_cells.
    """
    reps, edges, approximate = _ball(Oracle(P, budget or DEFAULT_BUDGET),
                                     radius, sphere=True)
    return CayleyBall(presentation=P, radius=radius, vertices=reps,
                      edges=tuple(edges), cells=(), approximate=approximate)


def _trace(rows: list[list[tuple[int, int] | None]],
           base: int) -> tuple[list[int], int] | None:
    """Follow a label from base, given as the successor list of each of
    its letters; None if any edge is missing from the ball."""
    cur = base
    path: list[int] = []
    for row in rows:
        hop = row[cur]
        if hop is None:
            return None
        e, cur = hop
        path.append(e)
    return path, cur


def attach_cells(ball: CayleyBall, variant: CellVariant) -> CayleyBall:
    """Attach 2-cells of the requested variant; d2 is read from them.

    FullRelation puts a cell at every vertex whose whole boundary path
    stays in the ball.  CompressedIdeal strips the longest compressing
    word z from both relation sides and puts cells only at vertices
    whose representative ends in z.
    """
    P = ball.presentation
    if variant is CellVariant.COMPRESSED_IDEAL:
        z = _compressing_words(P)[-1]
        side_u, side_v = P.u[len(z):], P.v[len(z):]
        bases = [i for i, rep in enumerate(ball.vertices)
                 if ends_with(rep, z)]
    else:
        side_u, side_v = P.u, P.v
        bases = list(range(len(ball.vertices)))
    succ = ball._successors
    rows_u = [succ[x] for x in side_u]
    rows_v = [succ[x] for x in side_v]
    cells: list[TwoCell] = []
    for base in bases:
        walked_u = _trace(rows_u, base)
        if walked_u is None:
            continue
        walked_v = _trace(rows_v, base)
        if walked_v is None:
            continue
        u_edges, end_u = walked_u
        v_edges, end_v = walked_v
        if end_u != end_v:
            if ball.approximate:
                continue
            raise AssertionError("boundary paths disagree in an exact ball")
        boundary = tuple((e, 1) for e in u_edges)
        boundary += tuple((e, -1) for e in reversed(v_edges))
        cells.append(TwoCell(base, variant, boundary))
    return replace(ball, cells=tuple(cells))


def _column(cell: TwoCell) -> dict[int, int]:
    """The cell's column of d2: its signed boundary edges summed, with
    the zeros dropped."""
    col: dict[int, int] = {}
    for e, sign in cell.boundary_edges:
        col[e] = col.get(e, 0) + sign
        if not col[e]:
            del col[e]
    return col


# ------------------------------------------------------- exact 2-cycles


def _axpy(x: dict[int, Fraction], y: dict[int, Fraction],
          f: Fraction) -> dict[int, Fraction]:
    out = dict(x)
    for k, v in y.items():
        nv = out.get(k, Fraction(0)) - f * v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def _primitive(vec: dict[int, Fraction]) -> dict[int, int]:
    den = lcm(*(c.denominator for c in vec.values()))
    ints = {k: int(c * den) for k, c in vec.items()}
    g = gcd(*(abs(v) for v in ints.values()))
    ints = {k: v // g for k, v in ints.items()}
    if ints[min(ints)] < 0:
        ints = {k: -v for k, v in ints.items()}
    return ints


def _integer_kernel(columns: list[dict[int, int]]) -> list[dict[int, int]]:
    """Kernel basis of the sparse integer matrix given column by column.

    Companion-vector Gaussian elimination over exact rationals; every
    dependent column yields one kernel vector, normalized to a primitive
    integer vector whose first nonzero entry is positive.
    """
    pivots: dict[int, tuple[dict[int, Fraction], dict[int, Fraction]]] = {}
    basis: list[dict[int, int]] = []
    for j, col in enumerate(columns):
        vec = {r: Fraction(c) for r, c in col.items() if c}
        comp = {j: Fraction(1)}
        while vec:
            r = min(vec)
            if r not in pivots:
                pivots[r] = (vec, comp)
                break
            pv, pc = pivots[r]
            f = vec[r] / pv[r]
            vec = _axpy(vec, pv, f)
            comp = _axpy(comp, pc, f)
        else:
            basis.append(_primitive(comp))
    return basis


def two_cycle_basis(ball: CayleyBall) -> list[dict[int, int]]:
    """Integer kernel basis of d2 restricted to interior cells.

    A cell is interior when its base vertex is, which by the interior
    margin keeps the whole boundary path inside the ball.  The kernel
    reads each interior cell's column from its boundary, not from the
    d2 view.  Vectors map cell indices to coefficients.
    """
    selected = [i for i, cell in enumerate(ball.cells)
                if ball.interior_mask[cell.base_vertex]]
    kernel = _integer_kernel([_column(ball.cells[i]) for i in selected])
    return [{selected[j]: v for j, v in vec.items()} for vec in kernel]


# --------------------------------------------------- compression map psi


@dataclass(frozen=True)
class Star:
    """Image of every vertex whose words avoid the compressing word."""


@dataclass(frozen=True)
class Pair:
    """Image of a vertex inside the ideal: the prefix up to the first
    occurrence (extended by the compressing word itself) plus the
    factorized remainder."""

    base: Word
    tail: tuple[DeltaLetter, ...]


PsiImage = Star | Pair


def psi_map(P: Presentation, r: Word, w: Word) -> PsiImage:
    """Vertex map that collapses everything outside the two-sided ideal
    of the compressing word r to a single point."""
    r, w = tuple(r), tuple(w)
    if r not in compressing_words(P):
        raise NotCompressing(f"{P.text(r)!r} does not seal both sides")
    if not find_occurrences(w, r):
        return Star()
    y, _ = right_canonical(r, w)
    t, m = left_canonical(r, y)
    base = t + r
    assert find_occurrences(base, r) == [len(t)]
    return Pair(base, tuple(m))


# ------------------------------------------------------ structure checks


class CheckKind(str, Enum):
    PSI_WELL_DEFINED = "PsiWellDefined"
    PSI_INJECTIVE_ON_IDEAL = "PsiInjectiveOnIdeal"
    BASIS_FREENESS = "BasisFreeness"
    LOCAL_DIVISOR_ISO = "LocalDivisorIso"
    REGULARITY_WITNESS = "RegularityWitness"
    R_TRIVIAL = "RTrivial"
    KERNEL_INCLUSION = "KernelInclusion"


@dataclass(frozen=True)
class CheckReport:
    """One structure check's outcome; it passes when it lists no
    failure, and undecided pairs count as skipped, never as failures."""

    kind: CheckKind
    checked: int
    skipped: int
    failures: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def _all_words(alphabet: tuple[str, ...], max_len: int):
    for n in range(max_len + 1):
        yield from product(alphabet, repeat=n)


def _free_product_key(C: CompressionData, m: tuple[DeltaLetter, ...],
                      oracle: Oracle) -> tuple | None:
    """Canonical form of a Delta-letter sequence in the free product:
    separator letters verbatim, maximal compressed-letter runs replaced
    by their class representative.  None when a run cannot be decided.
    """
    runs, seps = syllables(C, m)
    key: list = [d.name for d in seps]
    for run in runs:
        rep = oracle.rep(tuple(d.name for d in run))
        if rep is None:
            return None
        key.append(rep)
    return tuple(key)


def _pairs(entries: Sequence[tuple]) -> tuple[int, int, list[tuple[int, int]]]:
    """Pairs i < j of witnesses given as (group, key), key None when
    undecided: how many there are, how many lie in one group with an
    undecided key, and the ones in one group with equal decided keys in
    (i, j) order, all counted from group sizes and key buckets."""
    sizes = Counter(g for g, _ in entries)
    decided = Counter(g for g, k in entries if k is not None)
    buckets: dict[tuple, list[int]] = defaultdict(list)
    for i, (g, k) in enumerate(entries):
        if k is not None:
            buckets[g, k].append(i)
    skipped = sum(comb(n, 2) - comb(decided[g], 2) for g, n in sizes.items())
    equal = sorted(p for idx in buckets.values() for p in combinations(idx, 2))
    return comb(len(entries), 2), skipped, equal


def _partition(keys: Iterable) -> list[int | None]:
    """Each key's bucket, named by the position of its first occurrence;
    an undecided key stays None.  Two key sequences group their
    positions alike exactly when these lists are equal."""
    first: dict = {}
    return [None if k is None else first.setdefault(k, i)
            for i, k in enumerate(keys)]


def _check_psi_well_defined(P: Presentation, b: OracleBudget,
                            radius: int) -> CheckReport:
    cands = _compressing_words(P)
    _, assign, _ = enumerate_classes(Oracle(P, b), radius)
    classes: dict[int, list[Word]] = defaultdict(list)
    for w, idx in assign.items():
        classes[idx].append(w)
    checked = skipped = 0
    failures: list[str] = []
    for r in cands:
        C = compress_step(P, r)
        oracle = Oracle(C.compressed, b)
        for members in classes.values():
            if len(members) < 2:
                continue
            images = [psi_map(P, r, m) for m in members]
            first = images[0]
            key0 = (_free_product_key(C, first.tail, oracle)
                    if isinstance(first, Pair) else None)
            for m, img in zip(members[1:], images[1:]):
                checked += 1
                if type(img) is not type(first):
                    failures.append(f"{P.text(members[0])} vs {P.text(m)}: "
                                    "mixed star and pair images")
                    continue
                if isinstance(first, Star):
                    continue
                if img.base != first.base:
                    failures.append(f"{P.text(members[0])} vs {P.text(m)}: "
                                    "bases differ")
                    continue
                key = _free_product_key(C, img.tail, oracle)
                if key0 is None or key is None:
                    skipped += 1
                elif key != key0:
                    failures.append(f"{P.text(members[0])} vs {P.text(m)}: "
                                    "tails differ")
    return CheckReport(CheckKind.PSI_WELL_DEFINED, checked, skipped,
                       tuple(failures))


def _check_psi_injective(P: Presentation, b: OracleBudget,
                         radius: int) -> CheckReport:
    cands = _compressing_words(P)
    reps = ball_vertices(Oracle(P, b), radius)
    checked = skipped = 0
    failures: list[str] = []
    for r in cands:
        C = compress_step(P, r)
        oracle = Oracle(C.compressed, b)
        ideal = [w for w in reps if ends_with(w, r)]
        n, undecided, collide = _pairs(
            [(img.base, _free_product_key(C, img.tail, oracle))
             for img in (psi_map(P, r, w) for w in ideal)])
        checked, skipped = checked + n, skipped + undecided
        failures += [f"{P.text(ideal[i])} and {P.text(ideal[j])} collide"
                     for i, j in collide]
    return CheckReport(CheckKind.PSI_INJECTIVE_ON_IDEAL, checked, skipped,
                       tuple(failures))


def _check_basis_freeness(P: Presentation, b: OracleBudget,
                          radius: int) -> CheckReport:
    oracle = Oracle(P, b)
    checked = skipped = 0
    failures: list[str] = []
    for r in _compressing_words(P):
        basis = [w for w in _all_words(P.alphabet, radius)
                 if find_occurrences(w + r, r) == [len(w)]]
        n, undecided, equal = _pairs([(0, oracle.rep(y + r)) for y in basis])
        checked, skipped = checked + n, skipped + undecided
        failures += [f"{P.text(basis[i])}·{P.text(r)} = "
                     f"{P.text(basis[j])}·{P.text(r)}" for i, j in equal]
    return CheckReport(CheckKind.BASIS_FREENESS, checked, skipped,
                       tuple(failures))


def _check_local_divisor(P: Presentation, b: OracleBudget,
                         radius: int) -> CheckReport:
    outer = Oracle(P, b)
    checked = skipped = 0
    failures: list[str] = []
    for r in _compressing_words(P):
        C = compress_step(P, r)
        inner = Oracle(C.compressed, b)
        members = [w for w in _all_words(P.alphabet, radius)
                   if t_membership(r, w)]
        keys = [(outer.rep(r + w),
                 _free_product_key(C, tuple(delta_factorize(r, w)), inner))
                for w in members]
        keys = [(None, None) if None in k else k for k in keys]
        n, decided = len(keys), sum(mk is not None for mk, _ in keys)
        checked += comb(n, 2)
        skipped += comb(n, 2) - comb(decided, 2)
        if _partition(k[0] for k in keys) == _partition(k[1] for k in keys):
            continue
        same_m = _pairs([(0, mk) for mk, _ in keys])[2]
        same_l = set(_pairs([(0, lk) for _, lk in keys])[2])
        failures += [f"{P.text(members[i])} vs {P.text(members[j])}: monoid "
                     f"says {(i, j) not in same_l}, local divisor says "
                     f"{(i, j) in same_l}"
                     for i, j in sorted(same_l.symmetric_difference(same_m))]
    return CheckReport(CheckKind.LOCAL_DIVISOR_ISO, checked, skipped,
                       tuple(failures))


def _check_regularity(P: Presentation, b: OracleBudget,
                       radius: int) -> CheckReport:
    """[v·t^k] = [v] for u = v·t and k = |v| + 1, witnessed by the path
    v·t^k, v·t^(k-1), ..., v: each step rewrites the prefix v·t = u."""
    if not is_subspecial(P) or P.u == P.v:
        raise PreconditionError("regularity witness needs a nondegenerate "
                                "subspecial relation")
    tail = P.u[len(P.v):]
    k = len(P.v) + 1
    power = P.v + tail * k
    y = power[len(P.v):len(power) - len(P.v)]
    path = tuple(P.v + tail * i for i in range(k, -1, -1))
    failures = () if replay(P, path) else (
        f"[{P.text(power)}] differs from [{P.text(P.v)}]",)
    return CheckReport(CheckKind.REGULARITY_WITNESS, 1, 0, failures,
                       (f"k={k}", f"y={P.text(y)}"))


def _check_r_trivial(P: Presentation, b: OracleBudget,
                     radius: int) -> CheckReport:
    if starts_with(P.u, P.v):
        raise PreconditionError("R-triviality needs the longer side to not "
                                "start with the shorter")
    oracle = Oracle(P, b)
    checked = skipped = 0
    failures: list[str] = []
    for w in _all_words(P.alphabet, radius - 1):
        for extra in _all_words(P.alphabet, radius - len(w)):
            if not extra:
                continue
            checked += 1
            verdict = oracle.equal(w, w + extra)
            if isinstance(verdict, Unknown):
                skipped += 1
            elif isinstance(verdict, Equal):
                failures.append(f"[{P.text(w)}] = [{P.text(w + extra)}]")
    return CheckReport(CheckKind.R_TRIVIAL, checked, skipped, tuple(failures))


def _check_kernel_inclusion(P: Presentation, b: OracleBudget,
                            radius: int) -> CheckReport:
    """[head_u·sof] = [head_v·sof] for the shortest compressing word sof,
    witnessed by one step: the two words are u and v themselves."""
    sof = _compressing_words(P)[0]
    head_u = P.u[:len(P.u) - len(sof)]
    head_v = P.v[:len(P.v) - len(sof)]
    note = (f"[{P.text(head_u)}·{P.text(sof)}] = "
            f"[{P.text(head_v)}·{P.text(sof)}]",)
    passed = replay(P, (head_u + sof, head_v + sof))
    return CheckReport(CheckKind.KERNEL_INCLUSION, 1, 0,
                       () if passed else note, note if passed else ())


_CHECKS = {
    CheckKind.PSI_WELL_DEFINED: _check_psi_well_defined,
    CheckKind.PSI_INJECTIVE_ON_IDEAL: _check_psi_injective,
    CheckKind.BASIS_FREENESS: _check_basis_freeness,
    CheckKind.LOCAL_DIVISOR_ISO: _check_local_divisor,
    CheckKind.REGULARITY_WITNESS: _check_regularity,
    CheckKind.R_TRIVIAL: _check_r_trivial,
    CheckKind.KERNEL_INCLUSION: _check_kernel_inclusion,
}


def structure_checks(P: Presentation, check: CheckKind,
                     budget: OracleBudget | None = None,
                     radius: int = 6) -> CheckReport:
    """Run one structural check over a bounded witness set; the two
    witness checks replay a fixed path and ignore budget and radius.
    Raises PreconditionError when the check does not apply to P."""
    return _CHECKS[CheckKind(check)](P, budget or DEFAULT_BUDGET, radius)


# --------------------------------------------------------------- exports


def _dot_string(text: str) -> str:
    """text as a quoted DOT string, with backslash and quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(ball: CayleyBall) -> str:
    """DOT digraph: vertex label is the canonical representative, edge
    label the multiplied letter, interior vertices doubly circled."""
    P = ball.presentation
    lines = ["digraph cayley_ball {", "  rankdir=LR;"]
    for i, rep in enumerate(ball.vertices):
        shape = " peripheries=2" if ball.interior_mask[i] else ""
        lines.append(f"  v{i} [label={_dot_string(P.text(rep))}{shape}];")
    for src, letter, dst in ball.edges:
        lines.append(f"  v{src} -> v{dst} [label={_dot_string(letter)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(ball: CayleyBall) -> dict:
    """JSON-ready view with boundary matrices as sorted COO triples."""
    P = ball.presentation
    return {
        "radius": ball.radius,
        "approximate": ball.approximate,
        "vertices": [P.text(w) if w else "" for w in ball.vertices],
        "edges": [[s, x, t] for s, x, t in ball.edges],
        "interior": list(ball.interior_mask),
        "cells": [
            {
                "base": c.base_vertex,
                "variant": c.variant.value,
                "boundary": [[e, s] for e, s in c.boundary_edges],
            }
            for c in ball.cells
        ],
        "d1": [[r, c, v] for (r, c), v in sorted(ball.d1.items())],
        "d2": [[r, c, v] for (r, c), v in sorted(ball.d2.items())],
    }


def matrices_csv(ball: CayleyBall) -> str:
    """d1 then d2 as one CSV sheet with header matrix,row,col,value;
    each matrix's entries are sorted by (row, col)."""
    rows = ["matrix,row,col,value"]
    for name, mat in (("d1", ball.d1), ("d2", ball.d2)):
        rows += [f"{name},{r},{c},{v}" for (r, c), v in sorted(mat.items())]
    return "\n".join(rows) + "\n"
