"""Finite balls of the right Cayley graph, 2-cell attachment, exact
integer 2-cycle bases, the vertex compression map, and structural checks.

A ball of radius r has one vertex per monoid element that some word of
length at most r represents, and one builder makes it for every rule,
breadth first: each new vertex is an earlier vertex followed by one
letter, and each edge leads from a vertex w with letter x to the class
of w·x.  When the rule u -> v is complete, the vertices are the
irreducible words of length at most r and each edge target is a normal
form, read along edges the ball has already built, so a complete rule
computes no normal form and keeps no index of vertex words; _ball says
why that is sound.  On every rule the budget's max_words bounds the
number of vertices, and on an incomplete rule also each closure that
places an edge, so a budget at the vertex count can leave the ball
approximate or refuse it.  A vertex is found from any word by reading
the word's letters along the edges from the empty word, and the one
class placement loop is this builder: enumerate_classes assigns every
word of length at most r that way.

Every other class lookup (w·x on an incomplete rule, and the keys of
the structure checks) asks one Oracle per presentation: normal_form on
a complete rule, which never runs a closure, rep for the class's
shortlex-least member, None when undecided, and equal for a certified
verdict.  An undecided w·x joins the first vertex proven Equal to it,
so a ball is never over-merged, and if any needed verdict comes back
Unknown the ball is marked approximate instead of guessing.  The pair
checks key each witness once and count pairs from the key groups,
skipping a pair with an undecided key, so their cost follows the
witnesses and the collisions, not the pairs.  RTrivial keys every word
of length at most the radius once by its normal form and compares the
two keys of a pair where both are known; every other pair, which is
every pair on an incomplete rule, asks equal, so the report is the one
a verdict per pair gives.  The two witness checks replay a path built
from the relation instead.  Cells can be attached two ways: one cell
per vertex tracing the full relation, or cells only at vertices whose
representative ends in the longest compressing word, tracing the
relation with that word stripped from the front of both sides; a
boundary is traced through one successor list per letter, which holds
each vertex's edge index for that letter, from the bases that have an
edge for each side's first letter.  A ball stores its vertices, edges
and cells once: the boundary matrices d1 and d2, sparse integer
dictionaries, and the interior mask are views derived from them on
first read.  Vertex lengths never decrease along the vertex list, so
the interior vertices are a prefix of it.  The 2-cycle
kernel reads the columns of the interior cells straight from their
boundaries and eliminates over the integers, fraction-free; each kernel
vector is primitive with its first nonzero entry positive.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import accumulate, combinations, product
from math import comb, gcd

from .classify import is_subspecial
from .compress import (
    CompressionData,
    NotCompressing,
    compress_step,
    delta_factorize,
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
    Oracle,
    OracleBudget,
    is_complete,
    replay,
)


class BudgetExceeded(Exception):
    """The work would overrun the word budget: a ball's vertex count on
    any rule, or the count of words enumerate_classes assigns."""


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
        the ball: length at most radius - max(|u|, |v|).  The builder
        appends w·x only after w, so vertex lengths never decrease and
        the interior vertices are a prefix of them."""
        k = _interior_count(self)
        return (True,) * k + (False,) * (len(self.vertices) - k)

    @cached_property
    def _successors(self) -> dict[str, list[int | None]]:
        """succ[x][i]: index of the edge reading x out of vertex i, None
        when that edge leaves the ball; its target is edges[e][2]."""
        succ: dict[str, list[int | None]] = {
            x: [None] * len(self.vertices) for x in self.presentation.alphabet}
        for e, (s, x, _) in enumerate(self.edges):
            succ[x][s] = e
        return succ

    def vertex_of(self, w: Word) -> int | None:
        """Index of the vertex of w, read along the edges from vertex 0;
        None when |w| > radius or w has a letter outside the alphabet."""
        rows = [self._successors.get(x) for x in w]
        if len(rows) > self.radius or None in rows:
            return None
        cur = 0
        for row in rows:
            e = row[cur]
            if e is None:
                return None
            cur = self.edges[e][2]
        return cur


def _interior_count(ball: CayleyBall) -> int:
    """How many vertices are interior, the first ones in vertex order."""
    P = ball.presentation
    margin = ball.radius - max(len(P.u), len(P.v))
    return bisect_right(ball.vertices, margin, key=len)


def _compressing_words(P: Presentation) -> tuple[Word, ...]:
    """compressing_words(P), raising NotCompressible when there are none."""
    cands = compressing_words(P)
    if not cands:
        raise NotCompressible(f"{P.describe()} has no compressing word")
    return cands


def enumerate_classes(
    oracle: Oracle, max_len: int,
) -> tuple[tuple[Word, ...], dict[Word, int], bool]:
    """Partition all words of length at most max_len into congruence
    classes of oracle.P: the vertices of the ball of radius max_len,
    built without the edges out of the sphere, each word's vertex index
    and the ball's approximate flag.

    Words are read in shortlex order, each from its prefix's vertex
    along the edge for its last letter, so no word is placed twice and
    the partition merges only what the ball merges with proof.  Every
    word is read, so max_words caps the count of words; a length cap is
    checked as the ball checks it.
    """
    k = len(oracle.P.alphabet)
    words = max_len + 1 if k == 1 else (k ** (max_len + 1) - 1) // (k - 1)
    if words > oracle.budget.max_words:
        raise BudgetExceeded(f"{k} letters at radius {max_len}")
    vertices, edges, approximate = _ball(oracle, max_len, sphere=False)
    target = {(i, x): j for i, x, j in edges}
    assign: dict[Word, int] = {}
    for w in _all_words(oracle.P.alphabet, max_len):
        assign[w] = target[assign[w[:-1]], w[-1]] if w else 0
    return vertices, assign, approximate


def _locate(oracle: Oracle, w: Word, index: dict[Word, int],
            vertices: Sequence[Word]) -> tuple[int | None, bool]:
    """Index of w's class among the vertices _ball has placed so far,
    all shortlex-less than w; index maps each vertex word to its
    position.  _ball is the one caller.

    Returns (index or None, sawUnknown).  A decided representative is
    the shortest member of its class, so the class is placed exactly
    when its representative is.  An undecided word takes the first
    vertex proven Equal to it; None with sawUnknown False is a proof
    that no placed class holds w.
    """
    rep = oracle.rep(w)
    if rep is not None:
        return index.get(rep), False
    unknown = False
    for i, r in enumerate(vertices):
        same = oracle.equal(w, r).congruent
        if same:
            return i, unknown
        unknown = unknown or same is None
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
    not consulted.  w·x ends in u exactly when x is the last letter of u
    and w ends in the rest of u, which one suffix compare tests.  A
    vertex is irreducible, so w·x is irreducible exactly when it does
    not end in u; then it is a new vertex, or lies beyond the radius and
    is dropped unbuilt.  Irreducible words are prefix-closed, and w is
    the only vertex with a letter leading to w·x without a reduction, so
    w·x has not been placed before.  The degenerate rule u = v rewrites
    nothing.

    Only when w·x ends in u is it reduced, and the target is read along
    edges the ball has built, with no normal form computed and no word
    index kept.  Then w·x = w'·u, and w' is a prefix of w, so it is
    irreducible and a vertex: the ancestor |u| - 1 parent links up from
    w.  The target nf(w·x) = nf(w'·v) is read from w' along the letters
    of v, each edge leading from the normal form of a prefix p of w'·v
    to that of p·y.  Vertices are read in shortlex order and letters in
    alphabet order, so new vertices are appended in shortlex order, and
    every edge read is built already: a prefix w'·v[:i] with i < |v| is
    shorter than w, or of the same length when |u| = |v| and then
    shortlex-less than w = w'·u[:-1], since v is less than u, unless
    v[:-1] = u[:-1].  In the first cases its normal form is a vertex read
    before w, shorter than the radius, so all its edges are built; in
    the last it is w itself, whose edge for v[-1] is built already
    because v[-1] comes before x = u[-1].  The target is at most |w| + 1
    long, that long only when |u| = |v|, and it lies beyond the radius
    only when |w| = radius; those edges are skipped without reducing.
    Each vertex is the shortlex-least word of its class.  A length cap
    below the longest word the build reads raises BudgetTooShort: the
    last vertex followed by a letter, cut to the radius with sphere
    False.

    On any other rule every w·x is placed by _locate among the vertices
    so far, all shortlex-less than w·x, through an index of the vertex
    words; an Unknown verdict marks the ball approximate, and the oracle
    raises BudgetTooShort on a word read beyond its length cap.  On
    every rule max_words bounds the number of vertices.
    """
    P, budget, alphabet = oracle.P, oracle.budget, oracle.P.alphabet
    complete = is_complete(P)
    # the degenerate rule u = v rewrites nothing: no letter matches
    last = P.u[-1] if complete and P.u != P.v else None
    head, climb = P.u[:-1], len(P.u) - 1
    stop = not sphere or complete and len(P.u) == len(P.v)
    m, max_words = len(alphabet), budget.max_words
    v_letters = [alphabet.index(y) for y in P.v]
    vertices: list[Word] = [()]
    parents = [0]
    # out[i·m + k]: target of the edge reading letter k out of vertex i,
    # -1 when it leaves the ball
    out: list[int] = []
    index: dict[Word, int] | None = None if complete else {(): 0}
    edges: list[tuple[int, str, int]] = []
    approximate = False
    for i, w in enumerate(vertices):
        inside = len(w) < radius
        if not inside and stop:
            break
        for x in alphabet:
            if not complete:
                j, unknown = _locate(oracle, w + (x,), index, vertices)
                approximate = approximate or unknown
            elif x != last or w[len(w) - climb:] != head:
                j = None
            else:
                j = i
                for _ in range(climb):
                    j = parents[j]
                for k in v_letters:
                    e = j * m + k
                    j = out[e] if e < len(out) else -1
                    if j < 0:
                        raise AssertionError("a reduced edge target is not "
                                             "built")
            if j is None:
                if not inside:
                    out.append(-1)
                    continue
                j = len(vertices)
                if j >= max_words:
                    raise BudgetExceeded(f"more than {max_words} "
                                         f"vertices at radius {radius}")
                target = w + (x,)
                if index is not None:
                    index[target] = j
                vertices.append(target)
                parents.append(i)
            out.append(j)
            edges.append((i, x, j))
    if complete:
        # the longest word read: the last vertex and a letter, no longer
        # than the radius when the sphere's edges are not located
        budget.cap_for(P, (vertices[-1] + alphabet[:1])[:radius + sphere])
    return tuple(vertices), edges, approximate


def ball_vertices(oracle: Oracle, radius: int) -> tuple[Word, ...]:
    """The class representatives of the ball, in shortlex order: the
    vertices of build_ball, built without locating the edges out of the
    sphere.  max_words caps them as it caps build_ball; the longest word
    read, which a length cap must not be below, is then no longer than
    the radius."""
    return _ball(oracle, radius, sphere=False)[0]


def build_ball(P: Presentation, radius: int,
               budget: OracleBudget | None = None) -> CayleyBall:
    """Ball of congruence classes of all words of length at most radius.

    Edges carry right multiplication by a letter and are included
    whenever both endpoint classes are present.  The ball is built
    breadth first (see _ball): exact on a complete rule, otherwise
    placed through one Oracle.  Either way the budget's max_words caps
    its vertices, and a length cap below the longest word the build
    reads raises BudgetTooShort.  Cells start empty; see attach_cells.
    """
    reps, edges, approximate = _ball(Oracle(P, budget or DEFAULT_BUDGET),
                                     radius, sphere=True)
    return CayleyBall(presentation=P, radius=radius, vertices=reps,
                      edges=tuple(edges), cells=(), approximate=approximate)


def attach_cells(ball: CayleyBall, variant: CellVariant) -> CayleyBall:
    """Attach 2-cells of the requested variant; d2 is read from them.

    FullRelation puts a cell at every vertex whose whole boundary path
    stays in the ball.  CompressedIdeal strips the longest compressing
    word z from both relation sides and puts cells only at vertices
    whose representative ends in z.  Both sides are traced from the
    base through the ball's successor lists, one edge index per letter,
    from the bases with an edge for each side's first letter; an empty
    side keeps every base.
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
    succ, edges = ball._successors, ball.edges
    # a base with no edge for a side's first letter carries no cell
    for side in (side_u, side_v):
        if side:
            first = succ[side[0]]
            bases = [base for base in bases if first[base] is not None]
    rows_u = [succ[x] for x in side_u]
    rows_v = [succ[x] for x in side_v]
    cells: list[TwoCell] = []
    for base in bases:
        u_edges, end_u = [], base
        for row in rows_u:
            e = row[end_u]
            if e is None:
                break
            u_edges.append((e, 1))
            end_u = edges[e][2]
        if len(u_edges) < len(side_u):
            continue
        v_edges, end_v = [], base
        for row in rows_v:
            e = row[end_v]
            if e is None:
                break
            v_edges.append((e, -1))
            end_v = edges[e][2]
        if len(v_edges) < len(side_v):
            continue
        if end_u != end_v:
            if ball.approximate:
                continue
            raise AssertionError("boundary paths disagree in an exact ball")
        v_edges.reverse()
        cells.append(TwoCell(base, variant, tuple(u_edges + v_edges)))
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


def _combine(a: int, x: dict[int, int], b: int,
             y: dict[int, int]) -> dict[int, int]:
    """a·x - b·y for b nonzero, with the zeros dropped; keys keep x's
    order, then y's."""
    out = {k: a * v for k, v in x.items()}
    for k, v in y.items():
        nv = out.get(k, 0) - b * v
        if nv:
            out[k] = nv
        else:
            del out[k]
    return out


def _integer_kernel(columns: list[dict[int, int]]) -> list[dict[int, int]]:
    """Kernel basis of the sparse integer matrix given column by column.

    Fraction-free companion-vector Gaussian elimination: a column vec
    meets the pivot pv stored for its least row r, and with
    g = gcd(pv[r], vec[r]) becomes (pv[r]/g)·vec - (vec[r]/g)·pv, its
    companion vector alike; then both are divided by the gcd of all
    their entries.
    Each vector stays a nonzero multiple of the one elimination over the
    rationals would give, so every dependent column yields the same
    kernel vector: its companion divided by its content, with the first
    nonzero entry positive.
    """
    pivots: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    basis: list[dict[int, int]] = []
    for j, col in enumerate(columns):
        vec = {r: c for r, c in col.items() if c}
        comp = {j: 1}
        while vec:
            r = min(vec)
            if r not in pivots:
                pivots[r] = (vec, comp)
                break
            pv, pc = pivots[r]
            g = gcd(pv[r], vec[r])
            a, b = pv[r] // g, vec[r] // g
            vec, comp = _combine(a, vec, b, pv), _combine(a, comp, b, pc)
            g = gcd(*vec.values(), *comp.values())
            if g != 1:
                vec = {k: v // g for k, v in vec.items()}
                comp = {k: v // g for k, v in comp.items()}
        else:
            g = gcd(*comp.values())
            if comp[min(comp)] < 0:
                g = -g
            basis.append({k: v // g for k, v in comp.items()})
    return basis


def two_cycle_basis(ball: CayleyBall) -> list[dict[int, int]]:
    """Integer kernel basis of d2 restricted to interior cells.

    A cell is interior when its base vertex is, which by the interior
    margin keeps the whole boundary path inside the ball.  The kernel
    reads each interior cell's column from its boundary, not from the
    d2 view.  Vectors map cell indices to coefficients.
    """
    k = _interior_count(ball)
    selected = [i for i, cell in enumerate(ball.cells) if cell.base_vertex < k]
    kernel = _integer_kernel([_column(ball.cells[i]) for i in selected])
    return [{selected[j]: v for j, v in vec.items()} for vec in kernel]


# --------------------------------------------------- compression map psi


@dataclass(frozen=True)
class Star:
    """Image of every vertex whose words avoid the compressing word."""


@dataclass(frozen=True)
class Pair:
    """Image of a vertex inside the ideal: the prefix through the first
    occurrence of the compressing word, and the rest up to the end of the
    last occurrence as its Delta_r factorization, a tuple of words."""

    base: Word
    tail: tuple[Word, ...]


PsiImage = Star | Pair


def psi_map(P: Presentation, r: Word, w: Word) -> PsiImage:
    """Vertex map that collapses everything outside the two-sided ideal
    of the compressing word r to a single point.  Inside it, one scan for
    r gives the ends of its occurrences: the base runs to the first, and
    the tail's Delta_r letters are the slices between consecutive ends."""
    r, w = tuple(r), tuple(w)
    if r not in compressing_words(P):
        raise NotCompressing(f"{P.text(r)!r} does not seal both sides")
    ends = [i + len(r) for i in find_occurrences(w, r)]
    if not ends:
        return Star()
    return Pair(w[:ends[0]], tuple(w[a:b] for a, b in zip(ends, ends[1:])))


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


def _free_product_key(C: CompressionData, m: tuple[Word, ...],
                      oracle: Oracle) -> tuple | None:
    """Canonical form in the free product of a sequence of Delta_r
    letters, each given as its word: separator letters verbatim, maximal
    compressed-letter runs replaced by their class representative.  None
    when a run cannot be decided.
    """
    w = tuple(x for d in m for x in d)
    runs, seps = syllables(C, w, [0, *accumulate(map(len, m))])
    key: list = list(seps)
    for names, _, _ in runs:
        rep = oracle.rep(names)
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
                 _free_product_key(C, delta_factorize(r, w), inner))
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
    words = list(_all_words(P.alphabet, radius))
    # words[1:ends[k]] are the nonempty words of length at most k
    ends = [bisect_right(words, k, key=len) for k in range(radius + 1)]
    # every word keyed once; a pair with an unknown key asks equal
    key = {w: oracle.normal_form(w) for w in words}
    checked = skipped = 0
    failures: list[str] = []
    for w in words:
        kw = key[w]
        extras = words[1:ends[radius - len(w)]]
        checked += len(extras)
        for extra in extras:
            x = w + extra
            kx = None if kw is None else key[x]
            same = oracle.equal(w, x).congruent if kx is None else kx == kw
            if same is None:
                skipped += 1
            elif same:
                failures.append(f"[{P.text(w)}] = [{P.text(x)}]")
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
