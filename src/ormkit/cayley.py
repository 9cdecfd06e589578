"""Finite balls of the right Cayley graph, 2-cell attachment, exact
integer 2-cycle bases, the vertex compression map, and structural checks.

Every class lookup here (ball vertices, edge targets, and the keys of
the structure checks) asks one Oracle per presentation: rep for the
class's shortlex-least member, None when undecided, and equal for a
certified verdict.  A ball collects the classes of all words up to a
length bound; undecided words are merged only on Equal verdicts, so a
ball is never over-merged, and if any needed verdict comes back
Unknown the ball is marked approximate instead of guessing.  Structure
checks count pairs with an undecided key as skipped.  Cells can be
attached two ways: one cell per vertex tracing the full relation, or
cells only at vertices whose representative ends in the longest
compressing word, tracing the relation with that word stripped from the
front of both sides.  Boundary matrices are sparse integer dictionaries
and kernels are computed exactly over rationals, then scaled to
primitive integer vectors.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm

from .classify import is_subspecial
from .compress import (
    CompressionData,
    DeltaLetter,
    NotCompressing,
    compress_step,
    delta_factorize,
    left_canonical,
    right_canonical,
    t_membership,
)
from .words import (
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
    _syllables,
    equal_bounded,
)


class BudgetExceeded(Exception):
    """Enumerating the ball would overrun the word budget."""


class NotCompressible(Exception):
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
    presentation: Presentation
    radius: int
    vertices: tuple[Word, ...]
    edges: tuple[tuple[int, str, int], ...]
    interior_mask: tuple[bool, ...]
    cells: tuple[TwoCell, ...]
    d1: dict[tuple[int, int], int] = field(repr=False)
    d2: dict[tuple[int, int], int] = field(repr=False)
    approximate: bool
    membership: dict[Word, int] = field(repr=False)

    def vertex_of(self, w: Word) -> int | None:
        return self.membership.get(tuple(w))


def _compressing_words(P: Presentation) -> list[Word]:
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
        rep = oracle.rep(w)
        if rep is None:
            idx, unknown = _pairwise(oracle, w, reps)
            approximate = approximate or unknown
        else:
            idx = assign.get(rep)  # None exactly when rep == w
        if idx is None:
            idx = len(reps)
            reps.append(w)
        assign[w] = idx
    return tuple(reps), assign, approximate


def _pairwise(oracle: Oracle, w: Word,
              reps: Sequence[Word]) -> tuple[int | None, bool]:
    """Index of the first representative proven Equal to w, or None, and
    whether any verdict along the way was Unknown."""
    unknown = False
    for i, r in enumerate(reps):
        verdict = oracle.equal(w, r)
        if isinstance(verdict, Equal):
            return i, unknown
        if isinstance(verdict, Unknown):
            unknown = True
    return None, unknown


def _locate(oracle: Oracle, w: Word, assign: dict[Word, int],
            reps: tuple[Word, ...]) -> tuple[int | None, bool]:
    """Vertex index of a word just outside the enumerated ball.

    Returns (index or None, sawUnknown).  None means no in-ball class
    member was found; with sawUnknown False that is a proof of absence.
    A decided representative is the shortest member of its class, so
    when it lies outside the ball, so does the whole class.
    """
    if w in assign:
        return assign[w], False
    rep = oracle.rep(w)
    if rep is not None:
        return assign.get(rep), False
    return _pairwise(oracle, w, reps)


def build_ball(P: Presentation, radius: int,
               budget: OracleBudget | None = None) -> CayleyBall:
    """Ball of congruence classes of all words of length at most radius.

    Edges carry right multiplication by a letter and are included
    whenever both endpoint classes are present.  Cells start empty; see
    attach_cells.
    """
    oracle = Oracle(P, budget)
    reps, assign, approximate = enumerate_classes(oracle, radius)
    edges: list[tuple[int, str, int]] = []
    for i, rep in enumerate(reps):
        for letter in P.alphabet:
            j, unknown = _locate(oracle, rep + (letter,), assign, reps)
            approximate = approximate or unknown
            if j is not None:
                edges.append((i, letter, j))
    margin = max(len(P.u), len(P.v))
    interior = tuple(len(rep) <= radius - margin for rep in reps)
    d1: dict[tuple[int, int], int] = {}
    for e, (src, _, dst) in enumerate(edges):
        if src != dst:
            d1[(dst, e)] = 1
            d1[(src, e)] = -1
    return CayleyBall(
        presentation=P,
        radius=radius,
        vertices=reps,
        edges=tuple(edges),
        interior_mask=interior,
        cells=(),
        d1=d1,
        d2={},
        approximate=approximate,
        membership=assign,
    )


def _trace(edge_map: dict[tuple[int, str], tuple[int, int]], base: int,
           label: Word) -> tuple[list[int], int] | None:
    """Follow the letters of label from base; None if any edge is
    missing from the ball."""
    cur = base
    path: list[int] = []
    for letter in label:
        hop = edge_map.get((cur, letter))
        if hop is None:
            return None
        e, cur = hop
        path.append(e)
    return path, cur


def attach_cells(ball: CayleyBall, variant: CellVariant) -> CayleyBall:
    """Attach 2-cells of the requested variant and recompute d2.

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
    edge_map = {(s, x): (e, t) for e, (s, x, t) in enumerate(ball.edges)}
    cells: list[TwoCell] = []
    d2: dict[tuple[int, int], int] = {}
    for base in bases:
        walked_u = _trace(edge_map, base, side_u)
        walked_v = _trace(edge_map, base, side_v)
        if walked_u is None or walked_v is None:
            continue
        u_edges, end_u = walked_u
        v_edges, end_v = walked_v
        if end_u != end_v:
            if ball.approximate:
                continue
            raise AssertionError("boundary paths disagree in an exact ball")
        boundary = tuple((e, 1) for e in u_edges)
        boundary += tuple((e, -1) for e in reversed(v_edges))
        col = len(cells)
        cells.append(TwoCell(base, variant, boundary))
        for e, sign in boundary:
            val = d2.get((e, col), 0) + sign
            if val:
                d2[(e, col)] = val
            else:
                d2.pop((e, col), None)
    return replace(ball, cells=tuple(cells), d2=d2)


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
    margin keeps the whole boundary path inside the ball.  Vectors map
    cell indices to coefficients.
    """
    selected = [i for i, cell in enumerate(ball.cells)
                if ball.interior_mask[cell.base_vertex]]
    by_cell: dict[int, dict[int, int]] = defaultdict(dict)
    for (e, c), val in ball.d2.items():
        by_cell[c][e] = val
    kernel = _integer_kernel([by_cell.get(i, {}) for i in selected])
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
    kind: CheckKind
    passed: bool
    checked: int
    skipped: int
    failures: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()


@lru_cache(maxsize=1)
def _ball_classes(P: Presentation, radius: int, b: OracleBudget):
    """enumerate_classes of P's ball, kept for the next call: both psi
    checks read the same ball.  Callers must not mutate the result."""
    return enumerate_classes(Oracle(P, b), radius)


def _all_words(alphabet: tuple[str, ...], max_len: int):
    for n in range(max_len + 1):
        yield from product(alphabet, repeat=n)


def _free_product_key(C: CompressionData, m: tuple[DeltaLetter, ...],
                      oracle: Oracle) -> tuple | None:
    """Canonical form of a Delta-letter sequence in the free product:
    separator letters verbatim, maximal compressed-letter runs replaced
    by their class representative.  None when a run cannot be decided.
    """
    runs, seps = _syllables(C, m)
    key: list = [d.name for d in seps]
    for run in runs:
        rep = oracle.rep(tuple(d.name for d in run))
        if rep is None:
            return None
        key.append(rep)
    return tuple(key)


def _check_psi_well_defined(P: Presentation, b: OracleBudget,
                            radius: int) -> CheckReport:
    cands = _compressing_words(P)
    _, assign, _ = _ball_classes(P, radius, b)
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
            members = sorted(members, key=P.shortlex_key)
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
    return CheckReport(CheckKind.PSI_WELL_DEFINED, not failures, checked,
                       skipped, tuple(failures))


def _check_psi_injective(P: Presentation, b: OracleBudget,
                         radius: int) -> CheckReport:
    cands = _compressing_words(P)
    reps, _, _ = _ball_classes(P, radius, b)
    checked = skipped = 0
    failures: list[str] = []
    for r in cands:
        C = compress_step(P, r)
        oracle = Oracle(C.compressed, b)
        ideal_reps = [w for w in reps if ends_with(w, r)]
        keyed: list[tuple[Word, Word, tuple | None]] = []
        for w in ideal_reps:
            img = psi_map(P, r, w)
            keyed.append((w, img.base, _free_product_key(C, img.tail, oracle)))
        for i, (w1, b1, k1) in enumerate(keyed):
            for w2, b2, k2 in keyed[i + 1:]:
                checked += 1
                if b1 != b2:
                    continue
                if k1 is None or k2 is None:
                    skipped += 1
                elif k1 == k2:
                    failures.append(f"{P.text(w1)} and {P.text(w2)} collide")
    return CheckReport(CheckKind.PSI_INJECTIVE_ON_IDEAL, not failures,
                       checked, skipped, tuple(failures))


def _check_basis_freeness(P: Presentation, b: OracleBudget,
                          radius: int) -> CheckReport:
    oracle = Oracle(P, b)
    checked = skipped = 0
    failures: list[str] = []
    for r in _compressing_words(P):
        basis = [w for w in _all_words(P.alphabet, radius)
                 if find_occurrences(w + r, r) == [len(w)]]
        keyed = [(y, oracle.rep(y + r)) for y in basis]
        for i, (y1, k1) in enumerate(keyed):
            for y2, k2 in keyed[i + 1:]:
                checked += 1
                if k1 is None or k2 is None:
                    skipped += 1
                elif k1 == k2:
                    failures.append(f"{P.text(y1)}·{P.text(r)} = "
                                    f"{P.text(y2)}·{P.text(r)}")
    return CheckReport(CheckKind.BASIS_FREENESS, not failures, checked,
                       skipped, tuple(failures))


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
        keyed = []
        for w in members:
            mk = outer.rep(r + w)
            lk = _free_product_key(C, tuple(delta_factorize(r, w)), inner)
            keyed.append((w, mk, lk))
        for i, (w1, m1, l1) in enumerate(keyed):
            for w2, m2, l2 in keyed[i + 1:]:
                checked += 1
                if m1 is None or m2 is None or l1 is None or l2 is None:
                    skipped += 1
                    continue
                if (m1 == m2) != (l1 == l2):
                    failures.append(f"{P.text(w1)} vs {P.text(w2)}: monoid "
                                    f"says {m1 == m2}, local divisor says "
                                    f"{l1 == l2}")
    return CheckReport(CheckKind.LOCAL_DIVISOR_ISO, not failures, checked,
                       skipped, tuple(failures))


def _check_regularity(P: Presentation, b: OracleBudget) -> CheckReport:
    if not is_subspecial(P) or P.u == P.v:
        raise ValueError("regularity witness needs a nondegenerate "
                         "subspecial relation")
    tail = P.u[len(P.v):]
    k = len(P.v) + 1
    power = P.v + tail * k
    y = power[len(P.v):len(power) - len(P.v)]
    verdict = equal_bounded(P, power, P.v, b)
    if isinstance(verdict, Unknown):
        return CheckReport(CheckKind.REGULARITY_WITNESS, False, 1, 1,
                           (), (f"k={k}", f"y={P.text(y)}", "undecided"))
    passed = isinstance(verdict, Equal)
    failures = () if passed else (f"[{P.text(power)}] differs from "
                                  f"[{P.text(P.v)}]",)
    return CheckReport(CheckKind.REGULARITY_WITNESS, passed, 1, 0,
                       failures, (f"k={k}", f"y={P.text(y)}"))


def _check_r_trivial(P: Presentation, b: OracleBudget,
                     radius: int) -> CheckReport:
    if starts_with(P.u, P.v):
        raise ValueError("R-triviality needs the longer side to not "
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
    return CheckReport(CheckKind.R_TRIVIAL, not failures, checked, skipped,
                       tuple(failures))


def _check_kernel_inclusion(P: Presentation, b: OracleBudget) -> CheckReport:
    sof = _compressing_words(P)[0]
    head_u = P.u[:len(P.u) - len(sof)]
    head_v = P.v[:len(P.v) - len(sof)]
    verdict = equal_bounded(P, head_u + sof, head_v + sof, b)
    passed = isinstance(verdict, Equal)
    note = (f"[{P.text(head_u)}·{P.text(sof)}] = "
            f"[{P.text(head_v)}·{P.text(sof)}]",)
    failures = () if passed else note
    return CheckReport(CheckKind.KERNEL_INCLUSION, passed, 1,
                       int(isinstance(verdict, Unknown)),
                       failures, note if passed else ())


def structure_checks(P: Presentation, check: CheckKind,
                     budget: OracleBudget | None = None,
                     radius: int = 6) -> CheckReport:
    """Run one oracle-backed structural check over a bounded witness set."""
    b = budget or DEFAULT_BUDGET
    if check is CheckKind.PSI_WELL_DEFINED:
        return _check_psi_well_defined(P, b, radius)
    if check is CheckKind.PSI_INJECTIVE_ON_IDEAL:
        return _check_psi_injective(P, b, radius)
    if check is CheckKind.BASIS_FREENESS:
        return _check_basis_freeness(P, b, radius)
    if check is CheckKind.LOCAL_DIVISOR_ISO:
        return _check_local_divisor(P, b, radius)
    if check is CheckKind.REGULARITY_WITNESS:
        return _check_regularity(P, b)
    if check is CheckKind.R_TRIVIAL:
        return _check_r_trivial(P, b, radius)
    if check is CheckKind.KERNEL_INCLUSION:
        return _check_kernel_inclusion(P, b)
    raise ValueError(f"unknown check {check!r}")


# --------------------------------------------------------------- exports


def to_dot(ball: CayleyBall) -> str:
    """DOT digraph: vertex label is the canonical representative, edge
    label the multiplied letter, interior vertices doubly circled."""
    P = ball.presentation
    lines = ["digraph cayley_ball {", "  rankdir=LR;"]
    for i, rep in enumerate(ball.vertices):
        shape = " peripheries=2" if ball.interior_mask[i] else ""
        lines.append(f'  v{i} [label="{P.text(rep)}"{shape}];')
    for src, letter, dst in ball.edges:
        lines.append(f'  v{src} -> v{dst} [label="{letter}"];')
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


def matrices_csv(ball: CayleyBall) -> dict[str, str]:
    out = {}
    for name, mat in (("d1", ball.d1), ("d2", ball.d2)):
        rows = ["row,col,value"]
        rows += [f"{r},{c},{v}" for (r, c), v in sorted(mat.items())]
        out[name] = "\n".join(rows) + "\n"
    return out
