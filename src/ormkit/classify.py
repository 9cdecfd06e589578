"""Dimension and asphericity classification for one-relator presentations.

The trichotomy driving everything: a normalized relation u = v is
*subspecial* when v is both a prefix and a suffix of u (v empty counts,
that is the special case).  Subspecial monoids have torsion exactly when
the tail u' of u = v u' is a proper power, and then every dimension
bound is infinite; torsion-free subspecial monoids have all dimensions
at most 2.  Non-subspecial presentations split by their compressing
words: none means dimensions at most 2 (and strict asphericity), exactly
one forces every dimension infinite, and two or more give a proven lower
bound of 3 with no finite upper bound known.

Bounds are reported as intervals and never as unproven exact values.
"""

from __future__ import annotations

import enum

from .records import record
from .words import (
    Presentation,
    compressing_words,
    ends_with,
    proper_power_root,
    starts_with,
)

INF = float("inf")


class Case(str, enum.Enum):
    DEGENERATE = "Degenerate"
    SPECIAL = "Special"
    SUBSPECIAL_TORSION = "SubspecialTorsion"
    SUBSPECIAL_TORSION_FREE = "SubspecialTorsionFree"
    INCOMPRESSIBLE_NON_SUBSPECIAL = "IncompressibleNonSubspecial"
    ONE_STEP_COMPRESSIBLE_NON_SUBSPECIAL = "OneStepCompressibleNonSubspecial"
    MULTI_STEP_COMPRESSIBLE_NON_SUBSPECIAL = "MultiStepCompressibleNonSubspecial"


class Asphericity(str, enum.Enum):
    PROVEN_STRICTLY_ASPHERICAL = "ProvenStrictlyAspherical"
    UNKNOWN = "Unknown"


class DimBound(record("DimBound", "lower upper")):
    """A closed interval of extended naturals; upper = inf means no
    finite upper bound is proven, lower = upper = inf means proven
    infinite."""

    __slots__ = ()

    def __new__(cls, lower: float, upper: float) -> DimBound:
        for x in (lower, upper):
            if x != INF and (x != int(x) or x < 0):
                raise ValueError("bounds are naturals or inf")
        if lower > upper:
            raise ValueError("lower bound exceeds upper bound")
        return tuple.__new__(cls, (lower, upper))

    def as_pair(self) -> tuple[str, str]:
        def show(x: float) -> str:
            return "inf" if x == INF else str(int(x))
        return show(self.lower), show(self.upper)


class Classification(record(
        "Classification", "case torsion compressing cd_left cd_right gd_left "
        "gd_right asphericity")):
    """A presentation's Case, whether it has torsion, its compressing
    words, the DimBound of each of its left and right cohomological (cd)
    and geometric (gd) dimensions, and its Asphericity."""

    __slots__ = ()


def is_subspecial(P: Presentation) -> bool:
    """v is a prefix and a suffix of u; trivially true when v is empty."""
    return starts_with(P.u, P.v) and ends_with(P.u, P.v)


def has_torsion(P: Presentation) -> bool:
    """Subspecial with a proper-power tail; non-subspecial is torsion-free."""
    if not is_subspecial(P) or P.u == P.v:
        return False
    tail = P.u[len(P.v):]
    return proper_power_root(tail)[1] >= 2


def asphericity_certificate(P: Presentation) -> Asphericity:
    """Certify strict asphericity when a sound criterion applies.

    The criterion: P is not subspecial, v is nonempty, and no word
    compresses P.  This equals the overlap criterion, that the longest
    common suffix rho of u and v does not overlap their longest common
    prefix lambda.  A nonempty suffix of rho that is a prefix of lambda
    is a prefix and a suffix of both sides, so it compresses P; a
    compressing word is a common prefix and a common suffix of u and v,
    so it is a prefix of lambda and a suffix of rho.
    """
    if not is_subspecial(P) and P.v and not compressing_words(P):
        return Asphericity.PROVEN_STRICTLY_ASPHERICAL
    return Asphericity.UNKNOWN


def classify_full(P: Presentation) -> Classification:
    """Case tag plus left/right cohomological and geometric dimension bounds."""
    cw = compressing_words(P)
    torsion = has_torsion(P)
    asph = asphericity_certificate(P)

    if P.u == P.v:
        case = Case.DEGENERATE
        bound = DimBound(0, 1)
    elif is_subspecial(P):
        if torsion:
            bound = DimBound(INF, INF)
        else:
            bound = DimBound(0, 2)
        if not P.v:
            case = Case.SPECIAL
        else:
            case = (Case.SUBSPECIAL_TORSION if torsion
                    else Case.SUBSPECIAL_TORSION_FREE)
    elif not cw:
        case = Case.INCOMPRESSIBLE_NON_SUBSPECIAL
        bound = DimBound(0, 2)
    elif len(cw) == 1:
        case = Case.ONE_STEP_COMPRESSIBLE_NON_SUBSPECIAL
        bound = DimBound(INF, INF)
    else:
        case = Case.MULTI_STEP_COMPRESSIBLE_NON_SUBSPECIAL
        bound = DimBound(3, INF)

    return Classification(case, torsion, cw, bound, bound, bound, bound, asph)
