"""Toolkit for one-relator monoid presentations <A | u=v>: compression
of the defining relation, case classification with dimension bounds,
bounded word-problem deciders, Cayley-ball chain complexes, and
rewriting-path invariants."""

from .cayley import (
    BudgetExceeded,
    CayleyBall,
    CellVariant,
    CheckKind,
    CheckReport,
    NotCompressible,
    attach_cells,
    ball_vertices,
    build_ball,
    enumerate_classes,
    psi_map,
    structure_checks,
    two_cycle_basis,
)
from .classify import (
    Asphericity,
    Case,
    Classification,
    DimBound,
    asphericity_certificate,
    classify_full,
    has_torsion,
    is_subspecial,
)
from .compress import (
    CompressionChain,
    CompressionData,
    NotCompressing,
    Strategy,
    compress_chain,
    compress_step,
    delta_factorize,
    t_membership,
)
from .squier import (
    HarnessReport,
    SquierEdge,
    UndecidableClass,
    WalkReport,
    apply_move,
    injectivity_harness,
    parity_vector,
    random_walk_check,
    validate_path,
)
from .words import (
    EMPTY,
    PreconditionError,
    Presentation,
    Word,
    compressing_words,
    is_sof,
    make_presentation,
    seals,
    spell,
    word,
)
from .wp import (
    Distinct,
    Equal,
    Oracle,
    OracleBudget,
    Unknown,
    equal_bounded,
    equal_via_compression,
    neighbors,
    normal_form,
    replay,
)

__all__ = [name for name in dir() if not name.startswith("_")]
