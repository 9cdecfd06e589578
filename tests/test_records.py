"""The package's value types: records built on namedtuple.

Importing the package loads neither dataclasses nor inspect.  A record
is equal only to a record of its own class, equal records hash alike,
fields cannot be set, every field takes part in equality and the repr,
and validating constructors still raise.
"""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from ormkit.cayley import Pair, Star, build_ball
from ormkit.classify import DimBound
from ormkit.cli import Report
from ormkit.compress import CompressionData, compress_step
from ormkit.squier import (
    DeleteCancelPair,
    PullUpPushDown,
    SquierEdge,
    inverse,
)
from ormkit.words import make_presentation, word
from ormkit.wp import Distinct, Equal, OracleBudget, Unknown

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_package_loads_no_dataclasses_or_inspect():
    # -S keeps site, and whatever its .pth files import, out of the count
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); "
         "import ormkit, ormkit.cli; "
         "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
         str(SRC)],
        capture_output=True, text=True, check=True)
    assert done.stdout == "\n"


def aba_aca():
    return make_presentation(("a", "b", "c"), word("aba"), word("aca"))


def test_records_of_different_classes_are_unequal():
    for x, y in [(Distinct("x"), Unknown("x")),
                 (DeleteCancelPair(0), PullUpPushDown(0)),
                 (Star(), ())]:
        assert x != y and y != x
        assert not (x == y or y == x)
    # a fieldless record is still a true value, as a point
    assert Star() == Star() and bool(Star())


def test_equal_records_hash_alike():
    e = SquierEdge(word("a"), 1, word("b"))
    assert inverse(inverse(e)) == e and hash(inverse(inverse(e))) == hash(e)
    assert Pair(word("a"), ()) == Pair(word("a"), ())
    assert hash(Pair(word("a"), ())) == hash(Pair(word("a"), ()))
    P = aba_aca()
    assert P == aba_aca() and hash(P) == hash(aba_aca())
    assert P != make_presentation(("a", "b", "c"), word("aba"), word("aa"))
    # spellings take part in equality, and a dict field leaves the
    # record unhashable
    C = compress_step(P, word("a"))
    assert C == CompressionData(C.r, C.compressed, dict(C.spellings))
    assert C != CompressionData(C.r, C.compressed, {})
    assert C != CompressionData(word("ab"), C.compressed, C.spellings)
    with pytest.raises(TypeError, match="unhashable"):
        hash(C)


def test_pickling_and_copying_keep_the_value():
    P = aba_aca()
    for x in (P, compress_step(P, word("a")), SquierEdge((), -1, ()),
              OracleBudget(max_words=7), Unknown("budget")):
        assert pickle.loads(pickle.dumps(x)) == x == copy.deepcopy(x)


def test_fields_cannot_be_set():
    P = aba_aca()
    for obj, name in [(P, "u"), (P, "_hash"), (Equal((P.u,)), "path"),
                      (SquierEdge((), 1, ()), "sign"),
                      (build_ball(P, 2), "radius"),
                      (compress_step(P, word("a")), "spellings"),
                      (OracleBudget(), "max_words")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        del P.v


def test_repr_shows_every_field():
    C = compress_step(aba_aca(), word("a"))
    assert repr(C) == (
        "CompressionData(r=('a',), compressed=Presentation("
        "alphabet=('ba', 'ca'), u=('ca',), v=('ba',)), "
        "spellings={'ba': ('b', 'a'), 'ca': ('c', 'a')})")
    report = Report("wp", "", {}, {}, {})
    assert repr(report) == (
        "Report(command='wp', input_digest='', payload={}, "
        "verdict_counts={}, budgets={}, seeds=(), approximate=False, "
        "complex=None)")
    assert report != report._replace(complex=build_ball(aba_aca(), 1))


def test_squier_edge_sign_is_checked():
    with pytest.raises(ValueError, match="sign is"):
        SquierEdge(word("a"), 2, word("b"))
    edge = SquierEdge(word("a"), 1, word("b"))
    assert edge._replace(sign=-1) == inverse(edge)
    # a changed copy is checked as a new record is
    with pytest.raises(ValueError, match="sign is"):
        edge._replace(sign=0)
    with pytest.raises(ValueError, match="lower bound exceeds"):
        DimBound(0, 2)._replace(lower=3)
