"""The record contract: what every value type of ramtower promises.

Each record is built from one set of field values.  It must equal another
instance of its class built from the same values and nothing else: not a
record whose values differ in any one field, not an instance of another
class, not the tuple of its fields.  Its hash agrees with equality, and the
mutable reports stay unhashable.  Assigning to a frozen record raises
AttributeError.  Its repr is the one the records have always printed
(`TowerParams`' repr is part of `verify` failure strings), it survives a
pickle round trip (the `verify --jobs 2` pool pickles `TowerParams`), and
every constructor check raises the same exception class and message as
before.

Nothing here names the record base class, so the same file runs against any
implementation of the records.
"""

import pickle
from fractions import Fraction as F

import pytest

from ramtower.errors import ParameterError
from ramtower.formal import BivariateSeries, CongruenceReport, GroupLawReport, UnivariateSeries
from ramtower.fq import FqField, fq_field
from ramtower.herbrand import BreakFiltration
from ramtower.jsonio import RunReport
from ramtower.polygon import NewtonPolygon, Side, build_polygon
from ramtower.tate import ExtElement, HypothesisReport, TateBreaks, eisenstein_trinomial
from ramtower.towers import BottomLayer, BreakSchedule, TorsionTrace, TowerParams, VerifyReport

EXT = eisenstein_trinomial(fq_field(2), 1, prec=4)
OTHER_EXT = eisenstein_trinomial(fq_field(2), 2, prec=4)
GF3 = fq_field(3)
POLY = NewtonPolygon(((1, F(1, 2)), (2, F(0))))
HYP = HypothesisReport(True, None, True, 1)
PARAMS = TowerParams(p=2, q=2, g=1, d=1, N=0, c=1)
TABLE = (((F(0), F(3)), 2), ((F(3), None), 1))


class Case:
    """A record class, the field values it is built from (as keywords, in
    field order), for each field an override that changes it, the repr of
    the record, and what the contract says about it."""

    def __init__(self, cls, values, changes, text, mutable=False, hashable=True):
        self.cls, self.values, self.changes, self.text = cls, values, changes, text
        self.mutable, self.hashable = mutable, hashable

    def build(self, **override):
        return self.cls(**dict(self.values, **override))


CASES = [
    Case(
        Side,
        dict(slope=F(-1, 2), length=2, intercept=F(3)),
        dict(slope={"slope": F(-1)}, length={"length": 3}, intercept={"intercept": F(2)}),
        "Side(slope=Fraction(-1, 2), length=2, intercept=Fraction(3, 1))",
    ),
    Case(
        NewtonPolygon,
        dict(vertices=((0, F(3)), (1, F(1)), (4, F(0)))),
        dict(vertices={"vertices": ((0, F(3)), (4, F(0)))}),
        "NewtonPolygon(vertices=((0, Fraction(3, 1)), (1, Fraction(1, 1)), "
        "(4, Fraction(0, 1))))",
    ),
    Case(
        RunReport,
        dict(status="ok", payload={"a": 1}, diagnostics=["d"]),
        dict(
            status={"status": "fail"},
            payload={"payload": {"a": 2}},
            diagnostics={"diagnostics": []},
        ),
        "RunReport(status='ok', payload={'a': 1}, diagnostics=['d'])",
        mutable=True,
        hashable=False,
    ),
    Case(
        FqField,
        dict(p=2, m=2, modulus=(1, 1, 1)),
        dict(p={"p": 3}, m={"m": 3}, modulus={"modulus": (1, 0, 1)}),
        "FqField(p=2, m=2)",
    ),
    Case(
        BreakFiltration,
        dict(order=4, breaks=((1, 2), (3, 2))),
        dict(order={"order": 8}, breaks={"breaks": ((1, 2),)}),
        "BreakFiltration(order=4, breaks=((Fraction(1, 1), 2), (Fraction(3, 1), 2)))",
    ),
    Case(
        ExtElement,
        dict(ext=EXT, rep=EXT.alpha().rep),
        dict(ext={"ext": OTHER_EXT}, rep={"rep": EXT.alpha().rep + EXT.alpha().rep}),
        "ExtElement(ext=EisensteinExtension(n=2, SeriesPoly([t + O(t^4), t + O(t^4), "
        "1 + O(t^4)])), rep=SeriesPoly([0, 1]))",
    ),
    Case(
        HypothesisReport,
        dict(ok=True, witness=None, p_power_degree=True, degree_log=1),
        dict(
            ok={"ok": False},
            witness={"witness": (2, 1, 3)},
            p_power_degree={"p_power_degree": False},
            degree_log={"degree_log": None},
        ),
        "HypothesisReport(ok=True, witness=None, p_power_degree=True, degree_log=1)",
    ),
    Case(
        TateBreaks,
        dict(breaks=(F(1),), polygon=POLY, points=((1, 1), (2, 0)), hypothesis=HYP),
        dict(
            breaks={"breaks": (F(2),)},
            polygon={"polygon": NewtonPolygon(((1, F(1)), (2, F(0))))},
            points={"points": ((2, 0),)},
            hypothesis={"hypothesis": HypothesisReport(False, (2, 1, 3), True, 1)},
        ),
        "TateBreaks(breaks=(Fraction(1, 1),), polygon=NewtonPolygon(vertices=((1, "
        "Fraction(1, 2)), (2, Fraction(0, 1)))), points=((1, 1), (2, 0)), "
        "hypothesis=HypothesisReport(ok=True, witness=None, p_power_degree=True, "
        "degree_log=1))",
    ),
    Case(
        TowerParams,
        dict(p=2, q=2, g=1, d=1, N=0, c=1),
        # q names p, so p can only change together with q
        dict(
            p={"p": 3, "q": 3},
            q={"q": 4},
            g={"g": 2},
            d={"d": 2},
            N={"N": 1},
            c={"c": 2},
        ),
        "TowerParams(p=2, q=2, g=1, d=1, N=0, c=1)",
    ),
    Case(
        BreakSchedule,
        dict(
            params=PARAMS,
            n=1,
            lower=(F(3),),
            upper=(F(3),),
            lower_table=TABLE,
            upper_table=TABLE,
            diagnostics=(),
        ),
        dict(
            params={"params": TowerParams(p=2, q=2, g=1, d=1, N=0, c=2)},
            n={"n": 2},
            lower={"lower": (F(5),)},
            upper={"upper": (F(5),)},
            lower_table={"lower_table": ()},
            upper_table={"upper_table": ()},
            diagnostics={"diagnostics": ("lint",)},
        ),
        "BreakSchedule(params=TowerParams(p=2, q=2, g=1, d=1, N=0, c=1), n=1, "
        "lower=(Fraction(3, 1),), upper=(Fraction(3, 1),), lower_table=(((Fraction(0, 1), "
        "Fraction(3, 1)), 2), ((Fraction(3, 1), None), 1)), upper_table=(((Fraction(0, 1), "
        "Fraction(3, 1)), 2), ((Fraction(3, 1), None), 1)), diagnostics=())",
    ),
    Case(
        BottomLayer,
        dict(e=2, u=1, l=3),
        dict(e={"e": 3}, u={"u": 2}, l={"l": 4}),
        "BottomLayer(e=2, u=Fraction(1, 1), l=Fraction(3, 1))",
    ),
    Case(
        TorsionTrace,
        dict(
            q=2,
            g=1,
            a_vals=(F(1),),
            branch="max",
            valuations=(F(1), F(1, 2)),
            m=1,
            snapshots=(POLY,),
        ),
        dict(
            q={"q": 3},
            g={"g": 2},
            a_vals={"a_vals": (F(2),)},
            branch={"branch": "min"},
            valuations={"valuations": (F(1),)},
            m={"m": None},
            snapshots={"snapshots": ()},
        ),
        "TorsionTrace(q=2, g=1, a_vals=(Fraction(1, 1),), branch='max', "
        "valuations=(Fraction(1, 1), Fraction(1, 2)), m=1, snapshots=(NewtonPolygon("
        "vertices=((1, Fraction(1, 2)), (2, Fraction(0, 1)))),))",
    ),
    Case(
        VerifyReport,
        dict(cases=3, failures=["x"], diagnostics=["y"]),
        dict(cases={"cases": 4}, failures={"failures": []}, diagnostics={"diagnostics": []}),
        "VerifyReport(cases=3, failures=['x'], diagnostics=['y'])",
        mutable=True,
        hashable=False,
    ),
    Case(
        BivariateSeries,
        dict(ring="Q", D=2, coeffs={(1, 0): F(1), (0, 1): F(1)}),
        dict(ring={"ring": GF3}, D={"D": 3}, coeffs={"coeffs": {(1, 0): F(1)}}),
        "BivariateSeries(ring='Q', D=2, coeffs={(1, 0): Fraction(1, 1), "
        "(0, 1): Fraction(1, 1)})",
        hashable=False,  # a dict field, as before
    ),
    Case(
        UnivariateSeries,
        dict(ring=GF3, D=4, coeffs={1: GF3.from_int(2)}),
        dict(ring={"ring": "Q"}, D={"D": 5}, coeffs={"coeffs": {1: GF3.from_int(1)}}),
        "UnivariateSeries(ring=FqField(p=3, m=1), D=4, coeffs={1: Fq(3^1:2)})",
        hashable=False,
    ),
    Case(
        CongruenceReport,
        dict(ok=True, i=1, ideal_exponent=1, first_failure=None),
        dict(
            ok={"ok": False},
            i={"i": 2},
            ideal_exponent={"ideal_exponent": 0},
            first_failure={"first_failure": (3,)},
        ),
        "CongruenceReport(ok=True, i=1, ideal_exponent=1, first_failure=None)",
    ),
    Case(
        GroupLawReport,
        dict(
            unit_ok=True,
            commutative_ok=True,
            associative_ok=None,
            method="skip",
            first_failure=None,
            detail={},
        ),
        dict(
            unit_ok={"unit_ok": False},
            commutative_ok={"commutative_ok": False},
            associative_ok={"associative_ok": True},
            method={"method": "exact"},
            first_failure={"first_failure": (1, 2)},
            detail={"detail": {"x": 1}},
        ),
        "GroupLawReport(unit_ok=True, commutative_ok=True, associative_ok=None, "
        "method='skip', first_failure=None, detail={})",
        mutable=True,
        hashable=False,
    ),
]
IDS = [case.cls.__name__ for case in CASES]
records = pytest.mark.parametrize("case", CASES, ids=IDS)


def test_every_record_is_covered_once():
    assert len(set(IDS)) == len(IDS) == 17


@records
def test_equality_needs_the_same_class_and_fields(case):
    a, b = case.build(), case.build()
    assert a == b and not a != b
    assert a == a
    fields = tuple(getattr(a, name) for name in case.values)
    assert a != fields and fields != a
    assert set(case.changes) == set(case.values)
    for name, override in case.changes.items():
        other = case.build(**override)
        assert getattr(other, name) != getattr(a, name)
        assert a != other and not a == other, name
    for other in CASES:
        if other.cls is not case.cls:
            assert a != other.build()


@records
def test_equality_needs_the_same_class_not_a_subclass(case):
    sub = type("Sub" + case.cls.__name__, (case.cls,), {"__slots__": ()})
    a, b = case.build(), sub(**case.values)
    assert a != b and b != a
    assert b == sub(**case.values)


@records
def test_hash_agrees_with_equality(case):
    a, b = case.build(), case.build()
    if case.hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@records
def test_frozen_records_refuse_assignment(case):
    a = case.build()
    for name, override in case.changes.items():
        if case.mutable:
            setattr(a, name, override[name])
            assert getattr(a, name) == override[name]
        else:
            before = getattr(a, name)
            with pytest.raises(AttributeError):
                setattr(a, name, override[name])
            with pytest.raises(AttributeError):
                delattr(a, name)
            assert getattr(a, name) is before
    assert a == case.build() or case.mutable
    if not case.mutable:
        with pytest.raises(AttributeError):
            a.unknown_attribute = 1


@records
def test_repr_is_unchanged(case):
    assert repr(case.build()) == case.text


@records
def test_pickle_round_trip(case):
    a = case.build()
    back = pickle.loads(pickle.dumps(a))
    assert type(back) is case.cls and repr(back) == repr(a)
    if case.cls is ExtElement:
        # an extension compares by identity, and the copy has a new one
        assert back.rep == a.rep and back.ext is not a.ext
    else:
        assert back == a


def test_polygon_sides_are_computed_once_and_stay_out_of_equality():
    a = build_polygon([(0, 3), (1, 1), (2, 1), (4, 0)])
    b = NewtonPolygon(a.vertices)
    assert a.sides is a.sides
    assert a.sides == (Side(F(-2), 1, F(3)), Side(F(-1, 3), 3, F(4, 3)))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert pickle.loads(pickle.dumps(a)).sides == a.sides


@pytest.mark.parametrize(
    "build, exc, message",
    [
        (lambda: RunReport("bogus", {}), ValueError, "unknown status 'bogus'"),
        (lambda: BreakFiltration(0, ()), ParameterError, "order must be positive"),
        (
            lambda: BreakFiltration(4, ((2, 2), (1, 2))),
            ParameterError,
            "breaks must be positive and strictly increasing",
        ),
        (
            lambda: BreakFiltration(4, ((0, 2),)),
            ParameterError,
            "breaks must be positive and strictly increasing",
        ),
        (
            lambda: BreakFiltration(4, ((1, 3),)),
            ParameterError,
            "drop 3 does not divide remaining order 4",
        ),
        (
            lambda: BreakFiltration(4, ((1, 1),)),
            ParameterError,
            "drop 1 does not divide remaining order 4",
        ),
        (
            lambda: TowerParams(p=4, q=4, g=1, d=1, N=0, c=1),
            ParameterError,
            "p must be prime",
        ),
        (
            lambda: TowerParams(p=1, q=1, g=1, d=1, N=0, c=1),
            ParameterError,
            "p must be prime",
        ),
        (
            lambda: TowerParams(p=2, q=6, g=1, d=1, N=0, c=1),
            ParameterError,
            "q must be a positive power of p",
        ),
        (
            lambda: TowerParams(p=2, q=1, g=1, d=1, N=0, c=1),
            ParameterError,
            "q must be a positive power of p",
        ),
        (
            lambda: TowerParams(p=2, q=2, g=0, d=1, N=0, c=1),
            ParameterError,
            "g, d, c must be positive",
        ),
        (
            lambda: TowerParams(p=2, q=2, g=1, d=0, N=0, c=1),
            ParameterError,
            "g, d, c must be positive",
        ),
        (
            lambda: TowerParams(p=2, q=2, g=1, d=1, N=0, c=0),
            ParameterError,
            "g, d, c must be positive",
        ),
        (
            lambda: TowerParams(p=2, q=2, g=1, d=1, N=-1, c=1),
            ParameterError,
            "N must be nonnegative",
        ),
        (lambda: BottomLayer(0, 1, 2), ValueError, "ramification index must be positive"),
        (
            lambda: BottomLayer(1, 3, 2),
            ValueError,
            "upper break cannot exceed the lower break",
        ),
        (
            lambda: TorsionTrace(2, 1, (F(1),), "max", (F(1), F(1)), None, ()),
            AssertionError,
            "torsion valuations must strictly decrease",
        ),
        (
            lambda: BivariateSeries("Q", 2, {(2, 1): F(1)}),
            ValueError,
            "monomial (2,1) outside truncation 2",
        ),
        (
            lambda: BivariateSeries("Q", 2, {(-1, 0): F(1)}),
            ValueError,
            "monomial (-1,0) outside truncation 2",
        ),
        (
            lambda: UnivariateSeries("Q", 2, {3: F(1)}),
            ValueError,
            "exponent 3 outside truncation 2",
        ),
        (
            lambda: UnivariateSeries("Q", 2, {-1: F(1)}),
            ValueError,
            "exponent -1 outside truncation 2",
        ),
    ],
)
def test_constructor_checks_keep_their_class_and_message(build, exc, message):
    with pytest.raises(exc) as info:
        build()
    assert type(info.value) is exc
    assert str(info.value) == message


def test_constructors_normalise_as_before():
    assert BreakFiltration(4, (("1/2", 2.0),)).breaks == ((F(1, 2), 2),)
    assert BottomLayer(2, "1/2", 3).u == F(1, 2)
    assert BivariateSeries("Q", 2, {(1, 0): F(1), (0, 1): F(0)}).coeffs == {(1, 0): F(1)}
    assert UnivariateSeries("Q", 2, {1: F(0), 2: F(3)}).coeffs == {2: F(3)}
    assert RunReport("ok", {}).diagnostics == [] and VerifyReport().failures == []
    assert GroupLawReport(True, True, True, "exact").detail == {}
    # the mutable defaults are fresh per instance
    assert RunReport("ok", {}).diagnostics is not RunReport("ok", {}).diagnostics
    assert BreakSchedule(PARAMS, 1, (), (), (), ()).diagnostics == ()
    assert CongruenceReport(True, 1, 1).first_failure is None
