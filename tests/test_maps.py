"""Rational maps into quadrics: construction-time vanishing checks,
verification, and projective comparison."""

import pytest

from quasiform.errors import DimensionMismatch, InconsistencyDetected
from quasiform.fieldtower import FieldTower
from quasiform.forms import QuasilinearForm
from quasiform.maps import RationalMap, projectively_equal
from quasiform.splitting import function_field


@pytest.fixture
def F():
    return FieldTower.rational(("a", "b"))


def test_generic_point_defines_a_map(F):
    a, b = F.var("a"), F.var("b")
    q = QuasilinearForm(F, [F.one(), a, b])
    ff = function_field(q)
    m = RationalMap(ff.tower, list(ff.generic_point), q)
    assert m.verify()
    assert m.source_field == ff.tower


def test_non_vanishing_coords_rejected(F):
    a = F.var("a")
    q = QuasilinearForm(F, [F.one(), a])
    with pytest.raises(InconsistencyDetected):
        RationalMap(F, [F.one(), F.one()], q)


def test_all_zero_coords_rejected(F):
    a = F.var("a")
    q = QuasilinearForm(F, [F.one(), a])
    with pytest.raises(Exception):
        RationalMap(F, [F.zero(), F.zero()], q)


def test_wrong_length_coords_rejected(F):
    # a map into a quadric has one coordinate per coefficient, whether
    # its vanishing is checked pointwise or by an ambient certificate
    a, b = F.var("a"), F.var("b")
    q = QuasilinearForm(F, [F.one(), a, b])
    ff = function_field(q)
    point = list(ff.generic_point)
    for coords in (point[:-1], point + [point[0]]):
        with pytest.raises(DimensionMismatch):
            RationalMap(ff.tower, coords, q)

    class AlwaysTrue:
        def verify(self):
            return True

    target = QuasilinearForm(F, [F.one()])
    with pytest.raises(DimensionMismatch):
        RationalMap(F, [F.one()] * 3, target, certificate=AlwaysTrue(),
                    ambient=True)
    assert RationalMap(F, [F.one()], target, certificate=AlwaysTrue(),
                       ambient=True).verify()


def test_projectively_equal(F):
    a, b = F.var("a"), F.var("b")
    v = [F.one(), a, b]
    w = [b, a * b, b.square()]
    assert projectively_equal(v, w)
    assert projectively_equal(v, v)
    assert not projectively_equal(v, [F.one(), a, a])
    assert not projectively_equal(v, [F.zero(), F.zero(), F.zero()])


def test_ambient_map_requires_certificate(F):
    a = F.var("a")
    target = QuasilinearForm(F, [a])

    class AlwaysTrue:
        def verify(self):
            return True

    with pytest.raises(ValueError):
        RationalMap(F, [F.one()], target, ambient=True)
    m = RationalMap(F, [F.one()], target, certificate=AlwaysTrue(),
                    ambient=True)
    assert m.verify()


def test_ambient_map_with_failing_certificate(F):
    a = F.var("a")
    target = QuasilinearForm(F, [a])

    class AlwaysFalse:
        def verify(self):
            return False

    with pytest.raises(InconsistencyDetected):
        RationalMap(F, [F.one()], target, certificate=AlwaysFalse(),
                    ambient=True)
