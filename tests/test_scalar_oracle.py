"""QuadScalar's integer triple against the Fraction-pair class it replaced.

pair_scalars.PairScalar is the former implementation, which works on the
Fraction coefficients a and b.  Every operation here runs on both classes
with the same inputs and must give the same value, the same text and the
same errors, and every QuadScalar result must be in canonical form:
D > 0, gcd(A, B, D) == 1, and B == 0 when the discriminant is a square.
"""

import copy
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightlike_lab.errors import DivByZero, ParamError
from lightlike_lab.linalg import det
from lightlike_lab.scalars import GOLDEN, SILVER, MetallicParams, QuadScalar, parse_scalar
from pair_scalars import PairScalar, det_by_cofactors

# (1, 2) and (2, 3) have discriminants 9 and 16: sigma is 2 and 3 there
ORACLE_PARAMS = [GOLDEN, SILVER, MetallicParams(1, 2), MetallicParams(2, 3)]
IDS = ["golden", "silver", "square-1-2", "square-2-3"]

rationals = st.one_of(
    st.integers(-6, 6).map(Fraction),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=60),
)
ints = st.integers(-(10**6), 10**6)


def canonical(x: QuadScalar) -> None:
    assert type(x) is QuadScalar
    assert all(type(v) is int for v in (x.A, x.B, x.D))
    assert x.D > 0
    assert math.gcd(x.A, x.B, x.D) == 1
    if x.params.square_discriminant:
        assert x.B == 0


def same(got, want) -> None:
    """A QuadScalar result equals the oracle's value, coefficient by coefficient."""
    canonical(got)
    assert type(want) is PairScalar
    assert (got.a, got.b, got.params) == (want.a, want.b, want.params)


def outcome(fn):
    """The value fn() returns, or the type of the library error it raises."""
    try:
        return fn()
    except (DivByZero, ParamError) as exc:
        return type(exc)


def same_outcome(fn_quad, fn_pair) -> None:
    got, want = outcome(fn_quad), outcome(fn_pair)
    if isinstance(want, type):
        assert got is want
    else:
        same(got, want)


def pair_of(params, a, b):
    return QuadScalar(a, b, params), PairScalar(a, b, params)


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=IDS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=rationals, b=rationals, c=rationals, d=rationals, n=ints, f=rationals)
def test_field_operations_match_the_pair_oracle(params, a, b, c, d, n, f):
    x, px = pair_of(params, a, b)
    y, py = pair_of(params, c, d)
    same(x, px)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        same_outcome(lambda: op(x, y), lambda: op(px, py))
        same_outcome(lambda: op(x, n), lambda: op(px, n))
        same_outcome(lambda: op(n, x), lambda: op(n, px))
        same_outcome(lambda: op(x, f), lambda: op(px, f))
        same_outcome(lambda: op(f, x), lambda: op(f, px))
    same(-x, -px)
    same(abs(x), abs(px))
    same(x.conjugate(), px.conjugate())
    same_outcome(x.inverse, px.inverse)
    for e in range(-3, 6):
        same_outcome(lambda: x**e, lambda: px**e)
    norm = x.field_norm()
    assert type(norm) is Fraction and norm == px.field_norm()
    assert x.is_rational == px.is_rational


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=IDS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=rationals, b=rationals, c=rationals, d=rationals, n=st.integers(-6, 6))
def test_order_equality_and_hash_match_the_pair_oracle(params, a, b, c, d, n):
    x, px = pair_of(params, a, b)
    y, py = pair_of(params, c, d)
    assert x.sign() == px.sign()
    for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne):
        assert op(x, y) == op(px, py)
        assert op(x, n) == op(px, n)
        assert op(x, x.a) == op(px, px.a)
    assert bool(x) == bool(px)
    # equal values hash alike, and a rational hashes as its int or Fraction
    if x == y:
        assert hash(x) == hash(y)
    if x.is_rational:
        assert hash(x) == hash(px) == hash(x.a)
        assert x == x.a and x.a == x
        if x.a.denominator == 1:
            assert x == int(x.a) and hash(x) == hash(int(x.a))
    assert (x == Fraction(n)) == (px == Fraction(n))


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=IDS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(a=rationals, b=rationals, places=st.integers(0, 30))
def test_text_and_embedding_match_the_pair_oracle(params, a, b, places):
    x, px = pair_of(params, a, b)
    text = x.to_string()
    assert text == px.to_string() and str(x) == str(px)
    back = parse_scalar(text, params)
    canonical(back)
    assert back == x and (back.A, back.B, back.D) == (x.A, x.B, x.D)
    assert x.embed(places) == px.embed(places)
    assert float(x) == float(px)


def test_rationals_equal_across_parameters_and_others_do_not():
    assert QuadScalar(Fraction(3, 2), 0, GOLDEN) == QuadScalar(Fraction(3, 2), 0, SILVER)
    assert QuadScalar.sigma(GOLDEN) != QuadScalar.sigma(SILVER)
    assert PairScalar.sigma(GOLDEN) != PairScalar.sigma(SILVER)
    with pytest.raises(ParamError):
        QuadScalar.sigma(GOLDEN) - QuadScalar.sigma(SILVER)


square_3x3 = st.lists(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3)),
             min_size=3, max_size=3),
    min_size=3,
    max_size=3,
)


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=IDS)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(cells=square_3x3)
def test_det_matches_the_cofactor_expansion(params, cells):
    quad = tuple(
        tuple(QuadScalar(Fraction(a, k), Fraction(b, k), params) for a, b, k in row)
        for row in cells
    )
    pair = [[PairScalar(Fraction(a, k), Fraction(b, k), params) for a, b, k in row] for row in cells]
    same(det(quad), det_by_cofactors(pair))


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=IDS)
def test_construction_reduces_to_canonical_form(params):
    for a, b in [
        (Fraction(2, 4), Fraction(6, 8)),
        (Fraction(-9, 6), Fraction(10, 4)),
        (0, Fraction(5, 10)),
        (Fraction(7, 21), 0),
        (0, 0),
        (6, -4),
    ]:
        x, px = pair_of(params, a, b)
        same(x, px)
    for x in (QuadScalar.zero(params), QuadScalar.one(params), QuadScalar.sigma(params)):
        canonical(x)
    assert (QuadScalar.zero(params).A, QuadScalar.zero(params).D) == (0, 1)
    # a difference that cancels lands on the one zero triple
    half = QuadScalar(Fraction(1, 2), Fraction(1, 2), params)
    z = half - half
    canonical(z)
    assert (z.A, z.B, z.D) == (0, 0, 1)


@pytest.mark.parametrize("params", ORACLE_PARAMS, ids=IDS)
def test_copy_and_pickle_round_trip(params):
    x = QuadScalar(Fraction(-7, 6), Fraction(5, 4), params)
    copies = [copy.copy(x), copy.deepcopy(x), copy.deepcopy([x, x])[0]]
    copies += [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies:
        canonical(y)
        assert y == x and hash(y) == hash(x)
        assert (y.A, y.B, y.D, y.params) == (x.A, x.B, x.D, x.params)
        assert y + 1 == x + 1


def test_coefficients_are_read_only():
    x = QuadScalar(1, 2, GOLDEN)
    with pytest.raises(AttributeError):
        x.a = Fraction(3)  # type: ignore[misc]
    with pytest.raises(AttributeError):
        x.b = Fraction(3)  # type: ignore[misc]
    with pytest.raises(AttributeError):
        x.extra = 1  # type: ignore[attr-defined]
