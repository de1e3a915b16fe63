"""Polynomial ring ops, partials, evaluation, text round-trip.

sympy is the independent oracle: coefficients a + b*s map to exprs in a
symbol S that is reduced modulo S^2 - p*S - q after every operation.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lightlike_lab.errors import ParseError, ShapeError
from lightlike_lab.polynomials import Polynomial
from lightlike_lab.scalars import GOLDEN, MetallicParams, QuadScalar
from helpers import parse_polynomial

P = GOLDEN
S = sympy.Symbol("S")
U = sympy.symbols("x1 x2 x3")


def to_sympy(poly: Polynomial):
    expr = sympy.Integer(0)
    for expos, coef in poly.terms.items():
        term = sympy.Rational(coef.a.numerator, coef.a.denominator) + S * sympy.Rational(
            coef.b.numerator, coef.b.denominator
        )
        for var, e in zip(U, expos):
            term *= var**e
        expr += term
    return sympy.expand(expr)


def reduce_sigma(expr):
    """Rewrite S^2 -> p*S + q until degree in S drops below 2."""
    p, q = P.p, P.q
    expr = sympy.expand(expr)
    while sympy.degree(sympy.Poly(expr, S), S) >= 2:
        expr = sympy.expand(expr.subs(S**2, p * S + q))
    return sympy.expand(expr)


coef_st = st.builds(
    lambda a, b: QuadScalar(Fraction(a, 2), Fraction(b, 2), P),
    st.integers(-6, 6),
    st.integers(-4, 4),
)


@st.composite
def polys(draw, nvars=3, max_terms=4, max_exp=2):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        expos = tuple(
            draw(st.integers(0, max_exp)) for _ in range(nvars)
        )
        terms[expos] = draw(coef_st)
    return Polynomial(terms, nvars, P)


# ---- ring laws against sympy ----


@settings(max_examples=150, deadline=None, derandomize=True)
@given(polys(), polys())
def test_product_matches_sympy(f, g):
    ours = to_sympy(f * g)
    theirs = reduce_sigma(to_sympy(f) * to_sympy(g))
    assert sympy.expand(ours - theirs) == 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(polys(), polys(), polys())
def test_ring_laws(f, g, h):
    assert (f + g) - g == f
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys())
def test_partial_matches_sympy(f):
    for i in range(3):
        ours = to_sympy(f.partial(i))
        theirs = sympy.expand(sympy.diff(to_sympy(f), U[i]))
        assert sympy.expand(ours - theirs) == 0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys(), polys())
def test_leibniz_rule(f, g):
    for i in range(3):
        lhs = (f * g).partial(i)
        rhs = f.partial(i) * g + f * g.partial(i)
        assert lhs == rhs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys())
def test_partials_commute(f):
    assert f.partial(0).partial(1) == f.partial(1).partial(0)


# ---- evaluation ----


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys(), polys(), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_eval_is_ring_homomorphism(f, g, pt):
    point = tuple(QuadScalar(x, 0, P) for x in pt)
    assert (f * g).eval(point) == f.eval(point) * g.eval(point)
    assert (f + g).eval(point) == f.eval(point) + g.eval(point)


@pytest.mark.parametrize("params", [GOLDEN, MetallicParams(0, 2), MetallicParams(1, 2)])
def test_zero_and_constant_polynomials_evaluate_to_the_sum_from_zero(params):
    """eval starts from the first term; on a zero or constant polynomial
    the value is the one a sum started from QuadScalar.zero gives, down
    to the (A, B, D) triple and the text."""
    point = (QuadScalar(Fraction(1, 2), 1, params), QuadScalar(-2, Fraction(1, 3), params))
    zero = QuadScalar.zero(params)
    values = (
        zero,
        QuadScalar(3, 0, params),
        QuadScalar(Fraction(-1, 2), Fraction(2, 3), params),
        QuadScalar.sigma(params),
    )
    for f in (Polynomial.zero(2, params),) + tuple(
        Polynomial.constant(c, 2, params) for c in values
    ):
        expected = sum(f.terms.values(), zero)
        value = f.eval(point)
        assert (value.A, value.B, value.D, value.params, str(value)) == (
            expected.A,
            expected.B,
            expected.D,
            expected.params,
            str(expected),
        )


def test_eval_frozen():
    f = parse_polynomial("u1^2 + (1 - s)*u2 + (-3)", 2, P)
    sigma = QuadScalar.sigma(P)
    point = (QuadScalar(2, 0, P), sigma)
    # 4 + (1 - s)s - 3 = 1 + s - s^2 = 1 + s - (s + 1) = 0
    assert not f.eval(point)


# ---- text ----


def test_eval_costs_no_more_products_than_the_degree(monkeypatch):
    point = (QuadScalar(Fraction(1, 2), 1, P), QuadScalar(-2, Fraction(1, 3), P))
    multiply = QuadScalar.__mul__
    count = [0]

    def counting(self, other):
        count[0] += 1
        return multiply(self, other)

    for e in range(0, 9):
        for f in range(0, 9):
            mono = parse_polynomial(f"3*u1^{e}*u2^{f}", 2, P)
            expected = QuadScalar(3, 0, P)
            for _ in range(e):
                expected = expected * point[0]
            for _ in range(f):
                expected = expected * point[1]
            monkeypatch.setattr(QuadScalar, "__mul__", counting)
            count[0] = 0
            assert mono.eval(point) == expected
            monkeypatch.undo()
            assert count[0] <= e + f


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polys())
def test_to_string_round_trip(f):
    assert parse_polynomial(f.to_string(), 3, P) == f


def test_parse_forms():
    f = parse_polynomial("2*u1*u2 - u1^2", 2, P)
    assert f.degree() == 2
    g = parse_polynomial("s*u1 + s^2", 1, P)
    sigma = QuadScalar.sigma(P)
    assert g.constant_term() == sigma * sigma
    assert parse_polynomial("-(u1 - u2)", 2, P) == parse_polynomial("u2 - u1", 2, P)
    assert parse_polynomial("1/2*u1^3", 1, P).degree() == 3
    assert parse_polynomial("0", 2, P).is_zero


def test_parse_rejects():
    for bad in ["", "u0", "u3", "u1 u2", "1 +", "2^u1", "(u1", "u1^-2", "3//2"]:
        with pytest.raises(ParseError):
            parse_polynomial(bad, 2, P)


def test_shape_guards():
    f = Polynomial.variable(0, 2, P)
    g = Polynomial.variable(0, 3, P)
    with pytest.raises(ShapeError):
        f + g
    with pytest.raises(ShapeError):
        f.eval((QuadScalar.zero(P),))
    with pytest.raises(ShapeError):
        f.partial(5)
    with pytest.raises(ShapeError):
        Polynomial({(-1, 0): QuadScalar.one(P)}, 2, P)


def test_degree_and_zero():
    z = Polynomial.zero(2, P)
    assert z.degree() == -1
    assert z.to_string() == "0"
    assert parse_polynomial("u1*u2^2", 2, P).degree() == 3
