"""Exact scalar arithmetic: field axioms, ordering, embedding, text round-trip.

The independent oracle is mpmath at 60+ digits.  For the bounded
rational coefficients the strategies generate, a nonzero a + b*sigma
is bounded away from zero far above the oracle precision (quadratic
irrationals are badly approximable), so sign comparisons are safe.
"""

import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightlike_lab.errors import DivByZero, ParamError, ParseError
from lightlike_lab.scalars import (
    GOLDEN,
    SILVER,
    MetallicParams,
    QuadScalar,
    _decimal_digits,
    parse_scalar,
)
from helpers import conjugate, field_norm

PARAMS_POOL = [
    MetallicParams(1, 1),
    MetallicParams(2, 1),
    MetallicParams(0, 2),
    MetallicParams(3, 2),
    MetallicParams(1, 3),
    MetallicParams(2, 3),  # discriminant 16: sigma collapses to 3
    MetallicParams(0, 4),  # discriminant 16: sigma collapses to 2
]

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)
params_st = st.sampled_from(PARAMS_POOL)
scalars = st.builds(QuadScalar, rationals, rationals, params_st)


def mp_value(x: QuadScalar, dps: int = 60) -> mpmath.mpf:
    with mpmath.workdps(dps):
        sigma = (x.params.p + mpmath.sqrt(x.params.discriminant)) / 2
        av = mpmath.mpf(x.a.numerator) / x.a.denominator
        bv = mpmath.mpf(x.b.numerator) / x.b.denominator
        return av + bv * sigma


# ---- parameter validation ----


def test_param_bounds():
    with pytest.raises(ParamError):
        MetallicParams(-1, 1)
    with pytest.raises(ParamError):
        MetallicParams(1, 0)
    with pytest.raises(ParamError):
        MetallicParams(0, 1)  # sigma would be exactly 1
    with pytest.raises(ParamError):
        MetallicParams(Fraction(1, 2), 1)  # type: ignore[arg-type]
    with pytest.raises(ParamError):
        MetallicParams(True, 1)  # type: ignore[arg-type]
    MetallicParams(0, 2)
    MetallicParams(1, 1)


# ---- frozen constants ----


def test_golden_ratio_value():
    sigma = QuadScalar.sigma(GOLDEN)
    assert abs(float(sigma) - 1.6180339887) < 1e-9


def test_silver_ratio_value():
    sigma = QuadScalar.sigma(SILVER)
    assert abs(float(sigma) - 2.4142135624) < 1e-9


def test_bronze_ratio_value():
    sigma = QuadScalar.sigma(MetallicParams(3, 1))
    assert abs(float(sigma) - 3.3027756377) < 1e-9


def test_golden_ratio_exact_identity():
    """(1 + sqrt5) / 2 equals sigma exactly, with sqrt5 = 2*sigma - 1."""
    sigma = QuadScalar.sigma(GOLDEN)
    sqrt5 = 2 * sigma - 1
    assert sqrt5 * sqrt5 == QuadScalar.of(5, GOLDEN)
    assert (1 + sqrt5) / 2 == sigma


def test_silver_ratio_exact_identity():
    """1 + sqrt2 equals sigma exactly, with sqrt2 = sigma - 1."""
    sigma = QuadScalar.sigma(SILVER)
    sqrt2 = sigma - 1
    assert sqrt2 * sqrt2 == QuadScalar.of(2, SILVER)
    assert 1 + sqrt2 == sigma


def test_defining_relation():
    for params in PARAMS_POOL:
        sigma = QuadScalar.sigma(params)
        assert sigma * sigma == params.p * sigma + params.q


# ---- square discriminant collapse ----


def test_square_discriminant_collapses():
    params = MetallicParams(2, 3)
    assert params.square_discriminant
    assert params.sigma_rational() == 3
    x = QuadScalar(1, 1, params)
    assert x.b == 0 and x.a == 4

    params2 = MetallicParams(0, 4)
    assert QuadScalar.sigma(params2).a == 2


def test_nonsquare_keeps_sigma_part():
    x = QuadScalar(1, 1, GOLDEN)
    assert x.b == 1
    with pytest.raises(ParamError):
        GOLDEN.sigma_rational()


# ---- field axioms ----


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scalars, rationals, rationals)
def test_ring_laws_with_shared_params(x, c, d):
    y = QuadScalar(c, d, x.params)
    z = x * y - y * x
    assert not z  # commutative
    assert (x + y) - y == x
    assert x * (y + 1) == x * y + x


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scalars, rationals, rationals, rationals, rationals)
def test_associativity_distributivity(x, c, d, e, f):
    y = QuadScalar(c, d, x.params)
    z = QuadScalar(e, f, x.params)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scalars)
def test_multiplicative_inverse(x):
    if not x:
        with pytest.raises(DivByZero):
            x.inverse()
        return
    assert x * x.inverse() == QuadScalar.one(x.params)
    assert (1 / x) * x == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scalars)
def test_conjugation_and_norm(x):
    c = conjugate(x)
    prod = x * c
    assert not prod.B
    assert prod.a == field_norm(x)
    assert conjugate(c) == x
    # sum is the rational trace
    assert not (x + c).B


def test_mixed_params_rejected():
    x = QuadScalar.sigma(GOLDEN)
    y = QuadScalar.sigma(SILVER)
    with pytest.raises(ParamError):
        x + y
    with pytest.raises(ParamError):
        x * y


# ---- sign and order against the mpmath oracle ----


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scalars)
def test_sign_matches_oracle(x):
    s = x.sign()
    if x.a == 0 and x.b == 0:
        assert s == 0
        return
    mv = mp_value(x)
    assert mv != 0
    assert s == (1 if mv > 0 else -1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scalars, rationals, rationals)
def test_order_laws(x, c, d):
    y = QuadScalar(c, d, x.params)
    assert (x * x).sign() >= 0
    assert (x < y) == ((x - y).sign() < 0)
    if x > 0 and y > 0:
        assert x + y > 0
        assert x * y > 0
    assert abs(x) >= 0


def test_sigma_exceeds_one():
    for params in PARAMS_POOL:
        assert QuadScalar.sigma(params) > 1


# ---- embedding ----


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scalars, st.integers(min_value=0, max_value=40))
def test_embed_precision(x, places):
    approx = x.embed(places)
    true = mp_value(x, dps=80)
    with mpmath.workdps(80):
        err = abs(true - mpmath.mpf(approx.numerator) / approx.denominator)
        assert err <= mpmath.mpf(10) ** (-places)


def test_embed_rational_is_exact():
    x = QuadScalar(Fraction(22, 7), 0, GOLDEN)
    assert x.embed(0) == Fraction(22, 7)


def test_embed_nine_places():
    sigma = QuadScalar.sigma(GOLDEN)
    approx = sigma.embed(9)
    assert abs(float(approx) - 1.618033988749895) < 1e-9


def test_decimal_digits_counts_like_str():
    # powers of two (and their neighbours) that str() can still print, and
    # powers of ten and their neighbours on both sides of the int-string limit
    for j in range(0, 14000, 7):
        for n in (2**j, 2 ** (j + 1) - 1):
            assert _decimal_digits(n) == len(str(n))
    for k in range(1, 12000, 7):
        assert _decimal_digits(10**k - 1) == k
        assert _decimal_digits(10**k) == k + 1
        assert _decimal_digits(10**k + 1) == k + 1


def test_scalar_past_the_int_string_limit_serializes_exactly(default_int_limit):
    # 5000 digits: 3, 4997 zeros, 17
    n = 3 * 10**4999 + 17
    digits = "3" + "0" * 4997 + "17"
    with pytest.raises(ValueError):
        str(n)
    text = QuadScalar(-n, 0, GOLDEN).to_string()
    assert len(text) == 5001
    assert text[:4] == "-300" and text[-4:] == "0017"
    assert text == "-" + digits
    # both parts of a ratio and the sigma coefficient go through the same path
    x = QuadScalar(Fraction(n, 10**4500 + 1), n, GOLDEN).to_string()
    assert x == f"{digits}/1{'0' * 4499}1 + {digits}*s"


@pytest.mark.parametrize("params", [GOLDEN, SILVER], ids=["golden", "silver"])
def test_embed_with_a_5000_digit_sigma_coefficient(params):
    # b = (10^5000 - 1) / 10^5000 - 1/7: 5000-digit numerator and denominator
    b = Fraction(10**5000 - 1, 10**5000) - Fraction(1, 7)
    assert _decimal_digits(b.numerator) >= 5000
    x = QuadScalar(Fraction(-2, 3), b, params)
    with mpmath.workdps(120):
        sigma = (params.p + mpmath.sqrt(params.discriminant)) / 2
        true = mpmath.mpf(-2) / 3 + (mpmath.mpf(b.numerator) / b.denominator) * sigma
        for places in (0, 9, 40, 90):
            approx = x.embed(places)
            err = abs(true - mpmath.mpf(approx.numerator) / approx.denominator)
            assert err <= mpmath.mpf(10) ** (-places)
        assert abs(float(x) - float(true)) <= 1e-12


# ---- text round-trip ----


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scalars)
def test_string_round_trip(x):
    assert parse_scalar(x.to_string(), x.params) == x


def test_parse_forms():
    assert parse_scalar("3/2", GOLDEN) == QuadScalar(Fraction(3, 2), 0, GOLDEN)
    assert parse_scalar("-s", GOLDEN) == -QuadScalar.sigma(GOLDEN)
    assert parse_scalar("1 - 2/3*s", GOLDEN) == QuadScalar(1, Fraction(-2, 3), GOLDEN)
    assert parse_scalar("2s", GOLDEN) == QuadScalar(0, 2, GOLDEN)
    assert parse_scalar("  1+s ", GOLDEN) == QuadScalar(1, 1, GOLDEN)


def test_parse_rejects_garbage():
    for bad in ["", "x", "1 +", "++1", "1 1", "1/0", "s s"]:
        with pytest.raises(ParseError):
            parse_scalar(bad, GOLDEN)


@pytest.mark.parametrize("params", [GOLDEN, MetallicParams(0, 4)], ids=["golden", "square"])
def test_bare_ratio_parses_to_the_canonical_triple(params):
    # "-n/d" takes the one-gcd path; a leading space sends the same text
    # through the term parser, which must agree triple for triple
    d = 10**1000 + 7  # a 1001-digit denominator
    cases = [("-4/6", (-2, 0, 3)), ("0/7", (0, 0, 1)), ("-0/3", (0, 0, 1)), ("12/4", (3, 0, 1))]
    for text, triple in cases + [(f"{3 * d}/{6 * d}", (1, 0, 2)), (f"-5/{d}", (-5, 0, d))]:
        for variant in (text, " " + text):
            x = parse_scalar(variant, params)
            assert (x.A, x.B, x.D, x.params) == triple + (params,), variant
    with pytest.raises(ParseError) as info:
        parse_scalar("5/0", params)
    assert str(info.value) == "zero denominator in '5/0'"
    long_zero = "-5/" + "0" * 30
    with pytest.raises(ParseError) as info:
        parse_scalar(long_zero, params)
    assert str(info.value) == f"zero denominator in {long_zero[:24]!r}... (33 characters)"


@pytest.fixture
def default_int_limit():
    """Python's default int-string conversion limit, whatever the environment set."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def test_parse_takes_coefficients_up_to_the_int_limit(default_int_limit):
    n = 10 ** (default_int_limit - 1)
    assert parse_scalar(str(n), GOLDEN) == n
    assert parse_scalar(f"1/{n}*s", GOLDEN) == QuadScalar(0, Fraction(1, n), GOLDEN)
    assert parse_scalar(f"-{n}/3 + s", GOLDEN) == QuadScalar(Fraction(-n, 3), 1, GOLDEN)


@pytest.mark.parametrize(
    "text",
    [
        "1" + "0" * 4300,
        "1/" + "3" * 4301,
        "1 - " + "7" * 4301 + "*s",
        "1" + "0" * 20000,
        "1/" + "3" * 20000,
    ],
    ids=["numerator", "denominator", "sigma", "numerator-20000", "denominator-20000"],
)
def test_parse_refuses_coefficients_past_the_int_limit(default_int_limit, text):
    with pytest.raises(ParseError, match="digits exceeds the integer conversion limit"):
        parse_scalar(text, GOLDEN)


# ---- hashing ----


def test_hash_consistent_with_eq():
    x = QuadScalar(1, 2, GOLDEN)
    y = QuadScalar(Fraction(2, 2), Fraction(4, 2), GOLDEN)
    assert x == y and hash(x) == hash(y)
    assert len({x, y}) == 1


# ---- powers ----


@pytest.mark.parametrize("params", [GOLDEN, SILVER], ids=["golden", "silver"])
def test_power_is_binary_powering_without_spare_products(params, monkeypatch):
    x = QuadScalar(Fraction(2, 3), -1, params)
    products = [QuadScalar.one(params)]
    for _ in range(40):
        products.append(products[-1] * x)
    multiply = QuadScalar.__mul__
    count = [0]

    def counting(self, other):
        count[0] += 1
        return multiply(self, other)

    monkeypatch.setattr(QuadScalar, "__mul__", counting)
    for e, expected in enumerate(products):
        count[0] = 0
        assert x**e == expected
        # squarings below the top bit, plus one product per further set bit
        assert count[0] == max(e.bit_length() - 1, 0) + max(bin(e).count("1") - 1, 0)
        assert count[0] <= max(e - 1, 0)
    monkeypatch.undo()
    assert x**-3 == (x * x * x).inverse()
    assert QuadScalar.zero(params) ** 5 == QuadScalar.zero(params)


# ---- int operands without a lift ----

INT_OPERAND_PARAMS = [GOLDEN, SILVER, MetallicParams(1, 2)]  # (1, 2): sigma = 2


@pytest.mark.parametrize(
    "params", INT_OPERAND_PARAMS, ids=["golden", "silver", "square-discriminant"]
)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=rationals, b=rationals, n=st.integers(-(10**12), 10**12))
def test_int_operands_match_the_lifted_result(params, a, b, n):
    x = QuadScalar(a, b, params)
    lifted = QuadScalar(n, 0, params)
    pairs = (
        (x * n, x * lifted),
        (n * x, lifted * x),
        (x + n, x + lifted),
        (n + x, lifted + x),
        (x - n, x - lifted),
        (n - x, lifted - x),
    )
    for got, want in pairs:
        assert type(got) is QuadScalar
        assert type(got.a) is Fraction and type(got.b) is Fraction
        assert (got.a, got.b, got.params) == (want.a, want.b, want.params)


def test_int_operands_are_not_lifted(monkeypatch):
    def refuse(self, value):
        raise AssertionError(f"lifted {value!r}")

    monkeypatch.setattr(QuadScalar, "_lift", refuse)
    x = QuadScalar(Fraction(1, 3), 2, GOLDEN)
    assert x * 3 == QuadScalar(1, 6, GOLDEN) == 3 * x
    assert x + 2 == QuadScalar(Fraction(7, 3), 2, GOLDEN) == 2 + x
    assert x - 1 == QuadScalar(Fraction(-2, 3), 2, GOLDEN)
    assert 1 - x == QuadScalar(Fraction(2, 3), -2, GOLDEN)
    assert not x * 0


@pytest.mark.parametrize("other", [True, False, 1.5, "1", None, 1j])
def test_bool_and_foreign_operands_are_refused(other):
    import operator

    x = QuadScalar(1, 1, GOLDEN)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)
