"""Exact arithmetic in the quadratic extension Q(sigma), sigma^2 = p*sigma + q.

sigma is the positive root (p + sqrt(p^2 + 4q)) / 2.  Every scalar in
the package is a QuadScalar: an integer triple (A, B, D) standing for
(A + B*sigma) / D, tagged with the integer parameters (p, q).  The
triple is kept canonical: D > 0 and gcd(A, B, D) == 1, so each value
has exactly one triple.  p and q are integers, so sums and products
stay in this form and each result is reduced by one gcd; the inverse
is D*conj(x)/N with the integer norm N = A^2 + A*B*p - B^2*q.  The
Fraction coefficients a = A/D and b = B/D are read-only properties.
All ring and field operations, the sign, and ordering are exact;
floats only enter through the one-way embed/__float__ bridge used by
oracles.

When p^2 + 4q is a perfect square sigma itself is rational and the
representation would be non-unique, so construction collapses b into a
and the invariant B == 0 holds for every value with such parameters.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import DivByZero, ParamError, ParseError
from .records import Record

RationalLike = Union[int, Fraction]


def _is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


class MetallicParams(Record):
    """Integer parameters (p, q) of the defining relation sigma^2 = p*sigma + q.

    Constraints: p >= 0, q >= 1, and p + q >= 2 so that sigma > 1.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        self._set(p, q)
        if not isinstance(self.p, int) or not isinstance(self.q, int):
            raise ParamError("p and q must be integers")
        if isinstance(self.p, bool) or isinstance(self.q, bool):
            raise ParamError("p and q must be integers")
        if self.p < 0:
            raise ParamError(f"p must be nonnegative, got {self.p}")
        if self.q < 1:
            raise ParamError(f"q must be positive, got {self.q}")
        if self.p + self.q < 2:
            raise ParamError(
                f"need p + q >= 2 so that sigma > 1, got p={self.p} q={self.q}"
            )

    @property
    def discriminant(self) -> int:
        return self.p * self.p + 4 * self.q

    @property
    def square_discriminant(self) -> bool:
        """True when sigma is rational and the sigma-part of every scalar is folded away."""
        return _is_perfect_square(self.discriminant)

    def sigma_rational(self) -> Fraction:
        """Exact value of sigma, only defined when the discriminant is a square."""
        if not self.square_discriminant:
            raise ParamError("sigma is irrational for these parameters")
        return Fraction(self.p + math.isqrt(self.discriminant), 2)


def _coerce_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"cannot treat {type(value).__name__} as a rational")


# log10(2) rounded down to 20 places: (k * _LOG10_2_NUM) // _LOG10_2_DEN is
# floor(k * log10 2) for every k below 1.5e9 (checked against the continued
# fraction of log10 2), which covers ints of up to about 190 MB
_LOG10_2_NUM = 30102999566398119521
_LOG10_2_DEN = 10**20


def _decimal_digits(n: int) -> int:
    """len(str(n)) for n >= 1, without the int-to-str conversion.

    2^(L-1) <= n < 2^L gives floor(log10 n) within one of
    floor((L-1) log10 2), so a single power of ten settles it.
    """
    low = ((n.bit_length() - 1) * _LOG10_2_NUM) // _LOG10_2_DEN
    return low + 1 + (n >= 10 ** (low + 1))


_gcd = math.gcd


def _int_text(n: int) -> str:
    """str(n), also past the interpreter's int-to-str digit limit: an
    integer str refuses is split by a power of ten and its two halves
    printed in turn, the low half padded to its full width."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + _int_text(-n)
    k = _decimal_digits(n) // 2
    high, low = divmod(n, 10**k)
    return _int_text(high) + _int_text(low).zfill(k)


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, exact at any size."""
    g = _gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return _int_text(n) if d == 1 else f"{_int_text(n)}/{_int_text(d)}"


_new = object.__new__


def _make(A: int, B: int, D: int, params: MetallicParams) -> "QuadScalar":
    """Internal: a QuadScalar from a triple already in canonical form."""
    x = _new(QuadScalar)
    x.A = A
    x.B = B
    x.D = D
    x.params = params
    return x


def _reduced(A: int, B: int, D: int, params: MetallicParams) -> "QuadScalar":
    """Internal: a QuadScalar from a triple with D > 0, divided by its gcd."""
    g = _gcd(A, B, D)
    if g != 1:
        return _make(A // g, B // g, D // g, params)
    return _make(A, B, D, params)


class QuadScalar:
    """(A + B*sigma) / D with integer A, B, D, tagged with its parameters.

    The triple is canonical: D > 0, gcd(A, B, D) == 1, and B == 0 when
    the discriminant is a square.  Equal values therefore have equal
    triples, and zero is (0, 0, 1).  No code assigns to the triple after
    construction; the Fraction coefficients of a + b*sigma are the
    read-only properties a and b.
    """

    __slots__ = ("A", "B", "D", "params")

    A: int
    B: int
    D: int
    params: MetallicParams

    def __init__(
        self,
        a: RationalLike,
        b: RationalLike,
        params: MetallicParams,
    ) -> None:
        if type(b) is int and not b:
            # a rational, the common case (the audit builds tens of
            # thousands of them from ints and Fractions)
            if type(a) is int:
                self.A, self.B, self.D = a, 0, 1
                self.params = params
                return
            if type(a) is Fraction:
                self.A, self.B, self.D = a.numerator, 0, a.denominator
                self.params = params
                return
        fa = _coerce_fraction(a)
        fb = _coerce_fraction(b)
        if fb != 0 and params.square_discriminant:
            fa = fa + fb * params.sigma_rational()
            fb = Fraction(0)
        # over the lcm of two reduced denominators the triple is already
        # coprime: a prime at its full power in D divides one of them,
        # whose numerator it does not divide
        da, db = fa.denominator, fb.denominator
        d = da // _gcd(da, db) * db
        self.A = fa.numerator * (d // da)
        self.B = fb.numerator * (d // db)
        self.D = d
        self.params = params

    # ---- constructors ----

    @classmethod
    def of(cls, value: RationalLike, params: MetallicParams) -> "QuadScalar":
        return cls(value, 0, params)

    @classmethod
    def zero(cls, params: MetallicParams) -> "QuadScalar":
        return _make(0, 0, 1, params)

    @classmethod
    def one(cls, params: MetallicParams) -> "QuadScalar":
        return _make(1, 0, 1, params)

    @classmethod
    def sigma(cls, params: MetallicParams) -> "QuadScalar":
        return cls(0, 1, params)

    # ---- structure ----

    @property
    def a(self) -> Fraction:
        """Rational coefficient of a + b*sigma."""
        return Fraction(self.A, self.D)

    @property
    def b(self) -> Fraction:
        """Sigma coefficient of a + b*sigma."""
        return Fraction(self.B, self.D)

    @property
    def is_rational(self) -> bool:
        return self.B == 0

    def _check_params(self, other: "QuadScalar") -> None:
        if self.params != other.params:
            raise ParamError(
                f"mixed structure parameters {self.params} vs {other.params}"
            )

    def _lift(self, value: object) -> "QuadScalar":
        if isinstance(value, QuadScalar):
            self._check_params(value)
            return value
        return QuadScalar(_coerce_fraction(value), 0, self.params)

    def __reduce__(self):
        return (_make, (self.A, self.B, self.D, self.params))

    # ---- ring operations ----

    # A plain int operand (never a bool: type() is exact) acts on the
    # triple directly instead of being lifted into a QuadScalar first.
    # Sums over a shared denominator need a gcd only when D > 1; over
    # different denominators one gcd of the cross-multiplied triple.
    # Integer sums and rational products, the most frequent results,
    # are built in place rather than through _make.

    def __add__(self, other: object) -> "QuadScalar":
        if type(other) is not QuadScalar:
            if type(other) is int:
                # gcd(A + n*D, B, D) == gcd(A, B, D) == 1
                return _make(self.A + other * self.D, self.B, self.D, self.params)
            try:
                other = self._lift(other)
            except TypeError:
                return NotImplemented
        params = self.params
        if params is not other.params:
            self._check_params(other)
        d = self.D
        e = other.D
        if d == e:
            if d == 1:
                x = _new(QuadScalar)
                x.A = self.A + other.A
                x.B = self.B + other.B
                x.D = 1
                x.params = params
                return x
            return _reduced(self.A + other.A, self.B + other.B, d, params)
        return _reduced(
            self.A * e + other.A * d, self.B * e + other.B * d, d * e, params
        )

    __radd__ = __add__

    def __neg__(self) -> "QuadScalar":
        return _make(-self.A, -self.B, self.D, self.params)

    def __sub__(self, other: object) -> "QuadScalar":
        if type(other) is not QuadScalar:
            if type(other) is int:
                # gcd(A - n*D, B, D) == gcd(A, B, D) == 1
                return _make(self.A - other * self.D, self.B, self.D, self.params)
            try:
                other = self._lift(other)
            except TypeError:
                return NotImplemented
        params = self.params
        if params is not other.params:
            self._check_params(other)
        d = self.D
        e = other.D
        if d == e:
            if d == 1:
                x = _new(QuadScalar)
                x.A = self.A - other.A
                x.B = self.B - other.B
                x.D = 1
                x.params = params
                return x
            return _reduced(self.A - other.A, self.B - other.B, d, params)
        return _reduced(
            self.A * e - other.A * d, self.B * e - other.B * d, d * e, params
        )

    def __rsub__(self, other: object) -> "QuadScalar":
        if type(other) is int:
            return _make(other * self.D - self.A, -self.B, self.D, self.params)
        try:
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> "QuadScalar":
        if type(other) is not QuadScalar:
            if type(other) is int:
                if not other:
                    return _make(0, 0, 1, self.params)
                # n/g and D/g are coprime, and D/g shares no factor with (A, B)
                d = self.D
                g = _gcd(other, d)
                if g != 1:
                    other //= g
                    d //= g
                return _make(self.A * other, self.B * other, d, self.params)
            try:
                other = self._lift(other)
            except TypeError:
                return NotImplemented
        params = self.params
        if params is not other.params:
            self._check_params(other)
        # (A + B s)(C + E s) = AC + BE q + (AE + BC + BE p) s  using s^2 = p s + q
        a, b, d = self.A, self.B, self.D
        c, e, f = other.A, other.B, other.D
        if not b:
            if not e:
                # rational times rational: cross-cancel as Fraction does
                if not a or not c:
                    return _make(0, 0, 1, params)
                g1 = _gcd(a, f)
                g2 = _gcd(c, d)
                x = _new(QuadScalar)
                x.A = (a // g1) * (c // g2)
                x.B = 0
                x.D = (d // g2) * (f // g1)
                x.params = params
                return x
            return _reduced(a * c, a * e, d * f, params)
        if not e:
            return _reduced(a * c, b * c, d * f, params)
        be = b * e
        return _reduced(
            a * c + be * params.q, a * e + b * c + be * params.p, d * f, params
        )

    __rmul__ = __mul__

    def _norm_numerator(self) -> int:
        """A^2 + A*B*p - B^2*q, the integer norm of A + B*sigma."""
        a, b = self.A, self.B
        return a * a + a * b * self.params.p - b * b * self.params.q

    def conjugate(self) -> "QuadScalar":
        """Image under sigma -> p - sigma, the other root of the defining relation."""
        # gcd(A + B*p, -B, D) == gcd(A, B, D) == 1
        return _make(self.A + self.B * self.params.p, -self.B, self.D, self.params)

    def field_norm(self) -> Fraction:
        """self * self.conjugate(), always rational."""
        return Fraction(self._norm_numerator(), self.D * self.D)

    def inverse(self) -> "QuadScalar":
        a, b, d = self.A, self.B, self.D
        if not b:
            if not a:
                raise DivByZero("inverse of zero")
            return _make(d, 0, a, self.params) if a > 0 else _make(-d, 0, -a, self.params)
        n = self._norm_numerator()
        if n == 0:
            # norm vanishes only at zero: sigma irrational excludes a = -b*sigma,
            # and square discriminants collapse to b == 0 where norm == a^2
            raise DivByZero("inverse of zero")
        # 1/x = D * conj(A + B sigma) / N(A + B sigma)
        if n < 0:
            d, n = -d, -n
        return _reduced(d * (a + b * self.params.p), -d * b, n, self.params)

    def __truediv__(self, other: object) -> "QuadScalar":
        try:
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "QuadScalar":
        try:
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int) -> "QuadScalar":
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if exponent == 0:
            return QuadScalar.one(self.params)
        # binary powering; the first factor is taken as is rather than
        # multiplied into one, and the base is not squared past the top bit
        result: Optional[QuadScalar] = None
        base = self
        n = exponent
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # ---- equality ----

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadScalar):
            if not self.B and not other.B:
                # rationals are the same number regardless of which
                # extension they were tagged with
                return self.A == other.A and self.D == other.D
            return (
                self.A == other.A
                and self.B == other.B
                and self.D == other.D
                and self.params == other.params
            )
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, int):
            return not self.B and self.D == 1 and self.A == other
        if isinstance(other, Fraction):
            return (
                not self.B
                and self.A == other.numerator
                and self.D == other.denominator
            )
        return NotImplemented

    def __hash__(self) -> int:
        if not self.B:
            # the hash of the equal int or Fraction
            return hash(self.A) if self.D == 1 else hash(Fraction(self.A, self.D))
        return hash((self.A, self.B, self.D, self.params))

    # ---- order ----

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}, no floating point involved."""
        a, b = self.A, self.B
        if not b:
            return (a > 0) - (a < 0)
        # never reached for square discriminants (b collapses to 0 there).
        # D > 0, so the sign is that of 2(A + B sigma) = u + B sqrt(disc)
        # with u = 2A + B p; when u and B disagree in sign, the larger
        # of u^2 and B^2 disc wins, and u^2 - B^2 disc = 4 N(A + B sigma),
        # which is never zero while sigma is irrational.
        u = 2 * a + b * self.params.p
        if (u >= 0) == (b > 0) or not u:
            return 1 if b > 0 else -1
        n = self._norm_numerator()
        assert n != 0
        if n > 0:
            return 1 if u > 0 else -1
        return 1 if b > 0 else -1

    def __bool__(self) -> bool:
        return self.A != 0 or self.B != 0

    def __lt__(self, other: object) -> bool:
        try:
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other: object) -> bool:
        try:
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other: object) -> bool:
        try:
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other: object) -> bool:
        try:
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        return (self - o).sign() >= 0

    def __abs__(self) -> "QuadScalar":
        return -self if self.sign() < 0 else self

    # ---- embedding into the reals ----

    def embed(self, places: int) -> Fraction:
        """Rational approximation within 10**-places of the real value.

        Exact for rational scalars.  Otherwise sqrt(discriminant) is
        bracketed by a scaled integer square root taken with enough
        guard digits to absorb the b/2 multiplier: one more than the
        decimal digits of b's reduced numerator.
        """
        return Fraction(*self._embed_ratio(places))

    def _embed_ratio(self, places: int) -> Tuple[int, int]:
        """embed(places) as an unreduced numerator and positive denominator."""
        if places < 0:
            raise ValueError("places must be nonnegative")
        A, B, D = self.A, self.B, self.D
        if not B:
            return A, D
        disc = self.params.discriminant
        guard = _decimal_digits(abs(B) // _gcd(B, D)) + 1
        scale = 10 ** (places + guard)
        root_floor = math.isqrt(disc * scale * scale)
        # (A + B (p + sqrt(disc)) / 2) / D with sqrt(disc) in
        # [root_floor, root_floor + 1) / scale
        return 2 * A * scale + B * (self.params.p * scale + root_floor), 2 * D * scale

    def __float__(self) -> float:
        # int true division rounds the exact ratio correctly, as
        # float(Fraction) does, so reducing first would not change it
        num, den = self._embed_ratio(20)
        return num / den

    # ---- text ----

    def to_string(self) -> str:
        """Canonical text, round-tripped by parse_scalar."""
        A, B, D = self.A, self.B, self.D
        if not B:
            return _ratio_text(A, D)
        mag = _ratio_text(-B if B < 0 else B, D)
        s_term = "s" if mag == "1" else f"{mag}*s"
        if not A:
            return s_term if B > 0 else f"-{s_term}"
        op = "+" if B > 0 else "-"
        return f"{_ratio_text(A, D)} {op} {s_term}"

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"QuadScalar({self.to_string()!r}, p={self.params.p}, q={self.params.q})"


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coef>\d+(?:/\d+)?)(?:\s*\*?\s*(?P<sym_after>s))?
          | (?P<sym>s)
        )\s*""",
    re.VERBOSE,
)


_RATIONAL_TEXT = re.compile(r"(-?)(\d+)(?:/(\d+))?\Z")


def _digits_to_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:
        # the only digit strings int() refuses are those past the
        # interpreter's int-string conversion limit (4300 digits by default)
        raise ParseError(
            f"coefficient of {len(digits)} digits exceeds the integer "
            "conversion limit"
        ) from None


# Error messages quote at most this many characters of the text, so a
# hostile coordinate cannot make its error as long as the input.
_QUOTE_LIMIT = 24


def _quote(text: str) -> str:
    """The text for an error message, cut to a fixed prefix when long."""
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} characters)"


def parse_scalar(text: str, params: MetallicParams) -> QuadScalar:
    """Parse sums of rational and sigma terms: '3/2', '-s', '1 - 2/3*s'.

    The symbol s stands for sigma.  Whitespace is free, '*' between a
    coefficient and s is optional.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected scalar text, got {type(text).__name__}")
    m = _RATIONAL_TEXT.match(text)
    if m is not None:
        # the common case, a bare integer or ratio: canonical after one gcd
        n = _digits_to_int(m.group(2))
        if m.group(1):
            n = -n
        if m.group(3) is None:
            return _make(n, 0, 1, params)
        d = _digits_to_int(m.group(3))
        if d == 0:
            raise ParseError(f"zero denominator in {_quote(text)}")
        g = _gcd(n, d)
        return _make(n // g, 0, d // g, params)
    pos = 0
    a = Fraction(0)
    b = Fraction(0)
    saw_term = False
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError(f"bad scalar text at offset {pos}: {_quote(text)}")
        if saw_term and m.group("sign") is None:
            raise ParseError(f"missing sign between terms in {_quote(text)}")
        sign = -1 if m.group("sign") == "-" else 1
        coef_text = m.group("coef")
        if coef_text is not None:
            if "/" in coef_text:
                num, den = (_digits_to_int(t) for t in coef_text.split("/"))
                if den == 0:
                    raise ParseError(f"zero denominator in {_quote(text)}")
                coef = Fraction(num, den)
            else:
                coef = Fraction(_digits_to_int(coef_text))
            if m.group("sym_after"):
                b += sign * coef
            else:
                a += sign * coef
        else:
            b += sign * 1
        saw_term = True
        pos = m.end()
    if not saw_term:
        raise ParseError(f"empty scalar text {_quote(text)}")
    return QuadScalar(a, b, params)


def metallic_number(params: MetallicParams) -> QuadScalar:
    """The positive root of x^2 = p*x + q, as an exact scalar.

    (1, 1) gives the golden ratio (1+sqrt 5)/2, (2, 1) the silver
    ratio 1+sqrt 2; embed() produces decimal approximations.
    """
    return QuadScalar.sigma(params)


GOLDEN = MetallicParams(1, 1)
SILVER = MetallicParams(2, 1)
