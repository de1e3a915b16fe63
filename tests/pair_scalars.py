"""The Fraction-pair scalar that QuadScalar replaced, kept as a test oracle.

PairScalar stores a + b*sigma as two Fractions and works every operation
out on those coefficients, independently of the integer triple that
lightlike_lab.scalars keeps.  The differential tests in
test_scalar_oracle.py run both classes on the same inputs.  Only
MetallicParams is shared with the package.  gauss_jordan and
det_by_elimination are the textbook eliminations, with no zero skips,
that the package's elimination kernels are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from lightlike_lab.errors import DivByZero, ParamError
from lightlike_lab.scalars import MetallicParams

RationalLike = Union[int, Fraction]


def _coerce_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"cannot treat {type(value).__name__} as a rational")


@dataclass(frozen=True, eq=False)
class PairScalar:
    """a + b*sigma with exact Fraction coefficients (the former QuadScalar)."""

    a: Fraction
    b: Fraction
    params: MetallicParams

    def __init__(
        self,
        a: RationalLike,
        b: RationalLike,
        params: MetallicParams,
    ) -> None:
        fa = _coerce_fraction(a)
        fb = _coerce_fraction(b)
        if fb != 0 and params.square_discriminant:
            fa = fa + fb * params.sigma_rational()
            fb = Fraction(0)
        object.__setattr__(self, "a", fa)
        object.__setattr__(self, "b", fb)
        object.__setattr__(self, "params", params)

    # ---- constructors ----

    @classmethod
    def _fast(cls, fa: Fraction, fb: Fraction, params: MetallicParams) -> "PairScalar":
        """Internal: both coefficients are already normalized Fractions.

        Arithmetic on normalized values stays normalized (a square
        discriminant forces b = 0, and sums and products of b = 0
        values keep b = 0), so the constructor checks can be skipped.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "a", fa)
        object.__setattr__(self, "b", fb)
        object.__setattr__(self, "params", params)
        return self

    @classmethod
    def of(cls, value: RationalLike, params: MetallicParams) -> "PairScalar":
        return cls(value, 0, params)

    @classmethod
    def zero(cls, params: MetallicParams) -> "PairScalar":
        return cls(0, 0, params)

    @classmethod
    def one(cls, params: MetallicParams) -> "PairScalar":
        return cls(1, 0, params)

    @classmethod
    def sigma(cls, params: MetallicParams) -> "PairScalar":
        return cls(0, 1, params)

    # ---- structure ----

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def _check_params(self, other: "PairScalar") -> None:
        if self.params != other.params:
            raise ParamError(
                f"mixed structure parameters {self.params} vs {other.params}"
            )

    def _lift(self, value: object) -> "PairScalar":
        if isinstance(value, PairScalar):
            self._check_params(value)
            return value
        return PairScalar(_coerce_fraction(value), 0, self.params)

    # ---- ring operations ----

    # A plain int operand (never a bool: type() is exact) scales or
    # shifts the Fraction coefficients directly instead of being lifted
    # into a PairScalar first; the result is the same normalized value.

    def __add__(self, other: object) -> "PairScalar":
        if type(other) is PairScalar:
            if self.params is not other.params:
                self._check_params(other)
            return PairScalar._fast(self.a + other.a, self.b + other.b, self.params)
        if type(other) is int:
            return PairScalar._fast(self.a + other, self.b, self.params)
        try:
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        return PairScalar._fast(self.a + o.a, self.b + o.b, self.params)

    __radd__ = __add__

    def __neg__(self) -> "PairScalar":
        return PairScalar._fast(-self.a, -self.b, self.params)

    def __sub__(self, other: object) -> "PairScalar":
        if type(other) is PairScalar:
            if self.params is not other.params:
                self._check_params(other)
            return PairScalar._fast(self.a - other.a, self.b - other.b, self.params)
        if type(other) is int:
            return PairScalar._fast(self.a - other, self.b, self.params)
        try:
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        return PairScalar._fast(self.a - o.a, self.b - o.b, self.params)

    def __rsub__(self, other: object) -> "PairScalar":
        if type(other) is int:
            return PairScalar._fast(other - self.a, -self.b, self.params)
        try:
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> "PairScalar":
        if type(other) is PairScalar:
            o = other
            if self.params is not o.params:
                self._check_params(o)
        elif type(other) is int:
            return PairScalar._fast(self.a * other, self.b * other, self.params)
        else:
            try:
                o = self._lift(other)
            except TypeError:
                return NotImplemented
        # (a + b s)(c + d s) = ac + bd q + (ad + bc + bd p) s  using s^2 = p s + q
        a, b, c, d = self.a, self.b, o.a, o.b
        if not b:
            if not d:
                return PairScalar._fast(a * c, b, self.params)
            return PairScalar._fast(a * c, a * d, self.params)
        if not d:
            return PairScalar._fast(a * c, b * c, self.params)
        p, q = self.params.p, self.params.q
        bd = b * d
        return PairScalar._fast(
            a * c + bd * q,
            a * d + b * c + bd * p,
            self.params,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "PairScalar":
        """Image under sigma -> p - sigma, the other root of the defining relation."""
        return PairScalar._fast(self.a + self.b * self.params.p, -self.b, self.params)

    def field_norm(self) -> Fraction:
        """self * self.conjugate(), always rational."""
        p, q = self.params.p, self.params.q
        return self.a * self.a + self.a * self.b * p - self.b * self.b * q

    def inverse(self) -> "PairScalar":
        if not self.b:
            if not self.a:
                raise DivByZero("inverse of zero")
            return PairScalar._fast(1 / self.a, self.b, self.params)
        n = self.field_norm()
        if n == 0:
            # norm vanishes only at zero: sigma irrational excludes a = -b*sigma,
            # and square discriminants collapse to b == 0 where norm == a^2
            raise DivByZero("inverse of zero")
        c = self.conjugate()
        return PairScalar._fast(c.a / n, c.b / n, self.params)

    def __truediv__(self, other: object) -> "PairScalar":
        try:
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "PairScalar":
        try:
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int) -> "PairScalar":
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if exponent == 0:
            return PairScalar.one(self.params)
        # binary powering; the first factor is taken as is rather than
        # multiplied into one, and the base is not squared past the top bit
        result: Optional[PairScalar] = None
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
        if isinstance(other, PairScalar):
            if self.b == 0 and other.b == 0:
                # rationals are the same number regardless of which
                # extension they were tagged with
                return self.a == other.a
            return (
                self.params == other.params
                and self.a == other.a
                and self.b == other.b
            )
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.params))

    # ---- order ----

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}, no floating point involved."""
        if self.b == 0:
            if self.a == 0:
                return 0
            return 1 if self.a > 0 else -1
        # never reached for square discriminants (b collapses to 0 there)
        p, q = self.params.p, self.params.q
        t = -self.a / self.b
        chi = t * t - p * t - q
        # sign(a + b sigma) = sign(b) * sign(sigma - t); sigma is the larger root
        # of chi, so sigma > t iff chi(t) < 0 or (chi(t) > 0 and t < p/2).
        # chi(t) == 0 would make sigma rational, impossible here.
        assert chi != 0
        if chi < 0:
            s = 1
        else:
            s = 1 if t < Fraction(p, 2) else -1
        return s if self.b > 0 else -s

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

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

    def __abs__(self) -> "PairScalar":
        return -self if self.sign() < 0 else self

    # ---- embedding into the reals ----

    def embed(self, places: int) -> Fraction:
        """Rational approximation within 10**-places of the real value.

        Exact for rational scalars.  Otherwise sqrt(discriminant) is
        bracketed by a scaled integer square root taken with enough
        guard digits to absorb the b/2 multiplier.
        """
        if places < 0:
            raise ValueError("places must be nonnegative")
        if self.b == 0:
            return self.a
        d = self.params.discriminant
        guard = len(str(abs(self.b.numerator))) + 1
        t = places + guard
        scale = 10**t
        root_floor = Fraction(math.isqrt(d * scale * scale), scale)
        # a + b(p + sqrt(d))/2 with sqrt(d) in [root_floor, root_floor + 10^-t)
        return self.a + self.b * (self.params.p + root_floor) / 2

    def __float__(self) -> float:
        return float(self.embed(20))

    # ---- text ----

    def to_string(self) -> str:
        """Canonical text, round-tripped by parse_scalar."""
        if self.b == 0:
            return str(self.a)
        mag = -self.b if self.b < 0 else self.b
        s_term = "s" if mag == 1 else f"{mag}*s"
        if self.a == 0:
            return s_term if self.b > 0 else f"-{s_term}"
        op = "+" if self.b > 0 else "-"
        return f"{self.a} {op} {s_term}"

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"PairScalar({self.to_string()!r}, p={self.params.p}, q={self.params.q})"


def det_by_cofactors(rows: Sequence[Sequence[PairScalar]]) -> PairScalar:
    """Laplace expansion along the first row, no elimination and no division."""
    if len(rows) == 1:
        return rows[0][0]
    total = PairScalar(0, 0, rows[0][0].params)
    for j, x in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = x * det_by_cofactors(minor)
        total = total - term if j % 2 else total + term
    return total


def gauss_jordan(rows: Sequence[Sequence[PairScalar]], limit: Optional[int] = None):
    """Reduced rows and pivot columns by textbook Gauss-Jordan on a copy.

    The pivot of a column is the first row at or below the current one
    that is nonzero there, and only the first ``limit`` columns (all by
    default) are pivoted.  Nothing is skipped: the pivot row is scaled
    entry by entry and every other row gets the full row update, zero
    entries and zero factors included.
    """
    rows = [list(row) for row in rows]
    width = len(rows[0]) if rows else 0
    limit = width if limit is None else limit
    pivots = []
    r = 0
    for c in range(limit):
        if r == len(rows):
            break
        found = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, tuple(pivots)


def det_by_elimination(rows: Sequence[Sequence[PairScalar]]) -> PairScalar:
    """Product of the pivots of a plain forward elimination, sign-corrected
    for every row swap; no entry or factor is skipped."""
    rows = [list(row) for row in rows]
    n = len(rows)
    result = PairScalar.one(rows[0][0].params)
    for c in range(n):
        found = next((i for i in range(c, n) if rows[i][c]), None)
        if found is None:
            return PairScalar.zero(rows[0][0].params)
        if found != c:
            rows[c], rows[found] = rows[found], rows[c]
            result = -result
        result = result * rows[c][c]
        inv = rows[c][c].inverse()
        for i in range(c + 1, n):
            f = rows[i][c] * inv
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result
