"""Multivariate polynomials over QuadScalar in chart variables u1..um.

Terms live in a dict keyed by exponent tuples; zero coefficients are
dropped eagerly so equality is structural.  Differentiation and
evaluation are exact.  to_string writes sums of terms like
'3/2*u1^2*u2', '(1 - s)*u2', '(-2)', with 's' denoting sigma and
explicit '*' between all factors; scenes carry polynomials as JSON
terms, so the package itself never parses that text.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .errors import ShapeError
from .scalars import MetallicParams, QuadScalar

Expos = Tuple[int, ...]


class Polynomial:
    """Immutable by convention; all operations return fresh objects."""

    __slots__ = ("nvars", "params", "terms")

    def __init__(
        self,
        terms: Dict[Expos, QuadScalar],
        nvars: int,
        params: MetallicParams,
    ) -> None:
        clean: Dict[Expos, QuadScalar] = {}
        for expos, coef in terms.items():
            if len(expos) != nvars:
                raise ShapeError(
                    f"exponent tuple {expos} in a polynomial of {nvars} variables"
                )
            if any(e < 0 for e in expos):
                raise ShapeError(f"negative exponent in {expos}")
            if coef:
                clean[expos] = coef
        self.terms = clean
        self.nvars = nvars
        self.params = params

    # ---- constructors ----

    @classmethod
    def constant(cls, value, nvars: int, params: MetallicParams) -> "Polynomial":
        coef = value if isinstance(value, QuadScalar) else QuadScalar(value, 0, params)
        return cls({(0,) * nvars: coef}, nvars, params)

    @classmethod
    def zero(cls, nvars: int, params: MetallicParams) -> "Polynomial":
        return cls({}, nvars, params)

    @classmethod
    def variable(cls, i: int, nvars: int, params: MetallicParams) -> "Polynomial":
        if not 0 <= i < nvars:
            raise ShapeError(f"variable index {i} out of range for {nvars} variables")
        expos = tuple(1 if j == i else 0 for j in range(nvars))
        return cls({expos: QuadScalar.one(params)}, nvars, params)

    # ---- structure ----

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_term(self) -> QuadScalar:
        return self.terms.get((0,) * self.nvars, QuadScalar.zero(self.params))

    def _check(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ShapeError("mixed variable counts")
        if self.params != other.params:
            raise ShapeError("mixed scalar parameters")

    # ---- ring operations ----

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        merged = dict(self.terms)
        for expos, coef in other.terms.items():
            if expos in merged:
                merged[expos] = merged[expos] + coef
            else:
                merged[expos] = coef
        return Polynomial(merged, self.nvars, self.params)

    def __neg__(self) -> "Polynomial":
        return Polynomial(
            {e: -c for e, c in self.terms.items()}, self.nvars, self.params
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out: Dict[Expos, QuadScalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                if key in out:
                    out[key] = out[key] + prod
                else:
                    out[key] = prod
        return Polynomial(out, self.nvars, self.params)

    def scale(self, c: QuadScalar) -> "Polynomial":
        return Polynomial(
            {e: c * v for e, v in self.terms.items()}, self.nvars, self.params
        )

    # ---- calculus and evaluation ----

    def partial(self, i: int) -> "Polynomial":
        if not 0 <= i < self.nvars:
            raise ShapeError(f"variable index {i} out of range")
        out: Dict[Expos, QuadScalar] = {}
        for expos, coef in self.terms.items():
            if expos[i] == 0:
                continue
            lowered = tuple(
                e - 1 if j == i else e for j, e in enumerate(expos)
            )
            contrib = coef * expos[i]
            if lowered in out:
                out[lowered] = out[lowered] + contrib
            else:
                out[lowered] = contrib
        return Polynomial(out, self.nvars, self.params)

    def eval(self, point: Sequence[QuadScalar]) -> QuadScalar:
        if len(point) != self.nvars:
            raise ShapeError(
                f"point of length {len(point)} for {self.nvars} variables"
            )
        # the sum starts from the first term, so a zero polynomial makes
        # one zero and a constant returns its coefficient as it stands
        acc = None
        for expos, coef in self.terms.items():
            term = coef
            for x, e in zip(point, expos):
                if e:
                    term = term * x**e
            acc = term if acc is None else acc + term
        return QuadScalar.zero(self.params) if acc is None else acc

    # ---- equality ----

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.params == other.params
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.params, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # ---- text ----

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        parts = []
        for expos in keys:
            coef = self.terms[expos]
            mono = "*".join(
                f"u{i + 1}" if e == 1 else f"u{i + 1}^{e}"
                for i, e in enumerate(expos)
                if e
            )
            text = coef.to_string()
            wrapped = f"({text})" if (" " in text or text.startswith("-")) else text
            if not mono:
                parts.append(wrapped)
            elif coef == 1:
                parts.append(mono)
            else:
                parts.append(f"{wrapped}*{mono}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()!r}, nvars={self.nvars})"
