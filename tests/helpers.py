"""Helpers only the tests use: polynomial text, a linear solve, and
frame vectors assembled one at a time.

parse_polynomial reads the text Polynomial.to_string writes, so tests
can state immersions as 'u1 + s*u2' instead of exponent dictionaries.
solve returns one solution of a linear system through a plain rref,
an oracle independent of the factored bases the package splits with.
hl_vector, rad_vector and apply_structure_field rebuild, one vector at
a time, what the package's split matrices compose: the per-vector
oracles in pair_loops.py and criterion_loops.py are written in them.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Sequence

from lightlike_lab.ambient import MetallicStructure
from lightlike_lab.errors import ParseError, ShapeError
from lightlike_lab.geometry import AmbientJet
from lightlike_lab.linalg import Mat, Vec, rref, vec_add, vec_scale, zero_vec
from lightlike_lab.polynomials import Polynomial
from lightlike_lab.scalars import MetallicParams, QuadScalar
from lightlike_lab.submanifold import AdaptedFrame


def power(f: Polynomial, exponent: int) -> Polynomial:
    """f multiplied by itself exponent times."""
    if exponent < 0:
        raise ShapeError("negative polynomial power")
    result = Polynomial.constant(1, f.nvars, f.params)
    for _ in range(exponent):
        result = result * f
    return result


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<var>u\d+)|(?P<sym>s)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"bad character at offset {pos} in {text!r}")
            break
        if m.group("num"):
            tokens.append(("num", int(m.group("num"))))
        elif m.group("var"):
            tokens.append(("var", int(m.group("var")[1:]) - 1))
        elif m.group("sym"):
            tokens.append(("sym", "s"))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, nvars: int, params: MetallicParams):
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars
        self.params = params

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of polynomial text")
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok != ("op", op):
            raise ParseError(f"expected {op!r}, got {tok!r}")

    def parse(self) -> Polynomial:
        result = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing tokens from {self.peek()!r}")
        return result

    def expr(self) -> Polynomial:
        value = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Polynomial:
        value = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            value = value * self.factor()
        return value

    def factor(self) -> Polynomial:
        negate = False
        while self.peek() == ("op", "-"):
            self.take()
            negate = not negate
        value = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            tok = self.take()
            if tok[0] != "num":
                raise ParseError(f"exponent must be a literal, got {tok!r}")
            value = power(value, tok[1])
        return -value if negate else value

    def atom(self) -> Polynomial:
        tok = self.take()
        kind, payload = tok
        if kind == "num":
            numer = payload
            if self.peek() == ("op", "/"):
                self.take()
                den_tok = self.take()
                if den_tok[0] != "num" or den_tok[1] == 0:
                    raise ParseError(f"bad denominator {den_tok!r}")
                return Polynomial.constant(
                    Fraction(numer, den_tok[1]), self.nvars, self.params
                )
            return Polynomial.constant(numer, self.nvars, self.params)
        if kind == "sym":
            return Polynomial.constant(
                QuadScalar.sigma(self.params), self.nvars, self.params
            )
        if kind == "var":
            if not 0 <= payload < self.nvars:
                raise ParseError(
                    f"variable u{payload + 1} out of range for {self.nvars} variables"
                )
            return Polynomial.variable(payload, self.nvars, self.params)
        if tok == ("op", "("):
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {tok!r}")


def parse_polynomial(text: str, nvars: int, params: MetallicParams) -> Polynomial:
    if not isinstance(text, str):
        raise ParseError(f"expected polynomial text, got {type(text).__name__}")
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    return _Parser(tokens, nvars, params).parse()


def solve(a: Mat, b: Vec) -> Optional[Vec]:
    """One solution of a x = b with free variables set to zero, or None."""
    if len(a) != len(b):
        raise ShapeError(f"matrix height {len(a)} vs rhs length {len(b)}")
    if not a:
        return ()
    ncols = len(a[0])
    params = b[0].params if b else a[0][0].params
    augmented = tuple(row + (rhs,) for row, rhs in zip(a, b))
    reduced, pivots = rref(augmented)
    if pivots and pivots[-1] == ncols:
        return None  # a pivot in the rhs column: inconsistent system
    zero = QuadScalar.zero(params)
    x = [zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][ncols]
    return tuple(x)


def hl_vector(frame: AdaptedFrame, coeffs: Sequence[QuadScalar]) -> Vec:
    """Assemble sum_i c_i N_i as an ambient vector."""
    if len(coeffs) != len(frame.ltr):
        raise ShapeError("coefficient count does not match the transversal frame")
    acc = zero_vec(frame.space.dim, frame.space.params)
    for c, n in zip(coeffs, frame.ltr):
        acc = vec_add(acc, vec_scale(c, n))
    return acc


def rad_vector(frame: AdaptedFrame, coeffs: Sequence[QuadScalar]) -> Vec:
    """Assemble sum_i c_i xi_i as an ambient vector."""
    if len(coeffs) != len(frame.rad_basis):
        raise ShapeError("coefficient count does not match the radical basis")
    acc = zero_vec(frame.space.dim, frame.space.params)
    for c, xi in zip(coeffs, frame.rad_basis):
        acc = vec_add(acc, vec_scale(c, xi))
    return acc


def apply_structure_field(structure: MetallicStructure, field: AmbientJet) -> AmbientJet:
    """Compose the constant structure matrix with an ambient section:
    J applies to the value and to each partial."""
    return AmbientJet(
        structure.apply(field.value), tuple(structure.apply(d) for d in field.partials)
    )
