"""Seeded construction of exact test geometries.

Everything is driven by random.Random, so a seed reproduces the same
scene exactly.  Coefficients are small rationals, ambient isometries
are exact, and each factory revalidates its output by building the
adapted frame before returning.

Three immersion families with complementary behavior:

  * cylinder scenes: a totally null linear block times a curved graph,
    so the transversal-null form vanishes identically while the screen
    form does not;
  * ruled scenes: a null line bundle over a curve with curvature paired
    into the radical, so the transversal-null form is nonzero at every
    point;
  * structured scenes: a linear model adapted to a diagonal structure
    matrix, plus quadratic perturbations centered at the base point.
    Perturbing leaves the frame at the point untouched, so each
    perturbation flavor switches one named tensor on while the
    structure configuration survives verbatim.

The flavor bookkeeping records which tensors became nonzero; tests and
the acceptance suite replay those notes against the computed tensors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .ambient import MetallicStructure, SignatureSpace, diag_branches
from .classifier import _rational, random_isometry
from .errors import InternalInconsistency
from .linalg import (
    Mat,
    Vec,
    as_vec,
    det,
    invert,
    mat_mul,
    mat_vec,
    transpose,
    vec_add,
    vec_scale,
    zero_vec,
)
from .polynomials import Polynomial
from .scalars import MetallicParams, QuadScalar
from .submanifold import AdaptedFrame, PolynomialImmersion, build_frame

MAX_RESAMPLE = 50


def _q(x, params: MetallicParams) -> QuadScalar:
    return QuadScalar(x, 0, params)


def _int_matrix_invertible(rng: random.Random, n: int) -> Tuple[Tuple[int, ...], ...]:
    params = MetallicParams(1, 1)
    for _ in range(MAX_RESAMPLE):
        rows = tuple(
            tuple(rng.randrange(-2, 3) for _ in range(n)) for _ in range(n)
        )
        exact = tuple(tuple(_q(x, params) for x in row) for row in rows)
        if det(exact):
            return rows
    raise InternalInconsistency("could not draw an invertible integer matrix")


def transform_immersion(immersion: PolynomialImmersion, iso: Mat) -> PolynomialImmersion:
    n = immersion.space.dim
    m = immersion.chart_dim
    params = immersion.space.params
    comps = []
    for i in range(n):
        acc = Polynomial.zero(m, params)
        for j in range(n):
            if iso[i][j]:
                acc = acc + immersion.components[j].scale(iso[i][j])
        comps.append(acc)
    return PolynomialImmersion(immersion.space, m, tuple(comps))


def transform_structure(structure: MetallicStructure, iso: Mat) -> MetallicStructure:
    inv = invert(iso)
    if inv is None:
        raise InternalInconsistency("isometry lost invertibility")
    conj = mat_mul(mat_mul(iso, structure.matrix), inv)
    return MetallicStructure(structure.space, conj)


# ---- emitted scenes ----


@dataclass(frozen=True)
class GeneratedScene:
    """An immersion plus everything needed to rebuild its frame.

    notes carries the tensor facts the construction guarantees, e.g.
    "hl-zero" when no perturbation put a transversal-null component
    into any second derivative.
    """

    immersion: PolynomialImmersion
    point: Tuple[QuadScalar, ...]
    structure: Optional[MetallicStructure]
    expected_radical_dim: int
    config: Optional[str]
    screen_override: Optional[Tuple[Vec, ...]]
    normal_screen_override: Optional[Tuple[Vec, ...]]
    notes: Tuple[str, ...]

    def frame(self) -> AdaptedFrame:
        return build_frame(
            self.immersion,
            self.point,
            screen_override=self.screen_override,
            normal_screen_override=self.normal_screen_override,
        )


def _shuffled_roles(rng: random.Random, roles: List[Tuple[str, int]]) -> List[Tuple[str, int]]:
    out = list(roles)
    rng.shuffle(out)
    return out


def _slot_map(roles: Sequence[Tuple[str, int]]) -> dict:
    return {role: pos for pos, role in enumerate(roles)}


# ---- family: cylinders over curved graphs ----


def cylinder_scene(rng: random.Random, params: MetallicParams) -> GeneratedScene:
    """Totally null linear block times a graph over a spacelike block.

    Second derivatives live in the graph range, which never pairs with
    the radical, so the transversal-null form vanishes identically
    while the screen form is nonzero by construction.
    """
    for _ in range(MAX_RESAMPLE):
        r = rng.choice((1, 1, 2))
        m_graph = rng.randrange(1, 4 - r)
        m = r + m_graph
        budget = 6 - 2 * r - m_graph
        range_dim = rng.randrange(1, budget + 1)
        inert = rng.randrange(0, budget - range_dim + 1)
        n = 2 * r + m_graph + range_dim + inert

        roles: List[Tuple[str, int]] = []
        for i in range(r):
            roles.append(("pair-", i))
            roles.append(("pair+", i))
        roles += [("dom", a) for a in range(m_graph)]
        roles += [("rng", b) for b in range(range_dim)]
        roles += [("inert", c) for c in range(inert)]
        roles = _shuffled_roles(rng, roles)
        slot = _slot_map(roles)

        eps = [0] * n
        for pos, (kind, _) in enumerate(roles):
            if kind == "pair-":
                eps[pos] = -1
            elif kind in ("pair+", "dom"):
                eps[pos] = 1
            else:
                eps[pos] = rng.choice((-1, 1))
        space = SignatureSpace(n, tuple(eps), params)

        mix = _int_matrix_invertible(rng, r)
        comps = [Polynomial.zero(m, params) for _ in range(n)]
        for i in range(r):
            line = Polynomial.zero(m, params)
            for j in range(r):
                if mix[i][j]:
                    line = line + Polynomial.variable(j, m, params).scale(
                        _q(mix[i][j], params)
                    )
            comps[slot[("pair-", i)]] = line
            comps[slot[("pair+", i)]] = line
        for a in range(m_graph):
            comps[slot[("dom", a)]] = Polynomial.variable(r + a, m, params)
        placed_quadratic = False
        for b in range(range_dim):
            phi = Polynomial.zero(m, params)
            for i in range(m_graph):
                for j in range(i, m_graph):
                    if rng.random() < 0.6:
                        coeff = _rational(rng, nonzero=True)
                        placed_quadratic = True
                        phi = phi + (
                            Polynomial.variable(r + i, m, params)
                            * Polynomial.variable(r + j, m, params)
                        ).scale(_q(coeff, params))
                if rng.random() < 0.3:
                    phi = phi + Polynomial.variable(r + i, m, params).scale(
                        _q(_rational(rng), params)
                    )
            comps[slot[("rng", b)]] = phi
        for c in range(inert):
            comps[slot[("inert", c)]] = Polynomial.constant(
                _q(_rational(rng), params), m, params
            )
        if not placed_quadratic:
            continue

        immersion = transform_immersion(
            PolynomialImmersion(space, m, tuple(comps)),
            random_isometry(rng, space),
        )
        point = tuple(_q(_rational(rng), params) for _ in range(m))
        try:
            frame = build_frame(immersion, point)
        except Exception:
            continue
        if frame.radical_dim != r:
            continue
        return GeneratedScene(
            immersion=immersion,
            point=point,
            structure=None,
            expected_radical_dim=r,
            config=None,
            screen_override=None,
            normal_screen_override=None,
            notes=("hl-zero", "hs-nonzero"),
        )
    raise InternalInconsistency("cylinder family kept degenerating")


# ---- family: null-ruled surfaces ----


def ruled_scene(rng: random.Random, params: MetallicParams) -> GeneratedScene:
    """Ruled surface f = u1 L + u1 u2 A + u2 B + u2^2/2 C with L, A
    spanning an isotropic plane and <C, L> nonzero.

    The pairing constraints make the first coordinate field radical at
    every chart point while <C, L> lands in the transversal-null form,
    so "hl-nonzero" holds at every admissible point.
    """
    for _ in range(MAX_RESAMPLE):
        extra = rng.randrange(0, 3)
        n = 4 + extra
        roles: List[Tuple[str, int]] = [("m", 0), ("m", 1), ("p", 0), ("p", 1)]
        roles += [("inert", c) for c in range(extra)]
        roles = _shuffled_roles(rng, roles)
        slot = _slot_map(roles)
        eps = [0] * n
        for pos, (kind, _) in enumerate(roles):
            eps[pos] = -1 if kind == "m" else (1 if kind == "p" else rng.choice((-1, 1)))
        space = SignatureSpace(n, tuple(eps), params)

        def unit(role) -> List[Fraction]:
            v = [Fraction(0)] * n
            v[slot[role]] = Fraction(1)
            return v

        ell = [a + b for a, b in zip(unit(("m", 0)), unit(("p", 0)))]
        avec = [a + b for a, b in zip(unit(("m", 1)), unit(("p", 1)))]
        cvec = unit(("p", 0))
        bvec = [-x for x in unit(("p", 1))]
        alpha = _rational(rng)
        gamma = _rational(rng)
        bvec = [b + alpha * l for b, l in zip(bvec, ell)]
        cvec = [c + gamma * a for c, a in zip(cvec, avec)]
        s = _rational(rng, nonzero=True)
        t = _rational(rng, nonzero=True)
        ell = [t * x for x in ell]
        avec = [t * x for x in avec]
        bvec = [s * x for x in bvec]
        cvec = [s * x for x in cvec]

        u1 = Polynomial.variable(0, 2, params)
        u2 = Polynomial.variable(1, 2, params)
        half = _q(Fraction(1, 2), params)
        comps = []
        for i in range(n):
            poly = (
                u1.scale(_q(ell[i], params))
                + (u1 * u2).scale(_q(avec[i], params))
                + u2.scale(_q(bvec[i], params))
                + (u2 * u2).scale(half * _q(cvec[i], params))
            )
            if roles[i][0] == "inert" and rng.random() < 0.5:
                poly = poly + Polynomial.constant(_q(_rational(rng), params), 2, params)
            comps.append(poly)

        immersion = transform_immersion(
            PolynomialImmersion(space, 2, tuple(comps)),
            random_isometry(rng, space),
        )
        point = tuple(_q(_rational(rng), params) for _ in range(2))
        try:
            frame = build_frame(immersion, point)
        except Exception:
            continue
        if frame.radical_dim != 1:
            continue
        return GeneratedScene(
            immersion=immersion,
            point=point,
            structure=None,
            expected_radical_dim=1,
            config=None,
            screen_override=None,
            normal_screen_override=None,
            notes=("hl-nonzero",),
        )
    raise InternalInconsistency("ruled family kept degenerating")


# ---- family: structure-adapted linear models plus perturbations ----


@dataclass(frozen=True)
class _Layout:
    space: SignatureSpace
    structure: MetallicStructure
    components: Tuple[Polynomial, ...]
    rad_chart: Tuple[int, ...]
    screen_chart: Tuple[int, ...]
    xi_vecs: Tuple[Vec, ...]
    n_vecs: Tuple[Vec, ...]
    screen_tangents: Tuple[Vec, ...]
    str_vecs: Tuple[Vec, ...]
    config: str
    mu_dim: int


def _axis(n: int, i: int, params: MetallicParams, value=1) -> Vec:
    return tuple(
        _q(value if j == i else 0, params) for j in range(n)
    )


def _radical_transversal_layout(
    rng: random.Random, params: MetallicParams, r: int, s_dims: int, t_dims: int
) -> _Layout:
    """Pairs carry the radical, lone coordinates carry the screens, and
    the diagonal structure fixes each block, so the radical swaps with
    the transversal-null bundle under the structure."""
    m = r + s_dims
    n = 2 * r + s_dims + t_dims
    roles: List[Tuple[str, int]] = []
    for i in range(r):
        roles += [("pair-", i), ("pair+", i)]
    roles += [("scr", a) for a in range(s_dims)]
    roles += [("str", b) for b in range(t_dims)]
    roles = _shuffled_roles(rng, roles)
    slot = _slot_map(roles)
    eps = [0] * n
    branches = [""] * n
    for pos, (kind, _) in enumerate(roles):
        if kind == "pair-":
            eps[pos] = -1
            branches[pos] = "p-sigma"
        elif kind == "pair+":
            eps[pos] = 1
            branches[pos] = "sigma"
        else:
            eps[pos] = rng.choice((-1, 1))
            branches[pos] = rng.choice(("sigma", "p-sigma"))
    space = SignatureSpace(n, tuple(eps), params)
    structure = MetallicStructure(space, diag_branches(params, branches))

    comps = [Polynomial.zero(m, params) for _ in range(n)]
    for i in range(r):
        comps[slot[("pair-", i)]] = Polynomial.variable(i, m, params)
        comps[slot[("pair+", i)]] = Polynomial.variable(i, m, params)
    for a in range(s_dims):
        comps[slot[("scr", a)]] = Polynomial.variable(r + a, m, params)

    xi_vecs = []
    n_vecs = []
    for i in range(r):
        lo, hi = slot[("pair-", i)], slot[("pair+", i)]
        xi = [Fraction(0)] * n
        xi[lo] = Fraction(1)
        xi[hi] = Fraction(1)
        nv = [Fraction(0)] * n
        nv[lo] = Fraction(-1, 2)
        nv[hi] = Fraction(1, 2)
        xi_vecs.append(as_vec(xi, params))
        n_vecs.append(as_vec(nv, params))
    screen_tangents = tuple(_axis(n, slot[("scr", a)], params) for a in range(s_dims))
    str_vecs = tuple(_axis(n, slot[("str", b)], params) for b in range(t_dims))
    return _Layout(
        space=space,
        structure=structure,
        components=tuple(comps),
        rad_chart=tuple(range(r)),
        screen_chart=tuple(range(r, m)),
        xi_vecs=tuple(xi_vecs),
        n_vecs=tuple(n_vecs),
        screen_tangents=screen_tangents,
        str_vecs=str_vecs,
        config="radical-transversal",
        mu_dim=0,
    )


def _transversal_layout(
    rng: random.Random, params: MetallicParams, r: int, c_pairs: int, mu_dims: int
) -> _Layout:
    """Same radical pairs, but each screen direction rides a same-sign
    coordinate pair whose structure branches split, so the structure
    sends the screen into the normal screen.  mu_dims extra normal
    directions are fixed by the structure and form the invariant
    complement."""
    m = r + c_pairs
    n = 2 * r + 2 * c_pairs + mu_dims
    roles: List[Tuple[str, int]] = []
    for i in range(r):
        roles += [("pair-", i), ("pair+", i)]
    for a in range(c_pairs):
        roles += [("scrA", a), ("scrB", a)]
    roles += [("mu", b) for b in range(mu_dims)]
    roles = _shuffled_roles(rng, roles)
    slot = _slot_map(roles)
    eps = [0] * n
    branches = [""] * n
    pair_sign = {a: rng.choice((-1, 1)) for a in range(c_pairs)}
    for pos, (kind, idx) in enumerate(roles):
        if kind == "pair-":
            eps[pos] = -1
            branches[pos] = "p-sigma"
        elif kind == "pair+":
            eps[pos] = 1
            branches[pos] = "sigma"
        elif kind == "scrA":
            eps[pos] = pair_sign[idx]
            branches[pos] = "sigma"
        elif kind == "scrB":
            eps[pos] = pair_sign[idx]
            branches[pos] = "p-sigma"
        else:
            eps[pos] = rng.choice((-1, 1))
            branches[pos] = rng.choice(("sigma", "p-sigma"))
    space = SignatureSpace(n, tuple(eps), params)
    structure = MetallicStructure(space, diag_branches(params, branches))

    comps = [Polynomial.zero(m, params) for _ in range(n)]
    for i in range(r):
        comps[slot[("pair-", i)]] = Polynomial.variable(i, m, params)
        comps[slot[("pair+", i)]] = Polynomial.variable(i, m, params)
    for a in range(c_pairs):
        comps[slot[("scrA", a)]] = Polynomial.variable(r + a, m, params)
        comps[slot[("scrB", a)]] = Polynomial.variable(r + a, m, params)

    xi_vecs = []
    n_vecs = []
    for i in range(r):
        lo, hi = slot[("pair-", i)], slot[("pair+", i)]
        xi = [Fraction(0)] * n
        xi[lo] = Fraction(1)
        xi[hi] = Fraction(1)
        nv = [Fraction(0)] * n
        nv[lo] = Fraction(-1, 2)
        nv[hi] = Fraction(1, 2)
        xi_vecs.append(as_vec(xi, params))
        n_vecs.append(as_vec(nv, params))
    screen_tangents = []
    str_vecs = []
    for a in range(c_pairs):
        lo, hi = slot[("scrA", a)], slot[("scrB", a)]
        scr = [Fraction(0)] * n
        scr[lo] = Fraction(1)
        scr[hi] = Fraction(1)
        stv = [Fraction(0)] * n
        stv[lo] = Fraction(1)
        stv[hi] = Fraction(-1)
        screen_tangents.append(as_vec(scr, params))
        str_vecs.append(as_vec(stv, params))
    str_vecs += [_axis(n, slot[("mu", b)], params) for b in range(mu_dims)]
    return _Layout(
        space=space,
        structure=structure,
        components=tuple(comps),
        rad_chart=tuple(range(r)),
        screen_chart=tuple(range(r, m)),
        xi_vecs=tuple(xi_vecs),
        n_vecs=tuple(n_vecs),
        screen_tangents=tuple(screen_tangents),
        str_vecs=tuple(str_vecs),
        config="transversal",
        mu_dim=mu_dims,
    )


def _regauge_structure(
    structure: MetallicStructure, frame: AdaptedFrame
) -> MetallicStructure:
    """Align the structure with the frame's computed transversal gauge.

    For two or more radical directions the null transversal complement
    is unique only up to an antisymmetric radical shift, and the greedy
    frame construction does not commute with ambient isometries, so the
    layout's intended gauge and the computed one can differ.  Rewriting
    the structure's action on the radical-transversal plane in the
    computed frame basis keeps the configuration claims true in the
    gauge every downstream check actually uses.  The block used here,

        xi_i |-> (p/2) xi_i + (2 sigma - p) N_i
        N_i  |-> ((2 sigma - p)/4) xi_i + (p/2) N_i,

    is self-adjoint and satisfies the quadratic relation for every
    parameter pair; the action outside the plane is kept verbatim.
    """
    space = structure.space
    params = space.params
    r = frame.radical_dim
    if r == 0:
        return structure
    p = QuadScalar(params.p, 0, params)
    sigma = QuadScalar(0, 1, params)
    two = QuadScalar(2, 0, params)
    half_p = p / two
    off = two * sigma - p
    back = off / QuadScalar(4, 0, params)
    basis: List[Vec] = list(frame.rad_basis) + list(frame.ltr)
    images: List[Vec] = []
    for i, xi in enumerate(frame.rad_basis):
        images.append(vec_add(vec_scale(half_p, xi), vec_scale(off, frame.ltr[i])))
    for i, nv in enumerate(frame.ltr):
        images.append(vec_add(vec_scale(back, frame.rad_basis[i]), vec_scale(half_p, nv)))
    for v in frame.screen.basis + frame.normal_screen.basis:
        basis.append(v)
        images.append(mat_vec(structure.matrix, v))
    cols = invert(transpose(tuple(basis)))
    if cols is None:
        raise InternalInconsistency("frame slots failed to span the ambient space")
    matrix = mat_mul(transpose(tuple(images)), cols)
    regauged = MetallicStructure(space, matrix)
    ok, defects = regauged.validate()
    if not ok:
        raise InternalInconsistency(
            f"regauged structure failed validation: {defects[0].message()}"
        )
    return regauged


def _random_combo(rng: random.Random, vecs: Sequence[Vec], params: MetallicParams) -> Vec:
    n = len(vecs[0])
    out = zero_vec(n, params)
    while all(not c for c in out):
        out = zero_vec(n, params)
        for v in vecs:
            coeff = _rational(rng)
            if coeff:
                out = vec_add(out, vec_scale(_q(coeff, params), v))
    return out


FLAVORS = ("str", "ltr", "rad", "screen", "rad-twist")


def perturbed_structured_scene(
    rng: random.Random,
    params: MetallicParams,
    config: str,
    flavors: Sequence[str] = (),
    r: Optional[int] = None,
) -> GeneratedScene:
    """Structure-adapted scene with the requested perturbation flavors.

    Flavor -> guaranteed tensor effect at the base point:
      "str"        second fundamental screen part on  ("hs-nonzero")
      "ltr"        transversal-null part on           ("hl-nonzero")
      "rad"        radical part of the induced connection on
                   screen arguments                   ("hstar-nonzero")
      "screen"     tangent connection noise, no tensor flags
      "rad-twist"  antisymmetric transversal-null pairing between the
                   two radical directions, which obstructs closing the
                   radical distribution ("hl-nonzero", "rad-bracket-open")

    Every other named tensor stays zero, which is what makes these
    scenes usable as labeled verdict fixtures.
    """
    flavors = tuple(flavors)
    for f in flavors:
        if f not in FLAVORS:
            raise ValueError(f"unknown flavor {f!r}")
    need_twist = "rad-twist" in flavors
    if r is None:
        r = 2 if need_twist else rng.choice((1, 1, 2))
    if need_twist and r < 2:
        raise ValueError("rad-twist needs two radical directions")
    needs_screen = bool({"ltr", "rad", "screen", "rad-twist"} & set(flavors))

    if config == "radical-transversal":
        s_dims = rng.randrange(1 if needs_screen else 0, 4 - r)
        max_t = 6 - 2 * r - s_dims
        low_t = 1 if "str" in flavors else 0
        t_dims = rng.randrange(low_t, max_t + 1)
        layout = _radical_transversal_layout(rng, params, r, s_dims, t_dims)
    elif config == "transversal":
        c_max = (6 - 2 * r) // 2
        c_pairs = rng.randrange(1 if needs_screen else 0, c_max + 1)
        mu_low = 1 if ("str" in flavors and c_pairs == 0) else 0
        mu_dims = rng.randrange(mu_low, 6 - 2 * r - 2 * c_pairs + 1)
        layout = _transversal_layout(rng, params, r, c_pairs, mu_dims)
    else:
        raise ValueError(f"unknown config {config!r}")

    m = r + len(layout.screen_chart)
    n = layout.space.dim
    point = tuple(_q(_rational(rng), params) for _ in range(m))

    def mono(j: int, k: int) -> Polynomial:
        uj = Polynomial.variable(j, m, params) - Polynomial.constant(point[j], m, params)
        uk = Polynomial.variable(k, m, params) - Polynomial.constant(point[k], m, params)
        return uj * uk

    comps = list(layout.components)

    def add_term(vec: Vec, poly: Polynomial) -> None:
        for i in range(n):
            if vec[i]:
                comps[i] = comps[i] + poly.scale(vec[i])

    used = set()

    def fresh_monomial(j_pool, k_pool):
        for _ in range(MAX_RESAMPLE):
            j = rng.choice(j_pool)
            k = rng.choice(k_pool)
            key = (min(j, k), max(j, k))
            if key not in used:
                used.add(key)
                return key
        raise InternalInconsistency("ran out of fresh monomials")

    notes = set()
    all_chart = tuple(range(m))
    for flavor in flavors:
        if flavor == "str":
            j, k = fresh_monomial(all_chart, all_chart)
            add_term(_random_combo(rng, layout.str_vecs, params), mono(j, k))
            notes.add("hs-nonzero")
        elif flavor == "ltr":
            j, k = fresh_monomial(layout.screen_chart, layout.screen_chart)
            add_term(_random_combo(rng, layout.n_vecs, params), mono(j, k))
            notes.add("hl-nonzero")
        elif flavor == "rad":
            j, k = fresh_monomial(all_chart, layout.screen_chart)
            add_term(_random_combo(rng, layout.xi_vecs, params), mono(j, k))
            notes.add("hstar-nonzero")
        elif flavor == "screen":
            j, k = fresh_monomial(all_chart, all_chart)
            add_term(_random_combo(rng, layout.screen_tangents, params), mono(j, k))
        elif flavor == "rad-twist":
            candidates = [
                l
                for l in layout.screen_chart
                for i in layout.rad_chart
                if (min(l, i), max(l, i)) not in used
            ]
            l = rng.choice(candidates)
            beta = _q(_rational(rng, nonzero=True), params)
            i1, i2 = sorted(rng.sample(layout.rad_chart, 2))
            used.add((min(l, i1), max(l, i1)))
            used.add((min(l, i2), max(l, i2)))
            add_term(vec_scale(beta, layout.n_vecs[i2]), mono(l, i1))
            add_term(vec_scale(-beta, layout.n_vecs[i1]), mono(l, i2))
            notes.add("hl-nonzero")
            notes.add("rad-bracket-open")
    for zero_flag, on_flag in (
        ("hl-zero", "hl-nonzero"),
        ("hs-zero", "hs-nonzero"),
        ("hstar-zero", "hstar-nonzero"),
    ):
        if on_flag not in notes:
            notes.add(zero_flag)

    iso = random_isometry(rng, layout.space)
    immersion = transform_immersion(
        PolynomialImmersion(layout.space, m, tuple(comps)), iso
    )
    structure = transform_structure(layout.structure, iso)
    screen_override = tuple(mat_vec(iso, v) for v in layout.screen_tangents) or None
    ns_override = tuple(mat_vec(iso, v) for v in layout.str_vecs) or None

    frame = build_frame(
        immersion,
        point,
        screen_override=screen_override,
        normal_screen_override=ns_override,
    )
    if frame.radical_dim != r:
        raise InternalInconsistency("structured layout lost its radical rank")
    structure = _regauge_structure(structure, frame)
    return GeneratedScene(
        immersion=immersion,
        point=point,
        structure=structure,
        expected_radical_dim=r,
        config=layout.config,
        screen_override=screen_override,
        normal_screen_override=ns_override,
        notes=tuple(sorted(notes)),
    )


# ---- raw flag frames for the transversal-frame contract ----


def random_flag_data(
    rng: random.Random, params: MetallicParams, r: int
) -> Tuple[SignatureSpace, Tuple[Vec, ...], Tuple[Vec, ...], Tuple[Vec, ...]]:
    """Random (space, radical basis, screen vectors, normal screen
    vectors) quadruple satisfying the flag axioms, with the blocks
    hidden behind shears, basis mixes, and an isometry."""
    s_dims = rng.randrange(1, 3)
    t_dims = rng.randrange(0, 3)
    n = 2 * r + s_dims + t_dims
    roles: List[Tuple[str, int]] = []
    for i in range(r):
        roles += [("pair-", i), ("pair+", i)]
    roles += [("scr", a) for a in range(s_dims)]
    roles += [("str", b) for b in range(t_dims)]
    roles = _shuffled_roles(rng, roles)
    slot = _slot_map(roles)
    eps = [0] * n
    for pos, (kind, _) in enumerate(roles):
        if kind == "pair-":
            eps[pos] = -1
        elif kind == "pair+":
            eps[pos] = 1
        else:
            eps[pos] = rng.choice((-1, 1))
    space = SignatureSpace(n, tuple(eps), params)

    xi = []
    for i in range(r):
        v = [Fraction(0)] * n
        v[slot[("pair-", i)]] = Fraction(1)
        v[slot[("pair+", i)]] = Fraction(1)
        xi.append(as_vec(v, params))
    mix = _int_matrix_invertible(rng, r)
    rad_basis = []
    for i in range(r):
        v = zero_vec(n, params)
        for j in range(r):
            if mix[i][j]:
                v = vec_add(v, vec_scale(_q(mix[i][j], params), xi[j]))
        rad_basis.append(v)
    rad_basis = tuple(rad_basis)

    def block_vectors(kind: str, dims: int) -> Tuple[Vec, ...]:
        if dims == 0:
            return ()
        mixm = _int_matrix_invertible(rng, dims)
        vecs = []
        for i in range(dims):
            v = [Fraction(0)] * n
            for j in range(dims):
                v[slot[(kind, j)]] = Fraction(mixm[i][j])
            vecs.append(as_vec(v, params))
        return tuple(vecs)

    screen = block_vectors("scr", s_dims)
    ns = block_vectors("str", t_dims)
    # radical shears keep every flag axiom intact
    screen = tuple(
        vec_add(v, vec_scale(_q(_rational(rng), params), rng.choice(rad_basis)))
        for v in screen
    )
    ns = tuple(
        vec_add(v, vec_scale(_q(_rational(rng), params), rng.choice(rad_basis)))
        for v in ns
    )
    iso = random_isometry(rng, space)
    return (
        space,
        tuple(mat_vec(iso, v) for v in rad_basis),
        tuple(mat_vec(iso, v) for v in screen),
        tuple(mat_vec(iso, v) for v in ns),
    )
