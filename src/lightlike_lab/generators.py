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
from typing import Dict, List, Optional, Sequence, Tuple

from .ambient import MetallicStructure, SignatureSpace
from .classifier import _rational, integer_isometry
from .errors import InternalInconsistency, LightlikeLabError, ValidationError
from .linalg import (
    Mat,
    RowRing,
    Vec,
    as_vec,
    lin_comb,
    mat_mul,
    mat_vec,
    transpose,
    vec_add,
    vec_scale,
)
from .polynomials import Polynomial
from .scalars import MetallicParams, QuadScalar
from .submanifold import AdaptedFrame, PolynomialImmersion, build_frame

MAX_RESAMPLE = 50


def _q(x, params: MetallicParams) -> QuadScalar:
    return QuadScalar(x, 0, params)


def random_isometry(rng: random.Random, space: SignatureSpace, steps: Optional[int] = None) -> Mat:
    """Exact rational matrix S with S^T diag(eps) S = diag(eps), as
    QuadScalars.

    S is the view M / d of ``classifier.integer_isometry`` on the same
    generator: the same draws in the same order, and the same state left
    behind.  The audit reads the integers; the scene generators and the
    tests read this view.
    """
    rows, d = integer_isometry(rng, space.eps, steps)
    params = space.params
    return tuple(tuple(QuadScalar(Fraction(x, d), 0, params) for x in row) for row in rows)


def diag_branches(params: MetallicParams, pattern: Sequence[str]) -> Mat:
    """Diagonal structure matrix from a branch pattern.

    Each entry is 'sigma' or 'p-sigma', the two roots of the defining
    quadratic.  Any such diagonal matrix satisfies both validators.
    """
    sigma = QuadScalar.sigma(params)
    other = QuadScalar(params.p, -1, params)
    zero = QuadScalar.zero(params)
    diag = []
    for i, name in enumerate(pattern):
        if name == "sigma":
            diag.append(sigma)
        elif name == "p-sigma":
            diag.append(other)
        else:
            raise ValidationError(
                f"branch {i} must be 'sigma' or 'p-sigma', got {name!r}"
            )
    n = len(diag)
    return tuple(
        tuple(diag[i] if i == j else zero for j in range(n)) for i in range(n)
    )


def _int_matrix_invertible(rng: random.Random, n: int) -> Tuple[Tuple[int, ...], ...]:
    ring = RowRing(MetallicParams(1, 1), sigma=False)
    for _ in range(MAX_RESAMPLE):
        rows = tuple(
            tuple(rng.randrange(-2, 3) for _ in range(n)) for _ in range(n)
        )
        if ring.nonsingular(rows):
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
    """S J S^-1 for an isometry S of the structure's space.

    S^T eps S = eps gives S^-1 = eps S^T eps, so entry (i, j) of the
    inverse is eps_i eps_j S_ji and nothing is eliminated.
    """
    eps = structure.space.eps
    n = len(eps)
    inv = tuple(
        tuple(iso[j][i] if eps[i] == eps[j] else -iso[j][i] for j in range(n))
        for i in range(n)
    )
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


# ---- null pairs ----
#
# The cylinder, structured and flag families carry their radical on r
# coordinate pairs of signs (-, +).  On pair i, xi_i = e- + e+ and
# N_i = (e+ - e-)/2 are null, <xi_i, N_i> = 1, and distinct pairs are
# orthogonal: the standard null frame of Duggal-Bejancu 1996, ch. 5.

_PAIR_BRANCHES = {"pair-": (-1, "p-sigma"), "pair+": (1, "sigma")}
_PAIR_SIGNS = {kind: sign for kind, (sign, _) in _PAIR_BRANCHES.items()}


def _pair_roles(
    rng: random.Random, r: int, others: List[Tuple[str, int]]
) -> Tuple[List[Tuple[str, int]], Dict[Tuple[str, int], int]]:
    """The roles ("pair-", i), ("pair+", i) of r null pairs and then the
    others, shuffled into coordinate order, and each role's coordinate."""
    roles = [(kind, i) for i in range(r) for kind in ("pair-", "pair+")] + others
    rng.shuffle(roles)
    return roles, {role: pos for pos, role in enumerate(roles)}


def _axis(n: int, i: int, params: MetallicParams) -> Vec:
    return tuple(_q(1 if j == i else 0, params) for j in range(n))


def _on_two(n: int, lo: int, hi: int, a, b, params: MetallicParams) -> Vec:
    """a at coordinate lo, b at coordinate hi, zero elsewhere."""
    v = [0] * n
    v[lo], v[hi] = a, b
    return as_vec(v, params)


def _null_pairs(
    slot: Dict[Tuple[str, int], int], r: int, n: int, params: MetallicParams
) -> Tuple[Tuple[Vec, ...], Tuple[Vec, ...]]:
    """(xi_1..xi_r, N_1..N_r) on the pairs' coordinates."""
    ends = [(slot[("pair-", i)], slot[("pair+", i)]) for i in range(r)]
    xi = tuple(_on_two(n, lo, hi, 1, 1, params) for lo, hi in ends)
    half = Fraction(1, 2)
    return xi, tuple(_on_two(n, lo, hi, -half, half, params) for lo, hi in ends)


def _signature(
    rng: random.Random, roles: Sequence[Tuple[str, int]], signs: Dict[str, int], params: MetallicParams
) -> SignatureSpace:
    """The space whose coordinate of each role has signs[kind], or a drawn sign."""
    eps = tuple(signs[kind] if kind in signs else rng.choice((-1, 1)) for kind, _ in roles)
    return SignatureSpace(len(roles), eps, params)


def _linear_model(vectors: Sequence[Vec], params: MetallicParams) -> List[Polynomial]:
    """Components of u |-> sum_j u_j vectors[j]."""
    m = len(vectors)
    comps = [Polynomial.zero(m, params) for _ in vectors[0]]
    for j, v in enumerate(vectors):
        for k, x in enumerate(v):
            if x:
                comps[k] = comps[k] + Polynomial.variable(j, m, params).scale(x)
    return comps


def _unstructured_scene(
    rng: random.Random,
    space: SignatureSpace,
    comps: Sequence[Polynomial],
    r: int,
    notes: Tuple[str, ...],
) -> Optional[GeneratedScene]:
    """The model moved by a random isometry and read at a random chart
    point; None when the frame there fails or has radical rank other
    than r."""
    params = space.params
    m = comps[0].nvars
    immersion = transform_immersion(
        PolynomialImmersion(space, m, tuple(comps)),
        random_isometry(rng, space),
    )
    point = tuple(_q(_rational(rng), params) for _ in range(m))
    try:
        frame = build_frame(immersion, point)
    except LightlikeLabError:
        return None
    if frame.radical_dim != r:
        return None
    return GeneratedScene(
        immersion=immersion,
        point=point,
        structure=None,
        expected_radical_dim=r,
        config=None,
        screen_override=None,
        normal_screen_override=None,
        notes=notes,
    )


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

        roles, slot = _pair_roles(
            rng,
            r,
            [("dom", a) for a in range(m_graph)]
            + [("rng", b) for b in range(range_dim)]
            + [("inert", c) for c in range(inert)],
        )
        space = _signature(rng, roles, {**_PAIR_SIGNS, "dom": 1}, params)

        # u_j, j < r, runs along sum_i mix_ij xi_i; the graph's domain
        # coordinates carry u_{r+a} verbatim
        mix = _int_matrix_invertible(rng, r)
        xi, _ = _null_pairs(slot, r, n, params)
        lines = [lin_comb([_q(row[j], params) for row in mix], xi) for j in range(r)]
        dom = [_axis(n, slot[("dom", a)], params) for a in range(m_graph)]
        comps = _linear_model(lines + dom, params)
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
        scene = _unstructured_scene(rng, space, comps, r, ("hl-zero", "hs-nonzero"))
        if scene is not None:
            return scene
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
        rng.shuffle(roles)
        slot = {role: pos for pos, role in enumerate(roles)}
        space = _signature(rng, roles, {"m": -1, "p": 1}, params)

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
        scene = _unstructured_scene(rng, space, comps, 1, ("hl-nonzero",))
        if scene is not None:
            return scene
    raise InternalInconsistency("ruled family kept degenerating")


# ---- family: structure-adapted linear models plus perturbations ----


@dataclass(frozen=True)
class _Layout:
    """A linear model u |-> sum_i u_i xi_i + sum_a u_(r+a) screen_tangents[a]
    under a diagonal structure, with the vectors each flavor perturbs along."""

    space: SignatureSpace
    structure: MetallicStructure
    xi_vecs: Tuple[Vec, ...]
    n_vecs: Tuple[Vec, ...]
    screen_tangents: Tuple[Vec, ...]
    str_vecs: Tuple[Vec, ...]
    config: str


def _diagonal_structure(
    rng: random.Random,
    params: MetallicParams,
    roles: Sequence[Tuple[str, int]],
    fixed: Dict[Tuple[str, int], Tuple[int, str]],
) -> Tuple[SignatureSpace, MetallicStructure]:
    """The signature and diagonal structure of a layout.  Pair roles and
    the roles in fixed take their (sign, branch); every other coordinate
    draws a sign and then a branch."""
    eps, branches = [], []
    for role in roles:
        if role[0] in _PAIR_BRANCHES:
            sign, branch = _PAIR_BRANCHES[role[0]]
        elif role in fixed:
            sign, branch = fixed[role]
        else:
            sign = rng.choice((-1, 1))
            branch = rng.choice(("sigma", "p-sigma"))
        eps.append(sign)
        branches.append(branch)
    space = SignatureSpace(len(roles), tuple(eps), params)
    return space, MetallicStructure(space, diag_branches(params, branches))


def _radical_transversal_layout(
    rng: random.Random, params: MetallicParams, r: int, s_dims: int, t_dims: int
) -> _Layout:
    """Pairs carry the radical, lone coordinates carry the screens, and
    the diagonal structure fixes each block, so the radical swaps with
    the transversal-null bundle under the structure."""
    n = 2 * r + s_dims + t_dims
    roles, slot = _pair_roles(
        rng, r, [("scr", a) for a in range(s_dims)] + [("str", b) for b in range(t_dims)]
    )
    space, structure = _diagonal_structure(rng, params, roles, {})
    xi_vecs, n_vecs = _null_pairs(slot, r, n, params)
    return _Layout(
        space=space,
        structure=structure,
        xi_vecs=xi_vecs,
        n_vecs=n_vecs,
        screen_tangents=tuple(_axis(n, slot[("scr", a)], params) for a in range(s_dims)),
        str_vecs=tuple(_axis(n, slot[("str", b)], params) for b in range(t_dims)),
        config="radical-transversal",
    )


def _transversal_layout(
    rng: random.Random, params: MetallicParams, r: int, c_pairs: int, mu_dims: int
) -> _Layout:
    """Same radical pairs, but each screen direction rides a same-sign
    coordinate pair whose structure branches split, so the structure
    sends the screen into the normal screen.  mu_dims extra normal
    directions are fixed by the structure and form the invariant
    complement."""
    n = 2 * r + 2 * c_pairs + mu_dims
    roles, slot = _pair_roles(
        rng,
        r,
        [(kind, a) for a in range(c_pairs) for kind in ("scrA", "scrB")]
        + [("mu", b) for b in range(mu_dims)],
    )
    fixed = {}
    for a in range(c_pairs):
        sign = rng.choice((-1, 1))
        fixed[("scrA", a)], fixed[("scrB", a)] = (sign, "sigma"), (sign, "p-sigma")
    space, structure = _diagonal_structure(rng, params, roles, fixed)
    xi_vecs, n_vecs = _null_pairs(slot, r, n, params)
    screen_ends = [(slot[("scrA", a)], slot[("scrB", a)]) for a in range(c_pairs)]
    str_vecs = [_on_two(n, lo, hi, 1, -1, params) for lo, hi in screen_ends]
    str_vecs += [_axis(n, slot[("mu", b)], params) for b in range(mu_dims)]
    return _Layout(
        space=space,
        structure=structure,
        xi_vecs=xi_vecs,
        n_vecs=n_vecs,
        screen_tangents=tuple(_on_two(n, lo, hi, 1, 1, params) for lo, hi in screen_ends),
        str_vecs=tuple(str_vecs),
        config="transversal",
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
    The images are stacked in the slot order of the frame's
    slot_factor (FOUR_SLOTS), whose coordinate map is C^-1 for the
    stacked slot basis C, so the new matrix is images^T C^-1.
    """
    space = structure.space
    params = space.params
    if frame.radical_dim == 0:
        return structure
    p = QuadScalar(params.p, 0, params)
    sigma = QuadScalar(0, 1, params)
    two = QuadScalar(2, 0, params)
    half_p = p / two
    off = two * sigma - p
    back = off / QuadScalar(4, 0, params)
    pairs = tuple(zip(frame.rad_basis, frame.ltr))
    plane = {
        "radical": [vec_add(vec_scale(half_p, xi), vec_scale(off, nv)) for xi, nv in pairs],
        "transversal": [vec_add(vec_scale(back, xi), vec_scale(half_p, nv)) for xi, nv in pairs],
    }
    images: List[Vec] = []
    for slot, basis in frame.slot_bases.items():
        images += plane.get(slot) or [mat_vec(structure.matrix, v) for v in basis]
    factor = frame.slot_factor
    if factor.rank < space.dim:
        raise InternalInconsistency("frame slots failed to span the ambient space")
    matrix = mat_mul(transpose(tuple(images)), factor.coordinate_map(range(space.dim)))
    regauged = MetallicStructure(space, matrix)
    ok, defects = regauged.validate()
    if not ok:
        raise InternalInconsistency(
            f"regauged structure failed validation: {defects[0].message()}"
        )
    return regauged


def _random_combo(rng: random.Random, vecs: Sequence[Vec], params: MetallicParams) -> Vec:
    """A combination of vecs with drawn rational coefficients, redrawn until nonzero."""
    while True:
        out = lin_comb([_q(_rational(rng), params) for _ in vecs], vecs)
        if any(out):
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

    m = r + len(layout.screen_tangents)
    n = layout.space.dim
    rad_chart, screen_chart = tuple(range(r)), tuple(range(r, m))
    point = tuple(_q(_rational(rng), params) for _ in range(m))

    def mono(j: int, k: int) -> Polynomial:
        uj = Polynomial.variable(j, m, params) - Polynomial.constant(point[j], m, params)
        uk = Polynomial.variable(k, m, params) - Polynomial.constant(point[k], m, params)
        return uj * uk

    comps = _linear_model(layout.xi_vecs + layout.screen_tangents, params)

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
            j, k = fresh_monomial(screen_chart, screen_chart)
            add_term(_random_combo(rng, layout.n_vecs, params), mono(j, k))
            notes.add("hl-nonzero")
        elif flavor == "rad":
            j, k = fresh_monomial(all_chart, screen_chart)
            add_term(_random_combo(rng, layout.xi_vecs, params), mono(j, k))
            notes.add("hstar-nonzero")
        elif flavor == "screen":
            j, k = fresh_monomial(all_chart, all_chart)
            add_term(_random_combo(rng, layout.screen_tangents, params), mono(j, k))
        elif flavor == "rad-twist":
            candidates = [
                l
                for l in screen_chart
                for i in rad_chart
                if (min(l, i), max(l, i)) not in used
            ]
            l = rng.choice(candidates)
            beta = _q(_rational(rng, nonzero=True), params)
            i1, i2 = sorted(rng.sample(rad_chart, 2))
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
    roles, slot = _pair_roles(
        rng, r, [("scr", a) for a in range(s_dims)] + [("str", b) for b in range(t_dims)]
    )
    space = _signature(rng, roles, _PAIR_SIGNS, params)
    xi, _ = _null_pairs(slot, r, n, params)

    def mixed(vecs: Sequence[Vec]) -> Tuple[Vec, ...]:
        if not vecs:
            return ()
        mix = _int_matrix_invertible(rng, len(vecs))
        return tuple(lin_comb([_q(x, params) for x in row], vecs) for row in mix)

    rad_basis = mixed(xi)
    screen = mixed([_axis(n, slot[("scr", a)], params) for a in range(s_dims)])
    ns = mixed([_axis(n, slot[("str", b)], params) for b in range(t_dims)])

    def shear(v: Vec) -> Vec:
        # a radical shear keeps every flag axiom intact
        return vec_add(v, vec_scale(_q(_rational(rng), params), rng.choice(rad_basis)))

    screen = tuple(map(shear, screen))
    ns = tuple(map(shear, ns))
    iso = random_isometry(rng, space)
    return (
        space,
        tuple(mat_vec(iso, v) for v in rad_basis),
        tuple(mat_vec(iso, v) for v in screen),
        tuple(mat_vec(iso, v) for v in ns),
    )
