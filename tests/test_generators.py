"""Generated geometries must actually have the properties their notes
claim, and the same seed must reproduce the same scene."""

import random
from fractions import Fraction

import pytest

from lightlike_lab import classifier
from lightlike_lab.ambient import MetallicStructure, SignatureSpace, diag_branches
from lightlike_lab.classifier import (
    AuditCell,
    integer_isometry,
    null_dual_candidate,
    random_isometry,
)
from lightlike_lab.errors import InternalInconsistency
from lightlike_lab.generators import (
    cylinder_scene,
    perturbed_structured_scene,
    random_flag_data,
    ruled_scene,
)
from lightlike_lab.geometry import build_field_kit, chart_jet, gauss_split
from lightlike_lab.linalg import identity, is_zero_vec, mat_mul, transpose
from lightlike_lab.scalars import GOLDEN, MetallicParams, QuadScalar
from lightlike_lab.submanifold import construct_ltr
from helpers import Subspace, candidate_quads, isometry_inverse, one_ring

P = GOLDEN
ZERO_Q = MetallicParams(0, 2)


def hl_entries(scene):
    frame = scene.frame()
    m = scene.immersion.chart_dim
    coords = chart_jet(scene.immersion, frame).coordinates
    out = []
    for j in range(m):
        for k in range(j, m):
            out.extend(gauss_split(frame, coords[j], coords[k]).hl)
    return out


def hs_entries(scene):
    frame = scene.frame()
    m = scene.immersion.chart_dim
    coords = chart_jet(scene.immersion, frame).coordinates
    out = []
    for j in range(m):
        for k in range(j, m):
            out.append(gauss_split(frame, coords[j], coords[k]).hs)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_isometry_preserves_the_form(seed):
    rng = random.Random(seed)
    scene = cylinder_scene(rng, P)
    space = scene.immersion.space
    iso = random_isometry(random.Random(seed + 1000), space)
    eps_mat = tuple(
        tuple(
            QuadScalar(space.eps[i] if i == j else 0, 0, P)
            for j in range(space.dim)
        )
        for i in range(space.dim)
    )
    assert mat_mul(transpose(iso), mat_mul(eps_mat, iso)) == eps_mat


@pytest.mark.parametrize("seed", range(10))
def test_cylinder_scenes_have_flat_null_form(seed):
    scene = cylinder_scene(random.Random(seed), P)
    frame = scene.frame()
    assert frame.radical_dim == scene.expected_radical_dim >= 1
    assert all(c == 0 for c in hl_entries(scene))
    assert any(not is_zero_vec(v) for v in hs_entries(scene))


@pytest.mark.parametrize("seed", range(10))
def test_ruled_scenes_curve_into_the_radical(seed):
    scene = ruled_scene(random.Random(seed), P)
    frame = scene.frame()
    assert frame.radical_dim == 1
    assert any(c != 0 for c in hl_entries(scene))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("config", ["radical-transversal", "transversal"])
def test_structured_scene_baseline_is_flat(seed, config):
    scene = perturbed_structured_scene(random.Random(seed), ZERO_Q, config)
    frame = scene.frame()
    assert frame.radical_dim == scene.expected_radical_dim
    assert scene.structure is not None
    ok, defects = scene.structure.validate()
    assert ok, defects
    assert all(c == 0 for c in hl_entries(scene))
    assert all(is_zero_vec(v) for v in hs_entries(scene))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "flavors,on,off",
    [
        (("ltr",), "hl", "hs"),
        (("str",), "hs", "hl"),
        (("ltr", "str", "screen"), "hl", None),
    ],
)
def test_structured_scene_flavors_toggle_tensors(seed, flavors, on, off):
    scene = perturbed_structured_scene(
        random.Random(seed), ZERO_Q, "radical-transversal", flavors
    )
    hl = hl_entries(scene)
    hs = hs_entries(scene)
    facts = {
        "hl": any(c != 0 for c in hl),
        "hs": any(not is_zero_vec(v) for v in hs),
    }
    assert facts[on]
    if off is not None:
        assert not facts[off]
    assert f"{on}-nonzero" in scene.notes


@pytest.mark.parametrize("seed", range(6))
def test_structured_scene_notes_match_tensors(seed):
    rng = random.Random(seed)
    flavors = rng.sample(("str", "ltr", "rad", "screen"), rng.randrange(0, 4))
    scene = perturbed_structured_scene(rng, ZERO_Q, "radical-transversal", flavors)
    hl_zero = all(c == 0 for c in hl_entries(scene))
    hs_zero = all(is_zero_vec(v) for v in hs_entries(scene))
    assert ("hl-zero" in scene.notes) == hl_zero
    assert ("hs-zero" in scene.notes) == hs_zero


@pytest.mark.parametrize("seed", range(6))
def test_rad_twist_scenes_accept_a_kit(seed):
    """The antisymmetric transversal pairing must not break first-order
    radical extension; the kit solve is the authority on that."""
    scene = perturbed_structured_scene(
        random.Random(seed), ZERO_Q, "radical-transversal", ("rad-twist",)
    )
    frame = scene.frame()
    assert frame.radical_dim == 2
    kit = build_field_kit(chart_jet(scene.immersion, frame), frame)
    assert len(kit.radical) == 2


@pytest.mark.parametrize("seed", range(6))
def test_generated_kits_build_everywhere(seed):
    rng = random.Random(seed)
    for scene in (
        cylinder_scene(rng, P),
        ruled_scene(rng, P),
        perturbed_structured_scene(rng, ZERO_Q, "transversal", ("str", "ltr")),
    ):
        frame = scene.frame()
        kit = build_field_kit(chart_jet(scene.immersion, frame), frame)
        assert len(kit.transversal) == scene.expected_radical_dim


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("r", [1, 2])
def test_flag_data_supports_the_transversal_frame(seed, r):
    space, rad_basis, screen_vecs, ns_vecs = random_flag_data(
        random.Random(1000 * r + seed), P, r
    )
    screen = Subspace(screen_vecs, space.dim, P)
    ns = Subspace(ns_vecs, space.dim, P)
    radical = Subspace(rad_basis, space.dim, P)
    rad_basis = radical.basis
    ltr = construct_ltr(space, *one_ring(P, radical, screen, ns))
    assert len(ltr) == r
    for i, n_i in enumerate(ltr):
        for j, xi in enumerate(rad_basis):
            assert space.inner(n_i, xi) == (1 if i == j else 0)
        for n_j in ltr:
            assert space.inner(n_i, n_j) == 0
        for s in screen_vecs:
            assert space.inner(n_i, s) == 0
        for z in ns_vecs:
            assert space.inner(n_i, z) == 0


def isometry_by_step_matrices(rng, space, steps=None):
    """random_isometry as a product of explicit n x n step matrices, with
    the same draws in the same order: the reference for the row updates."""
    params = space.params
    n = space.dim
    q = lambda x: QuadScalar(x, 0, params)  # noqa: E731
    acc = identity(n, params)
    minus = [i for i in range(n) if space.eps[i] == -1]
    plus = [i for i in range(n) if space.eps[i] == 1]
    if steps is None:
        steps = rng.randrange(0, 7)
    for _ in range(steps):
        rows = [[q(1 if i == j else 0) for j in range(n)] for i in range(n)]
        kind = rng.choice(("boost", "rotate", "flip", "swap"))
        if kind == "boost" and minus and plus:
            i, j = rng.choice(minus), rng.choice(plus)
            lam = Fraction(rng.choice([2, 3, 1, 2]), rng.choice([1, 2, 3]))
            if lam == 1:
                continue
            c, s = q((lam + 1 / lam) / 2), q((lam - 1 / lam) / 2)
            rows[i][i], rows[i][j], rows[j][i], rows[j][j] = c, s, s, c
        elif kind == "rotate":
            pool = minus if (len(minus) >= 2 and rng.random() < 0.5) else plus
            if len(pool) < 2:
                pool = minus if len(minus) >= 2 else plus
            if len(pool) < 2:
                continue
            i, j = rng.sample(pool, 2)
            t = Fraction(rng.choice([1, 1, 2, 3]), rng.choice([1, 2, 3]))
            c, s = q((1 - t * t) / (1 + t * t)), q(2 * t / (1 + t * t))
            rows[i][i], rows[i][j], rows[j][i], rows[j][j] = c, -s, s, c
        elif kind == "flip":
            i = rng.randrange(n)
            rows[i][i] = q(-1)
        else:
            pool = minus if (len(minus) >= 2 and rng.random() < 0.5) else plus
            if len(pool) < 2:
                continue
            i, j = rng.sample(pool, 2)
            rows[i][i], rows[j][j], rows[i][j], rows[j][i] = q(0), q(0), q(1), q(1)
        acc = mat_mul(tuple(map(tuple, rows)), acc)
    return acc


@pytest.mark.parametrize("params", [GOLDEN, ZERO_Q], ids=["golden", "p0"])
def test_row_updates_match_the_step_matrix_product(params):
    for seed in range(60):
        shape = random.Random(seed)
        n = shape.randrange(2, 7)
        space = SignatureSpace(n, tuple(shape.choice((-1, 1)) for _ in range(n)), params)
        steps = None if seed % 3 else shape.randrange(0, 12)
        rng, ref = random.Random(seed), random.Random(seed)
        assert random_isometry(rng, space, steps) == isometry_by_step_matrices(ref, space, steps)
        assert rng.getstate() == ref.getstate()


# every (p, q) cell of the nonexistence audit's sweep
AUDIT_CELLS = [MetallicParams(p, q) for p in (1, 2, 3) for q in (1, 2)]


class RecordedRoots(dict):
    """The cell's branch-name-to-root map, remembering each lookup: the
    candidate reads one root per coordinate, in coordinate order."""

    def __init__(self, roots):
        super().__init__(roots)
        self.drawn = []

    def __getitem__(self, branch):
        self.drawn.append(branch)
        return super().__getitem__(branch)


def recorded_candidate(seed, params, monkeypatch):
    """One candidate as QuadScalars, plus its drawn isometry through
    random_isometry, the QuadScalar view of the same draw, and its root
    diagonal rebuilt by diag_branches from the branch names."""
    calls = []

    def keep(rng, eps, steps=None):
        twin = random.Random()
        twin.setstate(rng.getstate())
        calls.append((twin, SignatureSpace(len(eps), tuple(eps), params), steps))
        return integer_isometry(rng, eps, steps)

    monkeypatch.setattr(classifier, "integer_isometry", keep)
    cell = AuditCell.of(params)
    roots = RecordedRoots(cell.roots)
    out = null_dual_candidate(random.Random(seed), cell._replace(roots=roots))
    monkeypatch.undo()
    (iso_args,) = calls
    iso = random_isometry(*iso_args)
    return candidate_quads(out, params), iso, diag_branches(params, roots.drawn)


@pytest.mark.parametrize("params", AUDIT_CELLS, ids=str)
def test_null_dual_candidate_matches_the_conjugated_structure(params, monkeypatch):
    """J xi from the integer draw equals J xi for the full
    J = iso D iso^-1, built here by matrix products, and that J is a
    valid structure."""
    for seed in range(50):
        (space, jxi, xi, _), iso, diag = recorded_candidate(seed, params, monkeypatch)
        inv = isometry_inverse(space, iso)
        assert mat_mul(iso, inv) == identity(space.dim, params)
        structure = MetallicStructure(space, mat_mul(mat_mul(iso, diag), inv))
        ok, defects = structure.validate()
        assert ok, defects
        assert jxi == structure.apply(xi)


@pytest.mark.parametrize("seed", range(10))
def test_null_dual_candidates_pair_to_one(seed):
    cand = null_dual_candidate(random.Random(seed), AuditCell.of(GOLDEN))
    space, _, xi, nv = candidate_quads(cand, GOLDEN)
    assert space.inner(xi, xi) == 0
    assert space.inner(nv, nv) == 0
    assert space.inner(xi, nv) == 1


def bump_entry(rows, d, eps):
    """S_00 + 1.  An isometry's row 0 has eps-norm eps_0, so it is never
    (-1/2, 0, ..., 0), and the bump always breaks the Gram identity."""
    return [[rows[0][0] + d] + rows[0][1:]] + rows[1:], d


def skew_columns(rows, d, eps):
    """Column 1 becomes a c_1 + b c_0 with a^2 eps_1 + b^2 eps_0 = eps_1,
    over the denominator r d with a = x / r, b = y / r: every column keeps
    its eps-norm, so only the off-diagonal Gram entry <c_0, c_1> = b eps_0
    is wrong."""
    x, y, r = (3, 4, 5) if eps[0] == eps[1] else (5, 3, 4)
    skewed = [[r * row[0], x * row[1] + y * row[0]] + [r * v for v in row[2:]] for row in rows]
    return skewed, r * d


@pytest.mark.parametrize("bend", [bump_entry, skew_columns], ids=["entry", "skew"])
@pytest.mark.parametrize("seed", range(10))
def test_null_dual_candidate_refuses_a_non_isometric_draw(seed, bend, monkeypatch):
    def bent(rng, eps, steps=None):
        return bend(*integer_isometry(rng, eps, steps), eps)

    monkeypatch.setattr(classifier, "integer_isometry", bent)
    with pytest.raises(InternalInconsistency, match="not an isometry"):
        null_dual_candidate(random.Random(seed), AuditCell.of(GOLDEN))


def test_same_seed_same_scene():
    a = perturbed_structured_scene(
        random.Random(7), ZERO_Q, "radical-transversal", ("ltr", "str")
    )
    b = perturbed_structured_scene(
        random.Random(7), ZERO_Q, "radical-transversal", ("ltr", "str")
    )
    assert a.immersion.components == b.immersion.components
    assert a.point == b.point
    assert a.structure.matrix == b.structure.matrix
    assert a.notes == b.notes


def test_rad_twist_needs_two_radical_directions():
    with pytest.raises(ValueError):
        perturbed_structured_scene(
            random.Random(0), ZERO_Q, "radical-transversal", ("rad-twist",), r=1
        )
    with pytest.raises(ValueError):
        perturbed_structured_scene(random.Random(0), ZERO_Q, "no-such-config")
