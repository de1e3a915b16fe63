"""Release gate: one test per shipping criterion, math plus wall clock.

Every test here pins a user-facing guarantee end to end and asserts the
time budget the guarantee ships with.  Run with -v to get one line per
criterion.  A red line in this file means the tool must not ship, so no
test below tolerates an approximate pass: residuals are compared against
exact zero and report bytes against byte equality.
"""

import importlib
import json
import pkgutil
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from importlib import resources

from lightlike_lab import ambient, classifier, linalg, runner
from lightlike_lab.ambient import MetallicStructure, SignatureSpace
from lightlike_lab.classifier import (
    POINT_CHECK_FUNCTIONS,
    PointContext,
    Verdict,
    check_single_null_obstruction,
    check_structure_compat,
    check_structure_quadratic,
)
from lightlike_lab.errors import InsufficientScene, NotLightlike
from lightlike_lab.generators import diag_branches, perturbed_structured_scene
from lightlike_lab.geometry import (
    derive,
    full_split,
    gauss_split,
    split_tangent,
)
from lightlike_lab.linalg import identity, mat_mul, zero_vec
from lightlike_lab.polynomials import Polynomial
from lightlike_lab.runner import run
from lightlike_lab.scalars import GOLDEN, SILVER, MetallicParams, QuadScalar
from lightlike_lab.scenes import Scene, SceneClaims, parse_scene, serialize_scene
from lightlike_lab.submanifold import (
    AdaptedFrame,
    PolynomialImmersion,
    build_frame,
    construct_ltr,
)
from helpers import (
    assemble,
    hl_vector,
    invert,
    metric_deviation,
    solve,
    star_forms_radical,
    weingarten_normal_screen,
    weingarten_transversal,
)

FIXTURES = resources.files("lightlike_lab") / "fixtures"

FIXTURE_NAMES = (
    "paper-example.json",
    "radical-transversal-plane.json",
    "radical-transversal-deep.json",
    "transversal-plane.json",
    "transversal-recorded.json",
    "isotropic-screenless.json",
    "identity-structure.json",
)

P0 = MetallicParams(0, 2)


def load_scene(name):
    return parse_scene((FIXTURES / name).read_bytes())


def entry_for(report, cid):
    for e in report.entries:
        if e["check"] == cid:
            return e
    raise AssertionError(f"report has no entry for {cid}")


# ---- criterion 1: exact special scalars ----


def test_criterion_1_metallic_numbers_exact_and_fast():
    def work():
        return QuadScalar.sigma(GOLDEN), QuadScalar.sigma(SILVER)

    # best of five to dodge scheduler jitter; each call must be sub-ms
    best = min(_timed(work) for _ in range(5))
    assert best < 1e-3, f"construction took {best:.6f}s"

    golden, silver = work()
    assert golden == QuadScalar(0, 1, GOLDEN)
    assert silver == QuadScalar(0, 1, SILVER)

    # pin the radicals, not just the defining recursion: (2x - 1)^2 = 5
    # forces x = (1 + sqrt 5) / 2 for the positive branch, and
    # (x - 1)^2 = 2 forces x = 1 + sqrt 2.
    one_g = QuadScalar.one(GOLDEN)
    two_g = QuadScalar(2, 0, GOLDEN)
    lhs = two_g * golden - one_g
    assert lhs * lhs == QuadScalar(5, 0, GOLDEN)
    one_s = QuadScalar.one(SILVER)
    diff = silver - one_s
    assert diff * diff == QuadScalar(2, 0, SILVER)

    tol = Fraction(1, 10**9)
    assert abs(golden.embed(15) - Fraction("1.6180339887")) < tol
    assert abs(silver.embed(15) - Fraction("2.4142135624")) < tol


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# ---- criterion 2: diagonal structure matrices pass both validators ----

DIAG_PATTERN = ("p-sigma", "sigma", "p-sigma", "sigma", "sigma")
DIAG_EPS = (-1, 1, -1, 1, 1)


def test_criterion_2_diagonal_structure_validators():
    def validate_all():
        results = []
        for params in (MetallicParams(0, 2), MetallicParams(1, 1)):
            space = SignatureSpace(5, DIAG_EPS, params)
            structure = MetallicStructure(space, diag_branches(params, DIAG_PATTERN))
            results.append(check_structure_quadratic(structure))
            results.append(check_structure_compat(structure))
        params = MetallicParams(1, 1)
        space = SignatureSpace(5, DIAG_EPS, params)
        bad = MetallicStructure(space, identity(5, params))
        results.append(check_structure_quadratic(bad))
        return results

    validate_all()  # warm caches, then measure the validators themselves
    t0 = time.perf_counter()
    results = validate_all()
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.010, f"validators took {elapsed:.4f}s"

    *good, bad_entry = results
    for entry in good:
        assert entry.verdict is Verdict.HOLDS, entry
    assert bad_entry.verdict is Verdict.FAILS
    assert bad_entry.witness, "a failing validator must carry a witness"


# ---- criterion 3: the recorded worked example, end to end ----


def test_criterion_3_worked_example_pipeline():
    data = (FIXTURES / "paper-example.json").read_bytes()

    t0 = time.perf_counter()
    scene = parse_scene(data)
    report = run(scene, float_check=True)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s"

    params = scene.params
    s = QuadScalar.sigma(params)
    one = QuadScalar.one(params)
    zero = QuadScalar.zero(params)

    ctx = PointContext(
        scene.immersion, scene.structure, scene.points[0], scene.screen, scene.normal_screen
    )
    frame = ctx.frame
    w1 = (one, zero, zero, s, zero)
    w2 = (zero, zero, one, s, zero)
    w3 = (zero, zero, zero, zero, one)
    assert frame.tangent_jacobian == (w1, w2, w3)

    s2 = s * s
    expected_gram = (
        (s2 - one, s2, zero),
        (s2, s2 - one, zero),
        (zero, zero, one),
    )
    gram = tuple(
        tuple(scene.space.inner(a, b) for b in frame.tangent_jacobian)
        for a in frame.tangent_jacobian
    )
    assert gram == expected_gram

    # the induced metric is nondegenerate here, exactly
    assert frame.radical_dim == 0
    assert frame.radical.basis == ()
    assert entry_for(report, "frame")["verdict"] == "HOLDS"

    # the recorded null-direction claim does not survive substitution:
    # its tangent pairings come out (-s, s, 2), all nonzero
    claimed = scene.claims.claimed_radical[0]
    residuals = tuple(
        scene.space.inner(claimed, w) for w in frame.tangent_jacobian
    )
    assert residuals == (-s, s, QuadScalar(2, 0, params))
    for r in residuals:
        assert r != zero

    notices = "\n".join(report.notices)
    assert "declared radical dimension 1" in notices
    assert "dimension 0" in notices
    assert "nonzero tangent pairings: -s, s, 2" in notices
    assert "claimed configuration" in notices

    fc = report.float_check
    assert fc["tolerance"] == "1e-09"
    assert float(fc["max_abs_deviation"]) < 1e-9
    assert all(row["rank_matches"] for row in fc["points"])

    assert report.exit_status() == 0
    rerun = run(scene, float_check=True)
    assert rerun.serialize() == report.serialize()


# ---- criterion 4: split identities on seeded random scenes ----

BATTERY_PARAMS = (
    MetallicParams(0, 2),
    MetallicParams(1, 1),
    MetallicParams(2, 1),
    MetallicParams(3, 2),
)


def scene_battery(g):
    """Every structural identity of the split machinery, exactly, at one point."""
    ctx = PointContext(
        g.immersion, g.structure, g.point, g.screen_override, g.normal_screen_override
    )
    frame = ctx.frame
    kit = ctx.kit()
    space = frame.space
    m = g.immersion.chart_dim
    zvec = zero_vec(space.dim, space.params)
    coords = ctx.chart().coordinates

    assert m <= 3 and space.dim <= 6
    assert all(c.degree() <= 2 for c in g.immersion.components)

    fields = list(coords)
    if kit.screen_adapted:
        fields.append(kit.screen_adapted[0])
    fields.append(kit.radical[0])

    # reassembly, symmetry of both second-order parts, and the two
    # pairing formulas that pin them against the ambient metric
    ns_basis = frame.normal_screen.basis
    ns_gram = tuple(tuple(space.inner(a, b) for b in ns_basis) for a in ns_basis)
    for i, x in enumerate(fields):
        for y in fields[i:]:
            deriv = derive(x, y)
            parts = full_split(frame, deriv)
            assert assemble(parts, frame) == deriv
            gxy = gauss_split(frame, x, y)
            gyx = gauss_split(frame, y, x)
            assert gxy.hl == gyx.hl
            assert gxy.hs == gyx.hs
            assert gxy.hl == tuple(space.inner(deriv, xi) for xi in frame.rad_basis)
            if ns_basis:
                rhs = tuple(space.inner(deriv, z) for z in ns_basis)
                coeffs = solve(ns_gram, rhs)
                assert coeffs is not None
                expected = zvec
                for c, z in zip(coeffs, ns_basis):
                    expected = tuple(a + c * zi for a, zi in zip(expected, z))
                assert gxy.hs == expected
            else:
                assert gxy.hs == zvec

    # duality between the normal-screen shape operator and the screen
    # form, and between the transversal and normal-screen couplings
    if kit.normal_screen:
        z_field = kit.normal_screen[0]
        z0 = z_field.value
        for w in coords:
            wparts = weingarten_normal_screen(frame, w, z_field)
            for u in fields:
                u0 = u.value
                gparts = gauss_split(frame, w, u)
                lhs = space.inner(gparts.hs, z0) + space.inner(
                    u0, hl_vector(frame, wparts.dl)
                )
                assert lhs == space.inner(wparts.shape, u0)
        n_field = kit.transversal[0]
        n0 = n_field.value
        for w in coords:
            nparts = weingarten_transversal(frame, w, n_field)
            zparts = weingarten_normal_screen(frame, w, z_field)
            assert space.inner(nparts.ds, z0) == space.inner(n0, zparts.shape)

    # adjointness of the null form against the radical shape operator,
    # and that operator annihilating its own direction
    xi_f = kit.radical[0]
    xi0 = xi_f.value
    for w in coords:
        star = star_forms_radical(frame, w, xi_f)
        for u in fields:
            screen_u0, _ = split_tangent(frame, u.value)
            gparts = gauss_split(frame, w, u)
            lhs = space.inner(hl_vector(frame, gparts.hl), xi0)
            assert lhs == space.inner(star.shape, screen_u0)
    assert star_forms_radical(frame, xi_f, xi_f).shape == zvec

    # metric deviation of the induced connection, both computations
    for w in fields:
        for u in fields[:2]:
            for v in fields[-2:]:
                hu = gauss_split(frame, w, u)
                hv = gauss_split(frame, w, v)
                dev = metric_deviation(frame, w, u, v, hu.induced, hv.induced)
                other = space.inner(
                    hl_vector(frame, hu.hl), v.value
                ) + space.inner(u.value, hl_vector(frame, hv.hl))
                assert dev == other


def test_criterion_4_random_scene_identity_battery():
    t0 = time.perf_counter()
    signatures = set()
    count = 0
    for seed in range(25):
        for config in ("radical-transversal", "transversal"):
            for flavors in ((), ("ltr",)):
                params = BATTERY_PARAMS[(seed + len(flavors)) % 4]
                g = perturbed_structured_scene(
                    random.Random(seed), params, config, flavors
                )
                signatures.add(g.structure.space.eps)
                scene_battery(g)
                count += 1
    elapsed = time.perf_counter() - t0
    assert count == 100
    assert elapsed < 60.0, f"battery took {elapsed:.1f}s"
    # the sweep must genuinely mix ambient signatures
    assert len(signatures) >= 10
    assert any(eps.count(-1) == 1 for eps in signatures)
    assert any(eps.count(-1) >= 2 for eps in signatures)


# ---- criterion 5: null transversal frames are exactly dual ----

# base tangent frames, grouped as (signature, rows); radical dimensions
# below are what the row Grams force, and mixing by an invertible
# matrix on the left cannot change them
LTR_BASES = (
    ((-1, 1, 1), ((1, 1, 0), (0, 0, 1)), 1),
    ((-1, 1, 1, 1), ((1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), 1),
    ((-1, -1, 1, 1), ((1, 0, 1, 0), (0, 1, 0, 0)), 1),
    ((-1, -1, 1, 1), ((1, 0, 1, 0), (0, 1, 0, 1)), 2),
    ((-1, -1, 1, 1, 1), ((1, 0, 1, 0, 0), (0, 1, 0, 1, 0), (0, 0, 0, 0, 1)), 2),
    (
        (-1, -1, 1, 1, 1, 1),
        (
            (1, 0, 1, 0, 0, 0),
            (0, 1, 0, 1, 0, 0),
            (0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 0, 1),
        ),
        2,
    ),
)

LTR_PARAMS = (
    MetallicParams(0, 2),
    MetallicParams(1, 1),
    MetallicParams(2, 1),
    MetallicParams(3, 1),
    MetallicParams(1, 2),
    MetallicParams(2, 2),
    MetallicParams(3, 2),
)


def _random_mix(rng, m, params):
    while True:
        mat = tuple(
            tuple(
                QuadScalar(rng.randint(-2, 2), rng.randint(-1, 1), params)
                for _ in range(m)
            )
            for _ in range(m)
        )
        if invert(mat) is not None:
            return mat


def _linear_immersion(space, rows):
    m = len(rows)
    params = space.params
    comps = []
    for i in range(space.dim):
        poly = Polynomial.zero(m, params)
        for j in range(m):
            poly = poly + Polynomial.variable(j, m, params).scale(rows[j][i])
        comps.append(poly)
    return PolynomialImmersion(space, m, tuple(comps))


def _assert_dual(space, ltr, rad_basis):
    one = QuadScalar.one(space.params)
    zero = QuadScalar.zero(space.params)
    assert len(ltr) == len(rad_basis)
    for i, n in enumerate(ltr):
        for j, xi in enumerate(rad_basis):
            assert space.inner(n, xi) == (one if i == j else zero)
        for n2 in ltr:
            assert space.inner(n, n2) == zero


def test_criterion_5_transversal_frame_duality():
    rng = random.Random(514)
    t0 = time.perf_counter()
    frames = 0
    for trial in range(17):
        for eps, base_rows, expect_r in LTR_BASES:
            params = LTR_PARAMS[frames % len(LTR_PARAMS)]
            space = SignatureSpace(len(eps), eps, params)
            rows = tuple(
                tuple(QuadScalar(x, 0, params) for x in row) for row in base_rows
            )
            mixed = mat_mul(_random_mix(rng, len(rows), params), rows)
            immersion = _linear_immersion(space, mixed)
            origin = (QuadScalar.zero(params),) * len(rows)
            frame = build_frame(immersion, origin)
            assert frame.radical_dim == expect_r
            _assert_dual(space, frame.ltr, frame.rad_basis)
            direct = construct_ltr(space, frame.radical, frame.screen, frame.normal_screen)
            _assert_dual(space, direct, frame.radical.basis)
            frames += 1
    elapsed = time.perf_counter() - t0
    assert frames == 102
    assert elapsed < 10.0, f"frame sweep took {elapsed:.1f}s"


def _count_calls(monkeypatch, owner, name, counts, key=None):
    """Count the calls of owner.name, under key(*args) when given, also
    through every lightlike_lab module that imported it by name."""
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[name if key is None else key(*args)] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    for modname, module in list(sys.modules.items()):
        if modname.startswith("lightlike_lab.") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)


def _gate_frames():
    """Every fixture point, with its declared screens and with greedy
    ones, and a fixed generated sweep: 74 build_frame arguments."""
    frames = []
    for name in FIXTURE_NAMES:
        sc = load_scene(name)
        for point in sc.points:
            frames.append((sc.immersion, point, sc.screen, sc.normal_screen))
            frames.append((sc.immersion, point, None, None))
    for pq in ((0, 2), (1, 1), (2, 1)):
        for config in ("radical-transversal", "transversal"):
            for flavors in ((), ("str",), ("ltr",), ("rad",), ("rad-twist",)):
                g = perturbed_structured_scene(random.Random(0), MetallicParams(*pq), config, flavors)
                frames.append((g.immersion, g.point, g.screen_override, g.normal_screen_override))
                frames.append((g.immersion, g.point, None, None))
    return frames


def test_criterion_5_frame_build_forms_no_quadscalar_gram_det_or_kernel(monkeypatch):
    """A load-free companion to the frame budget above: no module under
    src has a QuadScalar Gram matrix (SignatureSpace.gram), det or
    null_space, because build_frame's span work runs on primitive integer
    rows.  On the gate frames its one QuadScalar elimination is the
    r x r transversal pairing, factored once when r > 0."""
    package = importlib.import_module("lightlike_lab")
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"lightlike_lab.{info.name}")
        assert not hasattr(module, "det") and not hasattr(module, "null_space"), info.name
    assert not hasattr(SignatureSpace, "gram")
    frames = _gate_frames()
    shapes, radical_dims, misses = Counter(), Counter(), []
    _count_calls(monkeypatch, linalg, "rref", shapes, key=lambda a, *_: (len(a), len(a[0])))
    for immersion, point, screen, normal_screen in frames:
        shapes.clear()
        r = build_frame(immersion, point, screen, normal_screen).radical_dim
        radical_dims[r] += 1
        if shapes != (Counter({(r, 2 * r): 1}) if r else Counter()):
            misses.append((r, shapes.copy()))
    assert misses == []
    assert len(frames) == 74 and radical_dims[1] and radical_dims[2]
    # the counter sees a call when there is one
    shapes.clear()
    linalg.rank(identity(2, GOLDEN))
    assert shapes == Counter({(2, 2): 1})


def test_criterion_5_frame_build_picks_one_ring_and_clears_only_its_inputs(monkeypatch):
    """A load-free companion to the frame budget above: on each gate
    frame, build_frame picks its row ring once, and clears each Jacobian
    row and each declared screen vector once and nothing else, because
    every span it hands on stays a primitive row span of that ring."""
    frames = _gate_frames()
    counts = Counter()
    _count_calls(monkeypatch, linalg.RowRing, "over", counts)
    _count_calls(monkeypatch, linalg.RowRing, "clear", counts)
    misses = []
    for immersion, point, screen, normal_screen in frames:
        counts.clear()
        build_frame(immersion, point, screen, normal_screen)
        declared = len(screen or ()) + len(normal_screen or ())
        if counts != Counter({"over": 1, "clear": immersion.chart_dim + declared}):
            misses.append(counts.copy())
    assert misses == []
    assert len(frames) == 74 and any(screen for _, _, screen, _ in frames)
    # the counters see a call when there is one
    counts.clear()
    ring = linalg.RowRing.over(GOLDEN, identity(2, GOLDEN))
    ring.clear(identity(2, GOLDEN)[0])
    assert counts == Counter({"over": 1, "clear": 1})


def test_criterion_5_transversal_projectors_refine_the_four_slot_set(monkeypatch):
    """A load-free companion to the frame budget: on a fixed p = 0
    transversal sweep, once the four-slot projectors exist, mu and the
    transversal projectors factor exactly one basis, the normal screen's
    mapped-screen + mu basis, and call rref only for that factorization."""
    contexts = []
    for q in (2, 3, 5):
        for flavors in ((), ("str",), ("ltr",), ("rad",), ("screen",), ("rad-twist",)):
            params = MetallicParams(0, q)
            g = perturbed_structured_scene(random.Random(q), params, "transversal", flavors)
            ctx = PointContext(
                g.immersion, g.structure, g.point, g.screen_override, g.normal_screen_override
            )
            assert ctx.configuration("transversal")[0]
            ctx.projectors("radical-transversal")
            contexts.append(ctx)
    counts = Counter()
    _count_calls(monkeypatch, linalg, "rref", counts)
    factored = []
    init = linalg.FactoredBasis.__init__

    def counting_init(self, basis, ambient_dim, params):
        factored.append(len(basis))
        init(self, basis, ambient_dim, params)

    monkeypatch.setattr(linalg.FactoredBasis, "__init__", counting_init)
    for ctx in contexts:
        factored_before = len(factored)
        ctx.mu_subspace()
        proj = ctx.projectors("transversal")
        assert factored[factored_before:] == [ctx.frame.normal_screen.dim]
        assert not proj.audit()
    assert counts == Counter({"rref": 18}) and len(factored) == 18
    assert len(contexts) == 18 and any(ctx.frame.screen.dim for ctx in contexts)
    # the counters see a call when there is one
    linalg.rank(identity(2, GOLDEN))
    linalg.FactoredBasis(identity(2, GOLDEN), 2, GOLDEN)
    assert counts == Counter({"rref": 20}) and factored[-1] == 2


def test_criterion_5_configuration_reads_the_slot_coordinates(monkeypatch):
    """Both configuration predicates, in both modes, read the frame's
    slot coordinates off J^: every rank they take is of an in-slot
    block of its radical or screen columns, narrower than the ambient
    space, and no structure image takes coordinates one vector at a
    time.  linalg has no Q(sigma) span class for them to build."""
    contexts = []
    for q in (2, 3, 5):
        for config in ("radical-transversal", "transversal"):
            for flavors in ((), ("str",), ("ltr",), ("rad",), ("screen",), ("rad-twist",)):
                g = perturbed_structured_scene(
                    random.Random(q), MetallicParams(0, q), config, flavors
                )
                contexts.append(
                    PointContext(
                        g.immersion, g.structure, g.point, g.screen_override,
                        g.normal_screen_override,
                    )
                )
    assert not hasattr(linalg, "Subspace")
    widths, reads = Counter(), Counter()
    _count_calls(monkeypatch, linalg, "rank", widths, key=lambda a: len(a[0]) if a else 0)
    _count_calls(monkeypatch, AdaptedFrame, "slot_coords", reads)
    _count_calls(monkeypatch, linalg.FactoredBasis, "coords", reads)
    holding, ranked = Counter(), 0
    for ctx in contexts:
        widths.clear()
        for mode in ("radical-transversal", "transversal"):
            holding[mode] += ctx.configuration(mode)[0]
        assert max(widths) < ctx.space.dim, widths
        ranked += sum(widths.values())
    assert holding["radical-transversal"] and holding["transversal"]
    assert len(contexts) == 36 and ranked >= 36
    assert reads == Counter()
    # the counters see a call when there is one
    widths.clear()
    linalg.rank(identity(2, GOLDEN))
    frame = contexts[0].frame
    frame.slot_coords(frame.ltr[0])
    assert widths == Counter({2: 1})
    assert reads == Counter({"slot_coords": 1, "coords": 1})


# The twelve scenes of the sweep-classify benchmark pool: both
# configurations x six flavors, p = 0, q cycling through 2, 3, 5, generator
# seeds 100, 120, ..., 320, one point with its declared screens, and every
# check but the nonexistence audit
SWEEP_CONFIGS = ("radical-transversal", "transversal")
SWEEP_POOL_FLAVORS = ((), ("str",), ("ltr",), ("rad",), ("screen",), ("rad-twist",))


def _sweep_pool():
    checks = tuple(c for c in classifier.CHECK_ORDER if c != "audit-nonexistence")
    cells = [(c, f) for c in SWEEP_CONFIGS for f in SWEEP_POOL_FLAVORS]
    scenes = []
    for k, (config, flavors) in enumerate(cells):
        seed, params = 100 + 20 * k, MetallicParams(0, (2, 3, 5)[k % 3])
        g = perturbed_structured_scene(random.Random(seed), params, config, flavors)
        scene = Scene(
            params, g.immersion.space, g.structure, g.immersion, (tuple(g.point),), checks, seed,
            g.screen_override, g.normal_screen_override,
            claims=SceneClaims(expected_radical_dim=g.expected_radical_dim),
        )
        scenes.append(parse_scene(serialize_scene(scene)))
    return scenes


def test_criterion_5_sweep_makes_few_ambient_products(monkeypatch):
    """A load-free companion to the sweep-classify speed target: one pass
    over the sweep pool makes exactly 36 n x n products in classifier,
    three per point: K = C^-1 J, J^ = K C and the projector audit
    C^-1 C.  The criteria and structure-eqs read slot-coordinate blocks
    of them and compose no n x n projector products."""
    scenes = _sweep_pool()
    counts, dims = Counter(), []
    original = classifier.mat_mul

    def counting(a, b):
        if a and b and len(a) == len(a[0]) == len(b) == len(b[0]) == dims[-1]:
            counts["n x n"] += 1
        return original(a, b)

    monkeypatch.setattr(classifier, "mat_mul", counting)
    verdicts = Counter()
    for scene in scenes:
        dims.append(scene.space.dim)
        verdicts.update(e["verdict"] for e in run(scene, seed=1).entries)
    assert counts == Counter({"n x n": 36})
    assert len(scenes) == 12 and verdicts["HOLDS"] and verdicts["FAILS"]
    # the counter sees a call when there is one
    dims.append(2)
    classifier.mat_mul(identity(2, GOLDEN), identity(2, GOLDEN))
    assert counts == Counter({"n x n": 37})


def test_criterion_5_sweep_kit_forms_each_pairing_once(monkeypatch):
    """A load-free companion to the sweep-classify speed target: over
    the sweep pool the field kits make 578 inner products and factor 46
    systems.  Each pairing is formed once, d_l <W_j, W_k> from the
    <d_l W_j, W_k> with l <= j, and <d_l W_a, N_i> once for all screen
    vectors; forming d_l <W_j, W_k> pair by pair made 822.  Outside the
    kits, each of the 12 frames factors only its transversal pairing."""
    scenes = _sweep_pool()
    counts, inside = Counter(), []
    inner, build = SignatureSpace.inner, classifier.build_field_kit

    def counting_inner(self, u, v):
        counts["inner"] += bool(inside)
        return inner(self, u, v)

    def building(chart, frame):
        counts["kits"] += 1
        inside.append(frame)
        try:
            return build(chart, frame)
        finally:
            inside.pop()

    monkeypatch.setattr(SignatureSpace, "inner", counting_inner)
    monkeypatch.setattr(classifier, "build_field_kit", building)
    _count_calls(
        monkeypatch, linalg, "factor_system", counts,
        key=lambda *_: "factor_system" if inside else "pairings",
    )
    for scene in scenes:
        run(scene, seed=1)
    assert counts == Counter({"kits": 12, "inner": 578, "factor_system": 46, "pairings": 12})
    # the counters see a call when there is one
    space = SignatureSpace(2, (-1, 1), GOLDEN)
    inside.append(None)
    space.inner(identity(2, GOLDEN)[0], identity(2, GOLDEN)[1])
    linalg.factor_system(identity(2, GOLDEN), GOLDEN)
    assert counts == Counter({"kits": 12, "inner": 579, "factor_system": 47, "pairings": 12})


def test_criterion_5_sweep_keeps_structure_facts(monkeypatch):
    """Per-scene and per-point structure facts are computed once: over
    the sweep pool each validator runs once per scene, though both
    validator checks and every point's gate read it, and J s is formed
    once per screen vector at each point, though both configuration
    predicates, mu and the transversal projectors read it."""
    scenes = _sweep_pool()
    validated, images, contexts = Counter(), Counter(), {}
    _count_calls(monkeypatch, ambient, "validate_metallic", validated)
    _count_calls(monkeypatch, ambient, "validate_compatibility", validated)
    _count_calls(monkeypatch, MetallicStructure, "apply", images, key=lambda j, v: (id(j), v))
    context = runner._SceneRun.context

    def keeping(self, i):
        ctx = context(self, i)
        contexts[id(ctx)] = ctx
        return ctx

    monkeypatch.setattr(runner._SceneRun, "context", keeping)
    for scene in scenes:
        run(scene, seed=1)
    assert validated == Counter({"validate_metallic": 12, "validate_compatibility": 12})
    screens = [(id(c.structure), s) for c in contexts.values() for s in c.frame.screen.basis]
    assert len(contexts) == 12 and screens
    assert all(images[key] == 1 for key in screens), images
    # the counters see a call when there is one
    ctx = next(c for c in contexts.values() if c.frame.screen.dim)
    ambient.validate_metallic(ctx.structure.matrix, ctx.params)
    ctx.structure.apply(ctx.frame.screen.basis[0])
    assert validated["validate_metallic"] == 13
    assert images[(id(ctx.structure), ctx.frame.screen.basis[0])] == 2


# ---- criterion 6: classification checks versus their oracles ----

THEOREM_CHECKS = (
    "thm-3.5",
    "thm-3.6",
    "thm-3.7",
    "thm-3.8",
    "thm-3.9",
    "thm-4.5",
    "thm-4.6",
    "thm-4.7",
    "thm-4.8",
    "thm-4.9",
)

SWEEP_FLAVORS = ((), ("ltr",), ("rad",), ("rad-twist",))


def test_criterion_6_theorem_oracle_agreement():
    # every classification check recomputes its claim from an
    # independent field-sampled oracle and raises InternalInconsistency
    # on any mismatch, so a completed sweep IS the agreement proof;
    # the verdict sets below rule out a vacuous pass
    t0 = time.perf_counter()
    observed = set()

    for name in FIXTURE_NAMES:
        report = run(load_scene(name), seed=7)
        for cid in THEOREM_CHECKS:
            try:
                entry = entry_for(report, cid)
            except AssertionError:
                continue
            observed.add(entry["verdict"])

    applicable = 0
    seed = 0
    while applicable < 50:
        assert seed < 400, "sweep failed to find enough applicable scenes"
        params = LTR_PARAMS[seed % len(LTR_PARAMS)]
        flavors = SWEEP_FLAVORS[seed % len(SWEEP_FLAVORS)]
        for config in ("radical-transversal", "transversal"):
            g = perturbed_structured_scene(random.Random(seed), params, config, flavors)
            try:
                ctx = PointContext(
                    g.immersion,
                    g.structure,
                    g.point,
                    g.screen_override,
                    g.normal_screen_override,
                )
                ctx.frame
            except NotLightlike:
                continue
            scene_applicable = False
            for cid in THEOREM_CHECKS:
                try:
                    entry = POINT_CHECK_FUNCTIONS[cid](ctx)
                except (NotLightlike, InsufficientScene):
                    continue
                if entry.verdict is not Verdict.NOT_APPLICABLE:
                    scene_applicable = True
                    observed.add(entry.verdict.value)
            if scene_applicable:
                applicable += 1
        seed += 1

    elapsed = time.perf_counter() - t0
    assert applicable >= 50
    assert "HOLDS" in observed and "FAILS" in observed, observed
    assert elapsed < 120.0, f"oracle sweep took {elapsed:.1f}s"


# ---- criterion 7: no single null direction carries the transfer ----


def test_criterion_7_single_null_audit():
    # time a cold audit, not one reused from an earlier test
    classifier._audit_witness.cache_clear()
    t0 = time.perf_counter()
    entry = check_single_null_obstruction(20260817, trials=200)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"audit took {elapsed:.2f}s"

    assert entry.verdict is Verdict.HOLDS
    sweep = entry.witness["sweep"]
    assert set(sweep) == {f"p={p},q={q}" for p in (1, 2, 3) for q in (1, 2)}
    for p in (1, 2, 3):
        for q in (1, 2):
            cell = sweep[f"p={p},q={q}"]
            assert cell["trials"] == 200
            assert cell["satisfying_candidates"] == 0
            assert cell["images_inside_the_transversal_span"] == 0
            assert cell["forced_value_when_satisfied"] == str(p)
            # a satisfying candidate would force p * 1 = 0, which no
            # positive p survives; assert the contradiction exactly
            params = MetallicParams(p, q)
            forced = QuadScalar(p, 0, params) * QuadScalar.one(params)
            assert forced != QuadScalar.zero(params)
    assert "<J xi, J xi> = p <J xi, xi>" in entry.witness["constraint_set"]
    assert entry.witness["minimum_radical_dim_for_transversal_claims"] == 2


# ---- criterion 8: same seed, same bytes ----


def test_criterion_8_deterministic_reports():
    for name in FIXTURE_NAMES:
        scene = load_scene(name)
        first = run(scene, seed=99)
        # a second cold audit, not the first one reused
        classifier._audit_witness.cache_clear()
        second = run(scene, seed=99)
        assert first.serialize() == second.serialize(), name
        json.loads(first.serialize())  # stays parseable, not just stable

    scene = load_scene("paper-example.json")
    f1 = run(scene, seed=99, float_check=True)
    f2 = run(scene, seed=99, float_check=True)
    assert f1.serialize() == f2.serialize()
