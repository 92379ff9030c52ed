import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from reebmin import cones as cn
from reebmin import latcore as lc
from reebmin import reebvol as rv
from reebmin.errors import NotGorenstein, NotQGorenstein, ReebNotInterior

import cone_suite
import oracles

CONIFOLD = cone_suite.cone("conifold")
FLAT2, FLAT3, FLAT4 = (cone_suite.cone(f"flat{n}") for n in (2, 3, 4))
Y21 = cn.validate_cone([(1, 0, 0), (1, 2, 0), (1, 0, 1), (1, 3, -1)])
FIVE_CONES = [FLAT2, FLAT3, FLAT4, CONIFOLD, Y21]


def random_interior_xi(cone, rng, on_slice=True):
    """Random point of Int C on the slice xi_0 = n (cone in height basis)."""
    n = cone.n
    while True:
        coeffs = [rng.uniform(0.1, 1.0) for _ in cone.normals]
        xi = [sum(c * v[i] for c, v in zip(coeffs, cone.normals)) for i in range(n)]
        if on_slice:
            xi = [n * x / xi[0] for x in xi]
        try:
            rv._moments(cone, xi)
            return xi
        except ReebNotInterior:
            continue


# --- polytopes and volumes ---------------------------------------------------


def cut_points(cone, xi):
    """The vertices of Delta(xi) besides the origin: each ray r at r / (2 <r, xi>)."""
    return {tuple(x / (2 * lc.dot(r, xi)) for x in r) for r in cone.rays}


def test_quadrant_triangle():
    quad = cn.validate_cone([(1, 0), (0, 1)])
    xi = (F(2), F(2))
    assert cut_points(quad, xi) == {(F(1, 4), F(0)), (F(0), F(1, 4))}
    assert rv._moments(quad, xi)[0] == F(1, 32)


def test_unit_simplex_volume():
    orthant = cn.validate_cone(lc.identity(3))
    xi = (F(1, 2), F(1, 2), F(1, 2))
    assert cut_points(orthant, xi) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert rv._moments(orthant, xi)[0] == F(1, 6)


def test_flat3_simplex_volume():
    assert len(FLAT3.rays) == 3
    assert rv._moments(FLAT3, (F(3), F(1), F(1)))[0] == F(1, 48)


def test_conifold_polytope():
    assert len(CONIFOLD.rays) == 4  # Delta(xi): the origin and 4 cut points
    assert rv._moments(CONIFOLD, (F(3), F(3, 2), F(3, 2)))[0] == F(1, 81)


def test_reeb_not_interior():
    with pytest.raises(ReebNotInterior):
        rv._moments(cn.validate_cone([(1, 0), (0, 1)]), (1, -1))
    with pytest.raises(ReebNotInterior):
        rv._moments(CONIFOLD, (0, 1, 1), 1)


# --- the volume functional ---------------------------------------------------


def test_flat_normalized_volume_is_one():
    vol = rv._moments(FLAT3, (F(3), F(1), F(1)))[0]
    assert 2**3 * math.factorial(3) * vol == 1
    # vol(S, g) = 2 n (2 pi)^n vol(Delta) is the round S^5's 2 pi^3 / 2!
    assert abs(2 * 3 * (2 * math.pi) ** 3 * float(vol) - math.pi**3) < 1e-12


def test_flat3_grid_oracle_confirms_minimum():
    def vol(xi):
        return float(rv._moments(FLAT3, xi)[0])

    best_xi, best = oracles.grid_minimize(vol, [3.0, 1.0, 1.0], 0.9, steps=19)
    assert best_xi == pytest.approx([3.0, 1.0, 1.0])
    assert best >= float(rv._moments(FLAT3, (3, 1, 1))[0]) - 1e-15


def test_conifold_normalized_volume():
    vol, _, _ = rv._moments(CONIFOLD, (F(3), F(3, 2), F(3, 2)))
    normalized_volume = 2**3 * math.factorial(3) * vol
    assert normalized_volume == F(16, 27)
    # cross-check against the hypersurface volume formula for the quadric
    from reebmin import obstruct

    _, normalized = obstruct.hs_volume(obstruct.WeightedHS((1, 1, 1, 1), 2))
    assert normalized_volume == normalized


def test_volume_homogeneity_degree_minus_n():
    rng = random.Random(1)
    for cone in (FLAT3, CONIFOLD):
        xi = random_interior_xi(cone, rng, on_slice=False)
        lam = 1.7
        v1 = rv._moments(cone, xi)[0]
        v2 = rv._moments(cone, [lam * x for x in xi])[0]
        assert v2 == pytest.approx(lam ** (-cone.n) * v1, rel=1e-12)


# --- derivatives -------------------------------------------------------------


def test_conifold_restricted_gradient_exactly_zero():
    grad = rv._moments(CONIFOLD, (F(3), F(3, 2), F(3, 2)), 1)[1]
    assert grad[1] == 0 and grad[2] == 0
    assert grad[0] != 0  # unconstrained direction stays downhill


def test_gradient_matches_finite_differences():
    rng = random.Random(2)
    for cone in FIVE_CONES:
        def vol(xi, cone=cone):
            return float(rv._moments(cone, xi)[0])

        for _ in range(25):
            xi = random_interior_xi(cone, rng, on_slice=False)
            grad = rv._moments(cone, xi, 1)[1]
            fd = oracles.fd_volume_gradient(vol, xi, h=1e-5)
            scale = max(abs(g) for g in grad)
            for g, f in zip(grad, fd):
                assert abs(g - f) <= 1e-6 * scale


def test_gradient_exact_equals_float():
    rng = random.Random(3)
    for cone in (FLAT3, CONIFOLD, Y21):
        for _ in range(5):
            xi_num = [F(rng.randint(1, 40), rng.randint(1, 13)) for _ in range(cone.n)]
            xi = [F(cone.n) + sum(xi_num) * 0, *xi_num[1:]]
            xi[0] = F(cone.n)
            try:
                exact = rv._moments(cone, xi, 1)[1]
            except ReebNotInterior:
                continue
            approx = rv._moments(cone, [float(x) for x in xi], 1)[1]
            for e, a in zip(exact, approx):
                assert abs(float(e) - a) <= 1e-9 * max(1.0, abs(a))


def test_hessian_positive_definite_on_slice():
    rng = random.Random(4)
    for cone in FIVE_CONES:
        for _ in range(10):
            xi = random_interior_xi(cone, rng)
            hess = rv._moments(cone, xi, 2)[2]
            reduced = np.array([row[1:] for row in hess[1:]], float)
            assert np.linalg.eigvalsh(reduced)[0] > 0


def test_strict_convexity_on_random_segments():
    rng = random.Random(5)
    checked = 0
    while checked < 100:
        cone = FIVE_CONES[checked % len(FIVE_CONES)]
        a = random_interior_xi(cone, rng)
        b = random_interior_xi(cone, rng)
        if max(abs(x - y) for x, y in zip(a, b)) < 1e-9:
            continue
        mid = [(x + y) / 2 for x, y in zip(a, b)]
        va = rv._moments(cone, a)[0]
        vb = rv._moments(cone, b)[0]
        vm = rv._moments(cone, mid)[0]
        assert vm < (va + vb) / 2
        checked += 1


# --- minimization ------------------------------------------------------------


def test_minimize_flat_cones():
    for n in (2, 3, 4):
        res = rv.minimize_reeb(cone_suite.cone(f"flat{n}"))
        assert res.regularity == "quasi-regular"
        assert res.xi_star_exact == (F(n), *([F(1)] * (n - 1)))
        assert res.normalized_volume_exact == 1
        assert abs(res.normalized_volume - 1) < 1e-9


def test_minimize_conifold_certified():
    res = rv.minimize_reeb(CONIFOLD)
    assert res.xi_star_exact == (F(3), F(3, 2), F(3, 2))
    assert res.normalized_volume_exact == F(16, 27)
    assert res.gradient_norm <= 1e-10
    assert res.rank == 1


def test_minimize_y21_irregular():
    from reebmin.ypq import quasiregular_check

    res = rv.minimize_reeb(Y21)
    assert res.xi_star_exact is None
    assert res.regularity == "irregular"
    assert res.rank == 2
    assert quasiregular_check(2, 1).kind == "irregular"  # 4p^2-3q^2 = 13
    assert res.gradient_norm <= 1e-10


def test_minimize_orbifold_simplex_closed_form():
    # wedge cone (1,0),(1,2): slice volume 1/(4 t (4-t)), minimum at t = 2,
    # normalized volume exactly 1/2 (a Z_2 quotient of the round S^3)
    res = rv.minimize_reeb(cn.validate_cone([(1, 0), (1, 2)]))
    assert res.xi_star_exact == (F(2), F(2))
    assert res.normalized_volume_exact == F(1, 2)


def test_minimize_requires_height_one():
    with pytest.raises(NotGorenstein):
        rv.minimize_reeb(cn.validate_cone([(2, 1), (2, -1)]))


def test_minimize_convergence_failure_reports_iterations():
    from reebmin.errors import ConvergenceFailure

    with pytest.raises(ConvergenceFailure) as err:
        rv.minimize_reeb(Y21, max_iter=1)
    assert err.value.iterations == 1


@pytest.mark.parametrize("moved, standard", [
    # the d = 4 parabola cone, lifted from (k, k^2), in a sheared frame
    ([[0, 0, -1], [3, -1, -1], [10, -4, -1], [21, -9, -1]],
     [[1, k, k * k] for k in range(4)]),
    # Y^{6,1} in a sheared frame
    ([[0, 2, 1], [0, 5, 3], [6, 32, 19], [5, 24, 14]],
     [[1, 0, 0], [1, 1, 0], [1, 6, 6], [1, 4, 5]]),
])
def test_minimize_exits_at_float_floor_in_sheared_frames(moved, standard):
    # |grad| stays just above GRAD_TOL in these frames; the accepted step
    # that no longer lowers vol must end Newton instead of the iteration cap
    res = rv.minimize_reeb(cn.validate_cone(moved))
    ref = rv.minimize_reeb(cn.validate_cone(standard))
    assert res.iterations < 10
    assert res.regularity == ref.regularity == "irregular"
    assert res.normalized_volume == pytest.approx(ref.normalized_volume, rel=1e-10)


def test_minimize_moment_curve_cone_against_qhull_oracle():
    # normals (1, k, ..., k^5): vol and its gradient are tiny at this scale,
    # so the seed already has |grad| <= GRAD_TOL; the stop must not fire there
    normals = [[k**i for i in range(6)] for k in range(1, 10)]
    res = rv.minimize_reeb(cn.validate_cone(normals))
    assert res.iterations > 0
    assert res.regularity == "irregular"
    seed = [6.0] + [6 * sum(v[i] for v in normals) / 9 for i in range(1, 6)]
    ref = oracles.minimize_volume_by_qhull(oracles.validate_cone_by_minors(normals), seed)
    for x, r in zip(res.xi_star, ref):
        assert abs(x - r) <= 1e-8 * abs(r)


def test_minimizer_unique_across_restarts():
    rng = random.Random(6)
    reference = rv.minimize_reeb(Y21).xi_star
    for _ in range(10):
        seed = random_interior_xi(cn.gorenstein_normalize(Y21).cone, rng)
        res = rv.minimize_reeb(Y21, xi0=seed)
        assert max(abs(a - b) for a, b in zip(res.xi_star, reference)) < 1e-8


def test_basis_equivariance():
    rng = random.Random(8)
    base = cn.validate_cone(CONIFOLD.normals)
    ref = rv.minimize_reeb(base).xi_star_exact
    for _ in range(10):
        # unimodular transform fixing the height covector e1
        block = oracles.random_unimodular(2, rng)
        s = [[1, 0, 0],
             [rng.randint(-2, 2), block[0][0], block[0][1]],
             [rng.randint(-2, 2), block[1][0], block[1][1]]]
        moved = cn.validate_cone([lc.matvec(s, list(v)) for v in base.normals])
        res = rv.minimize_reeb(moved)
        expected = tuple(
            sum(F(s[i][j]) * ref[j] for j in range(3)) for i in range(3)
        )
        assert res.xi_star_exact == expected


def test_minimize_reports_iterations_and_converges():
    res = rv.minimize_reeb(Y21)
    assert res.iterations >= 1
    assert res.normalized_volume == pytest.approx(0.2866424894476, rel=1e-10)


def test_minimize_y21_alternate_charge_basis():
    # the same link from the charge row (2,2,-1,-3): basis-independent data
    cone = cn.validate_cone(lc.gale_dual([[2, 2, -1, -3]]))
    res = rv.minimize_reeb(cone)
    assert res.regularity == "irregular" and res.rank == 2
    assert res.normalized_volume == pytest.approx(
        rv.minimize_reeb(Y21).normalized_volume, rel=1e-10
    )


def test_hessian_positive_definite_at_minimizer():
    for cone in (CONIFOLD, Y21, FLAT3):
        res = rv.minimize_reeb(cone)
        hess = rv._moments(cn.gorenstein_normalize(cone).cone, res.xi_star, 2)[2]
        reduced = np.array([row[1:] for row in hess[1:]], float)
        assert np.linalg.eigvalsh(reduced)[0] > 0


def test_integer_reeb_input_stays_exact():
    vol, grad, hess = rv._moments(FLAT3, (3, 1, 1), 2)
    assert vol == F(1, 48)
    assert all(isinstance(x, F) for x in [vol, *grad, *hess[0]])


HEPTAGON = cn.validate_cone(
    [(1, 0, 0), (1, 1, 0), (1, 2, 1), (1, 2, 2), (1, 1, 3), (1, 0, 3), (1, -1, 2)]
)


def test_volume_against_qhull_oracle():
    # scipy's qhull computes the same polytope volume by a different route
    from scipy.spatial import ConvexHull

    rng = random.Random(10)
    for cone in (FLAT3, CONIFOLD, HEPTAGON, FLAT4):
        for _ in range(3):
            xi = random_interior_xi(cone, rng, on_slice=False)
            mine = float(rv._moments(cone, xi)[0])
            vertices = [[0.0] * cone.n]
            vertices += [[x / (2 * lc.dot(r, xi)) for x in r] for r in cone.rays]
            hull = ConvexHull(vertices)
            assert abs(mine - hull.volume) <= 1e-12 * max(1.0, hull.volume)


def test_minimize_heptagon_cone():
    res = rv.minimize_reeb(HEPTAGON)
    assert res.regularity == "irregular"
    assert res.gradient_norm <= 1e-10
    # Bishop: any non-round Sasaki-Einstein link is smaller than the sphere
    assert 0 < res.normalized_volume < 1


def test_minimize_y13_7_large_denominator_certification():
    from reebmin import ypq

    res = rv.minimize_reeb(ypq.labc_cone(ypq.LabcParams(6, 20, 13)))  # Y^{13,7}
    assert res.regularity == "quasi-regular"
    assert res.normalized_volume_exact == F(2401, 54756)
    assert ypq.quasiregular_check(13, 7) == ypq.Regularity("quasi-regular", 23)


# --- integer-numerator certification ----------------------------------------


def _verdict(fn):
    try:
        return fn()
    except ReebNotInterior:
        return "not interior"


def _height_cone(name):
    return cn.gorenstein_normalize(cn.validate_cone(cone_suite.CONES[name])).cone


def _certificate_candidates():
    """(height-basis cone, rational candidate) pairs of every kind certification sees."""
    rng = random.Random(31)
    pairs = []
    for name in ("conifold", "flat3", "flat4", "y7_3_labc", "y13_7_labc"):
        cone = _height_cone(name)
        exact = rv.minimize_reeb(cone).xi_star_exact
        assert exact is not None, name
        pairs.append((cone, exact))
        for i in range(1, cone.n):
            for shift in (-1, 1):
                moved = list(exact)
                moved[i] = F(exact[i].numerator + shift, exact[i].denominator)
                pairs.append((cone, tuple(moved)))
    for name in ("y21", "heptagon", "y2_1_labc", "y3_1_labc", "y3_2_labc", "parabola4", "y61"):
        cone = _height_cone(name)
        xi, _, _ = rv._newton(cone, rv.GRAD_TOL, 200)
        for bound in rv.DEN_BOUNDS:
            pairs.append((cone, (F(cone.n),) + tuple(F(x).limit_denominator(bound) for x in xi[1:])))
    for name in ("conifold", "flat3", "flat4", "y21", "heptagon", "y7_3_labc"):
        cone = _height_cone(name)
        n = cone.n
        # on the boundary of the dual cone, and random points mostly outside it
        pairs += [(cone, tuple(F(n * x) for x in v)) for v in cone.normals]
        for _ in range(6):
            pairs.append((cone, (F(n),) + tuple(
                F(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(n - 1))))
    return pairs


def _half_critical_candidates():
    """Flat-cone points where every slice partial but one vanishes.

    In the height basis of C^n the slice volume is c / (prod_i xi_i *
    (n - sum_i xi_i)), whose partial in xi_i vanishes iff 2 xi_i + sum_{k != i}
    xi_k = n.
    """
    pairs = []
    flat3, flat4 = _height_cone("flat3"), _height_cone("flat4")
    for a in (F(1, 2), F(2, 3), F(5, 4)):
        pairs += [(flat3, (F(3), a, 3 - 2 * a)), (flat3, (F(3), 3 - 2 * a, a))]
    for t in (F(1, 2), F(5, 4)):
        for odd in range(3):
            xi = [t, t, t]
            xi[odd] = 4 - 3 * t
            pairs.append((flat4, (F(4), *xi)))
    return pairs


def test_integer_gradient_test_matches_fraction_oracle():
    verdicts = []
    for cone, cand in _certificate_candidates() + _half_critical_candidates():
        oracle = _verdict(lambda: all(g == 0 for g in rv._reduced(cone, cand, 1)[1]))
        assert _verdict(lambda: rv._gradient_vanishes(cone, cand)) == oracle, cand
        verdicts.append(oracle)
    assert verdicts.count(True) == 5
    assert verdicts.count(False) >= 40 and verdicts.count("not interior") >= 60


def test_half_critical_candidates_miss_one_partial():
    # these candidates catch a numerator that drops a coordinate of r_j
    for cone, cand in _half_critical_candidates():
        grad = rv._reduced(cone, cand, 1)[1]
        assert sum(g != 0 for g in grad) == 1, cand


# --- second volume oracle: Martelli-Sparks-Yau --------------------------------


def _msy_cones():
    """Every n = 3 Gorenstein cone of the suite, with its cyclically ordered normals."""
    found = []
    for name, normals in cone_suite.CONES.items():
        if len(normals[0]) != 3:
            continue
        try:
            g = cn.gorenstein_normalize(cn.validate_cone(normals))
        except NotQGorenstein:
            continue
        if g.ell == 1:
            found.append((name, g, oracles.cyclic_order(g.cone.normals)))
    return found


def test_moments_match_msy_volume_at_exact_reeb_vectors():
    rng = random.Random(37)
    cases = _msy_cones()
    assert len(cases) >= 15
    for name, g, cyclic in cases:
        for _ in range(3):
            # a positive combination of the normals is interior to the dual cone
            coeffs = [F(rng.randint(1, 9), rng.randint(1, 5)) for _ in g.cone.normals]
            xi = [sum(c * v[i] for c, v in zip(coeffs, g.cone.normals)) for i in range(3)]
            for b in (xi, [3 * x / xi[0] for x in xi]):
                vol, _, _ = rv._moments(g.cone, b)
                assert 2**3 * 3 * 2 * vol == oracles.msy_volume(cyclic, b), name


def test_certified_minimizers_are_msy_critical():
    certified = 0
    for name, g, cyclic in _msy_cones():
        res = rv.minimize_reeb(g)
        if res.xi_star_exact is None:
            continue
        certified += 1
        assert all(x == 0 for x in oracles.msy_slice_gradient(cyclic, res.xi_star_exact)), name
        assert oracles.msy_volume(cyclic, res.xi_star_exact) == res.normalized_volume_exact
    assert certified >= 5


# --- the Newton solve, against numpy.linalg.solve as a test-only oracle ------


def numpy_solve(a, b):
    try:
        return np.linalg.solve(np.array(a, float), np.array(b, float))
    except np.linalg.LinAlgError:
        return None


def test_solve_matches_numpy_on_random_systems():
    rng = np.random.default_rng(11)
    checked = 0
    for m in (1, 2, 3):
        for _ in range(300):
            a, b = rng.normal(size=(m, m)), rng.normal(size=m)
            if np.linalg.cond(a) > 1e3:
                continue
            x, ref = rv._solve(a.tolist(), b.tolist()), numpy_solve(a, b)
            assert all(type(v) is float for v in x)
            assert np.max(np.abs(np.array(x) - ref)) <= 1e-12 * np.max(np.abs(ref))
            checked += 1
    assert checked > 800


def test_solve_returns_none_where_numpy_finds_a_singular_matrix():
    # entries and combinations are dyadic, so both eliminations are exact
    # and meet an exactly zero pivot
    rng = random.Random(5)
    dyadic = (0, 1, -1, 2, -2, 4, -4, 0.5)
    cases = [[[0.0]], [[0.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 2.0]],
             [[1.0, 2.0], [2.0, 4.0]], [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]],
             [[0.0, 2.0, 1.0], [1.0, 0.0, 3.0], [2.0, 4.0, 8.0]]]
    for _ in range(200):
        m = rng.choice((2, 3))
        u = [rng.choice(dyadic) for _ in range(m)]
        v = [rng.choice(dyadic) for _ in range(m)]
        rows = [[p * q for q in v] for p in u]  # rank <= 1
        if m == 3 and rng.random() < 0.5:
            r0 = [float(rng.randint(-3, 3)) for _ in range(3)]
            r1 = [0.0, 1.0, float(rng.randint(-3, 3))]
            c0, c1 = rng.choice(dyadic), rng.choice(dyadic)
            rows = [r0, r1, [c0 * p + c1 * q for p, q in zip(r0, r1)]]  # rank <= 2
            rng.shuffle(rows)
        cases.append(rows)
    for a in cases:
        b = [1.0] * len(a)
        assert numpy_solve(a, b) is None, a
        assert rv._solve(a, b) is None, a
    for a in ([[1.0]], [[2.0, 1.0], [1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]]):
        assert numpy_solve(a, [1.0] * len(a)) is not None
        assert rv._solve(a, [1.0] * len(a)) is not None


@pytest.mark.parametrize("a, b, x", [
    ([[0.0, 1.0], [1.0, 0.0]], [2.0, 3.0], [3.0, 2.0]),
    ([[0.0, 2.0], [4.0, 1.0]], [2.0, 9.0], [2.0, 1.0]),
    ([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], [1.0, 2.0, 3.0], [3.0, 2.0, 1.0]),
    ([[0.0, 2.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 3.0]], [4.0, 1.0, 5.0], [1.0, 1.4, 1.2]),
    ([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 2.0]], [3.0, 4.0, 5.0], [1.0, 1.0, 1.0]),
])
def test_solve_pivots_past_a_zero_leading_entry(a, b, x):
    # the last case meets a zero pivot only after the first elimination step
    got = rv._solve(a, b)
    assert got == pytest.approx(x, rel=1e-15)
    assert got == pytest.approx(numpy_solve(a, b).tolist(), rel=1e-15)
