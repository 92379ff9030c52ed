"""Acceptance criteria, one test per criterion.

Each test enforces its stated numeric tolerance and wall-clock budget and
prints a single [PASS]/[FAIL] line (visible under pytest -s, or via the
summary this module prints at exit).  Run standalone with

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from reebmin import cones as cn
from reebmin import latcore as lc
from reebmin import links as lk
from reebmin import obstruct as ob
from reebmin import reebvol as rv
from reebmin import ypq

import oracles

_LINES = []


@contextmanager
def criterion(number, budget_s, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        line = f"[FAIL] criterion {number}: {label} ({elapsed:.2f}s)"
        _LINES.append(line)
        print("\n" + line)
        raise
    elapsed = time.perf_counter() - start
    line = f"[PASS] criterion {number}: {label} ({elapsed:.2f}s < {budget_s:.0f}s)"
    _LINES.append(line)
    print("\n" + line)
    assert elapsed < budget_s, f"runtime budget exceeded: {elapsed:.2f}s"


def teardown_module():
    print("\n" + "\n".join(_LINES))


def test_criterion_1_conifold_consistency():
    with criterion(1, 1.0, "conifold: exact minimizer (3,3/2,3/2), volume 16/27"):
        res = rv.minimize_reeb(cn.conifold_cone())
        assert res.xi_star_exact == (F(3), F(3, 2), F(3, 2))
        # certification means the exact restricted gradient vanished
        grad = rv.vol_gradient(cn.conifold_cone(), res.xi_star_exact)
        assert grad[1] == 0 and grad[2] == 0
        assert abs(res.normalized_volume - 16 / 27) <= 1e-9
        assert res.normalized_volume_exact == F(16, 27)
        _, normalized = ob.hs_volume(ob.WeightedHS((1, 1, 1, 1), 2))
        assert normalized == F(16, 27)


def test_criterion_2_flat_model_calibration():
    with criterion(2, 5.0, "flat cones n=2,3,4: normalized volume 1 at (n,1,..,1)"):
        for n in (2, 3, 4):
            res = rv.minimize_reeb(cn.flat_cone(n))
            assert abs(res.normalized_volume - 1.0) <= 1e-9
            assert res.xi_star_exact == (F(n), *([F(1)] * (n - 1)))


def test_criterion_3_the_27_count():
    with criterion(3, 1.0, "L(2,3,7,k), k in [5,41]: exactly 27, k=7 out by BGK(3)"):
        pred = lambda v: lk.coprime_to_at_least([2, 3, 7], 2)(v) and v.bgk.passed
        hits = lk.enumerate_family((2, 3, 7, None), range(5, 42), pred)
        assert len(hits) == 27
        assert all(k != 7 for k, _ in hits)
        v7 = lk.link_verdict((2, 3, 7, 7))
        assert lk.coprime_to_at_least([2, 3, 7], 2)(v7)  # eligible...
        assert v7.bgk == lk.BGKResult(False, 3)          # ...rejected by (3)


def test_criterion_4_the_12_count():
    with criterion(4, 1.0, "L(2,3,5,k), k in [6,59]: GK-pass and BGK-fail set"):
        hits = lk.enumerate_family(
            (2, 3, 5, None), range(6, 60), lk.parse_predicate("gk+bgk-fail")
        )
        assert [k for k, _ in hits] == [
            17, 19, 23, 29, 31, 37, 41, 43, 47, 49, 53, 59,
        ]


def test_criterion_5_exotic_7_spheres():
    with criterion(5, 60.0, "L(6k-1,3,2,2,2): all 28 bP_8 classes realized"):
        classes = []
        for k in range(1, 29):
            a = (6 * k - 1, 3, 2, 2, 2)
            assert lk.homology_classify(a) == lk.INTEGRAL
            classes.append(lk.bp8_class(a))
        assert sorted(classes) == list(range(28))


@pytest.mark.filterwarnings("ignore:weights/degree share a factor")
def test_criterion_6_bishop_lichnerowicz_thresholds():
    with criterion(6, 5.0, "(k,k,k,2): Lichnerowicz iff k>=5, Bishop iff k>=21; "
                           "Bishop => Lichnerowicz on 1e4 real samples"):
        for k in range(3, 101):
            h = ob.WeightedHS((k, k, k, 2), 2 * k)
            lich = ob.lichnerowicz_check(h)
            assert (lich.status == ob.OBSTRUCTED) == (k >= 5)
            if k >= 5:
                assert lich.charge == F(6, k + 2)
            assert (ob.bishop_check(h) == ob.OBSTRUCTED) == (k >= 21)
        report = ob.bishop_implies_lich_property(10_000, seed=0)
        assert report.samples == 10_000 and report.ok


def test_criterion_7_einstein_verification():
    with criterion(7, 30.0, "Y^{p,q} metrics: max |Ric - 4g| <= 1e-9 at 20 points"):
        rng = random.Random(0)
        for (p, q) in ((2, 1), (3, 1), (3, 2), (6, 1), (8, 1)):
            Y = ypq.ypq_params(p, q)
            pts = ypq.random_chart_points(Y, 20, rng)
            worst = max(ypq.einstein_residual(Y, x) for x in pts)
            assert worst <= 1e-9, (p, q, worst)
            assert max(ypq.killing_residual(Y, x) for x in pts) <= 1e-6
            assert max(ypq.reeb_norm_residual(Y, x) for x in pts) <= 1e-6


def test_criterion_8_regularity_cross_check():
    with criterion(8, 10.0, "toric minimizer vs 4p^2-3q^2 square test, (2,1),(7,3)"):
        res21 = rv.minimize_reeb(ypq.labc_cone(ypq.ypq_embed(2, 1)))
        assert res21.regularity == "irregular"
        assert res21.xi_star_exact is None
        assert ypq.quasiregular_check(2, 1).kind == "irregular"

        res73 = rv.minimize_reeb(ypq.labc_cone(ypq.ypq_embed(7, 3)))
        assert res73.regularity == "quasi-regular"
        assert res73.xi_star_exact is not None
        assert ypq.quasiregular_check(7, 3) == ypq.Regularity("quasi-regular", 13)


def test_criterion_9_property_suites():
    with criterion(9, 120.0, "property suites: FD gradients, convexity, "
                             "SNF/Gale exactness, permutation invariance"):
        # gradient vs central finite differences: 25 points on each of 5 cones
        rng = random.Random(1)
        cones5 = [
            cn.flat_cone(2),
            cn.flat_cone(3),
            cn.flat_cone(4),
            cn.conifold_cone(),
            cn.validate_cone([(1, 0, 0), (1, 2, 0), (1, 0, 1), (1, 3, -1)]),
        ]
        for cone in cones5:
            def vol(xi, cone=cone):
                return float(rv.vol_functional(cone, xi).vol_delta)

            done = 0
            while done < 25:
                coeffs = [rng.uniform(0.1, 1.0) for _ in cone.normals]
                xi = [
                    sum(c * v[i] for c, v in zip(coeffs, cone.normals))
                    for i in range(cone.n)
                ]
                grad = rv.vol_gradient(cone, xi)
                fd = oracles.fd_volume_gradient(vol, xi, h=1e-5)
                scale = max(abs(g) for g in grad)
                assert all(abs(g - f) <= 1e-6 * scale for g, f in zip(grad, fd))
                done += 1

        # strict convexity along 100 random slice segments
        checked = 0
        while checked < 100:
            cone = cones5[checked % len(cones5)]
            n = cone.n

            def slice_point():
                coeffs = [rng.uniform(0.1, 1.0) for _ in cone.normals]
                xi = [
                    sum(c * v[i] for c, v in zip(coeffs, cone.normals))
                    for i in range(n)
                ]
                return [n * x / xi[0] for x in xi]

            a, b = slice_point(), slice_point()
            if max(abs(x - y) for x, y in zip(a, b)) < 1e-9:
                continue
            mid = [(x + y) / 2 for x, y in zip(a, b)]
            va = rv.vol_functional(cone, a).vol_delta
            vb = rv.vol_functional(cone, b).vol_delta
            assert rv.vol_functional(cone, mid).vol_delta < (va + vb) / 2
            checked += 1

        # SNF and Gale-dual exactness on 1000 random instances
        rng2 = random.Random(2)
        for _ in range(1000):
            rows = rng2.randint(1, 6)
            cols = rng2.randint(1, 6)
            mat = [[rng2.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            u, d, v = lc.smith_normal_form(mat)
            assert lc.matmul(lc.matmul(u, mat), v) == d
            assert abs(lc.int_det(u)) == 1 and abs(lc.int_det(v)) == 1
            diag = [d[i][i] for i in range(min(rows, cols))]
            assert all(x >= 0 for x in diag)
            for prev, cur in zip(diag, diag[1:]):
                if cur:
                    assert prev and cur % prev == 0
            charge = [rng2.randint(-5, 5) for _ in range(4)]
            if any(c == 0 for c in charge) or lc.rank([charge]) != 1:
                continue
            try:
                rays = lc.gale_dual([charge])
            except ValueError:
                continue
            for i in range(3):
                assert sum(c * r[i] for c, r in zip(charge, rays)) == 0

        # permutation invariance of full link verdicts, 1e5 random vectors
        rng3 = random.Random(3)
        for _ in range(100_000):
            a = [rng3.randint(2, 200) for _ in range(rng3.choice((3, 4, 5)))]
            v = lk.link_verdict(a)
            perm = a[:]
            rng3.shuffle(perm)
            w = lk.link_verdict(perm)
            assert (v.fano, v.homology_type, v.bgk, v.gk, v.bishop,
                    v.lichnerowicz, v.outcome) == (
                w.fano, w.homology_type, w.bgk, w.gk, w.bishop,
                w.lichnerowicz, w.outcome)
