import math
import random
from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest

from reebmin import cones as cn
from reebmin import reebvol as rv
from reebmin import ypq
from reebmin.errors import BadParams, DegenerateChartPoint

import oracles


def test_apq_values():
    a21 = ypq.apq(2, 1)
    assert a21.rational == F(1, 2)
    assert a21.coeff == F(-1, 32)
    assert a21.radicand == 13
    assert float(a21) == pytest.approx(0.5 - math.sqrt(13) / 32)

    a32 = ypq.apq(3, 2)  # sign flips when p^2 < 3 q^2
    assert a32.coeff == F(3, 108)
    assert float(a32) == pytest.approx(0.5 + math.sqrt(24) / 36)
    assert float(a32) == pytest.approx(0.63608, abs=1e-5)


def test_apq_bad_params():
    with pytest.raises(BadParams):
        ypq.apq(2, 2)
    with pytest.raises(BadParams):
        ypq.apq(1, 2)
    with pytest.raises(BadParams):
        ypq.apq(4, 2)


def test_roots_ordering_and_residuals():
    for p in range(2, 51):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            Y = ypq.ypq_params(p, q)
            assert 0.0 < Y.a < 1.0
            assert Y.y1 < Y.y2 < Y.y3
            for y in (Y.y1, Y.y2, Y.y3):
                assert abs(Y.a - 3 * y * y + 2 * y**3) <= 1e-13
            # q(y) vanishes at the two smallest roots; w stays positive between
            assert abs(ypq.q_of(Y, Y.y1)) <= 1e-12
            assert abs(ypq.q_of(Y, Y.y2)) <= 1e-12
            for t in range(11):
                y = Y.y1 + (Y.y2 - Y.y1) * t / 10
                assert ypq.w_of(Y, y) > 0


def test_metric_positive_definite_and_reeb_unit():
    rng = random.Random(41)
    for (p, q) in ((2, 1), (3, 1), (3, 2)):
        Y = ypq.ypq_params(p, q)
        for x in ypq.random_chart_points(Y, 10, rng):
            g = ypq.metric_eval(Y, x)
            assert np.allclose(g, g.T)
            assert np.linalg.eigvalsh(g)[0] > 0
            assert ypq.reeb_norm_residual(Y, x) <= 1e-12


def test_metric_degenerations():
    Y = ypq.ypq_params(2, 1)
    with pytest.raises(DegenerateChartPoint):
        ypq.metric_eval(Y, ypq.ChartPoint(0.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(DegenerateChartPoint):
        ypq.metric_eval(Y, ypq.ChartPoint(1.0, 0.0, Y.y2 + 0.01, 0.0, 0.0))
    with pytest.raises(DegenerateChartPoint):
        ypq.ricci_fd(Y, ypq.ChartPoint(0.0, 0.0, 0.0, 0.0, 0.0))
    # q(y) -> 0 at the roots: the psi-block degenerates in the limit
    for eps in (1e-2, 1e-4, 1e-6):
        assert ypq.q_of(Y, Y.y1 + eps) < ypq.q_of(Y, Y.y1 + 10 * eps) + 1e-12


def flat5(c):
    # polar-coordinate flat R^2 times flat R^3
    r = c[0]
    return np.diag([1.0, r * r, 1.0, 1.0, 1.0])


def round_s3(c):
    eta = c[0]
    return np.diag([1.0, math.sin(eta) ** 2, math.cos(eta) ** 2])


def chart_metric(Y):
    return lambda c: ypq.metric_eval(Y, ypq.ChartPoint(*c))


def test_fd_engine_flat_product_metric():
    x = np.array([1.2, 0.4, 0.0, 0.7, -0.3])
    ric = oracles.ricci_fd_metric(flat5, x, 1e-3)
    assert np.max(np.abs(ric)) <= 1e-6


def test_fd_engine_round_s3():
    x = np.array([0.7, 0.2, 0.9])
    ric = oracles.ricci_fd_metric(round_s3, x, 1e-4)
    assert np.max(np.abs(ric - 2.0 * round_s3(x))) <= 1e-6


def test_jet_ricci_flat_product_metric():
    r = ypq.Jet(1.2, (1.0, 0.0))
    comps = {(0, 0): 1.0, (1, 1): r * r, (2, 2): 1.0, (3, 3): 1.0, (4, 4): 1.0}
    ric = ypq.ricci_from_jets(comps, 5, (0, 1))
    assert np.max(np.abs(ric)) <= 1e-14


def test_jet_ricci_round_s3():
    eta = ypq.Jet(0.7, (1.0, 0.0))
    s, c = eta.sin(), eta.cos()
    ric = ypq.ricci_from_jets({(0, 0): 1.0, (1, 1): s * s, (2, 2): c * c}, 3, (0, 2))
    x = np.array([0.7, 0.2, 0.9])
    assert np.max(np.abs(ric - 2.0 * round_s3(x))) <= 1e-14


def jet_probe(t, y, ct, st):
    # every jet operation, with divisors that depend on both variables
    return ((2.0 - y) * st / (1.0 + y**3 * ct) + (-ct * y) / (t + y)
            - 0.5 / (t * y) + y / 3.0 - (t - 1.0))


def test_jet_arithmetic_matches_finite_differences():
    t0, y0, h = 0.7, 0.3, 1e-4

    def f(dt, dy):
        t, y = t0 + dt * h, y0 + dy * h
        return jet_probe(t, y, math.cos(t), math.sin(t))

    t = ypq.Jet(t0, (1.0, 0.0))
    jet = jet_probe(t, ypq.Jet(y0, (0.0, 1.0)), t.cos(), t.sin())
    assert jet.v == f(0, 0)
    grad = ((f(1, 0) - f(-1, 0)) / (2 * h), (f(0, 1) - f(0, -1)) / (2 * h))
    hess = (
        (f(1, 0) - 2 * f(0, 0) + f(-1, 0)) / h**2,
        (f(1, 1) - f(1, -1) - f(-1, 1) + f(-1, -1)) / (4 * h**2),
        (f(0, 1) - 2 * f(0, 0) + f(0, -1)) / h**2,
    )
    assert jet.d == pytest.approx(grad, abs=1e-6)
    assert jet.h == pytest.approx(hess, abs=1e-5)


def test_jet_metric_values_match_metric_eval_bitwise():
    rng = random.Random(44)
    for (p, q) in ((2, 1), (3, 2), (8, 1), (20, 1)):
        Y = ypq.ypq_params(p, q)
        for x in ypq.random_chart_points(Y, 25, rng):
            g = ypq.metric_eval(Y, x)
            comps = ypq.metric_jets(Y, x)
            for i in range(5):
                for j in range(i, 5):
                    v = comps[(i, j)].v if (i, j) in comps else 0.0
                    assert v == g[i, j] == g[j, i]


def test_einstein_residual_small():
    for (p, q) in ((2, 1), (3, 1), (3, 2), (6, 1), (8, 1), (10, 3), (12, 11), (20, 1)):
        Y = ypq.ypq_params(p, q)
        for x in ypq.random_chart_points(Y, 250, random.Random(1000 * p + q)):
            assert ypq.einstein_residual(Y, x) <= 1e-9, (p, q, x)


@pytest.mark.parametrize("p, q", [(3, 2), (4, 3), (7, 5), (12, 11)])
def test_jet_ricci_agrees_with_fd_oracle(p, q):
    # FD with one Richardson level is accurate to about 1e-6 where q/p >= 2/3
    Y = ypq.ypq_params(p, q)
    for x in ypq.random_chart_points(Y, 5, random.Random(45)):
        coarse = oracles.ricci_fd_metric(chart_metric(Y), x.coords(), 1e-3)
        fine = oracles.ricci_fd_metric(chart_metric(Y), x.coords(), 5e-4)
        fd = (4.0 * fine - coarse) / 3.0
        assert np.max(np.abs(ypq.ricci_fd(Y, x) - fd)) <= 1e-4


def test_fd_convergence_is_second_order():
    Y = ypq.ypq_params(2, 1)
    x = ypq.ChartPoint(1.1, 0.5, 0.1, 0.3, 0.2)
    g4 = 4.0 * ypq.metric_eval(Y, x)
    coarse = np.max(np.abs(oracles.ricci_fd_metric(chart_metric(Y), x.coords(), 4e-3) - g4))
    fine = np.max(np.abs(oracles.ricci_fd_metric(chart_metric(Y), x.coords(), 2e-3) - g4))
    assert 2.5 <= coarse / fine <= 6.0


def test_killing_and_ricci_reeb():
    rng = random.Random(43)
    Y = ypq.ypq_params(2, 1)
    for x in ypq.random_chart_points(Y, 5, rng):
        assert ypq.killing_residual(Y, x) == 0.0  # the metric never reads phi, psi, alpha
        assert ypq.ricci_reeb_residual(Y, x) <= 1e-12


def test_quasiregular_check():
    assert ypq.quasiregular_check(7, 3) == ypq.Regularity("quasi-regular", 13)
    assert ypq.quasiregular_check(2, 1) == ypq.Regularity("irregular", None)
    with pytest.raises(BadParams):
        ypq.quasiregular_check(3, 3)


def test_labc_admissible_examples():
    v = ypq.labc_admissible(1, 3, 2)
    assert v.valid and v.params.d == 2

    v = ypq.labc_admissible(1, 2, 1)
    assert not v.valid
    assert any("gcd(b, d)" in r for r in v.reasons)

    v = ypq.labc_admissible(1, 1, 1)  # T^{1,1} boundary case
    assert v.valid and v.params.d == 1

    assert not ypq.labc_admissible(3, 2, 1).valid  # a > b
    assert not ypq.labc_admissible(0, 1, 1).valid


def test_ypq_embed():
    L = ypq.ypq_embed(2, 1)
    assert (L.a, L.b, L.c, L.d) == (1, 3, 2, 2)
    assert L.charges == (1, 3, -2, -2)
    L = ypq.ypq_embed(7, 3)
    assert (L.a, L.b, L.c, L.d) == (4, 10, 7, 7)


def test_labc_cone_y21():
    g = ypq.labc_cone(ypq.ypq_embed(2, 1))
    assert g.ell == 1
    top = cn.topology(g.cone)
    assert top.pi1_invariants == () and top.pi2_rank == 1
    assert cn.smale_type(g.cone).label == "#1(S^2xS^3)"


def test_labc_cone_conifold_case():
    g = ypq.labc_cone(ypq.LabcParams(1, 1, 1))
    match = cn.unimodular_match(
        list(g.cone.normals), [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)]
    )
    assert match is not None


def test_labc_cone_invalid_raises():
    with pytest.raises(BadParams):
        ypq.labc_cone(ypq.LabcParams(1, 2, 1))


def test_regularity_consistency_chain():
    # the perfect-square criterion must agree with the toric minimizer's
    # rationality certification on the Gale-dual cone
    for (p, q) in ((2, 1), (3, 1), (3, 2), (7, 3)):
        g = ypq.labc_cone(ypq.ypq_embed(p, q))
        res = rv.minimize_reeb(g)
        expected = ypq.quasiregular_check(p, q).kind
        assert res.regularity == expected
        assert (res.xi_star_exact is not None) == (expected == "quasi-regular")
