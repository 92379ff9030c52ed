import dataclasses
import math
import os
import pathlib
import random
import subprocess
import sys
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
            assert abs(ypq.wqf(Y, Y.y1)[1]) <= 1e-12
            assert abs(ypq.wqf(Y, Y.y2)[1]) <= 1e-12
            for t in range(11):
                y = Y.y1 + (Y.y2 - Y.y1) * t / 10
                assert ypq.wqf(Y, y)[0] > 0


def test_wqf_keeps_the_bits_of_three_separate_formulas():
    # one a - y^2 for w, q and f changes no bit of a float or a jet
    def bits(t):
        parts = (t.v, *t.d, *t.h) if isinstance(t, ypq.Jet) else (t,)
        return [float(z).hex() for z in parts]

    rng = random.Random(43)
    for (p, q) in ((2, 1), (5, 3), (8, 1)):
        Y = ypq.ypq_params(p, q)
        for x in ypq.random_chart_points(Y, 20, rng):
            for y in (x.y, ypq.Jet(x.y, (0.0, 1.0))):
                expected = (
                    2.0 * (Y.a - y * y) / (1.0 - y),
                    (Y.a - 3.0 * y * y + 2.0 * y**3) / (Y.a - y * y),
                    (Y.a - 2.0 * y + y * y) / (6.0 * (Y.a - y * y)),
                )
                assert [bits(t) for t in ypq.wqf(Y, y)] == [bits(t) for t in expected]


def test_metric_positive_definite_and_reeb_unit():
    rng = random.Random(41)
    for (p, q) in ((2, 1), (3, 1), (3, 2)):
        Y = ypq.ypq_params(p, q)
        for x in ypq.random_chart_points(Y, 10, rng):
            g = np.array(ypq.metric_eval(Y, x))
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
    with pytest.raises(DegenerateChartPoint):
        ypq.ricci_fd(Y, ypq.ChartPoint(1.0, 0.0, Y.y2 + 0.01, 0.0, 0.0))
    with pytest.raises(DegenerateChartPoint):
        ypq.ricci_fd(Y, ypq.ChartPoint(1.0, 0.0, 1.0, 0.0, 0.0))  # w has a pole at y = 1
    # q(y) -> 0 at the roots: the psi-block degenerates in the limit
    for eps in (1e-2, 1e-4, 1e-6):
        assert ypq.wqf(Y, Y.y1 + eps)[1] < ypq.wqf(Y, Y.y1 + 10 * eps)[1] + 1e-12


def flat5(c):
    # polar-coordinate flat R^2 times flat R^3
    r = c[0]
    return np.diag([1.0, r * r, 1.0, 1.0, 1.0])


def round_s3(c):
    eta = c[0]
    return np.diag([1.0, math.sin(eta) ** 2, math.cos(eta) ** 2])


def chart_metric(Y):
    return lambda c: np.array(ypq.metric_eval(Y, ypq.ChartPoint(*c)))


def coords(x):
    """The coordinates of a chart point as a numpy vector."""
    return np.array([x.theta, x.phi, x.y, x.psi, x.alpha])


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


def fraction_cases():
    # upper half-space H^3, g = delta / z^2 at z = 3, with Ric = -2 g; the
    # flat plane in polar coordinates, g = diag(1, r^2), at r = 3/2; and the
    # float jets of Y^{2,1} at one point read as exact Fractions
    z = F(3)
    g = ypq.Jet(1 / z**2, (F(0), -2 / z**3), (F(0), F(0), 6 / z**4))
    yield {(0, 0): g, (1, 1): g, (2, 2): g}, 3, (0, 2)
    r2 = ypq.Jet(F(9, 4), (F(3), F(0)), (F(2), F(0), F(0)))
    yield {(0, 0): F(1), (1, 1): r2}, 2, (0, 1)
    Y = ypq.ypq_params(2, 1)
    x = ypq.random_chart_points(Y, 1, random.Random(46))[0]
    comps = {key: ypq.Jet(F(c.v), tuple(map(F, c.d)), tuple(map(F, c.h)))
             for key, c in oracles.metric_jets(Y, x).items()}
    yield comps, 5, (0, 2)


def test_jet_ricci_is_exact_on_fraction_jets():
    (h3, h3_dim, h3_slots), (polar, dim, slots), _ = fraction_cases()
    ric = ypq.ricci_from_jets(h3, h3_dim, h3_slots)
    g = h3[0, 0].v
    assert ric == tuple(tuple(-2 * g if i == j else 0 for j in range(3)) for i in range(3))
    assert all(type(v) is F for row in ric for v in row)
    ric = ypq.ricci_from_jets(polar, dim, slots)
    assert ric == ((0, 0), (0, 0))
    assert all(type(v) is F for row in ric for v in row)


def dense_cases():
    # the eight (p, q) of test_einstein_residual_small, the flat product
    # metric and the round S^3, as (components, dim, slots, scale)
    for (p, q) in EINSTEIN_PQ:
        Y = ypq.ypq_params(p, q)
        for x in ypq.random_chart_points(Y, 25, random.Random(7 * p + q)):
            yield oracles.metric_jets(Y, x), 5, (0, 2), ypq.metric_scale(Y, x)
    r = ypq.Jet(1.2, (1.0, 0.0))
    yield {(0, 0): 1.0, (1, 1): r * r, (2, 2): 1.0, (3, 3): 1.0, (4, 4): 1.0}, 5, (0, 1), 1.44
    eta = ypq.Jet(0.7, (1.0, 0.0))
    s, c = eta.sin(), eta.cos()
    yield {(0, 0): 1.0, (1, 1): s * s, (2, 2): c * c}, 3, (0, 2), 1.0


def test_sparse_ricci_matches_the_dense_oracle():
    for comps, dim, slots, scale in dense_cases():
        dense = oracles.ricci_from_jets_dense(comps, dim, slots)
        sparse = ypq.ricci_from_jets(comps, dim, slots)
        assert np.max(np.abs(np.array(sparse) - dense)) <= 1e-12 * scale


def test_compiled_ricci_matches_the_tape_bitwise():
    # the kernel adds in the plan's order, so its floats are the tape's bits
    cases = list(dense_cases())
    for (p, q) in ((2, 1), (8, 1), (20, 1), (500, 1)):
        Y = ypq.ypq_params(p, q)
        for x in ypq.random_chart_points(Y, 25, random.Random(1000 * p + q)):
            cases.append((oracles.metric_jets(Y, x), 5, (0, 2), None))
    for comps, dim, slots, _ in cases:
        ric = ypq.ricci_from_jets(comps, dim, slots)
        tape = oracles.ricci_by_tape(comps, dim, slots)
        for row, tape_row in zip(ric, tape, strict=True):
            for v, t in zip(row, tape_row, strict=True):
                assert v == t and math.copysign(1.0, v) == math.copysign(1.0, t)


def test_compiled_ricci_is_the_exact_tape_on_fraction_jets():
    for comps, dim, slots in fraction_cases():
        ric = ypq.ricci_from_jets(comps, dim, slots)
        assert ric == oracles.ricci_by_tape(comps, dim, slots)
        assert all(type(v) is F for row in ric for v in row)


def test_ricci_kernel_cache_is_bounded():
    assert ypq._ricci_kernel.cache_info().maxsize is not None
    assert ypq._ypq_kernel.cache_info().maxsize is not None


def same_bits(ric, ref):
    for row, ref_row in zip(ric, ref, strict=True):
        for v, r in zip(row, ref_row, strict=True):
            if not (v == r and math.copysign(1.0, v) == math.copysign(1.0, r)):
                return False
    return True


def test_ypq_kernel_is_the_jet_ricci_bitwise():
    # the traced kernel redoes the jet arithmetic and drops only +-0.0 terms
    pqs = [(p, q) for p in range(2, 40) for q in range(1, p) if gcd(p, q) == 1]
    for (p, q) in pqs + [(500, 1), (1000, 1)]:
        Y = ypq.ypq_params(p, q)
        for x in ypq.random_chart_points(Y, 5, random.Random(2000 * p + q)):
            jets = ypq.ricci_from_jets(oracles.metric_jets(Y, x), 5, (0, 2))
            assert same_bits(ypq.ricci_fd(Y, x), jets), (p, q, x)


def test_ypq_kernel_reads_no_phi_psi_or_alpha():
    rng = random.Random(47)
    for (p, q) in ((2, 1), (7, 3), (40, 13)):
        Y = ypq.ypq_params(p, q)
        for x in ypq.random_chart_points(Y, 10, rng):
            ric = ypq.ricci_fd(Y, x)
            for moved in (dict(phi=x.phi + 1.7), dict(psi=-x.psi), dict(alpha=x.alpha * 3.1)):
                assert same_bits(ypq.ricci_fd(Y, dataclasses.replace(x, **moved)), ric)


def test_ypq_kernel_source_holds_no_metric_constant():
    # a, y, theta, cos and sin are parameters: the source is one for every (p, q)
    keys, (params, prelude, tape, zeros) = ypq._trace_components()
    assert params == ("a", "theta", "y", "ct", "st")
    source = "\n".join(prelude + tape)
    for (p, q) in ((2, 1), (7, 3)):
        Y = ypq.ypq_params(p, q)
        for v in (Y.a, Y.y1, Y.y2):
            assert repr(v) not in source
    # a structural zero is never an operand, only a tape entry the plan drops
    assert not any("(0.0)" in line or "(-0.0)" in line for line in prelude)
    assert zeros and all(tape[k - 2] in ("(0.0)", "(-0.0)") for k in zeros)


def test_kernel_caches_are_empty_after_cli_import():
    # the compile belongs to the first Einstein point, not to start-up
    code = ("import reebmin.cli\nfrom reebmin import ypq\n"
            "for c in (ypq._ricci_kernel, ypq._ypq_kernel):\n"
            "    info = c.cache_info()\n"
            "    print(info.currsize, info.maxsize)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(ypq.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout.split()
    assert out[0] == out[2] == "0"
    assert int(out[1]) > 0 and int(out[3]) > 0


def test_quadratic_keeps_the_bits_of_the_full_sum():
    def full(v, m):
        s = 0.0
        for vi, row in zip(v, m):
            for vj, mij in zip(v, row):
                s += vi * mij * vj
        return s

    rng = random.Random(48)
    for (p, q) in ((2, 1), (3, 2), (8, 1), (500, 1)):
        Y = ypq.ypq_params(p, q)
        for x in ypq.random_chart_points(Y, 25, rng):
            for m in (ypq.metric_eval(Y, x), ypq.ricci_fd(Y, x)):
                assert ypq._quadratic(ypq.REEB_COMPONENTS, m).hex() == \
                    full(ypq.REEB_COMPONENTS, m).hex()


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
            comps = oracles.metric_jets(Y, x)
            for i in range(5):
                for j in range(i, 5):
                    v = comps[(i, j)].v if (i, j) in comps else 0.0
                    assert v == g[i][j] == g[j][i]


EINSTEIN_PQ = ((2, 1), (3, 1), (3, 2), (6, 1), (8, 1), (10, 3), (12, 11), (20, 1))


def test_einstein_residual_small():
    for (p, q) in EINSTEIN_PQ:
        Y = ypq.ypq_params(p, q)
        for x in ypq.random_chart_points(Y, 250, random.Random(1000 * p + q)):
            assert ypq.einstein_residual(Y, x) <= 1e-9, (p, q, x)


@pytest.mark.parametrize("p, q", [(3, 2), (4, 3), (7, 5), (12, 11)])
def test_jet_ricci_agrees_with_fd_oracle(p, q):
    # FD with one Richardson level is accurate to about 1e-6 where q/p >= 2/3
    Y = ypq.ypq_params(p, q)
    for x in ypq.random_chart_points(Y, 5, random.Random(45)):
        coarse = oracles.ricci_fd_metric(chart_metric(Y), coords(x), 1e-3)
        fine = oracles.ricci_fd_metric(chart_metric(Y), coords(x), 5e-4)
        fd = (4.0 * fine - coarse) / 3.0
        assert np.max(np.abs(ypq.ricci_fd(Y, x) - fd)) <= 1e-4


def test_fd_convergence_is_second_order():
    Y = ypq.ypq_params(2, 1)
    x = ypq.ChartPoint(1.1, 0.5, 0.1, 0.3, 0.2)
    g4 = 4.0 * np.array(ypq.metric_eval(Y, x))
    coarse = np.max(np.abs(oracles.ricci_fd_metric(chart_metric(Y), coords(x), 4e-3) - g4))
    fine = np.max(np.abs(oracles.ricci_fd_metric(chart_metric(Y), coords(x), 2e-3) - g4))
    assert 2.5 <= coarse / fine <= 6.0


def test_killing_and_ricci_reeb():
    rng = random.Random(43)
    Y = ypq.ypq_params(2, 1)
    for x in ypq.random_chart_points(Y, 5, rng):
        assert ypq.killing_residual(Y, x) == 0.0  # the metric never reads phi, psi, alpha
        # |Ric(xi, xi) - 4|, apart from the full Einstein test
        assert abs(ypq._quadratic(ypq.REEB_COMPONENTS, ypq.ricci_fd(Y, x)) - 4.0) <= 1e-12


def test_killing_residual_sees_a_metric_that_reads_psi(monkeypatch):
    # negative control: the check must move the point along xi = 3 d_psi - ...
    components = ypq._components

    def reads_psi(Y, x, y, ct, st):
        g = components(Y, x, y, ct, st)
        g[3, 3] = g[3, 3] + 1e-3 * x.psi
        return g

    monkeypatch.setattr(ypq, "_components", reads_psi)
    Y = ypq.ypq_params(2, 1)
    for x in ypq.random_chart_points(Y, 5, random.Random(43)):
        assert ypq.killing_residual(Y, x) == pytest.approx(3e-3, rel=1e-6)


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
    # Y^{p,q} is L^{p-q, p+q, p}, an admissible L^{a,b,c}
    v = ypq.labc_admissible(2 - 1, 2 + 1, 2)
    assert v.valid
    L = v.params
    assert (L.a, L.b, L.c, L.d) == (1, 3, 2, 2)
    assert L.charges == (1, 3, -2, -2)
    v = ypq.labc_admissible(7 - 3, 7 + 3, 7)
    assert v.valid
    L = v.params
    assert (L.a, L.b, L.c, L.d) == (4, 10, 7, 7)


def test_labc_cone_y21():
    g = ypq.labc_cone(ypq.LabcParams(1, 3, 2))  # Y^{2,1}
    assert g.ell == 1
    top = cn.topology(g.cone)
    assert top.pi1_invariants == () and top.pi2_rank == 1
    assert cn.smale_type(g.cone).label == "#1(S^2xS^3)"


def test_labc_cone_conifold_case():
    g = ypq.labc_cone(ypq.LabcParams(1, 1, 1))
    match = oracles.unimodular_match(
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
        g = ypq.labc_cone(ypq.LabcParams(p - q, p + q, p))
        res = rv.minimize_reeb(g)
        expected = ypq.quasiregular_check(p, q).kind
        assert res.regularity == expected
        assert (res.xi_star_exact is not None) == (expected == "quasi-regular")
