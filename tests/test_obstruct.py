import math
import random
import warnings
from fractions import Fraction as F

import pytest

from reebmin import obstruct as ob
from reebmin.errors import NotFano

import oracles


def test_hs_volume_quadric():
    volume, normalized = ob.hs_volume(ob.WeightedHS((1, 1, 1, 1), 2))
    assert normalized == F(16, 27)
    assert volume == pytest.approx(16 * math.pi**3 / 27)


def test_hs_volume_flat_hyperplane():
    # hyperplane in C^3 is flat C^2: the round S^3
    _, normalized = ob.hs_volume(ob.WeightedHS((1, 1, 1), 1))
    assert normalized == 1


def test_hs_volume_kkk2_family():
    for k in (3, 5, 21):
        _, normalized = ob.hs_volume(ob.WeightedHS((k, k, k, 2), 2 * k))
        assert normalized == F((k + 2) ** 3, 27 * k * k)


def test_hs_volume_scale_consistency():
    _, base = ob.hs_volume(ob.WeightedHS((3, 4, 5, 7), 6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # normalizing the weights warns of nothing
        h = ob.WeightedHS((9, 12, 15, 21), 18)
        _, scaled = ob.hs_volume(h)
    assert (h.weights, h.degree) == ((3, 4, 5, 7), 6)
    assert base == scaled


def test_inconsistent_weight_degree_gcd_rejected():
    with pytest.raises(ValueError):
        ob.WeightedHS((2, 4, 6, 2), 7)


def test_not_fano_raises():
    with pytest.raises(NotFano):
        ob.hs_volume(ob.WeightedHS((1, 1, 1, 1), 4))
    with pytest.raises(NotFano):
        ob.bishop_check(ob.WeightedHS((2, 3, 7, 43), 42 * 43 // 1))


def test_bishop_threshold():
    assert ob.bishop_check(ob.WeightedHS((21, 21, 21, 2), 42)) == ob.OBSTRUCTED
    assert ob.bishop_check(ob.WeightedHS((19, 19, 19, 2), 38)) == ob.UNOBSTRUCTED
    assert ob.bishop_check(ob.WeightedHS((1, 1, 1, 1), 2)) == ob.UNOBSTRUCTED
    for k in range(3, 60):
        status = ob.bishop_check(ob.WeightedHS((k, k, k, 2), 2 * k))
        assert (status == ob.OBSTRUCTED) == (k >= 21)


def test_lichnerowicz_threshold_and_witness():
    res = ob.lichnerowicz_check(ob.WeightedHS((5, 5, 5, 2), 10))
    assert res.status == ob.OBSTRUCTED
    assert res.charge == F(6, 7)
    assert res.witness_index == 3
    assert res.eigenvalue == F(6, 7) * (F(6, 7) + 4)

    res = ob.lichnerowicz_check(ob.WeightedHS((4, 4, 4, 2), 8))
    assert res.status == ob.MARGINAL and res.charge == 1

    res = ob.lichnerowicz_check(ob.WeightedHS((1, 1, 1, 1), 2))
    assert res.status == ob.UNOBSTRUCTED

    for k in range(3, 60):
        status = ob.lichnerowicz_check(ob.WeightedHS((k, k, k, 2), 2 * k)).status
        assert (status == ob.OBSTRUCTED) == (k >= 5)


def test_lichnerowicz_witness_is_argmin_charge():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.choice((3, 4))
        w = tuple(rng.randint(1, 30) for _ in range(n + 1))
        d = rng.randint(1, sum(w) - 1)
        try:
            h = ob.WeightedHS(w, d)
        except ValueError:  # degree inconsistent with imprimitive weights
            continue
        # the Reeb charge n w_i / (|w| - d) of each coordinate z_i
        charges = [F(h.n * w, h.weight_sum - h.degree) for w in h.weights]
        res = ob.lichnerowicz_check(h)
        assert charges[res.witness_index] == min(charges)
        assert charges[res.witness_index] == res.charge


def test_bishop_obstructed_subset_of_lichnerowicz():
    for k in range(21, 101):
        h = ob.WeightedHS((k, k, k, 2), 2 * k)
        if ob.bishop_check(h) == ob.OBSTRUCTED:
            assert ob.lichnerowicz_check(h).status == ob.OBSTRUCTED


def test_integer_checks_agree_with_real_valued():
    rng = random.Random(32)
    for _ in range(500):
        n = rng.choice((3, 4, 5))
        w = [rng.randint(1, 25) for _ in range(n + 1)]
        d = rng.randint(1, sum(w) - 1)
        try:
            h = ob.WeightedHS(tuple(w), d)
        except ValueError:
            continue
        wf = [float(x) for x in h.weights]
        df = float(h.degree)
        excess = sum(wf) - df
        bishop_real = df * excess**n > math.prod(wf) * n**n
        lich_real = excess > n * min(wf)
        # skip razor-thin real margins; the exact side is the contract
        if abs(df * excess**n - math.prod(wf) * n**n) > 1e-6:
            assert (ob.bishop_check(h) == ob.OBSTRUCTED) == bishop_real
        if abs(excess - n * min(wf)) > 1e-9:
            assert (ob.lichnerowicz_check(h).status == ob.OBSTRUCTED) == lich_real


def test_integer_statuses_match_the_fraction_comparisons():
    # the charge lam = n w_min / (|w| - d) against 1, and the normalized
    # volume d (|w| - d)^n / (w n^n) against 1, with the equal cases
    rng = random.Random(33)
    cases = [((k, k, k, 2), 2 * k) for k in range(3, 60)]   # k = 4: lam = 1
    cases += [((1, 1, 1, 1), 2), ((1, 1, 1), 1), ((2, 3, 3, 4), 6)]
    for _ in range(3000):
        w = tuple(rng.randint(1, 12) for _ in range(rng.randint(2, 6)))
        cases.append((w, rng.randint(1, sum(w) - 1)))
    seen = set()
    for w, d in cases:
        try:
            h = ob.WeightedHS(w, d)
        except ValueError:  # degree inconsistent with imprimitive weights
            continue
        lam = F(h.n * h.w_min, h.weight_sum - h.degree)
        lich = ob.OBSTRUCTED if lam < 1 else ob.MARGINAL if lam == 1 else ob.UNOBSTRUCTED
        _, volume = ob.hs_volume(h)
        bishop = ob.OBSTRUCTED if volume > 1 else ob.UNOBSTRUCTED
        assert ob.lichnerowicz_status(h.weights, h.degree) == lich, (w, d)
        assert ob.bishop_status(h.weights, h.degree) == bishop, (w, d)
        res = ob.lichnerowicz_check(h)
        assert (res.status, res.charge, ob.bishop_check(h)) == (lich, lam, bishop)
        seen.add((lich, bishop, volume == 1))
    assert {s[0] for s in seen} == {ob.OBSTRUCTED, ob.MARGINAL, ob.UNOBSTRUCTED}
    assert {s[1:] for s in seen} >= {(ob.OBSTRUCTED, False), (ob.UNOBSTRUCTED, True)}


def test_bishop_implies_lich_property_suite():
    bishop_obstructed, counterexamples = oracles.bishop_implies_lich_property(10_000, seed=2024)
    assert bishop_obstructed > 100
    assert counterexamples == []


def test_lich_unobstructed_implies_bishop_unobstructed():
    # contrapositive of the implication, on the integer family
    for k in range(3, 40):
        h = ob.WeightedHS((k, k, k, 2), 2 * k)
        if ob.lichnerowicz_check(h).status != ob.OBSTRUCTED:
            assert ob.bishop_check(h) == ob.UNOBSTRUCTED


def test_join_examples():
    res = ob.join_smooth(ob.JoinInput(1, 2, 2), ob.JoinInput(1, 2, 2))
    assert res.smooth and res.dimension == 5  # S^3 * S^3

    # regular first factor and I2 | I1: smooth whatever ord(Z2)
    for ord2 in (1, 2, 3, 7, 12):
        res = ob.join_smooth(ob.JoinInput(1, 6, 3), ob.JoinInput(ord2, 3, 2))
        assert res.smooth

    res = ob.join_smooth(ob.JoinInput(2, 2, 2), ob.JoinInput(3, 3, 2))
    assert not res.smooth and res.obstruction_gcd == 6
    assert res.kind == "orbifold"


def test_join_input_validation():
    with pytest.raises(ValueError):
        ob.JoinInput(0, 1, 2)
