import random
from fractions import Fraction as F
from itertools import combinations, permutations, product
from math import gcd, lcm, prod

import pytest

from reebmin import links as lk
from reebmin.errors import NotHomologySphere, UnsupportedDimension

import oracles


def test_exponent_derived_data():
    e = lk.bp((2, 3, 7, 5))
    assert e.n == 3
    assert e.degree == 210
    assert e.weights == (105, 70, 30, 42)
    assert e.weight_sum == 247
    assert lk.bp((4, 6, 9)).pair_gcds == ((4, 2, 1), (2, 6, 3), (1, 3, 9))
    # the facts set at construction stay out of equality, hash and repr
    assert e == lk.BPExponents((2, 3, 7, 5)) != lk.bp((2, 3, 5, 7))
    assert hash(e) == hash(lk.BPExponents((2, 3, 7, 5)))
    assert repr(e) == "BPExponents(a=(2, 3, 7, 5))"
    with pytest.raises(ValueError):
        lk.bp((1, 3))


def test_homology_examples():
    assert lk.homology_classify((2, 3, 7, 5)) == lk.INTEGRAL
    assert lk.homology_classify((3, 3, 3, 4)) == lk.RATIONAL  # (m,..,m,k) family
    assert lk.homology_classify((5, 5, 5, 5, 3)) == lk.RATIONAL
    assert lk.homology_classify((2, 2, 2, 2)) == lk.OTHER
    assert lk.homology_classify((2, 2, 2, 3)) == lk.INTEGRAL


def test_homology_against_alexander_oracle_exhaustive():
    for length in (3, 4):
        for a in product(range(2, 8), repeat=length):
            assert lk.homology_classify(a) == oracles.homology_by_alexander(a), a


def test_homology_against_alexander_oracle_random():
    rng = random.Random(12)
    for _ in range(1500):
        a = tuple(rng.randint(2, 40) for _ in range(5))
        assert lk.homology_classify(a) == oracles.homology_by_alexander(a), a


def test_homology_against_alexander_oracle_on_gcd_table_cases():
    rng = random.Random(13)
    vectors = list(product(range(2, 31), repeat=2))
    vectors += [tuple(rng.randint(2, 40) for _ in range(m)) for m in (6, 7) for _ in range(150)]
    # 3 or 5 even exponents of pairwise gcd 2, with odd ones coprime to them
    # or sharing a factor (9 and 21 with 6, 25 with 10, 21 with 14)
    for k in (3, 5):
        for evens in combinations((2, 6, 10, 14, 22, 26), k):
            for odds in ((), (7,), (11, 13), (9,), (25, 11), (21, 13)):
                vectors.append(evens + odds)
    # a lone even exponent coprime to the rest is isolated but not integral
    vectors += [(3, 3, 3, 4), (3, 3, 3, 2), (5, 5, 5, 8), (9, 9, 9, 9, 4), (3, 3, 4)]
    kinds = set()
    for a in vectors:
        kind = lk.homology_classify(a)
        assert kind == oracles.homology_by_alexander(a), a
        kinds.add(kind)
    assert kinds == {lk.INTEGRAL, lk.RATIONAL, lk.OTHER}


def test_fano_examples():
    assert lk.fano_check((2, 3, 7, 41))
    assert lk.reciprocal_sum((2, 3, 7, 41)) == F(1723, 1722)
    assert not lk.fano_check((2, 3, 7, 43))
    assert not lk.fano_check((2, 2))  # boundary: sum exactly 1


def test_bgk_examples():
    assert lk.bgk_check((2, 3, 7, 5)).passed
    assert lk.bgk_check((2, 3, 7, 7)) == lk.BGKResult(False, 3)
    assert lk.bgk_check((2, 2, 2, 3)) == lk.BGKResult(False, 2)
    assert lk.bgk_check((2, 3, 7, 43)) == lk.BGKResult(False, 1)


def test_gk_examples():
    assert lk.gk_check((2, 3, 5, 59)) == lk.GK_PASS
    assert lk.gk_check((2, 3, 5, 61)) == lk.GK_FAIL
    assert lk.gk_check((2, 3, 7, 14)) == lk.GK_NA


def test_bgk_pass_implies_fano():
    rng = random.Random(21)
    for _ in range(2000):
        a = tuple(rng.randint(2, 60) for _ in range(rng.choice((3, 4, 5))))
        if lk.bgk_check(a).passed:
            assert lk.fano_check(a)


def test_gk_pass_implies_integral_sphere():
    # GK needs small leading exponents; sweep the fertile corner exhaustively
    found = 0
    for a0, a1, a2 in ((2, 3, 5), (2, 3, 7), (2, 3, 11), (3, 4, 5), (2, 5, 7)):
        for k in range(2, 80):
            a = (a0, a1, a2, k)
            if lk.gk_check(a) == lk.GK_PASS:
                assert lk.homology_classify(a) == lk.INTEGRAL
                found += 1
    assert found >= 30


def _assert_matches_fraction_oracle(a):
    failed = oracles.bgk_by_fractions(a)
    assert lk.bgk_check(a) == lk.BGKResult(failed is None, failed), a
    assert lk.gk_check(a) == oracles.gk_by_fractions(a), a
    assert lk.fano_check(a) == (failed != 1), a


def test_integer_inequalities_match_fraction_oracle_random():
    rng = random.Random(23)
    for _ in range(5000):
        a = tuple(rng.randint(2, 200) for _ in range(rng.choice((3, 4, 5))))
        _assert_matches_fraction_oracle(a)


def test_integer_inequalities_match_fraction_oracle_exhaustive():
    sweeps = ((3, range(2, 13)), (4, range(2, 13)), (5, range(2, 9)))
    for length, values in sweeps:
        for a in product(values, repeat=length):
            _assert_matches_fraction_oracle(a)


@pytest.mark.parametrize("a, condition", [
    ((2, 3, 6), 1), ((2, 4, 6, 12), 1),
    ((2, 3, 4, 6), 2), ((2, 3, 5, 15), 2),
    ((2, 3, 6, 24), 3), ((3, 3, 4, 6), 3),
])
def test_bgk_equality_fails_strict_inequality(a, condition):
    # each vector sits exactly on the bound of its condition
    n = len(a) - 1
    s = sum(F(1, x) for x in a)
    bs = [gcd(x, lcm(*(y for j, y in enumerate(a) if j != i)))
          for i, x in enumerate(a)]
    bound = {
        1: F(1),
        2: 1 + F(n, (n - 1) * max(a)),
        3: 1 + F(n, (n - 1) * max(p * q for p, q in combinations(bs, 2))),
    }[condition]
    assert s == bound
    assert lk.bgk_check(a) == lk.BGKResult(False, condition)
    assert oracles.bgk_by_fractions(a) == condition


def test_verdict_permutation_invariance_sampled():
    rng = random.Random(24)
    for _ in range(500):
        a = [rng.randint(2, 80) for _ in range(4)]
        v = lk.link_verdict(a)
        perm = a[:]
        rng.shuffle(perm)
        w = lk.link_verdict(perm)
        assert (v.fano, v.homology_type, v.bgk, v.gk, v.bishop, v.lichnerowicz,
                v.outcome) == (
            w.fano, w.homology_type, w.bgk, w.gk, w.bishop, w.lichnerowicz,
            w.outcome)


def test_enumerate_27_family():
    def coprime_to_two(v):
        # the free exponent is coprime to at least two of 2, 3, 7
        return sum(gcd(f, v.exponents[-1]) == 1 for f in (2, 3, 7)) >= 2

    pred = lambda v: coprime_to_two(v) and v.bgk.passed
    hits = lk.enumerate_family((2, 3, 7, None), range(5, 42), pred)
    ks = [k for k, _ in hits]
    assert len(ks) == 27
    assert 7 not in ks
    assert ks == sorted(ks)
    # the coprimality wording agrees with the homology-sphere criterion here
    for k in range(5, 42):
        eligible = sum(1 for f in (2, 3, 7) if gcd(f, k) == 1) >= 2
        assert eligible == (lk.homology_classify((2, 3, 7, k)) == lk.INTEGRAL)


def test_enumerate_12_family():
    hits = lk.enumerate_family(
        (2, 3, 5, None), range(6, 60), lk.parse_predicate("gk+bgk-fail")
    )
    assert [k for k, _ in hits] == [17, 19, 23, 29, 31, 37, 41, 43, 47, 49, 53, 59]


def test_enumerate_28_exotic_family():
    hits = lk.enumerate_family(
        (None, 3, 2, 2, 2),
        [6 * k - 1 for k in range(1, 29)],
        lk.parse_predicate("integral"),
    )
    assert len(hits) == 28  # every member is an integral homology sphere


def test_enumerate_template_validation():
    with pytest.raises(ValueError):
        lk.enumerate_family((2, 3, 7, 5), range(3), None)
    with pytest.raises(ValueError):
        lk.enumerate_family((2, None, None), range(3), None)
    with pytest.raises(ValueError):
        lk.parse_predicate("no-such-predicate")


@pytest.mark.parametrize("spec", ["", " ", "+", "bgk+", "+bgk", "gk++bgk-fail", "gk+ +fano"])
def test_parse_predicate_rejects_an_empty_part(spec):
    # an empty part names no predicate; read as "always" it would widen the search
    with pytest.raises(ValueError, match="empty part"):
        lk.parse_predicate(spec)


def test_verdict_outcomes():
    assert lk.link_verdict((2, 3, 7, 5)).outcome == lk.EXISTS
    assert lk.link_verdict((2, 3, 5, 61)).outcome == lk.OBSTRUCTED  # GK is an iff
    assert lk.link_verdict((2, 3, 7, 43)).outcome == lk.OBSTRUCTED  # not Fano
    # L(2,2,2,21) carries weights (21,21,21,2) of degree 42: Bishop kills it
    v = lk.link_verdict((2, 2, 2, 21))
    assert v.bishop == "obstructed"
    assert v.outcome == lk.OBSTRUCTED and v.reason == "bishop"


@pytest.mark.parametrize("a", [(2, 3, 7, 5), (2, 3, 5, 61), (2, 3, 7, 43), (2, 2, 2, 21)])
def test_verdict_computes_degree_once(a, monkeypatch):
    calls = []

    def counting_lcm(*args):
        calls.append(args)
        return lcm(*args)

    monkeypatch.setattr(lk, "lcm", counting_lcm)
    lk.link_verdict(a)
    # d = lcm(a) once; BGK (3) adds one lcm per exponent when it is reached
    assert calls.count(a) == 1
    assert len(calls) <= 1 + len(a)


@pytest.mark.parametrize("a", [
    (2, 3, 7, 5), (2, 2, 2, 21), (2, 3, 5, 61), (2, 4, 6, 9, 5), (6, 10, 15),
    (2, 6, 10, 9, 7, 11, 13),
])
def test_verdict_takes_each_pair_gcd_once(a, monkeypatch):
    calls = []

    def counting_gcd(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(lk, "gcd", counting_gcd)
    lk.link_verdict(a)
    m = len(a)
    assert len(calls) <= m * (m - 1) // 2


def test_exotic_sphere_signatures():
    assert lk.milnor_signature((5, 3, 2, 2, 2)) == 8
    assert lk.bp8_class((5, 3, 2, 2, 2)) == 1
    assert lk.milnor_signature((11, 3, 2, 2, 2)) == 16
    assert lk.bp8_class((11, 3, 2, 2, 2)) == 2


def test_signature_against_fraction_oracle():
    for k in (1, 2, 3, 5):
        a = (6 * k - 1, 3, 2, 2, 2)
        assert lk.milnor_signature(a) == oracles.signature_by_fractions(a)
    # an independent-looking homotopy 7-sphere
    assert lk.milnor_signature((2, 3, 7, 11, 13)) == oracles.signature_by_fractions(
        (2, 3, 7, 11, 13)
    )


def test_signature_random_spheres_against_fraction_oracle():
    # the oracle visits every point, hence prod(a_i - 1) <= 1000 here;
    # (19,17,13,11,7) is held to the benchmark's oracle in test_acceptance.py
    rng = random.Random(14)
    spheres = []
    while len(spheres) < 200:
        a = tuple(rng.randint(2, 15) for _ in range(5))
        if lk.homology_classify(a) == lk.INTEGRAL and prod(x - 1 for x in a) <= 1000:
            spheres.append(a)
    # repeated 2s put partial sums of one group on multiples of L
    # (L/2 + L/2), though never a whole sum S
    assert sum(a.count(2) >= 2 for a in spheres) >= 20
    spheres += [(5, 3, 2, 2, 2), (7, 5, 2, 2, 2), (13, 2, 11, 2, 2)]
    for a in spheres:
        assert lk.milnor_signature(a) == oracles.signature_by_fractions(a), a


def test_signature_is_permutation_invariant():
    a = (4, 5, 7, 9, 11)
    tau = oracles.signature_by_fractions(a)
    assert {lk.milnor_signature(p) for p in permutations(a)} == {tau}


def test_signature_divisible_by_eight():
    rng = random.Random(25)
    found = 0
    while found < 20:
        a = tuple(rng.randint(2, 12) for _ in range(5))
        if lk.homology_classify(a) != lk.INTEGRAL:
            continue
        assert lk.milnor_signature(a) % 8 == 0
        found += 1


def test_signature_errors():
    with pytest.raises(UnsupportedDimension):
        lk.milnor_signature((2, 3, 7, 5))
    with pytest.raises(NotHomologySphere):
        lk.milnor_signature((2, 2, 2, 2, 2))
