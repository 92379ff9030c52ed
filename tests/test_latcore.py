import random

import pytest

from reebmin import latcore as lc
from reebmin.errors import RankError

import oracles


def is_diagonal(m):
    return all(m[i][j] == 0 for i in range(len(m)) for j in range(len(m[0])) if i != j)


def snf_contract_holds(mat):
    u, d, v = lc.smith_normal_form(mat)
    assert lc.matmul(lc.matmul(u, mat), v) == d
    assert abs(lc.int_det(u)) == 1
    assert abs(lc.int_det(v)) == 1
    assert is_diagonal(d)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    assert all(x >= 0 for x in diag)
    for prev, cur in zip(diag, diag[1:]):
        if cur != 0:
            assert prev != 0 and cur % prev == 0
    return diag


def test_snf_examples():
    diag = snf_contract_holds([[2, 0], [0, 3]])
    assert diag == [1, 6]
    u, d, v = lc.smith_normal_form(lc.identity(3))
    assert d == lc.identity(3)
    # unimodular row-span (conifold-style spans): all invariant factors 1
    diag = snf_contract_holds([[1, 0, 0], [1, 1, 0], [1, 1, 1]])
    assert diag == [1, 1, 1]


def test_snf_zero_and_rectangular():
    snf_contract_holds([[0, 0], [0, 0]])
    snf_contract_holds([[3, 6, 9]])
    snf_contract_holds([[2], [4], [6]])


def test_snf_random_instances():
    rng = random.Random(20240917)
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        snf_contract_holds(mat)


def test_integer_kernel_examples():
    basis = lc.integer_kernel([[1, 1, 1, 1]])
    assert len(basis) == 3
    assert all(sum(v) == 0 for v in basis)

    basis = lc.integer_kernel([[2, 2, -1, -3]])
    assert len(basis) == 3
    assert all(2 * v[0] + 2 * v[1] - v[2] - 3 * v[3] == 0 for v in basis)
    # (1,-1,0,0) lies in the kernel span: adding it must not change the lattice
    assert lc.hermite_normal_form(basis + [[1, -1, 0, 0]]) == basis

    assert lc.integer_kernel(lc.identity(4)) == []


def test_kernel_is_saturated():
    rng = random.Random(7)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        basis = lc.integer_kernel(mat)
        for v in basis:
            assert all(sum(m * x for m, x in zip(row, v)) == 0 for row in mat)
        if basis:
            assert lc.invariant_factors(basis) == [1] * len(basis)


def test_gale_dual_substitution():
    rays = lc.gale_dual([[2, 2, -1, -3]])
    assert len(rays) == 4 and all(len(r) == 3 for r in rays)
    for k in range(3):
        assert 2 * rays[0][k] + 2 * rays[1][k] - rays[2][k] - 3 * rays[3][k] == 0
    assert all(lc.is_primitive(r) for r in rays)


def test_gale_dual_conifold_equivalence():
    from reebmin.cones import unimodular_match

    rays = lc.gale_dual([[1, 1, -1, -1]])
    expected = [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)]
    assert unimodular_match(rays, expected) is not None


def test_gale_dual_empty_charges():
    assert lc.gale_dual([], ncols=3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_gale_dual_errors():
    with pytest.raises(RankError):
        lc.gale_dual([[1, 1, -1, -1], [2, 2, -2, -2]])
    with pytest.raises(ValueError):
        lc.gale_dual([[1, 0, -1, 0], [0, 0, 2, -2]])  # zero column
    with pytest.raises(ValueError):
        lc.gale_dual([[2, 2, -2, -1]])  # forced imprimitive ray


def test_gale_dual_kernel_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        d = rng.randint(3, 6)
        k = rng.randint(1, d - 2)
        charges = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(k)]
        if lc.rank(charges) != k:
            continue
        if any(all(row[a] == 0 for row in charges) for a in range(d)):
            continue
        try:
            rays = lc.gale_dual(charges)
        except ValueError:
            continue
        # the relation lattice of the rays is the saturated row space of Q
        relations = lc.integer_kernel(lc.transpose([list(r) for r in rays]))
        saturated_rows = lc.integer_kernel(lc.integer_kernel(charges))
        assert lc.hermite_normal_form(relations) == lc.hermite_normal_form(saturated_rows)


def test_hermite_normal_form_canonical():
    rng = random.Random(3)
    for _ in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        h = lc.hermite_normal_form(mat)
        # invariant under unimodular row mixing
        u = oracles.random_unimodular(rows, rng)
        assert lc.hermite_normal_form(lc.matmul(u, mat)) == h


def test_unimodular_completion():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        v = [rng.randint(-9, 9) for _ in range(n)]
        v = list(lc.primitivize(v))
        if all(x == 0 for x in v):
            continue
        t, t_inv = lc.unimodular_completion(v)
        assert t[0] == v
        assert abs(lc.int_det(t)) == 1
        assert lc.matmul(t, t_inv) == lc.identity(n)
    assert lc.unimodular_completion((1, 0, 0)) == (lc.identity(3), lc.identity(3))


def test_int_det_matches_fraction_elimination():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        d = lc.int_det(mat)
        u, dd, v = lc.smith_normal_form(mat)
        prod_diag = 1
        for i in range(n):
            prod_diag *= dd[i][i]
        assert abs(d) == prod_diag


def test_rank_matches_smith_form():
    # Bareiss elimination against the number of invariant factors
    rng = random.Random(19)
    kinds = set()
    for trial in range(900):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        kind = trial % 3
        if kind == 0:
            mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        elif kind == 1:
            # a product through k < min(m, n) columns is rank deficient
            k = rng.randint(1, max(1, min(m, n) - 1))
            a = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(m)]
            b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
            mat = lc.matmul(a, b)
        else:
            mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            for i in rng.sample(range(m), rng.randint(0, m)):
                mat[i] = [0] * n
            for j in rng.sample(range(n), rng.randint(0, n)):
                for row in mat:
                    row[j] = 0
        r = lc.rank(mat)
        assert r == len(lc.invariant_factors(mat)), mat
        kinds.add((kind, r < min(m, n)))
    assert {(1, True), (2, True), (0, False)} <= kinds
    assert lc.rank([]) == lc.rank([[]]) == lc.rank([[0, 0], [0, 0]]) == 0
