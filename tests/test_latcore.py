import random
from fractions import Fraction

import pytest

from reebmin import latcore as lc
from reebmin.errors import RankError

import oracles


def is_diagonal(m):
    return all(m[i][j] == 0 for i in range(len(m)) for j in range(len(m[0])) if i != j)


def snf_contract_holds(mat):
    u, d, v = lc.smith_normal_form(mat)
    assert oracles.matmul(oracles.matmul(u, mat), v) == d
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
    rays = lc.gale_dual([[1, 1, -1, -1]])
    expected = [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)]
    assert oracles.unimodular_match(rays, expected) is not None


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
        assert lc.hermite_normal_form(oracles.matmul(u, mat)) == h


def test_unimodular_completion():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        v = [rng.randint(-9, 9) for _ in range(n)]
        v = list(oracles.primitive(v))
        if all(x == 0 for x in v):
            continue
        t, t_inv = lc.unimodular_completion(v)
        assert t[0] == v
        assert abs(lc.int_det(t)) == 1
        assert oracles.matmul(t, t_inv) == lc.identity(n)
    assert lc.unimodular_completion((1, 0, 0)) == (lc.identity(3), lc.identity(3))


def test_unimodular_completion_matches_the_smith_adjugate_oracle():
    # one Euclid pass against the Smith form of the row, its sign fix and
    # the adjugate inverse: the same (T, T^-1) bit for bit.  Cones have
    # n <= 4; the oracle's n^2 minors make larger n slow, so fewer of those
    rng = random.Random(47)
    for n, count in zip(range(1, 9), (4500,) * 4 + (500,) * 4):
        while count:
            bound = rng.choice((3, 100, 10**4))
            v = [rng.randint(-bound, bound) for _ in range(n)]
            if rng.random() < 0.3:
                # ties of |value| between entries
                v[rng.randrange(n)] = rng.choice((-1, 1)) * rng.choice(v)
            v = list(oracles.primitive(v))
            if not any(v):
                continue
            assert lc.unimodular_completion(v) == oracles.unimodular_completion_by_smith(v), v
            count -= 1
    for v in ((1,), (-1,), (0, -1), (-3, 3, 1), (2, -2, 3, -3), (0, 0, 0, 7, 5)):
        assert lc.unimodular_completion(v) == oracles.unimodular_completion_by_smith(v), v
    for v in ((0, 0), (2, 4), ()):
        with pytest.raises(ValueError):
            lc.unimodular_completion(v)


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


def test_int_det_matches_leibniz_beyond_64_bits():
    # the closed 2x2 and 3x3 forms and Bareiss at 1x1 and 4x4
    rng = random.Random(29)
    big = 2**70
    for _ in range(400):
        n = rng.randint(1, 4)
        mat = [[rng.choice([rng.randint(-big, big), rng.randint(-3, 3)]) for _ in range(n)]
               for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            mat[-1] = [a - 3 * b for a, b in zip(mat[0], mat[1])]  # singular
        assert lc.int_det(mat) == oracles.leibniz_det(mat), mat


def test_dot_and_matvec_keep_the_bits_of_a_generator_sum():
    # Newton pairs float Reeb vectors with rays through dot, so the order
    # of the additions must be that of sum(a * b for a, b in zip(u, v))
    rng = random.Random(31)
    for _ in range(500):
        n = rng.randint(1, 6)
        u = [rng.choice([rng.uniform(-1e3, 1e3), rng.randint(-50, 50)]) for _ in range(n)]
        rows = [[rng.uniform(-1e-3, 1e16) for _ in range(n)] for _ in range(3)]
        assert lc.dot(u, rows[0]).hex() == float(sum(a * b for a, b in zip(u, rows[0]))).hex()
        assert [x.hex() for x in lc.matvec(rows, u)] == [
            float(sum(a * b for a, b in zip(row, u))).hex() for row in rows]


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
            mat = oracles.matmul(a, b)
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


def test_integer_kernel_matches_smith_oracle():
    # one Hermite form of [M^T | I] against the Smith transform V, order included
    rng = random.Random(23)
    kinds = set()
    for trial in range(1000):
        kind = trial % 5
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        if kind == 0:
            mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        elif kind == 1:
            # dependent rows: a product through k < m rows
            k = rng.randint(1, max(1, m - 1))
            a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
            b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
            mat = oracles.matmul(a, b)
        elif kind == 2:
            mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            for i in rng.sample(range(m), rng.randint(0, m)):
                mat[i] = [0] * n
            for j in rng.sample(range(n), rng.randint(0, n)):
                for row in mat:
                    row[j] = 0
        elif kind == 3:
            mat = [[rng.randint(-9, 9) for _ in range(n)]]
        else:
            # Gale charge rows: k < d - 1 rows, each summing to zero
            d = rng.randint(3, 7)
            mat = []
            for _ in range(rng.randint(1, d - 2)):
                row = [rng.randint(-4, 4) for _ in range(d - 1)]
                mat.append(row + [-sum(row)])
        basis = lc.integer_kernel(mat)
        assert basis == oracles.integer_kernel_by_smith(mat), mat
        kinds.add((kind, len(mat) > len(mat[0]), len(basis) >= 2))
    assert {(0, True, False), (1, False, True), (2, True, True), (3, False, True), (4, False, True)} <= kinds
    for mat in ([[0, 0, 0]], [[]], [[1, 1, 1, 1]], lc.identity(4), [[2, 2, -1, -3]]):
        assert lc.integer_kernel(mat) == oracles.integer_kernel_by_smith(mat)
    assert lc.integer_kernel([], ncols=3) == lc.identity(3)
    with pytest.raises(ValueError):
        lc.integer_kernel([])


def test_adjugate_gives_det_times_identity():
    rng = random.Random(29)
    singular = 0
    for trial in range(400):
        n = rng.randint(1, 6)
        if trial % 2:
            # a product through k < n columns is singular
            k = rng.randint(0, n - 1)
            a = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(n)]
            b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
            mat = oracles.matmul(a, b) if k else [[0] * n for _ in range(n)]
        else:
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        det = lc.int_det(mat)
        singular += det == 0
        adj = oracles.adjugate(mat)
        scaled = [[det * x for x in row] for row in lc.identity(n)]
        assert oracles.matmul(adj, mat) == scaled == oracles.matmul(mat, adj), mat
    assert singular >= 200
    assert oracles.adjugate([[7]]) == [[1]]
    assert oracles.adjugate([[1, 2], [3, 4]]) == [[4, -2], [-3, 1]]


@pytest.mark.parametrize("f, mat", [
    (lc.smith_normal_form, [[2, 0], [0, 1.5]]),
    (lc.int_det, [[2, 0], [0, 1.5]]),
    (lc.int_det, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.5]]),
    (lc.rank, [[1, 0], [0, 1.5]]),
    (lc.hermite_normal_form, [[1, 0], [0, 1.5]]),
    (lc.int_det, [[1.5, 0], [0, 1]]),
    (lc.int_det, [[Fraction(4, 2), 0], [0, 1]]),
    (lc.int_det, [[1, 0, 0], [0, 1, 0], [0, 0, 1.5]]),
    (lc.int_det, [[1, 0, 0], [0, Fraction(3), 0], [0, 0, 1]]),
])
def test_a_non_integer_entry_is_a_type_error(f, mat):
    # int(1.5) would read it as 1 and answer for another matrix
    with pytest.raises(TypeError):
        f(mat)


def test_integer_matrices_keep_their_smith_form_and_adjugate():
    mat = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    assert lc.smith_normal_form(mat) == (
        [[1, 0, 0], [3, 1, 0], [1, 2, 1]],
        [[2, 0, 0], [0, 6, 0], [0, 0, 12]],
        [[1, 0, -2], [0, -1, 4], [0, 1, -3]],
    )
    assert lc.smith_normal_form([[1, 2, 3, 4], [2, 0, 6, -2]]) == (
        [[1, 0], [2, -1]],
        [[1, 0, 0, 0], [0, 2, 0, 0]],
        [[1, 0, -3, -2], [0, -2, 0, 5], [0, 0, 1, 0], [0, 1, 0, -2]],
    )
    assert oracles.adjugate(mat) == [[-48, 48, 24], [24, -72, -48], [-36, 48, 36]]
    # the input is copied, not changed
    assert mat == [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
