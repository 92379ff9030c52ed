"""Exact integer linear algebra on small dense matrices.

Matrices are plain lists of lists of Python ints (arbitrary precision),
vectors are lists or tuples of ints.  Nothing here ever rounds or leaves
ZZ: 2x2 and 3x3 determinants are closed forms, other determinants and
ranks come from one fraction-free (Bareiss) elimination, kernels from one
Hermite form, the unimodular completion of a row from one Euclid pass,
and the Smith form serves only where its factors are read.  Sizes are
desk-scale (at most a dozen rows/columns), so the classical algorithms
are used throughout; no modular or sparse tricks.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Sequence

from .errors import RankError

IntMatrix = Sequence[Sequence[int]]
IntVector = Sequence[int]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = a*x + b*y and g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def is_primitive(v: IntVector) -> bool:
    return gcd(*v) == 1


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(M: IntMatrix) -> list[list]:
    return [list(col) for col in zip(*M)]


# sum(map(mul, ..)) adds the products left to right, as a generator sum
# would, so float callers get the same bits
def matvec(A, x) -> list:
    return [sum(map(mul, row, x)) for row in A]


def dot(u, v):
    return sum(map(mul, u, v))


def _int_rows(M: IntMatrix) -> list[list[int]]:
    """A copy of M to work on; an entry that is not an int is a TypeError."""
    rows = [list(row) for row in M]
    if not all(isinstance(x, int) for row in rows for x in row):
        raise TypeError("matrix entries must be ints")
    return rows


def _bareiss(M: IntMatrix) -> tuple[int, int]:
    """(rank, det) by fraction-free (Bareiss) elimination.

    After each pivot every remaining entry is a minor of M, so the division
    by the previous pivot is exact and entries stay integers.  The last
    pivot of a square matrix of full rank is its determinant up to the sign
    of the row swaps; det is 0 for any other matrix.
    """
    A = _int_rows(M)
    m = len(A)
    n = len(A[0]) if m else 0
    r, prev, sign = 0, 1, 1
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
            sign = -sign
        top = A[r]
        p = top[c]
        for i in range(r + 1, m):
            a = A[i][c]
            A[i] = [(x * p - a * y) // prev for x, y in zip(A[i], top)]
        prev = p
        r += 1
        if r == m:
            break
    return r, sign * prev if r == n else 0


def int_det(M: IntMatrix) -> int:
    """Exact determinant: closed forms for 2x2 and 3x3, else Bareiss."""
    n = len(M)
    if n == 2:
        (a, b), (c, d) = M
        det = a * d - b * c
    elif n == 3:
        (a, b, c), (d, e, f), (g, h, i) = M
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    else:
        return _bareiss(M)[1]
    # every entry enters a product, so one that is not an int leaves det not an int
    if not isinstance(det, int):
        raise TypeError("matrix entries must be ints")
    return det


def smith_normal_form(M: IntMatrix) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form by repeated Bezout pivoting.

    Returns (U, D, V) with U*M*V = D, U and V unimodular, D diagonal with
    non-negative entries satisfying d1 | d2 | ... .  Total function: any
    integer matrix, including zero and non-square ones, is accepted.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    A = _int_rows(M)
    U = identity(m)
    V = identity(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for r in A:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    for t in range(min(m, n)):
        while True:
            piv = None
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    a = A[i][j]
                    if a != 0 and (best is None or abs(a) < best):
                        piv, best = (i, j), abs(a)
            if piv is None:
                break
            if piv[0] != t:
                swap_rows(t, piv[0])
            if piv[1] != t:
                swap_cols(t, piv[1])
            if A[t][t] < 0:
                negate_row(t)
            p = A[t][t]
            clean = True
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    q = A[i][t] // p
                    if q:
                        add_row(i, t, -q)
                    if A[i][t] != 0:
                        clean = False
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    q = A[t][j] // p
                    if q:
                        add_col(j, t, -q)
                    if A[t][j] != 0:
                        clean = False
            if not clean:
                continue
            # pivot divides its row and column; pull in any entry of the
            # trailing block it does not divide, so the final diagonal chains
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        if A[t][t] == 0:
            break

    D = [[0] * n for _ in range(m)]
    for t in range(min(m, n)):
        D[t][t] = A[t][t]
    return U, D, V


def rank(M: IntMatrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination."""
    return _bareiss(M)[0]


def invariant_factors(M: IntMatrix) -> list[int]:
    """Nonzero diagonal entries of the Smith form, in divisibility order."""
    if not M or not M[0]:
        return []
    _, D, _ = smith_normal_form(M)
    return [D[i][i] for i in range(min(len(D), len(D[0]))) if D[i][i] != 0]


def hermite_normal_form(M: IntMatrix) -> list[list[int]]:
    """Row-style Hermite normal form with zero rows dropped.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    and rows are ordered by pivot column.  The result is the canonical basis
    of the row lattice of M.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    A = _int_rows(M)
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, m):
            while A[i][c] != 0:
                g, x, y = xgcd(A[r][c], A[i][c])
                a, b = A[r][c] // g, A[i][c] // g
                A[r], A[i] = (
                    [x * u + y * v for u, v in zip(A[r], A[i])],
                    [-b * u + a * v for u, v in zip(A[r], A[i])],
                )
        if A[r][c] < 0:
            A[r] = [-x for x in A[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [u - q * v for u, v in zip(A[i], A[r])]
        r += 1
        if r == m:
            break
    return [row for row in A[:r]]


def integer_kernel(M: IntMatrix, ncols: int | None = None) -> list[list[int]]:
    """Canonical basis of the saturated lattice {x in ZZ^n : M x = 0}.

    The basis is returned as HNF rows; an empty list means the kernel is
    trivial.  Pass ncols for a matrix with no rows.
    """
    m = len(M)
    if m == 0:
        if ncols is None:
            raise ValueError("ncols is required for an empty matrix")
        return identity(ncols)
    # the rows of HNF([M^T | I]) that vanish on M^T carry, in their identity
    # part, the Hermite basis of the kernel lattice (Cohen, GTM 138, section 2.4)
    n = len(M[0])
    aug = [[row[i] for row in M] + [int(i == j) for j in range(n)] for i in range(n)]
    return [row[m:] for row in hermite_normal_form(aug) if not any(row[:m])]


def gale_dual(charges: IntMatrix, ncols: int | None = None) -> list[tuple[int, ...]]:
    """Fan rays from a quotient charge matrix.

    For a full-row-rank k x d charge matrix Q this returns d vectors
    v_1..v_d in ZZ^(d-k) with sum_a Q[j][a] * v_a = 0 for every row j.
    The construction is deterministic: the kernel basis of Q is put in
    Hermite normal form and its columns are the rays.  A charge matrix
    whose kernel basis has an imprimitive column (possible for charges
    with a forced divisibility, e.g. (2,2,-2,-1)) is rejected since no
    primitive ray choice can then satisfy the relation exactly.
    """
    k = len(charges)
    d = len(charges[0]) if k else ncols
    if d is None:
        raise ValueError("ncols is required for an empty charge matrix")
    if k:
        if rank(charges) != k:
            raise RankError("charge matrix does not have full row rank")
        for a in range(d):
            if all(charges[j][a] == 0 for j in range(k)):
                raise ValueError(f"charge column {a} is zero")
    basis = integer_kernel(charges, ncols=d)
    rays = [tuple(row[a] for row in basis) for a in range(d)]
    for a, v in enumerate(rays):
        if not is_primitive(v):
            raise ValueError(f"gale dual ray {a} = {v} is not primitive")
    return rays


def unimodular_completion(u: IntVector) -> tuple[list[list[int]], list[list[int]]]:
    """Extend a primitive integer covector to a unimodular matrix.

    Returns (T, T^-1) with |det T| = 1 and first row of T equal to u, so
    that the first coordinate of T @ v equals <u, v> for every v.  T^-1 is
    the column transform V of the Smith form of u, built by the same steps:
    one Euclid pass that moves the entry of least |value| (the first on a
    tie) to the front and floor-divides the others by it until they vanish,
    and a final sign so that u V = (1, 0, .., 0).  The inverse of each
    column step of V is applied to the rows of T.
    """
    if not is_primitive(u):
        raise ValueError(f"{tuple(u)} is not primitive")
    n = len(u)
    r = list(u)  # u V, for the V built so far
    T = identity(n)
    Vt = identity(n)  # the columns of V
    while True:
        j = min((i for i in range(n) if r[i]), key=lambda i: abs(r[i]))
        if j:
            r[0], r[j] = r[j], r[0]
            T[0], T[j] = T[j], T[0]
            Vt[0], Vt[j] = Vt[j], Vt[0]
        p = r[0]
        for j in range(1, n):
            q = r[j] // p
            if q:
                # column j of V -= q column 0, so row 0 of T += q row j
                r[j] -= q * p
                Vt[j] = [a - q * b for a, b in zip(Vt[j], Vt[0])]
                T[0] = [a + q * b for a, b in zip(T[0], T[j])]
        if not any(r[1:]):
            break
    if r[0] < 0:
        Vt[0] = [-a for a in Vt[0]]
        T[0] = [-a for a in T[0]]
    return T, transpose(Vt)
