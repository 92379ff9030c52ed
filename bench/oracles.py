"""Independent oracles for the benchmark's report checks.

Nothing here imports reebmin.  Each oracle reaches its answer by a route
the program does not take:

- toric volumes from the Martelli-Sparks-Yau formula (n = 3, no rays, no
  triangulation) and from a halfspace intersection measured by qhull (n = 4);
- Y^{p,q} data from the Gauntlett-Martelli-Sparks-Waldram closed forms;
- link homology from the Alexander polynomial at 1 (Milnor-Orlik divisor
  calculus) instead of the gcd graph;
- Fano, BGK, GK, Bishop and Lichnerowicz as integer inequalities with every
  denominator cleared;
- pi_1 from the gcd of the maximal minors instead of a Smith form;
- Milnor-fibre signatures from a residue-count convolution instead of a
  walk over the lattice points.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod


# --- exact linear algebra over Q -------------------------------------------


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


def rank(rows) -> int:
    a = [[Fraction(x) for x in r] for r in rows]
    r = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def matvec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def pi1_order(normals) -> int:
    """|Z^n / span(normals)| as the gcd of the maximal minors (0 if infinite)."""
    n = len(normals[0])
    g = 0
    for rows in combinations(normals, n):
        g = gcd(g, int(det(rows)))
    return g


# --- toric volumes ----------------------------------------------------------


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def msy_volume(normals, b):
    """Martelli-Sparks-Yau vol(Y)/vol(S^5) of a toric CY3 cone at Reeb vector b.

    normals are the inward normals (1, w_a) of the height basis in cyclic
    order; exact for exact b.  The sign of the cyclic orientation cancels
    in the absolute value.
    """
    d = len(normals)
    total = 0
    for a in range(d):
        u, v, w = normals[a - 1], normals[a], normals[(a + 1) % d]
        num = det([u, v, w])
        total += num / (_dot(b, _cross(u, v)) * _dot(b, _cross(v, w)))
    return abs(total / b[0])


def msy_slice_gradient(normals, b):
    """Exact d(msy_volume)/d(b_2, .., b_n) at fixed b_1, as Fractions."""
    b = [Fraction(x) for x in b]
    d = len(normals)
    grad = [Fraction(0)] * (len(b) - 1)
    total = Fraction(0)
    for a in range(d):
        u, v, w = normals[a - 1], normals[a], normals[(a + 1) % d]
        num = det([u, v, w])
        c1, c2 = _cross(u, v), _cross(v, w)
        d1, d2 = _dot(b, c1), _dot(b, c2)
        total += num / (d1 * d2)
        for i in range(1, len(b)):
            grad[i - 1] -= num * (c1[i] * d2 + d1 * c2[i]) / (d1 * d2) ** 2
    sign = 1 if total >= 0 else -1
    return [sign * g / b[0] for g in grad]


def central_gradient(fn, x, h):
    """Central differences of fn in every coordinate but the first."""
    out = []
    for i in range(1, len(x)):
        up, dn = list(x), list(x)
        up[i] += h
        dn[i] -= h
        out.append((fn(up) - fn(dn)) / (2 * h))
    return out


def qhull_volume(normals, xi):
    """2^n n! vol{y : <y, v_a> >= 0, <y, xi> <= 1/2} by halfspace intersection."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    n = len(xi)
    hs = [[-float(c) for c in v] + [0.0] for v in normals]
    hs.append([float(c) for c in xi] + [-0.5])
    hs = np.array(hs)
    # Chebyshev centre: the deepest interior point, needed by qhull
    norms = np.linalg.norm(hs[:, :-1], axis=1)
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    lp = linprog(cost, A_ub=np.hstack([hs[:, :-1], norms[:, None]]), b_ub=-hs[:, -1],
                 bounds=[(None, None)] * n + [(0, None)])
    if not lp.success or lp.x[-1] <= 0:
        raise ValueError("xi is not interior to the dual cone")
    pts = HalfspaceIntersection(hs, lp.x[:-1]).intersections
    return 2**n * math.factorial(n) * ConvexHull(pts).volume


# --- Y^{p,q} -----------------------------------------------------------------


def gmsw_volume(p, q) -> float:
    """vol(Y^{p,q})/vol(S^5) = q^2 (2p + sqrt D) / (3 p^2 (3q^2 - 2p^2 + p sqrt D))."""
    s = math.sqrt(4 * p * p - 3 * q * q)
    return q * q * (2 * p + s) / (3 * p * p * (3 * q * q - 2 * p * p + p * s))


def ypq_a(p, q) -> float:
    return 0.5 - (p * p - 3 * q * q) * math.sqrt(4 * p * p - 3 * q * q) / (4 * p**3)


def ypq_roots(p, q) -> tuple[float, float, float]:
    """Roots y1 < y2 < y3 of 2y^3 - 3y^2 + a in closed form."""
    s = math.sqrt(4 * p * p - 3 * q * q)
    y1 = (2 * p - 3 * q - s) / (4 * p)
    y2 = (2 * p + 3 * q - s) / (4 * p)
    return y1, y2, 1.5 - y1 - y2


def is_square(x: int) -> bool:
    return x >= 0 and math.isqrt(x) ** 2 == x


# --- Brieskorn-Pham links ---------------------------------------------------


def _primes(x):
    out, d = set(), 2
    while d * d <= x:
        while x % d == 0:
            out.add(d)
            x //= d
        d += 1
    if x > 1:
        out.add(x)
    return out


def alexander_homology(a) -> str:
    """Homology type from Delta(1), Delta the link's Alexander polynomial.

    The divisor of Delta is prod_i (Lambda_{a_i} - 1) with
    Lambda_x Lambda_y = gcd(x, y) Lambda_{lcm(x, y)}; the middle Betti number
    is the multiplicity of the root 1 and |Delta(1)| = prod_p p^{e_p}, where
    e_p counts the cyclotomic factors Phi_{p^k}.
    """
    m = len(a)
    primes = set().union(*(_primes(x) for x in a))
    betti = 0
    exps = dict.fromkeys(primes, 0)
    for r in range(m + 1):
        for sub in combinations(a, r):
            sign = -1 if (m - r) % 2 else 1
            big_l = lcm(*sub) if sub else 1
            mult = sign * (prod(sub) // big_l)
            betti += mult
            for p in primes:
                k, rest = 0, big_l
                while rest % p == 0:
                    k += 1
                    rest //= p
                exps[p] += mult * k
    if betti:
        return "other"
    return "integral_sphere" if not any(exps.values()) else "rational_sphere"


def _hs_data(weights, degree):
    g = 0
    for w in weights:
        g = gcd(g, w)
    weights = [w // g for w in weights]
    return weights, degree // g


def hs_oracle(weights, degree) -> dict:
    """Bishop, Lichnerowicz and volume of a Fano weighted hypersurface, in integers."""
    w, d = _hs_data(weights, degree)
    n = len(w) - 1
    excess = sum(w) - d
    if excess <= 0:
        raise ValueError("not Fano")
    wprod = prod(w)
    wmin = min(w)
    lam = Fraction(n * wmin, excess)
    if n * wmin < excess:
        lich = "obstructed"
    elif n * wmin == excess:
        lich = "unobstructed-marginal"
    else:
        lich = "unobstructed"
    return {
        "weights": w,
        "degree": d,
        "normalized_volume": Fraction(d * excess**n, wprod * n**n),
        "volume": 2 * d / (wprod * math.factorial(n - 1)) * (math.pi * excess / n) ** n,
        "bishop": "obstructed" if d * excess**n > wprod * n**n else "unobstructed",
        "lichnerowicz": {"status": lich, "witness_index": w.index(wmin),
                         "charge": lam, "eigenvalue": lam * (lam + 2 * (n - 1))},
    }


def link_oracle(a) -> dict:
    """The full link verdict with every inequality cleared of denominators."""
    a = list(a)
    m = len(a)
    n = m - 1
    L = lcm(*a)
    S = sum(L // x for x in a)  # L * sum 1/a_i
    fano = S > L
    b = [gcd(a[i], lcm(*(a[j] for j in range(m) if j != i))) for i in range(m)]
    bmax = max(b[i] * b[j] for i, j in combinations(range(m), 2))
    if not fano:
        bgk = "fail(1)"
    elif not (n - 1) * max(a) * S < (n - 1) * max(a) * L + n * L:
        bgk = "fail(2)"
    elif not (n - 1) * bmax * S < (n - 1) * bmax * L + n * L:
        bgk = "fail(3)"
    else:
        bgk = "pass"
    if any(gcd(x, y) > 1 for x, y in combinations(a, 2)):
        gk = "not_applicable"
    else:
        gk = "pass" if L < S and max(a) * S < max(a) * L + n * L else "fail"
    bishop = lich = None
    if fano:
        hs = hs_oracle([L // x for x in a], L)
        bishop, lich = hs["bishop"], hs["lichnerowicz"]["status"]
    if bgk == "pass":
        outcome, reason = "exists", "bgk"
    elif gk == "pass":
        outcome, reason = "exists", "gk"
    elif gk == "fail":
        outcome, reason = "obstructed", "gk"
    elif not fano:
        outcome, reason = "obstructed", "fano"
    elif bishop == "obstructed":
        outcome, reason = "obstructed", "bishop"
    elif lich == "obstructed":
        outcome, reason = "obstructed", "lichnerowicz"
    else:
        outcome, reason = "inconclusive", None
    return {
        "exponents": a, "fano": fano, "homology_type": alexander_homology(a),
        "bgk": bgk, "gk": gk, "bishop": bishop, "lichnerowicz": lich,
        "outcome": outcome, "reason": reason,
    }


PREDICATE_ORACLES = {
    "bgk": lambda v: v["bgk"] == "pass",
    "bgk-fail": lambda v: v["bgk"] != "pass",
    "gk": lambda v: v["gk"] == "pass",
    "gk-fail": lambda v: v["gk"] == "fail",
    "fano": lambda v: v["fano"],
    "integral": lambda v: v["homology_type"] == "integral_sphere",
    "rational": lambda v: v["homology_type"] != "other",
    "exists": lambda v: v["outcome"] == "exists",
    "obstructed": lambda v: v["outcome"] == "obstructed",
}


def predicate_holds(spec: str, verdict: dict) -> bool:
    return all(PREDICATE_ORACLES[p](verdict) for p in spec.split("+"))


def signature(a) -> int:
    """Milnor-fibre signature by convolving per-exponent residue counts.

    tau = #{x : 0 < sum x_i/a_i < 1 mod 2} - #{x : 1 < sum x_i/a_i < 2 mod 2}
    over 0 < x_i < a_i; the sum is carried as a residue mod 2L.
    """
    L = lcm(*a)
    dist = {0: 1}
    for x in a:
        step = L // x
        nxt = {}
        for r, c in dist.items():
            for j in range(1, x):
                s = (r + j * step) % (2 * L)
                nxt[s] = nxt.get(s, 0) + c
        dist = nxt
    return sum(c for r, c in dist.items() if 0 < r < L) - sum(
        c for r, c in dist.items() if L < r < 2 * L)


def gale_ok(charges, rays) -> bool:
    """sum_a Q_a v_a = 0 for every charge row, primitive rays spanning d - k."""
    k = len(charges)
    dim = len(rays[0])
    if dim != len(rays) - k or rank(rays) != dim:
        return False
    if any(math.gcd(*v) != 1 for v in rays):
        return False
    return all(
        all(sum(row[a] * rays[a][i] for a in range(len(rays))) == 0 for i in range(dim))
        for row in charges
    )
