"""Independent oracles used to pin expected values.

Everything here deliberately avoids the code paths it is used to check:
homology via the Alexander polynomial at 1 instead of pairwise gcds,
volume gradients via finite differences instead of moment formulas,
minimizers via grid search instead of Newton, signatures via Fraction
arithmetic at every lattice point instead of the meet-in-the-middle
count, the integer-relation search on its whole grid at once instead of
block by block, and the Boyer-Galicki-Kollar and Ghigi-Kollar
inequalities in Fractions instead of integers cleared of the
denominator lcm(a), a link verdict through a gcd-normalized weighted
hypersurface and the obstruct-hs checks instead of the integer statuses
on the exponents' own weights, the Ricci tensor by
central finite differences of the metric instead of exact jets, the jet
Ricci tensor by dense numpy contractions instead of a sparse program, the
sparse program by stepping through its tape instead of its compiled
straight-line function, the Y^{p,q} metric jets by Jet arithmetic on
each point instead of the kernel traced from it once, and n = 3
toric volumes and their slice gradients by the Martelli-Sparks-Yau formula
over consecutive normals instead of rays and a triangulation, integer
kernels from the column transform of a Smith form instead of one Hermite
form of [M^T | I], determinants by the Leibniz expansion instead of
closed forms and elimination, cone validation by the general
signed-minor enumerator with a rank test for every normal instead of the
n = 3 cross product and incidence counts, and the volume minimizer of any
cone by scipy root finding on qhull's facets of Delta(xi) instead of
Newton on the pulling triangulation, the unimodular completion of a row
from its Smith form and an adjugate instead of one Euclid pass, and the
Gorenstein covector as a Bezout combination of every kernel row instead
of the one row a validated cone has.  The unimodular equivalence search
and the sampled Bishop => Lichnerowicz implication live here too: they
are checks, not library operations.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
import random
from math import gcd, lcm, prod

import numpy as np

from reebmin import latcore
from reebmin import links as lk
from reebmin import obstruct as ob
from reebmin.cones import GorensteinCone, MomentCone
from reebmin.errors import NonPrimitive, NotQGorenstein, NotStrictlyConvex, RedundantNormal
from reebmin.ypq import ChartPoint, Jet, YpqParams, _components, _ricci_plan


def alexander_invariants(a):
    """(middle Betti number, {prime: exponent of |Delta(1)|}) for a BP link.

    Inclusion-exclusion over coordinate subsets:
    Delta(x) = prod_S (x^{L_S} - 1)^{(-1)^{|S| dropped|} N_S / L_S}, so the
    Betti number is the total multiplicity of the root 1 and |Delta(1)| is
    read off prime by prime from the surviving L_S factors.
    """
    m = len(a)
    primes = set()
    for x in a:
        d, xx = 2, x
        while d * d <= xx:
            if xx % d == 0:
                primes.add(d)
                while xx % d == 0:
                    xx //= d
            d += 1
        if xx > 1:
            primes.add(xx)
    betti = 0
    exps = dict.fromkeys(primes, 0)
    for r in range(m + 1):
        for keep in combinations(range(m), r):
            sign = (-1) ** (m - r)
            vals = [a[i] for i in keep]
            big_n = prod(vals) if vals else 1
            big_l = lcm(*vals) if vals else 1
            betti += sign * (big_n // big_l)
            for p in primes:
                v, rest = 0, big_l
                while rest % p == 0:
                    v += 1
                    rest //= p
                exps[p] += sign * (big_n // big_l) * v
    return betti, {p: e for p, e in exps.items() if e}


def homology_by_alexander(a):
    betti, torsion = alexander_invariants(a)
    if betti:
        return "other"
    return "integral_sphere" if not torsion else "rational_sphere"


def signature_by_fractions(a):
    """Milnor-fibre signature by direct Fraction arithmetic mod 2.

    Any exponents; a point whose sum is an integer counts on neither side.
    """
    plus = minus = 0
    fractions = [[Fraction(xi, ai) for xi in range(1, ai)] for ai in a]
    for point in product(*fractions):
        t = sum(point, Fraction(0)) % 2
        if 0 < t < 1:
            plus += 1
        elif 1 < t < 2:
            minus += 1
    return plus - minus


def bgk_by_fractions(a):
    """First failed Boyer-Galicki-Kollar condition (1, 2 or 3), or None.

    (1) s > 1, (2) s < 1 + n/((n-1) max a), (3) s < 1 + n/((n-1) max b_i b_j)
    with s = sum 1/a_i, n = len(a) - 1, b_i = gcd(a_i, lcm of the others).
    """
    m = len(a)
    n = m - 1
    s = sum((Fraction(1, x) for x in a), Fraction(0))
    if not s > 1:
        return 1
    if not s < 1 + Fraction(n, n - 1) * min(Fraction(1, x) for x in a):
        return 2
    bs = [gcd(a[i], lcm(*(a[j] for j in range(m) if j != i))) for i in range(m)]
    bmax = max(bi * bj for bi, bj in combinations(bs, 2))
    if not s < 1 + Fraction(n, (n - 1) * bmax):
        return 3
    return None


def gk_by_fractions(a):
    """Ghigi-Kollar 1 < s < 1 + n/max a for pairwise coprime exponents."""
    if any(gcd(x, y) > 1 for x, y in combinations(a, 2)):
        return "not_applicable"
    n = len(a) - 1
    s = sum((Fraction(1, x) for x in a), Fraction(0))
    return "pass" if 1 < s < 1 + Fraction(n, max(a)) else "fail"


def link_verdict_by_hypersurface(a):
    """link_verdict(a).to_dict() composed as before the integer statuses.

    Bishop and Lichnerowicz come from bishop_check and lichnerowicz_check
    on WeightedHS(d/a_i; d), the path of an obstruct-hs job.
    """
    e = lk.bp(a)
    fano = lk.fano_check(e)
    bgk = lk.bgk_check(e)
    gk = lk.gk_check(e)
    bishop = lich = None
    if fano:
        hs = ob.WeightedHS(weights=e.weights, degree=e.degree)
        bishop = ob.bishop_check(hs)
        lich = ob.lichnerowicz_check(hs).status
    if bgk.passed:
        outcome, reason = lk.EXISTS, "bgk"
    elif gk == lk.GK_PASS:
        outcome, reason = lk.EXISTS, "gk"
    elif gk == lk.GK_FAIL:
        # the GK condition is an iff for pairwise coprime exponents
        outcome, reason = lk.OBSTRUCTED, "gk"
    elif not fano:
        outcome, reason = lk.OBSTRUCTED, "fano"
    elif bishop == "obstructed":
        outcome, reason = lk.OBSTRUCTED, "bishop"
    elif lich == "obstructed":
        outcome, reason = lk.OBSTRUCTED, "lichnerowicz"
    else:
        outcome, reason = lk.INCONCLUSIVE, None
    return {
        "exponents": list(e.a),
        "fano": fano,
        "homology_type": lk.homology_classify(e),
        "bgk": "pass" if bgk.passed else f"fail({bgk.failed_condition})",
        "gk": gk,
        "bishop": bishop,
        "lichnerowicz": lich,
        "outcome": outcome,
        "reason": reason,
    }


def fd_volume_gradient(vol_fn, xi, h=1e-5):
    """Central finite differences of a volume callable at a float point."""
    xi = [float(x) for x in xi]
    grad = []
    for i in range(len(xi)):
        up = list(xi)
        dn = list(xi)
        up[i] += h
        dn[i] -= h
        grad.append((vol_fn(up) - vol_fn(dn)) / (2 * h))
    return grad


def christoffel_fd(metric, x, h):
    """Gamma^k_{ij} by central differences of the metric components."""
    dim = len(x)
    ginv = np.linalg.inv(metric(x))
    dg = np.empty((dim, dim, dim))
    for l in range(dim):
        xp, xm = x.copy(), x.copy()
        xp[l] += h
        xm[l] -= h
        dg[l] = (metric(xp) - metric(xm)) / (2.0 * h)
    # S[l,i,j] = d_i g_{lj} + d_j g_{li} - d_l g_{ij}
    s = np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg
    return 0.5 * np.einsum("kl,lij->kij", ginv, s)


def ricci_fd_metric(metric, x, h):
    """Ricci tensor of an arbitrary metric function, second-order central FD."""
    dim = len(x)
    gamma = christoffel_fd(metric, x, h)
    dgamma = np.empty((dim, dim, dim, dim))
    for a in range(dim):
        xp, xm = x.copy(), x.copy()
        xp[a] += h
        xm[a] -= h
        dgamma[a] = (christoffel_fd(metric, xp, h) - christoffel_fd(metric, xm, h)) / (2.0 * h)
    term1 = np.einsum("kkij->ij", dgamma)
    term2 = np.einsum("jkki->ij", dgamma)
    contracted = np.einsum("kkl->l", gamma)
    term3 = np.einsum("l,lij->ij", contracted, gamma)
    term4 = np.einsum("rjl,lri->ij", gamma, gamma)
    ric = term1 - term2 + term3 - term4
    return 0.5 * (ric + ric.T)


def ricci_from_jets_dense(components: dict, dim: int, slots: tuple[int, int]):
    """Ricci tensor, a dim x dim numpy array, from the second-order jets of
    the metric components.

    components maps (i, j), i <= j, to a Jet or a float; the two jet
    variables are the coordinates slots[0] and slots[1], and no component
    depends on any other coordinate.  Gamma comes from g^-1 and dg, dGamma
    from d(g^-1) = -g^-1 (dg) g^-1, all exact up to rounding.
    """
    g = np.zeros((dim, dim))
    dg = np.zeros((dim, dim, dim))             # dg[l, i, j] = d_l g_ij
    ddg = np.zeros((dim, dim, dim, dim))       # ddg[a, l, i, j] = d_a d_l g_ij
    s0, s1 = slots
    for (i, j), t in components.items():
        if not isinstance(t, Jet):
            t = Jet(t)
        for (k, l) in ((i, j), (j, i)):
            g[k, l] = t.v
            dg[s0, k, l], dg[s1, k, l] = t.d
            ddg[s0, s0, k, l], ddg[s0, s1, k, l], ddg[s1, s1, k, l] = t.h
            ddg[s1, s0, k, l] = t.h[1]
    ginv = np.linalg.inv(g)
    # S[l,i,j] = d_i g_{lj} + d_j g_{li} - d_l g_{ij}, and its derivatives
    s = np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg
    ds = np.einsum("ailj->alij", ddg) + np.einsum("ajli->alij", ddg) - ddg
    dginv = -np.einsum("km,amn,nl->akl", ginv, dg, ginv)
    gamma = 0.5 * np.einsum("kl,lij->kij", ginv, s)
    dgamma = 0.5 * (np.einsum("akl,lij->akij", dginv, s)
                    + np.einsum("kl,alij->akij", ginv, ds))
    term1 = np.einsum("kkij->ij", dgamma)
    term2 = np.einsum("jkki->ij", dgamma)
    contracted = np.einsum("kkl->l", gamma)
    term3 = np.einsum("l,lij->ij", contracted, gamma)
    term4 = np.einsum("rjl,lri->ij", gamma, gamma)
    ric = term1 - term2 + term3 - term4
    return 0.5 * (ric + ric.T)


def metric_jets(Y: YpqParams, x: ChartPoint) -> dict:
    """The components of metric_eval as jets in (theta, y) at x."""
    theta = Jet(x.theta, (1.0, 0.0))
    return _components(Y, x, Jet(x.y, (0.0, 1.0)), theta.cos(), theta.sin())


def ricci_by_tape(components: dict, dim: int, slots: tuple[int, int]):
    """ypq.ricci_from_jets by interpreting the program of ypq._ricci_plan
    one step at a time: each sum is a running total over the plan's
    products, which the compiled kernel must reproduce bit for bit."""
    program, ricci = _ricci_plan(tuple(components), dim, tuple(slots))
    t = [1, 2]
    for c in components.values():
        if not isinstance(c, Jet):
            c = Jet(c, (c * 0,) * 2, (c * 0,) * 3)
        t += (c.v, *c.d, *c.h)
    zero = t[2] * 0
    for plus, minus in program:
        if plus is None:
            t.append(1 / t[minus])
            continue
        s = zero
        for a, b in plus:
            s += t[a] * t[b]
        for a, b in minus:
            s -= t[a] * t[b]
        t.append(s)
    return tuple(tuple(zero if e is None else t[e] / 4 for e in row) for row in ricci)


def grid_minimize(vol_fn, seed_xi, half_width, steps=41):
    """Brute-force grid search around a point on the slice xi_0 = const.

    Scans a cube of the free coordinates, skipping points outside the
    domain (vol_fn raises there); returns (best_xi, best_val).
    """
    n = len(seed_xi)
    axes = [
        [seed_xi[i] + half_width * (2 * t / (steps - 1) - 1) for t in range(steps)]
        for i in range(1, n)
    ]
    best, best_xi = None, None
    for free in product(*axes):
        xi = [seed_xi[0], *free]
        try:
            v = vol_fn(xi)
        except Exception:
            continue
        if best is None or v < best:
            best, best_xi = v, xi
    return best_xi, best


def random_unimodular(n, rng, shears=8):
    """Random element of GL(n, Z) with |det| = 1 from elementary shears/swaps."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n == 1:
        return [[rng.choice([-1, 1])]]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += c * m[j][k]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
    return m


def primitive(v):
    """v divided by the gcd of its entries; the zero vector unchanged."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def cyclic_order(normals):
    """Height-basis normals (1, w_a) sorted by the angle of w_a about their mean."""
    cx = sum(v[1] for v in normals) / len(normals)
    cy = sum(v[2] for v in normals) / len(normals)
    return sorted(normals, key=lambda v: np.arctan2(v[2] - cy, v[1] - cx))


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
        num = _dot(u, _cross3(v, w))
        total += Fraction(num) / (_dot(b, _cross3(u, v)) * _dot(b, _cross3(v, w)))
    return abs(total / b[0])


def msy_slice_gradient(normals, b):
    """Exact d(msy_volume)/d(b_2, .., b_n) at fixed b_1, as Fractions."""
    b = [Fraction(x) for x in b]
    d = len(normals)
    grad = [Fraction(0)] * (len(b) - 1)
    total = Fraction(0)
    for a in range(d):
        u, v, w = normals[a - 1], normals[a], normals[(a + 1) % d]
        num = _dot(u, _cross3(v, w))
        c1, c2 = _cross3(u, v), _cross3(v, w)
        d1, d2 = _dot(b, c1), _dot(b, c2)
        total += num / (d1 * d2)
        for i in range(1, len(b)):
            grad[i - 1] -= num * (c1[i] * d2 + d1 * c2[i]) / (d1 * d2) ** 2
    sign = 1 if total >= 0 else -1
    return [sign * g / b[0] for g in grad]


def integer_kernel_by_smith(M):
    """Hermite basis of {x in ZZ^n : M x = 0} for a matrix with rows: the
    last n - r columns of the Smith transform V span the kernel, and their
    Hermite form is its canonical basis."""
    m, n = len(M), len(M[0])
    _, D, V = latcore.smith_normal_form(M)
    r = sum(1 for i in range(min(m, n)) if D[i][i] != 0)
    basis = [[V[i][j] for i in range(n)] for j in range(r, n)]
    if not basis:
        return []
    return latcore.hermite_normal_form(basis)


def leibniz_det(M):
    """det M as the signed sum over all permutations."""
    n = len(M)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        total += (-1) ** inversions * prod(M[i][perm[i]] for i in range(n))
    return total


def _cross_by_minors(rows, n):
    return tuple(
        (-1) ** j * leibniz_det([row[:j] + row[j + 1:] for row in rows])
        for j in range(n)
    )


def _extreme_rays_by_minors(ineqs, n):
    ineqs = [tuple(w) for w in ineqs]
    seen = set()
    rays = set()
    for subset in combinations(ineqs, n - 1):
        z = _cross_by_minors([list(w) for w in subset], n)
        if not any(z):
            continue
        z = primitive(z)
        # one sign per line, so a line cut out by several subsets is tested once
        if next(x for x in z if x) < 0:
            z = tuple(-x for x in z)
        if z in seen:
            continue
        seen.add(z)
        lo = hi = 0
        for w in ineqs:
            p = _dot(z, w)
            lo, hi = min(lo, p), max(hi, p)
            if lo < 0 < hi:
                break
        else:
            rays.add(z if lo == 0 else tuple(-x for x in z))
    return tuple(sorted(rays))


def validate_cone_by_minors(normals):
    """The rays of the cone the normals cut out, or the error validate_cone
    raises: the general signed-minor enumerator for every n, and a rank
    test of the tight rays of every normal."""
    vs = [tuple(int(x) for x in v) for v in normals]
    if not vs:
        raise NotStrictlyConvex("no normals given")
    n = len(vs[0])
    if any(len(v) != n for v in vs):
        raise ValueError("normals of mixed dimension")
    for i, v in enumerate(vs):
        if not latcore.is_primitive(v):
            raise NonPrimitive(i)
    if latcore.rank(vs) < n:
        raise NotStrictlyConvex("normals do not span; the cone contains a line")
    rays = _extreme_rays_by_minors(vs, n)
    if not rays or latcore.rank(rays) < n:
        raise NotStrictlyConvex("empty interior: the cone is not full-dimensional")
    counts = Counter(vs)
    for i, v in enumerate(vs):
        tight = [r for r in rays if _dot(r, v) == 0]
        if counts[v] > 1 or latcore.rank(tight) < n - 1:
            raise RedundantNormal(i)
    return rays


def matmul(A, B):
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def adjugate(M):
    """Transposed cofactor matrix, so that adj(M) M = M adj(M) = det(M) I."""
    n = len(M)
    rows = [list(row) for row in M]
    return [
        [
            (-1) ** (i + j) * latcore.int_det([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def unimodular_completion_by_smith(u):
    """(T, T^-1) for a primitive covector u: T^-1 is the column transform V
    of the Smith form of the row u, its first column negated when
    u V = (-1, 0, .., 0), and T = det(V) adj(V)."""
    n = len(u)
    _, _, V = latcore.smith_normal_form([list(u)])
    w = latcore.matvec(latcore.transpose(V), list(u))  # u as a row times V
    if w[0] == -1:
        for row in V:
            row[0] = -row[0]
        w = latcore.matvec(latcore.transpose(V), list(u))
    assert w == [1] + [0] * (n - 1)
    det = latcore.int_det(V)
    assert det in (1, -1)
    T = [[det * x for x in row] for row in adjugate(V)]
    assert T[0] == list(u)
    return T, V


def gorenstein_by_bezout(cone):
    """cones.gorenstein_normalize on every kernel row: the covector is the
    Bezout combination of the kernel rows with the least positive height,
    completed by unimodular_completion_by_smith."""
    vs = cone.normals
    n = cone.n
    diffs = [[v[i] - vs[0][i] for i in range(n)] for v in vs[1:]]
    kernel = latcore.integer_kernel(diffs, ncols=n) if diffs else latcore.identity(n)
    if not kernel:
        raise NotQGorenstein("normals lie on no common hyperplane <u, .> = ell")
    heights = [_dot(k, vs[0]) for k in kernel]
    if all(h == 0 for h in heights):
        raise NotQGorenstein("every admissible covector annihilates the normals")
    g, coeffs = heights[0], [1] + [0] * (len(kernel) - 1)
    for j in range(1, len(kernel)):
        g, x, y = latcore.xgcd(g, heights[j])
        coeffs = [x * c for c in coeffs]
        coeffs[j] += y
    u = tuple(sum(c * k[i] for c, k in zip(coeffs, kernel)) for i in range(n))
    if _dot(u, vs[0]) < 0:
        u = tuple(-x for x in u)
        g = -g
    ell = _dot(u, vs[0])
    assert ell == abs(g) >= 1
    T, T_inv = unimodular_completion_by_smith(u)
    new_normals = tuple(tuple(latcore.matvec(T, v)) for v in vs)
    assert all(v[0] == ell for v in new_normals)
    T_inv_t = latcore.transpose(T_inv)
    new_rays = tuple(sorted(tuple(latcore.matvec(T_inv_t, r)) for r in cone.rays))
    return GorensteinCone(
        ell=ell,
        basis_change=tuple(tuple(row) for row in T),
        cone=MomentCone(n=n, normals=new_normals, rays=new_rays),
    )


def unimodular_match(vectors_a, vectors_b):
    """A unimodular T mapping one vector set bijectively onto another, or None.

    Brute force over images of a maximal independent subset; fine at the
    handful-of-rays scale used here.
    """
    A = [tuple(v) for v in vectors_a]
    B = [tuple(v) for v in vectors_b]
    if len(A) != len(B) or not A:
        return None
    n = len(A[0])
    picked = []
    for v in A:
        if latcore.rank([list(u) for u in picked + [v]]) > len(picked):
            picked.append(v)
        if len(picked) == n:
            break
    if len(picked) < n:
        return None
    a_cols = latcore.transpose([list(v) for v in picked])
    # T = B A^-1 = B adj(A) / det(A), integral iff det(A) divides B adj(A)
    a_det = latcore.int_det(a_cols)
    a_adj = adjugate(a_cols)
    for image in permutations(B, n):
        T = matmul(latcore.transpose([list(v) for v in image]), a_adj)
        if any(x % a_det for row in T for x in row):
            continue
        T = [[x // a_det for x in row] for row in T]
        if abs(latcore.int_det(T)) != 1:
            continue
        if sorted(tuple(latcore.matvec(T, list(v))) for v in A) == sorted(B):
            return T
    return None


def bishop_implies_lich_property(n_samples, seed):
    """Sampled check that a Bishop violation forces a Lichnerowicz violation.

    Real-valued weights (the theorem holds for positive reals), n drawn from
    3, 4, 5 and n + 1 weights from [0.05, 10]: whenever d(|w|-d)^n > w n^n
    with 0 < d < |w|, the check wants |w| - d > n w_min.  Returns the number
    of Bishop-obstructed samples and the counterexamples; there must be none.
    """
    rng = random.Random(seed)
    bad = []
    hits = 0
    for _ in range(n_samples):
        n = rng.choice((3, 4, 5))
        w = [rng.uniform(0.05, 10.0) for _ in range(n + 1)]
        d = rng.uniform(1e-6, sum(w) * (1 - 1e-9))
        excess = sum(w) - d
        if d * excess**n > prod(w) * n**n:
            hits += 1
            if not excess > n * min(w):
                bad.append((w, d))
    return hits, bad


def qhull_centroid(rays, xi):
    """The centroid of Delta(xi), the hull of the origin and each ray r at
    r / (2 <r, xi>).  qhull triangulates the facets; each facet simplex,
    coned from the origin, weighs |det| with the mean of its n vertices and
    the origin."""
    from scipy.spatial import ConvexHull

    n = len(xi)
    pts = np.array([[0.0] * n] + [[x / (2 * _dot(r, xi)) for x in r] for r in rays])
    weights, centres = [], []
    for simplex in ConvexHull(pts).simplices:
        weights.append(abs(np.linalg.det(pts[simplex])))
        centres.append(pts[simplex].sum(axis=0) / (n + 1))
    return np.average(centres, axis=0, weights=weights)


def minimize_volume_by_qhull(rays, seed):
    """The minimizer of vol(Delta(xi)) on the slice xi_0 = seed[0].

    d vol / d xi = -2 (n + 1) vol times the centroid of Delta(xi), so on the
    slice the minimizer is the root of the centroid's coordinates 1..n-1,
    which scipy finds from the seed."""
    from scipy.optimize import root

    def centroid_off_axis(free):
        return qhull_centroid(rays, [seed[0], *free])[1:]

    sol = root(centroid_off_axis, list(seed[1:]), method="hybr", options={"xtol": 1e-14})
    assert sol.success, sol.message
    return [float(seed[0]), *sol.x]
