"""Volume functional on the space of Reeb vectors and its minimization.

The characteristic polytope Delta(xi) = C* cut by <y, xi> <= 1/2 is a cone
from the origin over the compact slice H(xi).  On each simplicial piece of
the cone's triangulation (rays u_j, pairings q_j = <u_j, xi>) the cut
vertices are p_j = u_j / (2 q_j) and, with Dp = |det u| / prod(2 q_j),

    vol    contribution:  Dp / n!
    d vol / d xi:        -(2 Dp / n!) * sum_j p_j
    d2 vol / d xi2:       (4 Dp / n!) * (S S^T + sum_j p_j p_j^T),  S = sum_j p_j

These closed forms are the per-simplex moment integrals of 1, y_i and
y_i y_j over H(xi); they are exact in Fraction arithmetic and power the
exact volume and the float Newton iteration.  Certification clears the
gradient's denominators and tests an integer numerator.  The Riemannian
volume is pinned by the flat model: on the height-n slice
vol(S, g) = 2 n (2 pi)^n vol(Delta), so the flat cone gives exactly
vol(S^(2n-1)) = 2 pi^n / (n-1)!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import cones as _cones
from .errors import (
    BoundaryPoint,
    ConvergenceFailure,
    NotGorenstein,
    ReebNotInterior,
)
from .latcore import dot

GRAD_TOL = 1e-10
# denominator bounds of the continued-fraction candidates certification tries
DEN_BOUNDS = (1000, 10**6)


@dataclass(frozen=True)
class ReebVector:
    xi: tuple
    exact: bool


def reeb_vector(xi) -> ReebVector:
    vals = tuple(xi.xi if isinstance(xi, ReebVector) else xi)
    exact = all(isinstance(x, (int, Fraction)) for x in vals)
    return ReebVector(xi=vals, exact=exact)


def _xi_tuple(xi):
    vals = xi.xi if isinstance(xi, ReebVector) else tuple(xi)
    # exact entries stay exact: plain ints would otherwise fall into float
    # division further down
    return tuple(Fraction(v) if isinstance(v, int) else v for v in vals)


def _resolve(cone):
    """Accept a MomentCone or a GorensteinCone (then: its height basis)."""
    if isinstance(cone, _cones.GorensteinCone):
        return cone.cone
    return cone


def _pairings(cone, xi):
    rays = cone.rays
    pair = [dot(r, xi) for r in rays]
    if any(p <= 0 for p in pair):
        raise ReebNotInterior(f"xi = {tuple(xi)} is not interior to the dual cone")
    return rays, pair


def _moments(cone, xi, order=0):
    """(vol, grad, hess) of vol(Delta(xi)); grad/hess only up to `order`.

    Arithmetic follows the type of xi: Fractions in, Fractions out.
    """
    cone = _resolve(cone)
    xi = _xi_tuple(xi)
    n = cone.n
    rays, pair = _pairings(cone, xi)
    cut = [tuple(r[i] / (2 * p) for i in range(n)) for r, p in zip(rays, pair)]
    fact = math.factorial(n)
    zero = 0 * xi[0]
    vol = zero
    grad = [zero] * n if order >= 1 else None
    hess = [[zero] * n for _ in range(n)] if order >= 2 else None
    for simplex, det_u in zip(_cones.triangulation(cone), cone.simplex_dets):
        denom = 1
        for j in simplex:
            denom = denom * (2 * pair[j])
        dp = det_u / denom
        vol = vol + dp / fact
        if order >= 1:
            s = [zero] * n
            for j in simplex:
                for i in range(n):
                    s[i] = s[i] + cut[j][i]
            c1 = 2 * dp / fact
            for i in range(n):
                grad[i] = grad[i] - c1 * s[i]
            if order >= 2:
                c2 = 4 * dp / fact
                for i in range(n):
                    for k in range(i, n):
                        acc = s[i] * s[k]
                        for j in simplex:
                            acc = acc + cut[j][i] * cut[j][k]
                        hess[i][k] = hess[i][k] + c2 * acc
    if order >= 2:
        for i in range(n):
            for k in range(i):
                hess[i][k] = hess[k][i]
    return vol, grad, hess


@dataclass(frozen=True)
class ReebPolytope:
    """Exact vertex description of Delta(xi) = C* cut at <y, xi> = 1/2.

    vertices[0] is the origin; vertices[1 + j] is extreme ray j of C*
    scaled onto the characteristic hyperplane.  facets lists the vertex
    index sets of the cone facets (one per normal, in order) followed by
    the characteristic facet H(xi).
    """

    cone: _cones.MomentCone
    xi: tuple
    vertices: tuple
    facets: tuple
    exact: bool


def reeb_polytope(cone, xi) -> ReebPolytope:
    c = _resolve(cone)
    rv = reeb_vector(xi)
    vals = _xi_tuple(rv.xi)
    n = c.n
    rays, pair = _pairings(c, vals)
    verts = [tuple([0 * vals[0]] * n)]
    verts += [tuple(r[i] / (2 * p) for i in range(n)) for r, p in zip(rays, pair)]
    facets = []
    for v in c.normals:
        facets.append(tuple([0] + [1 + j for j, r in enumerate(rays) if dot(r, v) == 0]))
    facets.append(tuple(range(1, len(rays) + 1)))
    return ReebPolytope(
        cone=c, xi=vals, vertices=tuple(verts), facets=tuple(facets), exact=rv.exact
    )


def polytope_volume(p: ReebPolytope):
    """Euclidean volume of Delta(xi), exact when the polytope is exact."""
    vol, _, _ = _moments(p.cone, p.xi, order=0)
    return vol


def sphere_volume(n: int) -> float:
    """Riemannian volume of the round unit S^(2n-1)."""
    return 2 * math.pi**n / math.factorial(n - 1)


def _height(cone, xi):
    """<e1, xi> in the height basis, i.e. <u, xi> for the Gorenstein covector."""
    xi = _xi_tuple(xi)
    if isinstance(cone, _cones.GorensteinCone):
        return xi[0]
    return dot(_cones.gorenstein_normalize(cone).covector, xi)


@dataclass(frozen=True)
class VolumeReport:
    vol_delta: object
    sasakian_volume: float
    normalized_volume: object
    einstein_hilbert: float


def vol_functional(cone, xi) -> VolumeReport:
    """Sasakian volume data at a Reeb vector xi interior to the dual cone.

    normalized_volume is vol(S, g) / vol(S^(2n-1)) = 2^n n! vol(Delta(xi));
    it stays an exact Fraction for exact input.
    """
    c = _resolve(cone)
    n = c.n
    vol, _, _ = _moments(c, xi, order=0)
    normalized = 2**n * math.factorial(n) * vol
    return VolumeReport(
        vol_delta=vol,
        sasakian_volume=2 * n * (2 * math.pi) ** n * float(vol),
        normalized_volume=normalized,
        einstein_hilbert=ein_hilbert(cone, xi),
    )


def ein_hilbert(cone, xi) -> float:
    """Einstein-Hilbert action on toric Sasakian metrics as a function of xi."""
    c = _resolve(cone)
    n = c.n
    vol, _, _ = _moments(c, xi, order=0)
    h = _height(cone, xi)
    return 8 * n * (n - 1) * (2 * math.pi) ** n * (float(h) - (n - 1)) * float(vol)


def vol_gradient(cone, xi) -> list:
    """d vol(Delta) / d xi_i; exact in Fraction arithmetic for exact xi."""
    _, grad, _ = _moments(cone, xi, order=1)
    return grad


def vol_hessian(cone, xi) -> list:
    _, _, hess = _moments(cone, xi, order=2)
    return hess


# --- minimization -----------------------------------------------------------


@dataclass(frozen=True)
class MinimizationResult:
    xi_star: tuple                  # floats, in the height (Gorenstein) basis
    xi_star_exact: tuple | None     # Fractions when the minimizer is certified
    vol_delta: float
    sasakian_volume: float
    normalized_volume: float
    normalized_volume_exact: Fraction | None
    regularity: str                 # quasi-regular | irregular | undetermined
    rank: int | None
    iterations: int
    gradient_norm: float


def _reduced(cone, xi, order):
    """Gradient/Hessian of vol restricted to the slice xi_0 = n."""
    vol, grad, hess = _moments(cone, xi, order=order)
    g = grad[1:] if grad is not None else None
    h = [row[1:] for row in hess[1:]] if hess is not None else None
    return vol, g, h


def _solve(a, b):
    """x with a x = b: Gaussian elimination with partial pivoting.

    The Newton system on the slice xi_0 = n is only (n-1) x (n-1), so a
    few float loops do and the minimizer needs no numpy.  The multipliers
    are scaled by the pivot's reciprocal, as LAPACK's getf2 does.  None
    when a pivot is exactly zero, i.e. a is singular in working precision.
    """
    m = len(b)
    rows = [list(row) + [v] for row, v in zip(a, b)]
    for k in range(m):
        p = max(range(k, m), key=lambda i: abs(rows[i][k]))
        if rows[p][k] == 0.0:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        inv = 1.0 / pivot[k]
        for row in rows[k + 1:]:
            f = row[k] * inv
            for j in range(k + 1, m + 1):
                row[j] -= f * pivot[j]
    x = [0.0] * m
    for k in reversed(range(m)):
        row = rows[k]
        x[k] = (row[m] - sum(row[j] * x[j] for j in range(k + 1, m))) / row[k]
    return x


def _newton(cone, tol, max_iter, xi0=None):
    n = cone.n
    rays = cone.rays
    if xi0 is None:
        sigma = [sum(v[i] for v in cone.normals) for i in range(n)]
        xi = [n * s / sigma[0] for s in sigma]  # interior seed on the slice
    else:
        xi = [float(x) for x in xi0]
        if xi[0] != n:
            raise ReebNotInterior(f"seed must sit on the slice xi_0 = {n}")
        _pairings(cone, xi)

    def polish(xi, gnorm):
        # one undamped Newton step once inside the tolerance ball; shrinks
        # the remaining coordinate error quadratically
        _, grad, hess = _reduced(cone, xi, order=2)
        step = _solve(hess, [-g for g in grad])
        if step is None:
            return xi, gnorm
        cand = list(xi)
        for i in range(n - 1):
            cand[i + 1] += step[i]
        try:
            _, g2, _ = _reduced(cone, cand, order=1)
        except ReebNotInterior:
            return xi, gnorm
        gn2 = math.sqrt(sum(g * g for g in g2))
        return (cand, gn2) if gn2 < gnorm else (xi, gnorm)

    for it in range(1, max_iter + 1):
        vol, grad, hess = _reduced(cone, xi, order=2)
        gnorm = math.sqrt(sum(g * g for g in grad))
        if gnorm <= tol:
            xi, gnorm = polish(xi, gnorm)
            return tuple(float(x) for x in xi), it - 1, gnorm
        step = _solve(hess, [-g for g in grad])
        if step is None or sum(s * g for s, g in zip(step, grad)) >= 0:
            step = [-g for g in grad]
        # fraction-to-boundary: keep every ray pairing above 1% of its value
        tmax = 1.0
        for r in rays:
            drop = -sum(r[i + 1] * step[i] for i in range(n - 1))
            if drop > 0:
                pair = dot(r, xi)
                tmax = min(tmax, 0.99 * pair / drop)
        t = tmax
        slope = sum(s * g for s, g in zip(step, grad))
        for _ in range(60):
            cand = list(xi)
            for i in range(n - 1):
                cand[i + 1] += t * step[i]
            try:
                cvol, _, _ = _reduced(cone, cand, order=0)
            except ReebNotInterior:
                t *= 0.5
                continue
            if cvol <= vol + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            raise ConvergenceFailure(it, "line search stalled")
        if cvol >= vol:
            # an accepted step that does not lower vol: the float floor in
            # this frame, where |grad| may stay just above tol for good
            xi, gnorm = polish(xi, gnorm)
            return tuple(float(x) for x in xi), it, gnorm
        xi = cand
        vol = cvol
    raise ConvergenceFailure(max_iter)


def _gradient_vanishes(cone, xi):
    """Whether the exact restricted gradient of vol vanishes at rational xi.

    With D the lcm of the denominators of xi, the pairings P_j = <r_j, D xi>
    are integers and, by the closed form in the module docstring,

        grad vol = -c sum_sigma det_sigma sum_{j in sigma} r_j prod_{k != j} P_k
                   / (prod_sigma P)^2,   c = D^(n+1) / (2^n n!) > 0,

    so the gradient on the slice vanishes iff the integer numerator of that
    sum over the common denominator lcm_sigma (prod_sigma P)^2 is zero in
    coordinates 1..n-1.  Raises ReebNotInterior when some P_j <= 0.
    """
    n = cone.n
    rays = cone.rays
    xi = [Fraction(x) for x in xi]
    D = math.lcm(*(x.denominator for x in xi))
    v = [x.numerator * (D // x.denominator) for x in xi]
    P = [dot(r, v) for r in rays]
    if any(p <= 0 for p in P):
        raise ReebNotInterior(f"xi = {tuple(xi)} is not interior to the dual cone")
    terms = []
    for simplex, det_u in zip(_cones.triangulation(cone), cone.simplex_dets):
        full = math.prod(P[j] for j in simplex)
        num = [0] * (n - 1)
        for j in simplex:
            rest = full // P[j]
            r = rays[j]
            for i in range(1, n):
                num[i - 1] += r[i] * rest
        terms.append((full * full, det_u, num))
    common = math.lcm(*(sq for sq, _, _ in terms))
    total = [0] * (n - 1)
    for sq, det_u, num in terms:
        f = det_u * (common // sq)
        for i in range(n - 1):
            total[i] += f * num[i]
    return not any(total)


def _certify_rational(cone, xi):
    """Try to promote a float minimizer to an exact rational critical point.

    Continued-fraction candidates per coordinate; accepted only when the
    exact restricted gradient vanishes identically, decided on its integer
    numerator.
    """
    n = cone.n
    for bound in DEN_BOUNDS:
        cand = [Fraction(n)] + [Fraction(x).limit_denominator(bound) for x in xi[1:]]
        try:
            if _gradient_vanishes(cone, cand):
                return tuple(cand)
        except ReebNotInterior:
            continue
    return None


def _looks_rational(x, tol=1e-9):
    # a float of a small-denominator rational gives the same best approximant
    # at every larger denominator bound; an irrational keeps refining
    lo = Fraction(x).limit_denominator(10**3)
    hi = Fraction(x).limit_denominator(10**6)
    return lo == hi and abs(float(lo) - x) <= tol * max(1.0, abs(x))


def _has_integer_relation(b, x, bound=512, tol=1e-7):
    """Search m0 + m1*b + m2*x = 0 with small integers, m2 >= 1.

    Scans m2 in blocks of 16 values against every m1 in [-bound, bound]
    and stops at the first block with a hit; most pairs have one at
    m2 <= 16.  Each grid element is the same float expression as in a
    full-grid scan, so the answer does not depend on the block size.
    """
    import numpy as np

    m1 = np.arange(-bound, bound + 1, dtype=float)[:, None]
    m1b = m1 * b
    base = 1.0 + np.abs(m1) * abs(b)
    for start in range(1, bound + 1, 16):
        m2 = np.arange(start, min(start + 16, bound + 1), dtype=float)[None, :]
        combo = m1b + m2 * x
        resid = np.abs(combo - np.round(combo))
        if (resid <= tol * (base + np.abs(m2) * abs(x))).any():
            return True
    return False


def _rank_estimate(xi):
    """Heuristic dimension of the smallest rational subtorus containing xi.

    Counts Q-linearly independent values among the coordinates (the first,
    fixed to n, stands for the rationals).  Estimate only, never a
    certificate: based on float integer-relation search.  That search
    accepts almost every pair (449 of 450 pairs drawn uniformly from
    [0.01, 10] give a relation).  A spurious relation drops a coordinate
    that is in fact independent, so the count is at best a lower-bound
    heuristic for the rank.
    """
    basis = []
    for x in xi[1:]:
        if _looks_rational(x):
            continue
        if any(_has_integer_relation(b, x) for b in basis):
            continue
        basis.append(x)
    return 1 + len(basis)


def minimize_reeb(cone, *, max_iter=200, xi0=None) -> MinimizationResult:
    """Unique volume-minimizing Reeb vector on the slice xi_0 = n.

    Damped Newton on the restricted volume (its own divergence at the
    boundary of the dual cone is the barrier; steps are additionally capped
    by the fraction-to-boundary rule), followed by exact rational
    certification of the minimizer.  Requires a Gorenstein cone (height 1);
    the result is expressed in the height basis.  xi0 overrides the
    default interior seed and must lie on the slice.
    """
    if not isinstance(cone, _cones.GorensteinCone):
        cone = _cones.gorenstein_normalize(cone)
    if cone.ell != 1:
        raise NotGorenstein(f"height ell = {cone.ell} > 1")
    c = cone.cone
    n = c.n
    xi, iterations, gnorm = _newton(c, GRAD_TOL, max_iter, xi0=xi0)
    exact = _certify_rational(c, xi)
    if exact is not None:
        vol_exact, _, _ = _moments(c, exact, order=0)
        norm_exact = 2**n * math.factorial(n) * vol_exact
        xi_f = tuple(float(x) for x in exact)
        _, grad_f, _ = _reduced(c, xi_f, order=1)
        return MinimizationResult(
            xi_star=xi_f,
            xi_star_exact=exact,
            vol_delta=float(vol_exact),
            sasakian_volume=2 * n * (2 * math.pi) ** n * float(vol_exact),
            normalized_volume=float(norm_exact),
            normalized_volume_exact=norm_exact,
            regularity="quasi-regular",
            rank=1,
            iterations=iterations,
            gradient_norm=math.sqrt(sum(float(g) ** 2 for g in grad_f)),
        )
    vol, _, _ = _moments(c, xi, order=0)
    rank = _rank_estimate(xi)
    return MinimizationResult(
        xi_star=tuple(xi),
        xi_star_exact=None,
        vol_delta=vol,
        sasakian_volume=2 * n * (2 * math.pi) ** n * vol,
        normalized_volume=2**n * math.factorial(n) * vol,
        normalized_volume_exact=None,
        regularity="irregular" if rank >= 2 else "undetermined",
        rank=rank if rank >= 2 else None,
        iterations=iterations,
        gradient_norm=gnorm,
    )


# --- canonical toric metric -------------------------------------------------


@dataclass(frozen=True)
class CanonicalMetricReport:
    g_sympl: object            # G_ij, the symplectic-potential Hessian at y (ndarray)
    block_metric: object       # block-diagonal (G_ij, G^ij) on (y, phi) (ndarray)
    reeb_reconstructed: tuple  # 2 G_ij y_j, should reproduce xi
    positive_definite: bool
    reeb_residual: float
    homogeneity_residual: float

    @property
    def ok(self) -> bool:
        return (self.positive_definite and self.reeb_residual <= 1e-9
                and self.homogeneity_residual <= 1e-9)


def canonical_metric_eval(cone, xi, y) -> CanonicalMetricReport:
    """Evaluate the canonical symplectic potential's metric at interior y.

    G = G_can + G_xi with
      G_can = 1/2 sum_a <y, v_a> log <y, v_a>
      G_xi  = 1/2 <y, xi> log <y, xi> - 1/2 <y, s> log <y, s>,  s = sum_a v_a,
    so G_ij = 1/2 [ sum_a v v^T/<y,v> + xi xi^T/<y,xi> - s s^T/<y,s> ].
    Checks positive-definiteness, the Reeb reconstruction 2 G y = xi, and
    the degree-2 homogeneity of r^2 = 2 <y, xi> under the Euler field.
    """
    import numpy as np

    c = _resolve(cone)
    xi = tuple(float(v) for v in _xi_tuple(xi))
    y = tuple(float(v) for v in y)
    n = c.n
    _pairings(c, xi)  # raises ReebNotInterior for bad xi
    pv = [dot(y, v) for v in c.normals]
    if any(p <= 0 for p in pv):
        raise BoundaryPoint(f"y = {y} touches a facet; log terms singular")
    s = [sum(v[i] for v in c.normals) for i in range(n)]
    py = dot(y, xi)
    ps = dot(y, s)
    G = np.zeros((n, n))
    for v, p in zip(c.normals, pv):
        G += np.outer(v, v) / p
    G += np.outer(xi, xi) / py
    G -= np.outer(s, s) / ps
    G *= 0.5
    eig = np.linalg.eigvalsh(G)
    reeb = 2 * G @ np.array(y)
    reeb_res = float(np.max(np.abs(reeb - np.array(xi))))
    r2 = 2 * py
    euler_r2 = 2 * dot(y, [2 * x for x in xi])  # (sum 2 y_i d_i) r^2
    hom_res = abs(euler_r2 - 2 * r2) / max(1.0, abs(r2))
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = G
    block[n:, n:] = np.linalg.inv(G)
    return CanonicalMetricReport(
        g_sympl=G,
        block_metric=block,
        reeb_reconstructed=tuple(float(x) for x in reeb),
        positive_definite=bool(eig[0] > 0),
        reeb_residual=reeb_res,
        homogeneity_residual=hom_res,
    )
