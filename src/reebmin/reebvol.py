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
from .errors import ConvergenceFailure, NotGorenstein, ReebNotInterior
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
    regularity: str                 # quasi-regular | irregular
    rank: int                       # 1 when certified, else the lower bound 2
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


def minimize_reeb(cone, *, max_iter=200, xi0=None) -> MinimizationResult:
    """Unique volume-minimizing Reeb vector on the slice xi_0 = n.

    Damped Newton on the restricted volume (its own divergence at the
    boundary of the dual cone is the barrier; steps are additionally capped
    by the fraction-to-boundary rule), followed by exact rational
    certification of the minimizer.  Requires a Gorenstein cone (height 1);
    the result is expressed in the height basis.  xi0 overrides the
    default interior seed and must lie on the slice.

    Regularity is read off certification alone.  A certified minimizer is
    rational, so quasi-regular of rank 1.  Any other (no candidate within
    DEN_BOUNDS certifies) is reported irregular with rank 2: the least
    rank an irregular Reeb vector has, so a lower bound on its true rank,
    which is not computed.
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
    return MinimizationResult(
        xi_star=tuple(xi),
        xi_star_exact=None,
        vol_delta=vol,
        sasakian_volume=2 * n * (2 * math.pi) ** n * vol,
        normalized_volume=2**n * math.factorial(n) * vol,
        normalized_volume_exact=None,
        regularity="irregular",
        rank=2,
        iterations=iterations,
        gradient_norm=gnorm,
    )

