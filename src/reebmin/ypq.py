"""Explicit Y^{p,q} Einstein metrics and the L^{a,b,c} toric bridge.

The metric is evaluated in the local chart (theta, phi, y, psi, alpha);
the Einstein property Ric = 4 g is then *verified* from exact
second-order jets of the metric components (forward-mode derivatives
feeding the Christoffel symbols and their derivatives), deliberately
independent of any hand-derived curvature algebra.  The L^{a,b,c}
admissibility conditions and the charge-vector route into the toric
minimization live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from operator import add

from . import cones as _cones
from . import latcore
from .errors import BadParams, DegenerateChartPoint


@dataclass(frozen=True)
class QuadraticValue:
    """Exact number rational + coeff * sqrt(radicand)."""

    rational: Fraction
    coeff: Fraction
    radicand: int

    def __float__(self) -> float:
        return float(self.rational) + float(self.coeff) * math.sqrt(self.radicand)


def apq(p: int, q: int) -> QuadraticValue:
    """The cubic constant a_{p,q} = 1/2 - (p^2-3q^2) sqrt(4p^2-3q^2) / (4p^3)."""
    _check_pq(p, q)
    return QuadraticValue(
        rational=Fraction(1, 2),
        coeff=Fraction(-(p * p - 3 * q * q), 4 * p**3),
        radicand=4 * p * p - 3 * q * q,
    )


def _check_pq(p, q):
    if not (isinstance(p, int) and isinstance(q, int)):
        raise BadParams("p, q must be integers")
    if not 0 < q < p:
        raise BadParams(f"need 0 < q < p, got (p, q) = ({p}, {q})")
    if gcd(p, q) != 1:
        raise BadParams(f"p and q must be coprime, got gcd = {gcd(p, q)}")


def _cubic_roots(a: float) -> tuple[float, float, float]:
    # 2y^3 - 3y^2 + a = 0, depressed via y = t + 1/2: t^3 - (3/4) t + (a/2 - 1/4),
    # three real roots for a in (0,1); one Newton polish per root
    theta = math.acos(1.0 - 2.0 * a)
    roots = []
    for k in range(3):
        y = 0.5 + math.cos((theta - 2.0 * math.pi * k) / 3.0)
        for _ in range(3):
            f = a - 3 * y * y + 2 * y**3
            df = 6 * y * (y - 1.0)
            if df != 0.0:
                y -= f / df
        roots.append(y)
    return tuple(sorted(roots))


@dataclass(frozen=True)
class YpqParams:
    p: int
    q: int
    a_exact: QuadraticValue
    a: float
    y1: float
    y2: float
    y3: float


def ypq_params(p: int, q: int) -> YpqParams:
    _check_pq(p, q)
    a_ex = apq(p, q)
    a = float(a_ex)
    if not 0.0 < a < 1.0:
        raise BadParams(f"a_(p,q) = {a} outside (0, 1)")
    y1, y2, y3 = _cubic_roots(a)
    return YpqParams(p=p, q=q, a_exact=a_ex, a=a, y1=y1, y2=y2, y3=y3)


def w_of(Y: YpqParams, y: float) -> float:
    return 2.0 * (Y.a - y * y) / (1.0 - y)


def q_of(Y: YpqParams, y: float) -> float:
    return (Y.a - 3.0 * y * y + 2.0 * y**3) / (Y.a - y * y)


def f_of(Y: YpqParams, y: float) -> float:
    return (Y.a - 2.0 * y + y * y) / (6.0 * (Y.a - y * y))


@dataclass(frozen=True)
class ChartPoint:
    """Point of the local chart; order (theta, phi, y, psi, alpha)."""

    theta: float
    phi: float
    y: float
    psi: float
    alpha: float

    def coords(self):
        """The coordinates as a numpy vector."""
        import numpy as np

        return np.array([self.theta, self.phi, self.y, self.psi, self.alpha])


# Reeb field xi = 3 d_psi - 1/2 d_alpha in chart coordinates
REEB_COMPONENTS = (0.0, 0.0, 0.0, 3.0, -0.5)


def _interior_margin(Y: YpqParams, x: ChartPoint) -> float:
    return min(x.theta, math.pi - x.theta, x.y - Y.y1, Y.y2 - x.y)


class Jet:
    """Second-order jet in two variables (theta, y): a value, its gradient
    (d_theta, d_y) and its Hessian (d_theta^2, d_theta d_y, d_y^2).

    Closed under + - * / with floats and jets, integer powers, cos and sin.
    The value part of every operation is the float operation itself, so a
    jet carries the float result bit for bit.
    """

    __slots__ = ("v", "d", "h")

    def __init__(self, v, d=(0.0, 0.0), h=(0.0, 0.0, 0.0)):
        self.v, self.d, self.h = v, d, h

    def _chain(self, f0, f1, f2):
        # f(u) from f(u0), f'(u0) and f''(u0)
        (a, b), (c, e, k) = self.d, self.h
        return Jet(f0, (f1 * a, f1 * b),
                   (f1 * c + f2 * a * a, f1 * e + f2 * a * b, f1 * k + f2 * b * b))

    def __add__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.v + o, self.d, self.h)
        return Jet(self.v + o.v, tuple(map(add, self.d, o.d)), tuple(map(add, self.h, o.h)))

    __radd__ = __add__

    # a - b is a + (-b) exactly in IEEE arithmetic, value parts included
    def __neg__(self):
        return self * -1.0

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.v * o, tuple(t * o for t in self.d), tuple(t * o for t in self.h))
        (ua, ub), (wa, wb) = self.d, o.d
        u, w = self.v, o.v
        return Jet(u * w, (u * wa + w * ua, u * wb + w * ub), (
            u * o.h[0] + w * self.h[0] + 2.0 * ua * wa,
            u * o.h[1] + w * self.h[1] + ua * wb + ub * wa,
            u * o.h[2] + w * self.h[2] + 2.0 * ub * wb,
        ))

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.v / o, tuple(t / o for t in self.d), tuple(t / o for t in self.h))
        # r = u / w from r w = u, differentiated once and twice
        r = self.v / o.v
        (ua, ub), (wa, wb) = self.d, o.d
        ra, rb = (ua - r * wa) / o.v, (ub - r * wb) / o.v
        return Jet(r, (ra, rb), (
            (self.h[0] - 2.0 * ra * wa - r * o.h[0]) / o.v,
            (self.h[1] - ra * wb - rb * wa - r * o.h[1]) / o.v,
            (self.h[2] - 2.0 * rb * wb - r * o.h[2]) / o.v,
        ))

    def __rtruediv__(self, o):
        return Jet(o) / self

    def __pow__(self, n: int):
        v = self.v
        return self._chain(v**n, n * v ** (n - 1), n * (n - 1) * v ** (n - 2))

    def cos(self):
        c, s = math.cos(self.v), math.sin(self.v)
        return self._chain(c, -s, -c)

    def sin(self):
        c, s = math.cos(self.v), math.sin(self.v)
        return self._chain(s, c, -s)


def _value(t) -> float:
    return t.v if isinstance(t, Jet) else t


def _components(Y: YpqParams, x: ChartPoint, y, ct, st) -> dict:
    """The metric components g_ij (i <= j, non-zero ones only) at x.

    y, ct = cos(theta) and st = sin(theta) are floats or jets; the chart
    checks read x and the value parts.
    """
    if _interior_margin(Y, x) <= 0:
        raise DegenerateChartPoint(
            f"chart degenerates at theta = {x.theta}, y = {x.y}"
        )
    A = (1.0 - y) / 6.0
    W = w_of(Y, y)
    Q = q_of(Y, y)
    F = f_of(Y, y)
    if _value(W) <= 0 or _value(Q) <= 0:
        raise DegenerateChartPoint(f"w(y) q(y) <= 0 at y = {x.y}")
    return {
        (0, 0): A,
        (1, 1): A * st * st + (Q / 9.0 + W * F * F) * ct * ct,
        (2, 2): 1.0 / (W * Q),
        (3, 3): Q / 9.0 + W * F * F,
        (4, 4): W,
        (1, 3): -(Q / 9.0 + W * F * F) * ct,
        (1, 4): -W * F * ct,
        (3, 4): W * F,
    }


def metric_eval(Y: YpqParams, x: ChartPoint):
    """Metric components g_{ij} at x, coordinate order (theta, phi, y, psi,
    alpha), as a 5 x 5 numpy array."""
    import numpy as np

    g = np.zeros((5, 5))
    for (i, j), v in _components(Y, x, x.y, math.cos(x.theta), math.sin(x.theta)).items():
        g[i, j] = g[j, i] = v
    return g


def _metric_fn(Y: YpqParams):
    def fn(coords):
        return metric_eval(Y, ChartPoint(*coords))

    return fn


def metric_jets(Y: YpqParams, x: ChartPoint) -> dict:
    """The components of metric_eval as jets in (theta, y) at x."""
    theta = Jet(x.theta, (1.0, 0.0))
    return _components(Y, x, Jet(x.y, (0.0, 1.0)), theta.cos(), theta.sin())


def ricci_from_jets(components: dict, dim: int, slots: tuple[int, int]):
    """Ricci tensor, a dim x dim numpy array, from the second-order jets of
    the metric components.

    components maps (i, j), i <= j, to a Jet or a float; the two jet
    variables are the coordinates slots[0] and slots[1], and no component
    depends on any other coordinate.  Gamma comes from g^-1 and dg, dGamma
    from d(g^-1) = -g^-1 (dg) g^-1, all exact up to rounding.
    """
    import numpy as np

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


def ricci_fd(Y: YpqParams, x: ChartPoint):
    """Ricci tensor of the Y^{p,q} metric at x.

    The derivatives dg and ddg are exact second-order jets of the metric
    components in (theta, y), the only coordinates the metric reads, so
    there is no step size and no truncation error.
    """
    return ricci_from_jets(metric_jets(Y, x), 5, (0, 2))


def einstein_residual(Y: YpqParams, x: ChartPoint) -> float:
    """max |Ric - 4 g| entrywise (the Einstein constant is 2(n-1) = 4)."""
    ric = ricci_fd(Y, x)
    return float(abs(ric - 4.0 * metric_eval(Y, x)).max())


def metric_scale(Y: YpqParams, x: ChartPoint) -> float:
    """max(1, max_ij |g_ij|) at x: the entries of g grow with p, so the
    Einstein residual there is held to a bound relative to this."""
    return max(1.0, float(abs(metric_eval(Y, x)).max()))


def killing_residual(Y: YpqParams, x: ChartPoint) -> float:
    """max |L_xi g|: the Reeb field has constant components, so this is
    xi^a d_a g_{ij} by central differences (step 1e-4) along psi and alpha.

    It is 0.0 by construction, because metric_eval never reads phi, psi
    or alpha: the check guards that the chart keeps that form.
    """
    h = 1e-4
    fn = _metric_fn(Y)
    coords = x.coords()
    lie = 0.0
    for a, comp in enumerate(REEB_COMPONENTS):
        if comp == 0.0:
            continue
        xp, xm = coords.copy(), coords.copy()
        xp[a] += h
        xm[a] -= h
        lie = lie + comp * (fn(xp) - fn(xm)) / (2.0 * h)
    return float(abs(lie).max())


def reeb_norm_residual(Y: YpqParams, x: ChartPoint) -> float:
    """|g(xi, xi) - 1|: the contact form eta = g(xi, .) must give eta(xi) = 1."""
    g = metric_eval(Y, x)
    return abs(float(REEB_COMPONENTS @ g @ REEB_COMPONENTS) - 1.0)


def ricci_reeb_residual(Y: YpqParams, x: ChartPoint) -> float:
    """|Ric(xi, xi) - 4|, checked independently of the full Einstein test."""
    ric = ricci_fd(Y, x)
    return abs(float(REEB_COMPONENTS @ ric @ REEB_COMPONENTS) - 4.0)


def random_chart_points(Y: YpqParams, count: int, rng) -> list[ChartPoint]:
    """Sample points with theta in [0.2, pi - 0.2] and y off both ends of
    [y1, y2] by 5% of its length."""
    dy = Y.y2 - Y.y1
    pts = []
    for _ in range(count):
        pts.append(
            ChartPoint(
                theta=rng.uniform(0.2, math.pi - 0.2),
                phi=rng.uniform(0.0, 2.0 * math.pi),
                y=rng.uniform(Y.y1 + 0.05 * dy, Y.y2 - 0.05 * dy),
                psi=rng.uniform(0.0, 2.0 * math.pi),
                alpha=rng.uniform(0.0, 2.0 * math.pi),
            )
        )
    return pts


# --- regularity and the L^{a,b,c} family ------------------------------------


@dataclass(frozen=True)
class Regularity:
    kind: str        # quasi-regular | irregular
    m: int | None    # the integer with 4p^2 - 3q^2 = m^2, when quasi-regular


def quasiregular_check(p: int, q: int) -> Regularity:
    """Quasi-regular iff 4p^2 - 3q^2 is a perfect square; else irregular rank 2."""
    _check_pq(p, q)
    disc = 4 * p * p - 3 * q * q
    root = isqrt(disc)
    if root * root == disc:
        return Regularity(kind="quasi-regular", m=root)
    return Regularity(kind="irregular", m=None)


@dataclass(frozen=True)
class LabcParams:
    a: int
    b: int
    c: int

    @property
    def d(self) -> int:
        return self.a + self.b - self.c

    @property
    def charges(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, -self.c, -self.d)


@dataclass(frozen=True)
class LabcVerdict:
    valid: bool
    params: LabcParams | None
    reasons: tuple[str, ...]


def labc_admissible(a: int, b: int, c: int) -> LabcVerdict:
    """Integer conditions for L^{a,b,c} to be a smooth Sasaki-Einstein 5-manifold."""
    reasons = []
    if min(a, b, c) < 1:
        reasons.append("a, b, c must be positive")
    else:
        d = a + b - c
        if a > b:
            reasons.append("need a <= b")
        if c > b:
            reasons.append("need c <= b")
        if d < 1:
            reasons.append("need d = a + b - c >= 1")
        if not reasons:
            if gcd(gcd(a, b), gcd(c, d)) != 1:
                reasons.append("gcd(a, b, c, d) > 1")
            for x, xn in ((a, "a"), (b, "b")):
                for y, yn in ((c, "c"), (d, "d")):
                    if gcd(x, y) != 1:
                        reasons.append(f"gcd({xn}, {yn}) = {gcd(x, y)} > 1")
    if reasons:
        return LabcVerdict(valid=False, params=None, reasons=tuple(reasons))
    return LabcVerdict(valid=True, params=LabcParams(a=a, b=b, c=c), reasons=())


def ypq_embed(p: int, q: int) -> LabcParams:
    """Y^{p,q} as L^{p-q, p+q, p}; asserts the admissibility conditions."""
    _check_pq(p, q)
    verdict = labc_admissible(p - q, p + q, p)
    assert verdict.valid, verdict.reasons
    return verdict.params


def labc_cone(L: LabcParams) -> _cones.GorensteinCone:
    """Moment cone of the L^{a,b,c} singularity, in its height-1 basis.

    Gale dual of the single charge row (a, b, -c, -d); the zero row sum
    makes the cone Gorenstein, which is asserted.
    """
    verdict = labc_admissible(L.a, L.b, L.c)
    if not verdict.valid:
        raise BadParams("; ".join(verdict.reasons))
    rays = latcore.gale_dual([list(L.charges)])
    cone = _cones.validate_cone(rays)
    g = _cones.gorenstein_normalize(cone)
    assert g.ell == 1
    return g
