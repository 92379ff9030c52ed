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
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import lru_cache
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
    try:
        a = float(a_ex)
    except OverflowError:
        raise BadParams("p is too large: a_(p,q) overflows a float") from None
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


def _float_components(Y: YpqParams, x: ChartPoint) -> dict:
    return _components(Y, x, x.y, math.cos(x.theta), math.sin(x.theta))


def metric_eval(Y: YpqParams, x: ChartPoint):
    """Metric components g_{ij} at x, coordinate order (theta, phi, y, psi,
    alpha), as a 5 x 5 tuple of tuples."""
    g = [[0.0] * 5 for _ in range(5)]
    for (i, j), v in _float_components(Y, x).items():
        g[i][j] = g[j][i] = v
    return tuple(map(tuple, g))


def metric_jets(Y: YpqParams, x: ChartPoint) -> dict:
    """The components of metric_eval as jets in (theta, y) at x."""
    theta = Jet(x.theta, (1.0, 0.0))
    return _components(Y, x, Jet(x.y, (0.0, 1.0)), theta.cos(), theta.sin())


@lru_cache(maxsize=16)
def _ricci_plan(keys: tuple, dim: int, slots: tuple):
    """The sparse program that ricci_from_jets runs for one zero pattern.

    The tape holds 1, 2 and six entries per key (g, d_0 g, d_1 g, d_00 g,
    d_01 g, d_11 g; d_a along slots[a]); each step appends one entry: 1 / t[e]
    for (None, e), else the products of the index pairs in plus, summed,
    less those in minus.  No product with a structurally zero factor is
    listed.  With S_lij = d_i g_lj + d_j g_li - d_l g_ij, gamma = g^-1 S
    (twice the Christoffel symbols), M_a = g^-1 d_a g, Gamma^k_ki = tr(M_i) / 2
    and sums over repeated indices,

        4 Ric_ij = 2 (g^{s_a l} d_a S_lij - [tr(g^-1 d_i d_j g) - tr(M_i M_j)])
                   + w_m gamma^m_ij - gamma^k_jl gamma^l_ik,
        w_m = [m = s_a] tr(M_a) - 2 (M_a)^{s_a}_m,

    the bracket only where i and j are both slots.  Returns the steps and
    the tape indices of 4 Ric (None where it is structurally zero).
    """
    slot = {s: a for a, s in enumerate(slots)}
    at = {}
    for e, (i, j) in enumerate(keys):
        at[i, j] = at[j, i] = 2 + 6 * e
    program, size = [], 2 + 6 * len(keys)

    def step(plus, minus=()):
        plus = [p for p in plus if None not in p]
        minus = [p for p in minus if None not in p]
        for p in list(minus):  # drop terms that cancel identically
            if p in plus:
                plus.remove(p)
                minus.remove(p)
        if plus or minus:
            program.append((plus, minus))
            return size + len(program) - 1

    # Gauss-Jordan on [g | 1] down the diagonal (g is positive definite);
    # the structural zeros stay None, so g^-1 keeps the blocks of g
    rows = [[at.get((k, l)) for l in range(dim)] + [0 if k == l else None for l in range(dim)]
            for k in range(dim)]
    for c, pivot in enumerate(rows):
        r = size + len(program)
        program.append((None, pivot[c]))
        pivot[:] = [step([(r, e)]) for e in pivot]
        for row in rows:
            if row is not pivot and row[c] is not None:
                row[:] = [v if u is None else step([(0, v)], [(row[c], u)])
                          for v, u in zip(row, pivot)]
    ginv = {(k, l): rows[min(k, l)][dim + max(k, l)] for k in range(dim) for l in range(dim)}

    def derivative(p, q, c, a=None):
        """Tape index of d_c g_pq, or of d_a d_c g_pq; None where it is zero."""
        if c in slot and (p, q) in at:
            return at[p, q] + (1 + slot[c] if a is None else 3 + a + slot[c])

    def raised(k, i, j, a=None):
        """The products (plus, minus) of g^kl S_lij, or of g^kl d_a S_lij."""
        plus, minus = [], []
        for l in range(dim):
            plus += [(ginv[k, l], derivative(l, j, i, a)), (ginv[k, l], derivative(l, i, j, a))]
            minus.append((ginv[k, l], derivative(i, j, l, a)))
        return plus, minus

    upper = [(i, j) for i in range(dim) for j in range(i, dim)]
    gamma = {}
    for i, j in upper:
        for k in range(dim):
            gamma[k, i, j] = gamma[k, j, i] = step(*raised(k, i, j))
    M = {(a, k, m): step([(ginv[k, l], derivative(l, m, s)) for l in range(dim)])
         for a, s in enumerate(slots) for k in range(dim) for m in range(dim)}
    w = [step([(0, M[a, k, k]) for a, s in enumerate(slots) if s == m for k in range(dim)],
              [(1, M[a, s, m]) for a, s in enumerate(slots)])
         for m in range(dim)]
    ricci = [[None] * dim for _ in range(dim)]
    for i, j in upper:
        (p0, m0), (p1, m1) = (raised(s, i, j, a) for a, s in enumerate(slots))
        plus, minus = p0 + p1, m0 + m1
        if i in slot and j in slot:
            a, b = slot[i], slot[j]
            minus += [(ginv[k, l], derivative(l, k, j, a)) for k in range(dim) for l in range(dim)]
            plus += [(M[a, k, m], M[b, m, k]) for k in range(dim) for m in range(dim)]
        ricci[i][j] = ricci[j][i] = step(
            [(1, step(plus, minus))] + [(w[m], gamma[m, i, j]) for m in range(dim)],
            [(gamma[k, j, l], gamma[l, i, k]) for k in range(dim) for l in range(dim)])
    return program, ricci


def ricci_from_jets(components: dict, dim: int, slots: tuple[int, int]):
    """Ricci tensor, a dim x dim tuple of tuples, from the second-order jets
    of the metric components.

    components maps (i, j), i <= j, to a Jet or a plain number; the two jet
    variables are the coordinates slots[0] and slots[1], and no component
    depends on any other coordinate.  The zero pattern of g is read from
    the keys and its program (_ricci_plan) is built once.  Only + - * /
    touch the entries: float jets give floats, Fraction jets exact Fractions.
    """
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


def ricci_fd(Y: YpqParams, x: ChartPoint):
    """Ricci tensor of the Y^{p,q} metric at x.

    The derivatives dg and ddg are exact second-order jets of the metric
    components in (theta, y), the only coordinates the metric reads, so
    there is no step size and no truncation error.  The name predates the
    jets; it stays because the benchmark's tracer wraps this function.
    """
    return ricci_from_jets(metric_jets(Y, x), 5, (0, 2))


def _quadratic(v, m) -> float:
    """v^T m v."""
    s = 0.0
    for vi, row in zip(v, m):
        for vj, mij in zip(v, row):
            s += vi * mij * vj
    return s


def einstein_residual(Y: YpqParams, x: ChartPoint) -> float:
    """max |Ric - 4 g| entrywise (the Einstein constant is 2(n-1) = 4)."""
    pairs = zip(ricci_fd(Y, x), metric_eval(Y, x))
    return max(abs(r - 4.0 * v) for rr, gr in pairs for r, v in zip(rr, gr))


def metric_scale(Y: YpqParams, x: ChartPoint) -> float:
    """max(1, max_ij |g_ij|) at x: the entries of g grow with p, so the
    Einstein residual there is held to a bound relative to this."""
    return max(1.0, *(abs(v) for row in metric_eval(Y, x) for v in row))


def killing_residual(Y: YpqParams, x: ChartPoint) -> float:
    """max |L_xi g|: the Reeb field has constant components, so this is
    xi^a d_a g_{ij}, the central difference (step 1e-4) of the components
    at x moved along xi, that is along psi and alpha.

    It is 0.0 by construction, because _components never reads phi, psi
    or alpha: the check guards that the chart keeps that form.
    """
    h = 1e-4
    along = [(f.name, c * h) for f, c in zip(fields(ChartPoint), REEB_COMPONENTS) if c]
    up, down = (_float_components(Y, replace(x, **{n: getattr(x, n) + s * d for n, d in along}))
                for s in (1, -1))
    return max(abs(v - down[key]) / (2.0 * h) for key, v in up.items())


def reeb_norm_residual(Y: YpqParams, x: ChartPoint) -> float:
    """|g(xi, xi) - 1|: the contact form eta = g(xi, .) must give eta(xi) = 1."""
    return abs(_quadratic(REEB_COMPONENTS, metric_eval(Y, x)) - 1.0)


def ricci_reeb_residual(Y: YpqParams, x: ChartPoint) -> float:
    """|Ric(xi, xi) - 4|, checked independently of the full Einstein test."""
    return abs(_quadratic(REEB_COMPONENTS, ricci_fd(Y, x)) - 4.0)


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
