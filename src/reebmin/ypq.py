"""Explicit Y^{p,q} Einstein metrics and the L^{a,b,c} toric bridge.

The metric is evaluated in the local chart (theta, phi, y, psi, alpha);
the Einstein property Ric = 4 g is then *verified* from exact
second-order jets of the metric components (forward-mode derivatives
feeding the Christoffel symbols and their derivatives), deliberately
independent of any hand-derived curvature algebra.  At a Y^{p,q} point
the jet arithmetic and the Ricci program run as one straight-line
function of (a, theta, y, cos theta, sin theta), traced once from that
arithmetic with its structural zeros folded away, so it returns the
jets' Ricci tensor bit for bit.  The L^{a,b,c} admissibility conditions
and the charge-vector route into the toric minimization live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from types import SimpleNamespace

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


def wqf(Y: YpqParams, y) -> tuple:
    """(w(y), q(y), f(y)) of the Y^{p,q} metric, for a float or a jet y."""
    # q keeps 3.0 * y * y, which is (3.0 * y) * y, not 3.0 * yy: the same bits
    yy = y * y
    s = Y.a - yy
    return (
        2.0 * s / (1.0 - y),
        (Y.a - 3.0 * y * y + 2.0 * y**3) / s,
        (Y.a - 2.0 * y + yy) / (6.0 * s),
    )


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
        (a, b), (c, e, k) = self.d, self.h
        (oa, ob), (oc, oe, ok) = o.d, o.h
        return Jet(self.v + o.v, (a + oa, b + ob), (c + oc, e + oe, k + ok))

    __radd__ = __add__

    def __neg__(self):
        (a, b), (c, e, k) = self.d, self.h
        return Jet(-self.v, (-a, -b), (-c, -e, -k))

    def __sub__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.v - o, self.d, self.h)
        (a, b), (c, e, k) = self.d, self.h
        (oa, ob), (oc, oe, ok) = o.d, o.h
        return Jet(self.v - o.v, (a - oa, b - ob), (c - oc, e - oe, k - ok))

    def __rsub__(self, o):
        (a, b), (c, e, k) = self.d, self.h
        return Jet(o - self.v, (-a, -b), (-c, -e, -k))

    def __mul__(self, o):
        if not isinstance(o, Jet):
            (a, b), (c, e, k) = self.d, self.h
            return Jet(self.v * o, (a * o, b * o), (c * o, e * o, k * o))
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
            (a, b), (c, e, k) = self.d, self.h
            return Jet(self.v / o, (a / o, b / o), (c / o, e / o, k / o))
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

    def cos_sin(self, c, s):
        """(cos, sin) of this jet, given c = cos(v) and s = sin(v)."""
        return self._chain(c, -s, -c), self._chain(s, c, -s)

    def cos(self):
        return self.cos_sin(math.cos(self.v), math.sin(self.v))[0]

    def sin(self):
        return self.cos_sin(math.cos(self.v), math.sin(self.v))[1]


class _Traced:
    """A float named in a kernel's source while the code computing it runs.

    Each + - * / ** or unary - with a _Traced operand appends one
    statement t<k> = <a> <op> <b> to lines and returns t<k>; a literal
    operand is written as its repr, so the statements redo the same float
    operations on the same numbers.  A product or quotient with a literal
    0 is a structural zero and comes back as the literal 0.0; an addend
    that is one is dropped (0 - u becomes -u), and so is a factor or
    divisor 1 (u * 1.0 is u, bit for bit).
    """

    __slots__ = ("name", "lines")

    def __init__(self, name: str, lines: list):
        self.name, self.lines = name, lines

    def _emit(self, expr: str):
        name = f"t{len(self.lines)}"
        self.lines.append(f"    {name} = {expr}")
        return _Traced(name, self.lines)

    def _binary(self, a, op, b):
        if isinstance(a, Jet) or isinstance(b, Jet):
            return NotImplemented
        zero = [not isinstance(u, _Traced) and u == 0 for u in (a, b)]
        one = [not isinstance(u, _Traced) and u == 1 for u in (a, b)]
        if op == "*" and (zero[0] or zero[1]) or op == "/" and zero[0]:
            return 0.0
        if op in "+-" and zero[1] or op in "*/" and one[1]:
            return a
        if op == "+" and zero[0] or op == "*" and one[0]:
            return b
        if op == "-" and zero[0]:
            return -b
        return self._emit(f"{_source(a)} {op} {_source(b)}")

    def __add__(self, o):
        return self._binary(self, "+", o)

    def __radd__(self, o):
        return self._binary(o, "+", self)

    def __sub__(self, o):
        return self._binary(self, "-", o)

    def __rsub__(self, o):
        return self._binary(o, "-", self)

    def __mul__(self, o):
        return self._binary(self, "*", o)

    def __rmul__(self, o):
        return self._binary(o, "*", self)

    def __truediv__(self, o):
        return self._binary(self, "/", o)

    def __rtruediv__(self, o):
        return self._binary(o, "/", self)

    def __pow__(self, n: int):
        return self._binary(self, "**", n)

    def __neg__(self):
        return self._emit(f"-{self.name}")


def _source(u) -> str:
    """u as kernel source: a traced name, or a literal in parentheses."""
    return u.name if isinstance(u, _Traced) else f"({u!r})"


def _value(t) -> float:
    return t.v if isinstance(t, Jet) else t


def _checked_wqf(Y: YpqParams, x: ChartPoint, y) -> tuple:
    """wqf(Y, y) after the chart checks at x: the interior margin first,
    then w > 0 and q > 0 on the values.  y is x.y or its jet."""
    if _interior_margin(Y, x) <= 0:
        raise DegenerateChartPoint(
            f"chart degenerates at theta = {x.theta}, y = {x.y}"
        )
    W, Q, F = wqf(Y, y)
    if _value(W) <= 0 or _value(Q) <= 0:
        raise DegenerateChartPoint(f"w(y) q(y) <= 0 at y = {x.y}")
    return W, Q, F


def _assemble(y, ct, st, W, Q, F) -> dict:
    """The metric components g_ij (i <= j, non-zero ones only) from y,
    ct = cos(theta), st = sin(theta) and (W, Q, F) = wqf(Y, y): floats,
    jets, or the traced jets of _ypq_kernel."""
    A = (1.0 - y) / 6.0
    WF = W * F
    g33 = Q / 9.0 + WF * F
    return {
        (0, 0): A,
        (1, 1): A * st * st + g33 * ct * ct,
        (2, 2): 1.0 / (W * Q),
        (3, 3): g33,
        (4, 4): W,
        (1, 3): -g33 * ct,
        (1, 4): -WF * ct,
        (3, 4): WF,
    }


def _components(Y: YpqParams, x: ChartPoint, y, ct, st) -> dict:
    """The metric components g_ij (i <= j, non-zero ones only) at x.

    y, ct = cos(theta) and st = sin(theta) are floats or jets; the chart
    checks read x and the value parts.
    """
    return _assemble(y, ct, st, *_checked_wqf(Y, x, y))


def _float_components(Y: YpqParams, x: ChartPoint) -> dict:
    return _components(Y, x, x.y, math.cos(x.theta), math.sin(x.theta))


def metric_eval(Y: YpqParams, x: ChartPoint):
    """Metric components g_{ij} at x, coordinate order (theta, phi, y, psi,
    alpha), as a 5 x 5 tuple of tuples."""
    g = [[0.0] * 5 for _ in range(5)]
    for (i, j), v in _float_components(Y, x).items():
        g[i][j] = g[j][i] = v
    return tuple(map(tuple, g))


def _ricci_plan(keys: tuple, dim: int, slots: tuple, zeros=frozenset()):
    """The sparse program of the Ricci tensor for one zero pattern, which
    _ricci_kernel compiles once into the function ricci_from_jets calls.

    The tape holds 1, 2 and six entries per key (g, d_0 g, d_1 g, d_00 g,
    d_01 g, d_11 g; d_a along slots[a]); each step appends one entry: 1 / t[e]
    for (None, e), else zero plus the products of the index pairs in plus,
    then less those in minus, added one at a time in the listed order (the
    order fixes the float rounding).  No product with a structurally zero
    factor is listed: an absent key, or a tape index in zeros.  Such a
    product is +-0.0, and a running total that starts at +0.0 never
    reaches -0.0, so leaving it out changes no bit of the sum.
    With S_lij = d_i g_lj + d_j g_li - d_l g_ij, gamma = g^-1 S
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

    def kept(p):
        return None not in p and zeros.isdisjoint(p)

    def step(plus, minus=()):
        plus = [p for p in plus if kept(p)]
        minus = [p for p in minus if kept(p)]
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
            e = at[p, q] + (1 + slot[c] if a is None else 3 + a + slot[c])
            return None if e in zeros else e

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


@lru_cache(maxsize=16)
def _ricci_kernel(keys: tuple, dim: int, slots: tuple, trace=None):
    """The program of _ricci_plan compiled to one straight-line function.

    Each step becomes one statement, v<k> = 1 / v<e> or v<k> = zero + v<a> *
    v<b> + ... - v<c> * v<d>, its products in the order of the plan; Python
    adds left to right, so the sum is rounded as a running total would be.
    The function returns Ric as a dim x dim tuple, each entry of the plan's
    4 Ric divided by 4.  Without a trace it takes zero and the tape entries
    from 2 on, and its source holds tape indices only.  A trace (params,
    prelude, tape, zeros) from _trace_components makes it take params
    instead and run the prelude first; tape[k] is the source of entry
    2 + k, and the plan leaves out the entries in zeros.
    """
    base = 2 + 6 * len(keys)
    if trace is None:
        tape = [f"v{k}" for k in range(2, base)]
        lines = [f"def kernel(zero, {', '.join(tape)}):"]
        zeros = frozenset()
    else:
        params, prelude, tape, zeros = trace
        lines = [f"def kernel({', '.join(params)}):", "    zero = 0.0", *prelude]
    program, ricci = _ricci_plan(keys, dim, slots, zeros)
    refs = ["v0", "v1", *tape, *(f"v{k}" for k in range(base, base + len(program)))]
    lines.append("    v0, v1 = 1, 2")
    for k, (plus, minus) in enumerate(program, base):
        if plus is None:
            lines.append(f"    v{k} = 1 / {refs[minus]}")
        else:
            terms = [f" + {refs[a]} * {refs[b]}" for a, b in plus]
            terms += [f" - {refs[a]} * {refs[b]}" for a, b in minus]
            lines.append(f"    v{k} = zero{''.join(terms)}")
    quarter = {e: f"r{e}" for row in ricci for e in row if e is not None}
    lines += [f"    {r} = v{e} / 4" for e, r in quarter.items()]
    rows = ", ".join("(" + ", ".join(quarter.get(e, "zero") for e in row) + ",)" for row in ricci)
    lines.append(f"    return ({rows},)")
    namespace = {}
    exec(compile("\n".join(lines), "<ricci kernel>", "exec"), namespace)
    return namespace["kernel"]


def ricci_from_jets(components: dict, dim: int, slots: tuple[int, int]):
    """Ricci tensor, a dim x dim tuple of tuples, from the second-order jets
    of the metric components.

    components maps (i, j), i <= j, to a Jet or a plain number; the two jet
    variables are the coordinates slots[0] and slots[1], and no component
    depends on any other coordinate.  The zero pattern of g is read from
    the keys; its program (_ricci_plan) is compiled once per pattern
    (_ricci_kernel) and then runs as one call, adding in the fixed order of
    the plan.  Only + - * / touch the entries: float jets give floats,
    Fraction jets exact Fractions.
    """
    t = []
    for c in components.values():
        if isinstance(c, Jet):
            t += (c.v, *c.d, *c.h)
        else:
            z = c * 0
            t += (c, z, z, z, z, z)
    return _ricci_kernel(tuple(components), dim, tuple(slots))(t[0] * 0, *t)


def _trace_components():
    """The jets of _components in (theta, y) as kernel source: (keys,
    (params, prelude, tape, zeros)) for _ricci_kernel, zeros being the
    tape indices of the entries that are structural zeros.  Only wqf and
    _assemble run, on jets of traced a, y, cos theta and sin theta, so
    the source holds no number of a point or of a metric."""
    lines = []
    params = ("a", "theta", "y", "ct", "st")
    a, theta, y, ct, st = (_Traced(name, lines) for name in params)
    y = Jet(y, (0.0, 1.0))
    ct, st = Jet(theta, (1.0, 0.0)).cos_sin(ct, st)
    components = _assemble(y, ct, st, *wqf(SimpleNamespace(a=a), y))
    entries = [u for c in components.values() for u in (c.v, *c.d, *c.h)]
    zeros = frozenset(k for k, u in enumerate(entries, 2)
                      if not isinstance(u, _Traced) and u == 0)
    return tuple(components), (params, tuple(lines), tuple(map(_source, entries)), zeros)


@lru_cache(maxsize=1)
def _ypq_kernel():
    """Ricci of the Y^{p,q} metric as one function of (a, theta, y,
    cos theta, sin theta): the traced jets of _components feeding the
    Ricci program, compiled on the first Einstein point."""
    keys, trace = _trace_components()
    return _ricci_kernel(keys, 5, (0, 2), trace)


def ricci_fd(Y: YpqParams, x: ChartPoint):
    """Ricci tensor of the Y^{p,q} metric at x.

    The derivatives dg and ddg are exact second-order jets of the metric
    components in (theta, y), the only coordinates the metric reads, so
    there is no step size and no truncation error.  The chart checks run
    on floats; then one compiled function (_ypq_kernel), traced from the
    jet arithmetic, returns ricci_from_jets of those jets bit for bit.
    The name predates the jets; it stays because the benchmark's tracer
    wraps this function.
    """
    _checked_wqf(Y, x, x.y)
    return _ypq_kernel()(Y.a, x.theta, x.y, math.cos(x.theta), math.sin(x.theta))


def _quadratic(v, m) -> float:
    """v^T m v, leaving out the terms where v_i or v_j is 0: those are
    +-0.0, so the sum keeps its bits."""
    s = 0.0
    for vi, row in zip(v, m):
        if vi:
            for vj, mij in zip(v, row):
                if vj:
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
    dpsi, dalpha = REEB_COMPONENTS[3] * h, REEB_COMPONENTS[4] * h
    up = _float_components(Y, ChartPoint(x.theta, x.phi, x.y, x.psi + dpsi, x.alpha + dalpha))
    down = _float_components(Y, ChartPoint(x.theta, x.phi, x.y, x.psi - dpsi, x.alpha - dalpha))
    return max(abs(v - down[key]) / (2.0 * h) for key, v in up.items())


def reeb_norm_residual(Y: YpqParams, x: ChartPoint) -> float:
    """|g(xi, xi) - 1|: the contact form eta = g(xi, .) must give eta(xi) = 1."""
    return abs(_quadratic(REEB_COMPONENTS, metric_eval(Y, x)) - 1.0)


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
