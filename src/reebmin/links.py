"""Brieskorn-Pham link analysis.

Topology of the link L(a) via the gcd graph, Sasaki-Einstein existence
tests from the Boyer-Galicki-Kollar and Ghigi-Kollar inequalities, the
Milnor-fibre signature count for homotopy 7-spheres, and an enumeration
engine over one-parameter families.  Every inequality is decided in exact
rational arithmetic; the float fast path falls back to exact arithmetic
near a boundary so the two can never disagree.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from . import obstruct
from .errors import NotHomologySphere, UnsupportedDimension

INTEGRAL = "integral_sphere"
RATIONAL = "rational_sphere"
OTHER = "other"

# float comparisons closer to a bound than this are re-decided exactly
_FLOAT_GUARD = 1e-9


@dataclass(frozen=True)
class BPExponents:
    """Exponent vector of a Brieskorn-Pham polynomial sum z_i^(a_i)."""

    a: tuple[int, ...]

    def __post_init__(self):
        if len(self.a) < 2:
            raise ValueError("need at least two exponents")
        if any(x < 2 for x in self.a):
            raise ValueError("exponents must all be >= 2")

    @property
    def n(self) -> int:
        return len(self.a) - 1

    @property
    def degree(self) -> int:
        return lcm(*self.a)

    @property
    def weights(self) -> tuple[int, ...]:
        d = self.degree
        return tuple(d // x for x in self.a)

    @property
    def weight_sum(self) -> int:
        return sum(self.weights)

    @property
    def weight_prod(self) -> int:
        return prod(self.weights)

    def hypersurface(self) -> obstruct.WeightedHS:
        return obstruct.WeightedHS(weights=self.weights, degree=self.degree)


def bp(a) -> BPExponents:
    if isinstance(a, BPExponents):
        return a
    return BPExponents(a=tuple(int(x) for x in a))


@dataclass(frozen=True)
class BrieskornGraph:
    """gcd graph on the exponents: vertices i, edges where gcd(a_i,a_j) > 1."""

    labels: tuple[int, ...]
    edges: frozenset
    components: tuple
    isolated: tuple[int, ...]
    c_even: frozenset  # vertex set of the component holding the even labels


def brieskorn_graph(a) -> BrieskornGraph:
    a = bp(a).a
    m = len(a)
    edges = frozenset(
        (i, j) for i, j in itertools.combinations(range(m), 2) if gcd(a[i], a[j]) > 1
    )
    adj = {i: set() for i in range(m)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = set()
    components = []
    for i in range(m):
        if i in seen:
            continue
        comp = {i}
        stack = [i]
        while stack:
            for k in adj[stack.pop()]:
                if k not in comp:
                    comp.add(k)
                    stack.append(k)
        seen |= comp
        components.append(frozenset(comp))
    evens = [i for i in range(m) if a[i] % 2 == 0]
    c_even = frozenset()
    if evens:
        c_even = next(comp for comp in components if evens[0] in comp)
        assert all(i in c_even for i in evens)
    return BrieskornGraph(
        labels=a,
        edges=edges,
        components=tuple(components),
        isolated=tuple(i for i in range(m) if not adj[i]),
        c_even=c_even,
    )


def _c_even_pairwise_two(graph: BrieskornGraph) -> bool:
    mem = sorted(graph.c_even)
    return all(
        gcd(graph.labels[i], graph.labels[j]) == 2
        for i, j in itertools.combinations(mem, 2)
    )


def homology_classify(a) -> str:
    """Brieskorn's graph criterion: integral / rational homology sphere or neither.

    Integral needs two isolated vertices, or one isolated vertex plus an
    even component of odd size with pairwise gcd exactly 2.  The isolated
    vertex must not itself be that even component (a lone even vertex):
    L(m,..,m,k) with k even, e.g. (3,3,3,4), has middle torsion of order
    k^b and is only a rational homology sphere.  Cross-checked against the
    exact order of the Alexander polynomial at 1 in the test suite.
    """
    graph = brieskorn_graph(a)
    iso = len(graph.isolated)
    even_ok = len(graph.c_even) % 2 == 1 and _c_even_pairwise_two(graph)
    if iso >= 2 or (
        iso == 1 and even_ok and graph.isolated[0] not in graph.c_even
    ):
        return INTEGRAL
    if iso >= 1 or even_ok:
        return RATIONAL
    return OTHER


def reciprocal_sum(a) -> Fraction:
    return sum((Fraction(1, x) for x in bp(a).a), Fraction(0))


def fano_check(a) -> bool:
    """Fano condition sum 1/a_i > 1, decided exactly."""
    return reciprocal_sum(a) > 1


@dataclass(frozen=True)
class BGKResult:
    passed: bool
    failed_condition: int | None  # 1, 2 or 3

    def __bool__(self):
        return self.passed


def _bgk_data(a):
    a = bp(a).a
    m = len(a)
    cs = [lcm(*(a[j] for j in range(m) if j != i)) for i in range(m)]
    bs = [gcd(a[i], cs[i]) for i in range(m)]
    return a, bs


def bgk_check(a, exact=True) -> BGKResult:
    """Boyer-Galicki-Kollar existence conditions with exact fractions.

    With exact=False a float evaluation is used, falling back to the exact
    comparison whenever a margin is within 1e-9 of the bound.
    """
    av, bs = _bgk_data(a)
    n = len(av) - 1
    if exact:
        s = reciprocal_sum(av)
        if not s > 1:
            return BGKResult(False, 1)
        if not s < 1 + Fraction(n, n - 1) * min(Fraction(1, x) for x in av):
            return BGKResult(False, 2)
        bmax = max(bi * bj for bi, bj in itertools.combinations(bs, 2))
        if not s < 1 + Fraction(n, (n - 1) * bmax):
            return BGKResult(False, 3)
        return BGKResult(True, None)
    s = sum(1.0 / x for x in av)
    checks = (
        (s - 1.0, 1),
        (1.0 + n / ((n - 1) * max(av)) - s, 2),
        (1.0 + n / ((n - 1) * max(bi * bj for bi, bj in itertools.combinations(bs, 2))) - s, 3),
    )
    for margin, which in checks:
        if abs(margin) <= _FLOAT_GUARD:
            return bgk_check(av, exact=True)
        if margin < 0:
            return BGKResult(False, which)
    return BGKResult(True, None)


GK_PASS = "pass"
GK_FAIL = "fail"
GK_NA = "not_applicable"


def gk_check(a, exact=True) -> str:
    """Ghigi-Kollar iff-test for pairwise relatively prime exponents."""
    av = bp(a).a
    n = len(av) - 1
    if any(gcd(x, y) > 1 for x, y in itertools.combinations(av, 2)):
        return GK_NA
    if exact:
        s = reciprocal_sum(av)
        return GK_PASS if 1 < s < 1 + Fraction(n, max(av)) else GK_FAIL
    s = sum(1.0 / x for x in av)
    lo, hi = s - 1.0, 1.0 + n / max(av) - s
    if abs(lo) <= _FLOAT_GUARD or abs(hi) <= _FLOAT_GUARD:
        return gk_check(av, exact=True)
    return GK_PASS if (lo > 0 and hi > 0) else GK_FAIL


# --- composite verdict ------------------------------------------------------

EXISTS = "exists"
OBSTRUCTED = "obstructed"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class LinkVerdict:
    exponents: tuple[int, ...]
    fano: bool
    homology_type: str
    bgk: BGKResult
    gk: str
    bishop: str | None        # for the weighted C* Reeb field; None if not Fano
    lichnerowicz: str | None
    outcome: str              # exists | obstructed | inconclusive
    reason: str | None        # witness: which test decided

    def to_dict(self) -> dict:
        return {
            "exponents": list(self.exponents),
            "fano": self.fano,
            "homology_type": self.homology_type,
            "bgk": "pass" if self.bgk.passed else f"fail({self.bgk.failed_condition})",
            "gk": self.gk,
            "bishop": self.bishop,
            "lichnerowicz": self.lichnerowicz,
            "outcome": self.outcome,
            "reason": self.reason,
        }


def link_verdict(a, with_obstructions=True) -> LinkVerdict:
    """Full existence/obstruction report for one Brieskorn-Pham link.

    The obstruction verdicts apply to the canonical weighted Reeb field
    only; "exists" is backed by BGK or GK, everything else without an
    obstruction stays inconclusive (the section-6 tests are one-way).
    """
    e = bp(a)
    fano = fano_check(e)
    bgk = bgk_check(e)
    gk = gk_check(e)
    bishop = lich = None
    if with_obstructions and fano:
        hs = e.hypersurface()
        bishop = obstruct.bishop_check(hs)
        lich = obstruct.lichnerowicz_check(hs).status
    if bgk.passed:
        outcome, reason = EXISTS, "bgk"
    elif gk == GK_PASS:
        outcome, reason = EXISTS, "gk"
    elif gk == GK_FAIL:
        # the GK condition is an iff for pairwise coprime exponents
        outcome, reason = OBSTRUCTED, "gk"
    elif not fano:
        outcome, reason = OBSTRUCTED, "fano"
    elif bishop == "obstructed":
        outcome, reason = OBSTRUCTED, "bishop"
    elif lich == "obstructed":
        outcome, reason = OBSTRUCTED, "lichnerowicz"
    else:
        outcome, reason = INCONCLUSIVE, None
    return LinkVerdict(
        exponents=e.a,
        fano=fano,
        homology_type=homology_classify(e),
        bgk=bgk,
        gk=gk,
        bishop=bishop,
        lichnerowicz=lich,
        outcome=outcome,
        reason=reason,
    )


# --- enumeration ------------------------------------------------------------

def coprime_to_at_least(fixed, count):
    """Predicate: the free exponent is coprime to >= count of the fixed ones."""
    def pred(v: LinkVerdict, _fixed=tuple(fixed), _count=count):
        k = v.exponents[-1]
        return sum(1 for f in _fixed if gcd(f, k) == 1) >= _count
    return pred


NAMED_PREDICATES = {
    "bgk": lambda v: v.bgk.passed,
    "bgk-fail": lambda v: not v.bgk.passed,
    "gk": lambda v: v.gk == GK_PASS,
    "gk-fail": lambda v: v.gk == GK_FAIL,
    "fano": lambda v: v.fano,
    "integral": lambda v: v.homology_type == INTEGRAL,
    "rational": lambda v: v.homology_type in (INTEGRAL, RATIONAL),
    "exists": lambda v: v.outcome == EXISTS,
    "obstructed": lambda v: v.outcome == OBSTRUCTED,
}


def parse_predicate(spec: str):
    """'bgk', 'gk+bgk-fail' (conjunction by '+'), from NAMED_PREDICATES."""
    parts = [p.strip() for p in spec.split("+") if p.strip()]
    try:
        preds = [NAMED_PREDICATES[p] for p in parts]
    except KeyError as e:
        raise ValueError(f"unknown predicate {e.args[0]!r}") from None
    return lambda v: all(p(v) for p in preds)


def enumerate_family(template, values, predicate=None, workers=1,
                     with_obstructions=True):
    """Evaluate a one-slot exponent template over a range of values.

    template holds ints and exactly one None placeholder; values is any
    finite iterable of ints, scanned in ascending order.  Returns the
    ordered list of (value, LinkVerdict) passing the predicate.  With
    workers > 1 the verdicts are computed in a thread pool; output order
    is still the input order.
    """
    slots = [i for i, t in enumerate(template) if t is None]
    if len(slots) != 1:
        raise ValueError("template must contain exactly one None slot")
    slot = slots[0]
    ks = sorted(int(k) for k in values)

    def build(k):
        a = list(template)
        a[slot] = k
        return link_verdict(a, with_obstructions=with_obstructions)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            verdicts = list(pool.map(build, ks))
    else:
        verdicts = [build(k) for k in ks]
    out = []
    for k, v in zip(ks, verdicts):
        if predicate is None or predicate(v):
            out.append((k, v))
    return out


# --- Milnor fibre signature -------------------------------------------------

def milnor_signature(a) -> int:
    """Signature of the Milnor fibre of a 7-dimensional homotopy-sphere link.

    Lattice-point count: tau = #{x : frac in (0,1)} - #{x : frac in (1,2)}
    where frac = sum x_i/a_i mod 2 over 0 < x_i < a_i.  Scaled to integers
    by 2*lcm so the count is exact.
    """
    e = bp(a)
    if len(e.a) != 5:
        raise UnsupportedDimension(f"need 5 exponents, got {len(e.a)}")
    if homology_classify(e) != INTEGRAL:
        raise NotHomologySphere(f"L{e.a} is not an integral homology sphere")
    L = e.degree
    scaled = [L // x for x in e.a]
    plus = minus = 0
    for point in itertools.product(*(range(1, x) for x in e.a)):
        r = sum(p * s for p, s in zip(point, scaled)) % (2 * L)
        if 0 < r < L:
            plus += 1
        elif L < r < 2 * L:
            minus += 1
    return plus - minus


def bp8_class(a) -> int:
    """Class of the link in bP_8 = Z_28, from |signature|/8 mod 28."""
    tau = milnor_signature(a)
    if tau % 8:
        raise NotHomologySphere(f"signature {tau} is not divisible by 8")
    return (abs(tau) // 8) % 28
