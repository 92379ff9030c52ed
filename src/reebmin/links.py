"""Brieskorn-Pham link analysis.

Topology of the link L(a) from the pairwise gcds of its exponents,
Sasaki-Einstein existence tests from the Boyer-Galicki-Kollar and
Ghigi-Kollar inequalities, the Milnor-fibre signature count for homotopy
7-spheres, and an enumeration engine over one-parameter families.  Each
inequality compares rationals whose denominators divide d = lcm(a), so it
is decided as one comparison of integers after multiplying through by d:
with |w| = sum d/a_i the reciprocal sum is sum 1/a_i = |w|/d.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from . import obstruct
from .errors import NotHomologySphere, UnsupportedDimension

INTEGRAL = "integral_sphere"
RATIONAL = "rational_sphere"
OTHER = "other"


@dataclass(frozen=True)
class BPExponents:
    """Exponent vector of a Brieskorn-Pham polynomial sum z_i^(a_i).

    Construction also sets the facts that every verdict reads: degree
    d = lcm(a), weights d/a_i, weight_sum |w| and pair_gcds, the
    symmetric table of gcd(a_i, a_j) with a_i itself on the diagonal.
    They are derived from a, which alone decides equality, hash and repr.
    """

    a: tuple[int, ...]

    def __post_init__(self):
        if len(self.a) < 2:
            raise ValueError("need at least two exponents")
        if min(self.a) < 2:
            raise ValueError("exponents must all be >= 2")
        a = self.a
        d = lcm(*a)
        weights = tuple(d // x for x in a)
        rows = [[x] * len(a) for x in a]
        for i in range(1, len(a)):
            row, x = rows[i], a[i]
            for j in range(i):
                row[j] = rows[j][i] = gcd(x, a[j])
        object.__setattr__(self, "degree", d)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "weight_sum", sum(weights))
        object.__setattr__(self, "pair_gcds", tuple(map(tuple, rows)))

    @property
    def n(self) -> int:
        return len(self.a) - 1


def bp(a) -> BPExponents:
    if isinstance(a, BPExponents):
        return a
    return BPExponents(a=tuple(a))


def homology_classify(a) -> str:
    """Brieskorn's graph criterion: integral / rational homology sphere or neither.

    The graph joins i and j when gcd(a_i, a_j) > 1.  Integral needs two
    isolated vertices, or one isolated vertex plus an even component of
    odd size with pairwise gcd exactly 2.  No component search is needed:
    a vertex is isolated when its gcd row is 1 off the diagonal, and the
    even exponents share one component, whose pairwise gcds are all 2
    only if it holds no odd exponent (an odd one has odd gcds).  So it
    qualifies exactly when the even exponents are odd in number, of
    pairwise gcd 2 and coprime to every odd one.  The isolated vertex
    must not itself be that even component (a lone even vertex):
    L(m,..,m,k) with k even, e.g. (3,3,3,4), has middle torsion of order
    k^b and is only a rational homology sphere.  Cross-checked against
    the exact order of the Alexander polynomial at 1 in the test suite.
    """
    e = bp(a)
    a, g = e.a, e.pair_gcds
    # entries are >= 1, so the m - 1 off the diagonal sum to m - 1 only if all are 1
    m = len(a)
    isolated = [i for i, row in enumerate(g) if sum(row) - a[i] == m - 1]
    evens = [i for i, x in enumerate(a) if x % 2 == 0]
    even_ok = len(evens) % 2 == 1 and all(
        g[i][j] == (2 if a[j] % 2 == 0 else 1)
        for i in evens for j in range(len(a)) if j != i
    )
    if len(isolated) >= 2 or (len(isolated) == 1 and even_ok and a[isolated[0]] % 2):
        return INTEGRAL
    if isolated or even_ok:
        return RATIONAL
    return OTHER


def reciprocal_sum(a) -> Fraction:
    """sum 1/a_i = |w|/d."""
    e = bp(a)
    return Fraction(e.weight_sum, e.degree)


def fano_check(a) -> bool:
    """Fano condition sum 1/a_i > 1, that is |w| > d."""
    e = bp(a)
    return e.weight_sum > e.degree


@dataclass(frozen=True)
class BGKResult:
    passed: bool
    failed_condition: int | None  # 1, 2 or 3

    def __bool__(self):
        return self.passed


# the four results bgk_check returns: the pass, then the fail of (1), (2), (3)
_BGK_PASS, _BGK_FAIL1, _BGK_FAIL2, _BGK_FAIL3 = (
    BGKResult(True, None), BGKResult(False, 1), BGKResult(False, 2), BGKResult(False, 3))


def _bgk_bmax(e: BPExponents) -> int:
    """max b_i b_j over i < j, where b_i = gcd(a_i, lcm of the other a_j).

    gcd distributes over lcm, so b_i is the lcm of gcd(a_i, a_j) over
    j != i: row i of the gcd table without its diagonal entry.
    """
    bs = [lcm(*row[:i], *row[i + 1:]) for i, row in enumerate(e.pair_gcds)]
    return max(bi * bj for bi, bj in itertools.combinations(bs, 2))


def bgk_check(a) -> BGKResult:
    """Boyer-Galicki-Kollar existence conditions, in integers.

    With s = sum 1/a_i = |w|/d and n = len(a) - 1 the conditions are
    (1) s > 1, (2) s < 1 + n/((n-1) max a_i) and
    (3) s < 1 + n/((n-1) max b_i b_j).  Multiplied through by d and the
    positive denominators they read (1) |w| > d,
    (2) |w| (n-1) max a < d ((n-1) max a + n) and (3) the same with
    max b_i b_j in place of max a.  The first one that fails is reported.
    """
    e = bp(a)
    d, w, n = e.degree, e.weight_sum, e.n
    if not w > d:
        return _BGK_FAIL1
    # (1) fails for every pair of exponents, so n >= 2 from here on
    amax = max(e.a)
    if not w * (n - 1) * amax < d * ((n - 1) * amax + n):
        return _BGK_FAIL2
    bmax = _bgk_bmax(e)
    if not w * (n - 1) * bmax < d * ((n - 1) * bmax + n):
        return _BGK_FAIL3
    return _BGK_PASS


GK_PASS = "pass"
GK_FAIL = "fail"
GK_NA = "not_applicable"


def gk_check(a) -> str:
    """Ghigi-Kollar iff-test for pairwise relatively prime exponents.

    1 < s < 1 + n/max a, in integers d < |w| and |w| max a < d (max a + n).
    """
    e = bp(a)
    # the table is symmetric: the entries below the diagonal are the pairs
    if any(x > 1 for i, row in enumerate(e.pair_gcds) for x in row[:i]):
        return GK_NA
    d, w, amax = e.degree, e.weight_sum, max(e.a)
    return GK_PASS if d < w and w * amax < d * (amax + e.n) else GK_FAIL


# --- composite verdict ------------------------------------------------------

EXISTS = "exists"
OBSTRUCTED = "obstructed"
INCONCLUSIVE = "inconclusive"


# not frozen, whose __init__ costs about a microsecond per verdict; equality
# and the hash stay those of the fields
@dataclass(slots=True, unsafe_hash=True)
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


def link_verdict(a) -> LinkVerdict:
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
    if fano:
        # the weights d/a_i are primitive: each prime's full power in
        # d = lcm(a) divides some a_j, so d/a_j is prime to it
        bishop = obstruct.bishop_status(e.weights, e.degree)
        lich = obstruct.lichnerowicz_status(e.weights, e.degree)
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
    """'bgk', 'gk+bgk-fail' (conjunction by '+'), from NAMED_PREDICATES.

    Blanks around a name are stripped; an empty part ('', 'bgk+', '+')
    names nothing and is an error, not a predicate that holds always.
    """
    parts = [p.strip() for p in spec.split("+")]
    if not all(parts):
        raise ValueError(f"empty part in predicate {spec!r}")
    try:
        preds = [NAMED_PREDICATES[p] for p in parts]
    except KeyError as e:
        raise ValueError(f"unknown predicate {e.args[0]!r}") from None
    return lambda v: all(p(v) for p in preds)


def enumerate_family(template, values, predicate=None):
    """Evaluate a one-slot exponent template over a range of values.

    template holds ints and exactly one None placeholder; values is any
    finite iterable of ints, scanned in ascending order.  Returns the
    ordered list of (value, LinkVerdict) passing the predicate.
    """
    slots = [i for i, t in enumerate(template) if t is None]
    if len(slots) != 1:
        raise ValueError("template must contain exactly one None slot")
    slot = slots[0]
    out = []
    for k in sorted(values):
        a = list(template)
        a[slot] = k
        v = link_verdict(a)
        if predicate is None or predicate(v):
            out.append((k, v))
    return out


# --- Milnor fibre signature -------------------------------------------------

def milnor_signature(a) -> int:
    """Signature of the Milnor fibre of a 7-dimensional homotopy-sphere link.

    tau = #{x : S(x) mod 2L in (0, L)} - #{x : S(x) mod 2L in (L, 2L)}
    over 0 < x_i < a_i, with L = lcm(a) and the integer S(x) = sum x_i w_i,
    w_i = L/a_i.  As 0 < S < 5L, tau is the sum over k = 0..4 of
    (-1)^k #{x : kL < S(x) < (k+1)L}.  No point has S on a multiple of L:
    some a_i is coprime to all the others, so x_i/a_i keeps S/L off the
    integers.  (Off the spheres such points would not tip the count
    either: closing an interval counts one in two neighbours with
    opposite signs, and half-closing counts it and its mirror point,
    S -> 5L - S, with opposite signs.)

    Meet in the middle: of the 2^4 splits of the five exponents into two
    groups, take the one whose larger group has the fewest points, list
    the integer partial sums of each group and sort those of the larger.
    For each sum s of the smaller group, bisection counts the sorted sums
    t in each open interval (kL - s, (k+1)L - s): bisect_left at the upper
    end and bisect_right at the lower one.  Each point x is exactly one
    pair (s, t) and all arithmetic is on integers, so the count is exact.
    It sorts and bisects about sqrt(prod(a_i - 1)) sums instead of
    visiting prod(a_i - 1) points: 720 sorted and 288 outer sums for
    (19,17,13,11,7), not 207,360 points.
    """
    e = bp(a)
    if len(e.a) != 5:
        raise UnsupportedDimension(f"need 5 exponents, got {len(e.a)}")
    if homology_classify(e) != INTEGRAL:
        raise NotHomologySphere(f"L{e.a} is not an integral homology sphere")
    L = e.degree
    # the terms x_i w_i with 0 < x_i < a_i, one range per exponent
    steps = [range(w, x * w, w) for x, w in zip(e.a, e.weights)]
    sizes = list(map(len, steps))
    total = prod(sizes)
    # points[j] is the number of points of the group {0} + {i : bit i-1 of
    # j}, so the 2^4 indices j name each split once
    points = sizes[:1]
    for x in sizes[1:]:
        points += [p * x for p in points]
    j = min(range(16), key=lambda j: max(points[j], total // points[j]))
    group = 2 * j + 1  # bit i set: exponent i is in the group
    outer, inner = sorted(
        (_partial_sums(s for i, s in enumerate(steps) if group >> i & 1),
         _partial_sums(s for i, s in enumerate(steps) if not group >> i & 1)),
        key=len,
    )
    inner.sort()

    def pairs(cut, x):
        # pairs (s, t) with s + t < x for bisect_left, s + t <= x for bisect_right
        return sum(cut(inner, x - s) for s in outer)

    tau = 0
    for k in range(5):
        inside = pairs(bisect_left, (k + 1) * L) - pairs(bisect_right, k * L)
        tau += -inside if k % 2 else inside
    return tau


def _partial_sums(steps) -> list[int]:
    """Every sum of one term from each range in steps (just 0 for none)."""
    sums = [0]
    for step in steps:
        sums = [s + t for s in sums for t in step]
    return sums


def bp8_class(a) -> int:
    """Class of the link in bP_8 = Z_28, from |signature|/8 mod 28."""
    tau = milnor_signature(a)
    if tau % 8:
        raise NotHomologySphere(f"signature {tau} is not divisible by 8")
    return (abs(tau) // 8) % 28
