"""Volume and eigenvalue obstructions for weighted homogeneous links.

The Bishop test compares the link volume against the round sphere, the
Lichnerowicz test bounds the smallest Reeb charge of a holomorphic
coordinate; both are necessary conditions for the canonical weighted Reeb
field, so "unobstructed" never asserts existence.  Also hosts the join
smoothness criterion for products of Sasaki-Einstein orbifolds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .errors import NotFano

OBSTRUCTED = "obstructed"
UNOBSTRUCTED = "unobstructed"
MARGINAL = "unobstructed-marginal"


@dataclass(frozen=True)
class WeightedHS:
    """Weighted homogeneous hypersurface data (w_0..w_n; d), gcd-normalized."""

    weights: tuple[int, ...]
    degree: int

    def __post_init__(self):
        if len(self.weights) < 2:
            raise ValueError("need at least two weights")
        if any(w < 1 for w in self.weights) or self.degree < 1:
            raise ValueError("weights and degree must be positive")
        g = 0
        for w in self.weights:
            g = gcd(g, w)
        if g > 1:
            # imprimitive torus action; a weighted homogeneous polynomial of
            # this degree exists only if the degree carries the same factor.
            # A report shows the normalized weights next to the input ones.
            if self.degree % g:
                raise ValueError(
                    f"degree {self.degree} not divisible by gcd(weights) = {g}"
                )
            object.__setattr__(self, "weights", tuple(w // g for w in self.weights))
            object.__setattr__(self, "degree", self.degree // g)

    @property
    def n(self) -> int:
        return len(self.weights) - 1

    @property
    def weight_sum(self) -> int:
        return sum(self.weights)

    @property
    def weight_prod(self) -> int:
        return prod(self.weights)

    @property
    def w_min(self) -> int:
        return min(self.weights)


def _require_fano(h: WeightedHS):
    if not h.degree < h.weight_sum:
        raise NotFano(f"degree {h.degree} >= |w| = {h.weight_sum}")


def hs_volume(h: WeightedHS) -> tuple[float, Fraction]:
    """Link volume for the weighted C* Reeb field, and its round-sphere ratio.

    vol(S, g) = 2d / (w (n-1)!) * (pi (|w| - d) / n)^n, and the exact
    normalized ratio is d (|w| - d)^n / (w n^n).
    """
    _require_fano(h)
    n, d = h.n, h.degree
    excess = h.weight_sum - d
    volume = 2 * d / (h.weight_prod * math.factorial(n - 1)) * (math.pi * excess / n) ** n
    normalized = Fraction(d * excess**n, h.weight_prod * n**n)
    return volume, normalized


def bishop_status(weights, degree: int) -> str:
    """Obstructed iff the link volume exceeds the round sphere's.

    Exact integer comparison of d (|w| - d)^n against w n^n, for the
    primitive weights of a Fano hypersurface.
    """
    n = len(weights) - 1
    excess = sum(weights) - degree
    return OBSTRUCTED if degree * excess**n > prod(weights) * n**n else UNOBSTRUCTED


def lichnerowicz_status(weights, degree: int) -> str:
    """Obstructed iff |w| - d > n w_min, i.e. some coordinate has charge < 1.

    Charge exactly 1 is the marginal case (reported, not obstructed: the
    sharpening by Obata rigidity needs topological input not verified
    here).  Same data as bishop_status.
    """
    bound = (len(weights) - 1) * min(weights)
    excess = sum(weights) - degree
    return OBSTRUCTED if excess > bound else MARGINAL if excess == bound else UNOBSTRUCTED


def bishop_check(h: WeightedHS) -> str:
    _require_fano(h)
    return bishop_status(h.weights, h.degree)


@dataclass(frozen=True)
class LichResult:
    status: str                  # obstructed | unobstructed | unobstructed-marginal
    witness_index: int           # coordinate of smallest weight
    charge: Fraction             # lambda = n w_min / (|w| - d)
    eigenvalue: Fraction         # nu = lambda (lambda + 2(n-1))


def lichnerowicz_check(h: WeightedHS) -> LichResult:
    """lichnerowicz_status with its witness, the minimal-weight coordinate."""
    _require_fano(h)
    n = h.n
    lam = Fraction(n * h.w_min, h.weight_sum - h.degree)
    return LichResult(
        status=lichnerowicz_status(h.weights, h.degree),
        witness_index=h.weights.index(h.w_min),
        charge=lam,
        eigenvalue=lam * (lam + 2 * (n - 1)),
    )


# --- the join ---------------------------------------------------------------


@dataclass(frozen=True)
class JoinInput:
    """One Sasaki-Einstein factor: orbifold order, Fano index, dimension 2n-1."""

    order: int
    fano_index: int
    n: int

    def __post_init__(self):
        if self.order < 1 or self.fano_index < 1 or self.n < 1:
            raise ValueError("order, Fano index and n must be >= 1")


@dataclass(frozen=True)
class JoinResult:
    smooth: bool
    dimension: int
    l1: int
    l2: int
    obstruction_gcd: int

    @property
    def kind(self) -> str:
        return "smooth" if self.smooth else "orbifold"


def join_smooth(f1: JoinInput, f2: JoinInput) -> JoinResult:
    """Smoothness of the join of two quasi-regular Sasaki-Einstein spaces.

    With relative Fano indices l_i = I(Z_i)/gcd(I(Z_1), I(Z_2)), the join is
    a smooth manifold iff gcd(ord(Z_1) l_2, ord(Z_2) l_1) = 1; it always has
    dimension 2(n_1 + n_2) - 3.
    """
    g = gcd(f1.fano_index, f2.fano_index)
    l1, l2 = f1.fano_index // g, f2.fano_index // g
    obstruction = gcd(f1.order * l2, f2.order * l1)
    return JoinResult(
        smooth=obstruction == 1,
        dimension=2 * (f1.n + f2.n) - 3,
        l1=l1,
        l2=l2,
        obstruction_gcd=obstruction,
    )
