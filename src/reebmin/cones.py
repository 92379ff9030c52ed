"""Rational polyhedral moment cones and their toric topology.

A cone is stored by its inward facet normals {v_a}: the moment cone is
C* = {y : <y, v_a> >= 0 for all a}, and its dual C is the fan of the
associated affine toric variety.  All geometry here is exact: ray
enumeration, redundancy elimination and the Gorenstein basis change run
on integers only.

Rays come from signed (n-1)-minors of the normals (generalised cross
products); for n = 3 that is the cross product of two normals, written
out as its three 2x2 minors.  Redundancy is read off the ray/normal
incidences in one pass, as in the double description method: a normal
carves a facet iff it is not repeated and the rays it vanishes on have
rank n-1.

Below rank 3 a rank is a count.  A pointed cone of dimension k <= 2 has
exactly k extreme rays, and two distinct primitive rays of a pointed cone
are linearly independent (the only primitive multiples of r are r and -r,
and a pointed cone never holds both).  The rays a normal vanishes on are
those of a face of dimension at most n-1.  So for n <= 3 the cone is
full-dimensional iff it has at least n rays, and a normal carves a facet
iff it vanishes on at least n-1 of them; the pulling triangulation reads
the facets of a k-face, k <= 3, off the same count.  Bareiss rank runs
only for n >= 4.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd

from . import latcore
from .errors import (
    NonPrimitive,
    NotQGorenstein,
    NotSimplyConnected,
    NotStrictlyConvex,
    RedundantNormal,
    WrongDimension,
)
from .latcore import dot, matvec


@dataclass(frozen=True)
class MomentCone:
    """Strictly convex rational polyhedral cone given by primitive inward normals.

    rays holds the sorted primitive extreme rays of C*, found while the
    normals were validated; they are determined by the normals and take no
    part in equality, hashing or the JSON form.
    """

    n: int
    normals: tuple[tuple[int, ...], ...]
    rays: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    @property
    def d(self) -> int:
        return len(self.normals)

    @cached_property
    def simplices(self) -> tuple[tuple[int, ...], ...]:
        """The pulling triangulation of C*, computed on first use."""
        return _pulling_triangulation(self.rays, self.normals, self.n)

    @cached_property
    def simplex_dets(self) -> tuple[int, ...]:
        """|det| of the integer ray matrix of each simplex, in simplices order."""
        rays = self.rays
        return tuple(abs(latcore.int_det([rays[j] for j in s])) for s in self.simplices)

    def to_dict(self) -> dict:
        return {"n": self.n, "normals": [list(v) for v in self.normals]}


@dataclass(frozen=True)
class GorensteinCone:
    """A moment cone together with a basis in which every normal is (ell, w_a).

    basis_change is T, whose first row is the Gorenstein covector u.
    """

    ell: int
    basis_change: tuple[tuple[int, ...], ...]
    cone: MomentCone  # the original cone transformed so normals read (ell, w_a)


@dataclass(frozen=True)
class ToricTopology:
    pi1_invariants: tuple[int, ...]  # nontrivial torsion coefficients
    pi2_rank: int

    @property
    def simply_connected(self) -> bool:
        return not self.pi1_invariants


@dataclass(frozen=True)
class SmaleType:
    k: int
    label: str


def _cross(rows, n):
    """Generalised cross product of n-1 integer rows in Z^n.

    Entry j is the signed (n-1)-minor with column j deleted, so the result
    is orthogonal to every row and is zero exactly when the rows have rank
    below n-1.
    """
    if n == 3:
        (a, b, c), (d, e, f) = rows
        return (b * f - c * e, c * d - a * f, a * e - b * d)
    return tuple(
        (-1) ** j * latcore.int_det([row[:j] + row[j + 1:] for row in rows])
        for j in range(n)
    )


def _extreme_rays_pointed(ineqs, n):
    """Extreme rays of {y : <y, w> >= 0 for w in ineqs} for rank-n ineqs.

    Every (n-1)-subset of rank n-1 cuts out a line, spanned by the primitive
    cross product of its normals; the line carries a ray when one
    orientation satisfies every inequality.  Valid whenever the cone is
    pointed, which rank(ineqs) = n guarantees.
    """
    ineqs = [tuple(w) for w in ineqs]
    seen = set()
    rays = set()
    for subset in itertools.combinations(ineqs, n - 1):
        z = _cross(subset, n)
        g = gcd(*z)
        if not g:
            continue
        # one sign per line, so a line cut out by several subsets is tested once
        if next(x for x in z if x) < 0:
            g = -g
        z = tuple(x // g for x in z)
        if z in seen:
            continue
        seen.add(z)
        neg = pos = False
        for w in ineqs:
            p = dot(z, w)
            if p < 0:
                neg = True
            elif p > 0:
                pos = True
            else:
                continue
            if neg and pos:
                break
        else:
            rays.add(tuple(-x for x in z) if neg else z)
    return tuple(sorted(rays))


def validate_cone(normals) -> MomentCone:
    """Check and wrap a set of inward normals.

    Raises NonPrimitive for a zero or imprimitive normal, NotStrictlyConvex
    when the cut-out cone contains a line or has empty interior, and
    RedundantNormal at the first normal that does not carve a facet.  The
    facet test is one incidence pass over the extreme rays (double
    description): a normal carves a facet iff it occurs once and the rays
    it vanishes on have rank n-1.  Both copies of a repeated normal count
    as redundant.
    """
    vs = [tuple(v) for v in normals]
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
    rays = _extreme_rays_pointed(vs, n)
    if len(rays) < n or n > 3 and latcore.rank(rays) < n:
        raise NotStrictlyConvex("empty interior: the cone is not full-dimensional")
    counts = Counter(vs)
    for i, v in enumerate(vs):
        tight = [r for r in rays if dot(r, v) == 0]
        if counts[v] > 1 or len(tight) < n - 1 or n > 3 and latcore.rank(tight) < n - 1:
            raise RedundantNormal(i)
    return MomentCone(n=n, normals=tuple(vs), rays=rays)


# the cache only serves the benchmark tracer, which reads its cache_info()
@lru_cache(maxsize=None)
def extreme_rays(cone: MomentCone) -> tuple[tuple[int, ...], ...]:
    """Primitive extreme rays of the moment cone C* itself."""
    return cone.rays


def triangulation(cone: MomentCone) -> tuple[tuple[int, ...], ...]:
    """Simplicial decomposition of C* on its extreme rays.

    Returns n-tuples of ray indices (into cone.rays) whose simplicial
    subcones cover C* with disjoint interiors; the pulling triangulation
    with the lexicographically first ray as apex at every level.  Computed
    once per cone object and kept on it.
    """
    return cone.simplices


def _pulling_triangulation(rays, normals, n):
    def face_facets(face, k):
        # sub holds the rays of a proper face, of dimension at most k-1, so
        # for k <= 3 it has rank k-1 iff it holds at least k-1 rays
        found = set()
        for v in normals:
            sub = tuple(j for j in face if dot(rays[j], v) == 0)
            if len(sub) < k - 1 or sub == face:
                continue
            if k <= 3 or latcore.rank([rays[j] for j in sub]) == k - 1:
                found.add(sub)
        return found

    def rec(face, k):
        if len(face) == k:
            return [face]
        apex = face[0]
        pieces = []
        for facet in sorted(face_facets(face, k)):
            if apex in facet:
                continue
            for simplex in rec(facet, k - 1):
                pieces.append((apex,) + simplex)
        return pieces

    return tuple(rec(tuple(range(len(rays))), n))


def gorenstein_normalize(cone: MomentCone) -> GorensteinCone:
    """Find the basis in which every normal has first coordinate ell >= 1.

    Solves exactly for the primitive integer covector u with <u, v_a> = ell
    common and minimal positive, then completes u to a unimodular basis
    change.  Raises NotQGorenstein if the normals lie on no common affine
    hyperplane of that kind.  The rays move with the normals: a normal v
    becomes T v and a ray r becomes (T^-1)^T r, so every pairing is kept.
    """
    vs = cone.normals
    n = cone.n
    diffs = [[v[i] - vs[0][i] for i in range(n)] for v in vs[1:]]
    kernel = latcore.integer_kernel(diffs, ncols=n) if diffs else latcore.identity(n)
    if not kernel:
        raise NotQGorenstein("normals lie on no common hyperplane <u, .> = ell")
    heights = [dot(k, vs[0]) for k in kernel]
    if all(h == 0 for h in heights):
        raise NotQGorenstein("every admissible covector annihilates the normals")
    # Bezout-combine kernel vectors to reach the minimal positive height
    g, coeffs = heights[0], [1] + [0] * (len(kernel) - 1)
    for j in range(1, len(kernel)):
        g, x, y = latcore.xgcd(g, heights[j])
        coeffs = [x * c for c in coeffs]
        coeffs[j] += y
    u = tuple(sum(c * k[i] for c, k in zip(coeffs, kernel)) for i in range(n))
    if dot(u, vs[0]) < 0:
        u = tuple(-x for x in u)
        g = -g
    ell = dot(u, vs[0])
    assert ell == abs(g) >= 1
    T, T_inv = latcore.unimodular_completion(u)
    new_normals = tuple(tuple(matvec(T, v)) for v in vs)
    assert all(v[0] == ell for v in new_normals)
    T_inv_t = latcore.transpose(T_inv)
    new_rays = tuple(sorted(tuple(matvec(T_inv_t, r)) for r in cone.rays))
    return GorensteinCone(
        ell=ell,
        basis_change=tuple(tuple(row) for row in T),
        cone=MomentCone(n=n, normals=new_normals, rays=new_rays),
    )


def topology(cone: MomentCone) -> ToricTopology:
    """pi_1 torsion and pi_2 rank of the associated toric Sasakian manifold.

    pi_1 is the quotient of Z^n by the span of the normals, read off the
    Smith form; pi_2 has rank d - n.
    """
    factors = latcore.invariant_factors([list(v) for v in cone.normals])
    return ToricTopology(
        pi1_invariants=tuple(f for f in factors if f != 1),
        pi2_rank=cone.d - cone.n,
    )


def smale_type(cone: MomentCone) -> SmaleType:
    """Diffeomorphism label #k(S^2 x S^3) of a simply-connected 5-manifold."""
    if cone.n != 3:
        raise WrongDimension(f"need n = 3, got n = {cone.n}")
    top = topology(cone)
    if not top.simply_connected:
        raise NotSimplyConnected(f"pi1 invariants {top.pi1_invariants}")
    k = cone.d - 3
    return SmaleType(k=k, label="S^5" if k == 0 else f"#{k}(S^2xS^3)")
