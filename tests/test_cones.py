import random
from collections import Counter

import pytest

from reebmin import cones as cn
from reebmin import latcore as lc
from reebmin.errors import (
    NonPrimitive,
    NotQGorenstein,
    NotSimplyConnected,
    NotStrictlyConvex,
    RedundantNormal,
    WrongDimension,
)

import cone_suite
import oracles

CONIFOLD = [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)]
Y21 = [(1, 0, 0), (1, 2, 0), (1, 0, 1), (1, 3, -1)]
# heptagon over a strictly convex lattice 7-gon, all normals at height 1
HEPTAGON = [
    (1, 0, 0), (1, 1, 0), (1, 2, 1), (1, 2, 2), (1, 1, 3), (1, 0, 3), (1, -1, 2),
]


def test_validate_quadrant():
    c = cn.validate_cone([(1, 0), (0, 1)])
    assert c.n == 2 and c.d == 2


def test_validate_rejects_line():
    with pytest.raises(NotStrictlyConvex):
        cn.validate_cone([(1, 0), (-1, 0)])


def test_validate_rejects_empty_interior():
    with pytest.raises(NotStrictlyConvex):
        cn.validate_cone([(1, 0), (-1, 1), (-1, -1)])


def test_validate_rejects_nonprimitive():
    with pytest.raises(NonPrimitive) as err:
        cn.validate_cone([(2, 0), (0, 2)])
    assert err.value.index == 0
    with pytest.raises(NonPrimitive):
        cn.validate_cone([(1, 0), (0, 0)])


def test_validate_takes_no_float_for_an_integer():
    # read as (1, 0, 0), the first normal would give the conifold
    with pytest.raises(TypeError):
        cn.validate_cone([(1.5, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)])


def test_validate_rejects_redundant():
    with pytest.raises(RedundantNormal) as err:
        cn.validate_cone([(1, 0), (1, 1), (1, 2)])  # middle one is implied
    assert err.value.index == 1
    with pytest.raises(RedundantNormal) as err:
        cn.validate_cone([(1, 0), (0, 1), (1, 0)])  # duplicate
    assert err.value.index == 0  # both copies are redundant


def convex_hull(points):
    """Vertices of the convex hull of distinct 2D points, counter-clockwise."""

    def chain(pts):
        hull = []
        for p in pts:
            while len(hull) >= 2 and (
                (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                - (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])
            ) <= 0:
                hull.pop()
            hull.append(p)
        return hull

    pts = sorted(points)
    return chain(pts)[:-1] + chain(pts[::-1])[:-1]


def random_lattice_polygon(rng, size=4):
    while True:
        hull = convex_hull({(rng.randint(0, size), rng.randint(0, size)) for _ in range(8)})
        if len(hull) >= 3:
            return hull


def test_validate_reports_inserted_implied_normal():
    rng = random.Random(17)
    for _ in range(30):
        hull = random_lattice_polygon(rng)
        normals = [(1, x, y) for x, y in hull]
        # the midpoint of two vertices lies on an edge or inside the
        # polygon, so its normal is implied by the others
        a, b = rng.sample(range(len(hull)), 2)
        implied = oracles.primitive((2, hull[a][0] + hull[b][0], hull[a][1] + hull[b][1]))
        pos = rng.randint(0, len(normals))
        normals.insert(pos, implied)
        t = oracles.random_unimodular(3, rng)
        framed = [lc.matvec(t, list(v)) for v in normals]
        with pytest.raises(RedundantNormal) as err:
            cn.validate_cone(framed)
        assert err.value.index == pos


def test_polygon_rays_are_crossings_of_adjacent_normals():
    # n = 3: a ray of C* is the primitive cross product of two normals that
    # are adjacent around the polygon, oriented into the cone
    rng = random.Random(41)
    for _ in range(60):
        normals = oracles.cyclic_order([(1, x, y) for x, y in random_lattice_polygon(rng)])
        t = oracles.random_unimodular(3, rng)
        framed = [tuple(lc.matvec(t, list(v))) for v in normals]
        d = len(framed)
        expected = set()
        for a in range(d):
            z = oracles.primitive(oracles._cross3(framed[a], framed[(a + 1) % d]))
            if oracles._dot(z, framed[(a + 2) % d]) < 0:
                z = tuple(-x for x in z)
            expected.add(z)
        rng.shuffle(framed)
        assert cn.validate_cone(framed).rays == tuple(sorted(expected)), framed


def validation_outcome(validate, normals):
    try:
        cone = validate(normals)
    except (NonPrimitive, RedundantNormal) as err:
        return type(err).__name__, err.index
    except NotStrictlyConvex as err:
        return "NotStrictlyConvex", str(err)
    return "valid", getattr(cone, "rays", cone)


def random_normal_set(rng, n):
    """Normals of every validation outcome: random small vectors, and valid
    cones in random frames with a duplicate, an implied normal, a common
    factor or a lost dimension put in."""
    kind = rng.randrange(6)
    if kind == 0:
        return [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(n, n + 3))]
    if n == 3:
        base = [(1, x, y) for x, y in random_lattice_polygon(rng)]
    else:
        base = [tuple(v) for v in rng.choice(
            [cone_suite.CONES[k] for k in ("orthant4", "flat4", "y7_3_labc", "y13_7_labc")])]
        base.append(tuple(rng.randint(-2, 3) for _ in range(n)))
    t = oracles.random_unimodular(n, rng)
    vs = [tuple(lc.matvec(t, list(v))) for v in base]
    i = rng.randrange(len(vs))
    if kind == 1:
        vs.insert(rng.randint(0, len(vs)), vs[i])
    elif kind == 2:
        j = rng.randrange(len(vs))
        vs.insert(rng.randint(0, len(vs)), oracles.primitive([a + b for a, b in zip(vs[i], vs[j])]))
    elif kind == 3:
        vs[i] = tuple(2 * x for x in vs[i])
    elif kind == 4:
        # drop the last coordinate: the normals cannot span
        vs = [v[:-1] + (0,) for v in vs]
    return vs


@pytest.mark.parametrize("n, trials", [(3, 1500), (4, 250)])
def test_validate_matches_the_general_minor_enumerator(n, trials):
    rng = random.Random(53 + n)
    seen = Counter()
    for _ in range(trials):
        vs = random_normal_set(rng, n)
        got = validation_outcome(cn.validate_cone, vs)
        assert got == validation_outcome(oracles.validate_cone_by_minors, vs), vs
        seen[got[0]] += 1
    assert set(seen) == {"valid", "NonPrimitive", "NotStrictlyConvex", "RedundantNormal"}, seen


def test_validate_needs_no_integer_kernel(monkeypatch):
    # guard on the amount of work, not on wall time: the facet test reads
    # incidences and takes no Smith-form kernels
    calls = []
    kernel = lc.integer_kernel

    def counting(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(lc, "integer_kernel", counting)
    cone = cn.validate_cone([(1, k, k * k) for k in range(24)])
    assert cone.d == 24
    assert calls == []


def test_validate_conifold():
    c = cn.validate_cone(CONIFOLD)
    assert c.d == 4 and c.n == 3


def dual_cone(c):
    """The generating rays of C = {xi : <y, xi> >= 0 on C*}, from the rays of C*."""
    return cn._extreme_rays_pointed(c.rays, c.n)


def test_dual_cone_quadrant_self_dual():
    c = cn.validate_cone([(1, 0), (0, 1)])
    assert dual_cone(c) == ((0, 1), (1, 0))


def test_dual_cone_flat_pairings():
    c = cone_suite.cone("flat3")
    rays = cn.extreme_rays(c)
    assert len(rays) == 3
    for r in rays:
        assert all(lc.dot(r, v) >= 0 for v in c.normals)


def test_dual_cone_conifold_zero_pattern():
    c = cn.validate_cone(CONIFOLD)
    dual = dual_cone(c)
    assert len(dual) == 4
    assert sorted(dual) == sorted(tuple(v) for v in CONIFOLD)
    rays = cn.extreme_rays(c)
    # each dual ray kills exactly the n-1 = 2 cone rays on its adjacent facets
    for xi in dual:
        pairings = [lc.dot(r, xi) for r in rays]
        assert all(p >= 0 for p in pairings)
        assert sum(1 for p in pairings if p == 0) == 2
    for r in rays:
        assert sum(1 for xi in dual if lc.dot(r, xi) == 0) == 2


def test_dual_of_dual_recovers_cone():
    for normals in ([(1, 0), (0, 1)], CONIFOLD, Y21, HEPTAGON):
        c = cn.validate_cone(normals)
        again = dual_cone(cn.validate_cone(cn.extreme_rays(c)))
        assert sorted(again) == sorted(cn.extreme_rays(c))
        assert sorted(dual_cone(c)) == sorted(tuple(v) for v in normals)


def test_gorenstein_conifold_identity():
    g = cn.gorenstein_normalize(cn.validate_cone(CONIFOLD))
    assert g.ell == 1
    assert g.basis_change[0] == (1, 0, 0)
    assert g.basis_change == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert g.cone.normals == tuple(CONIFOLD)


def test_gorenstein_wedge():
    g = cn.gorenstein_normalize(cn.validate_cone([(1, 0), (1, 2)]))
    assert g.ell == 1 and g.basis_change[0] == (1, 0)


def test_gorenstein_quadrant_transform():
    c = cn.validate_cone([(1, 0), (0, 1)])
    g = cn.gorenstein_normalize(c)
    assert g.ell == 1
    assert g.basis_change[0] == (1, 1)
    assert sorted(g.cone.normals) == [(1, 0), (1, 1)]
    # transformed normals are the unimodular images of the originals
    t = [list(r) for r in g.basis_change]
    assert abs(lc.int_det(t)) == 1
    images = [tuple(lc.matvec(t, list(v))) for v in c.normals]
    assert images == list(g.cone.normals)


def test_gorenstein_ell_two():
    g = cn.gorenstein_normalize(cn.validate_cone([(2, 1), (2, -1)]))
    assert g.ell == 2


def test_not_q_gorenstein():
    c = cn.validate_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, -1)])
    with pytest.raises(NotQGorenstein):
        cn.gorenstein_normalize(c)


def test_topology_examples():
    top = cn.topology(cn.validate_cone(CONIFOLD))
    assert top.pi1_invariants == () and top.pi2_rank == 1

    top = cn.topology(cn.validate_cone([(1, 0), (1, 2)]))
    assert top.pi1_invariants == (2,) and top.pi2_rank == 0

    top = cn.topology(cn.validate_cone(lc.identity(4)))
    assert top.pi1_invariants == () and top.pi2_rank == 0


def test_topology_unimodular_invariance():
    rng = random.Random(99)
    base = cn.validate_cone(Y21)
    reference = cn.topology(base)
    for _ in range(25):
        t = oracles.random_unimodular(3, rng)
        transformed = cn.validate_cone([lc.matvec(t, list(v)) for v in base.normals])
        assert cn.topology(transformed) == reference


def test_smale_type():
    assert cn.smale_type(cn.validate_cone(CONIFOLD)) == cn.SmaleType(1, "#1(S^2xS^3)")
    assert cn.smale_type(cone_suite.cone("flat3")) == cn.SmaleType(0, "S^5")
    assert cn.smale_type(cn.validate_cone(HEPTAGON)).k == 4
    with pytest.raises(WrongDimension):
        cn.smale_type(cone_suite.cone("flat2"))
    with pytest.raises(NotSimplyConnected):
        cn.smale_type(cn.validate_cone([(1, 0, 0), (1, 2, 0), (1, 0, 2)]))


def test_triangulation_covers_volume():
    # simplex count and ray-set sanity for the square-based cone
    c = cn.validate_cone(CONIFOLD)
    tri = cn.triangulation(c)
    assert len(tri) == 2
    assert all(len(s) == 3 for s in tri)


def test_json_round_trip():
    c = cn.validate_cone(CONIFOLD)
    assert cn.validate_cone(c.to_dict()["normals"]) == c


def test_unimodular_match_negative():
    assert oracles.unimodular_match(CONIFOLD, [(1, 0, 0), (1, 1, 0), (1, 2, 1), (1, 0, 1)]) is None


# --- rays carried on the cone -------------------------------------------------


def test_gorenstein_maps_rays_like_a_fresh_enumeration():
    # (T^-1)^T applied to the stored rays, sorted, is exactly the tuple a
    # fresh enumeration of the transformed normals returns
    rng = random.Random(23)
    checked = 0
    for name, normals in cone_suite.CONES.items():
        cone = cn.validate_cone(normals)
        assert cone.rays == cn._extreme_rays_pointed(cone.normals, cone.n), name
        frames = [lc.identity(cone.n)]
        frames += [oracles.random_unimodular(cone.n, rng) for _ in range(4)]
        for t in frames:
            moved = cn.validate_cone([lc.matvec(t, list(v)) for v in cone.normals])
            try:
                g = cn.gorenstein_normalize(moved)
            except NotQGorenstein:
                continue
            assert g.cone.rays == cn._extreme_rays_pointed(g.cone.normals, cone.n), name
            checked += 1
    assert checked >= 100


def test_rays_take_no_part_in_equality_hash_or_json():
    c = cn.validate_cone(CONIFOLD)
    bare = cn.MomentCone(n=3, normals=c.normals, rays=())
    assert bare == c and hash(bare) == hash(c)
    assert bare.to_dict() == c.to_dict() == {"n": 3, "normals": [list(v) for v in CONIFOLD]}
    assert "rays" not in repr(c)


def test_triangulation_is_computed_once_per_cone():
    c = cn.validate_cone(HEPTAGON)
    assert cn.triangulation(c) is cn.triangulation(c)
    assert len(c.simplex_dets) == len(cn.triangulation(c))


@pytest.mark.parametrize("name", ["conifold", "y21", "heptagon", "flat4", "y7_3_labc"])
def test_minimize_job_enumerates_rays_once(name, monkeypatch):
    # guard on the amount of work, not on wall time: validate_cone finds the
    # rays and the Gorenstein basis change maps them
    from reebmin import cli

    calls = []
    enumerate_rays = cn._extreme_rays_pointed

    def counting(*args):
        calls.append(args)
        return enumerate_rays(*args)

    monkeypatch.setattr(cn, "_extreme_rays_pointed", counting)
    normals = [list(v) for v in cone_suite.CONES[name]]
    report = cli.run({"command": "cone-minimize", "payload": {"cone": {"normals": normals}}})
    assert report["results"]["gorenstein_ell"] == 1
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["conifold", "y21", "heptagon", "flat4", "y61_sheared"])
def test_minimize_job_takes_one_smith_form(name, monkeypatch):
    # guard on the amount of work, not on wall time: the kernel comes from a
    # Hermite form and only the unimodular completion reads a Smith form
    from reebmin import cli

    calls = []
    smith = lc.smith_normal_form

    def counting(*args):
        calls.append(args)
        return smith(*args)

    monkeypatch.setattr(lc, "smith_normal_form", counting)
    normals = [list(v) for v in cone_suite.CONES[name]]
    report = cli.run({"command": "cone-minimize", "payload": {"cone": {"normals": normals}}})
    assert report["results"]["gorenstein_ell"] == 1
    assert len(calls) == 1


def test_unimodular_match_in_random_frames():
    # the first independent vectors have |det| up to 4 for c3_mod_z2, so
    # integrality of B adj(A) / det(A) is really tested
    rng = random.Random(37)
    for name in ("conifold", "y21", "heptagon", "c3_mod_z2", "parabola4", "orthant4"):
        normals = [tuple(v) for v in cone_suite.CONES[name]]
        n = len(normals[0])
        for _ in range(4):
            u = oracles.random_unimodular(n, rng)
            moved = [tuple(lc.matvec(u, list(v))) for v in normals]
            rng.shuffle(moved)
            t = oracles.unimodular_match(normals, moved)
            assert t is not None and abs(lc.int_det(t)) == 1
            assert sorted(tuple(lc.matvec(t, list(v))) for v in normals) == sorted(moved)
    c3_mod_z2, flat3 = cone_suite.CONES["c3_mod_z2"], cone_suite.CONES["flat3"]
    assert oracles.unimodular_match(c3_mod_z2, flat3) is None
