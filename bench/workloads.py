"""Seeded job generation for the three benchmark workloads.

A run makes several passes over one job list.  Pass k of workload w under
seed s with content c ("main" for the measured list, "warmup" for the
warm-up) is a pure function of (w, s, c, k): the same arguments give the
same JobSpec lines, byte for byte, in every process and under every
PYTHONHASHSEED.  The job list has fixed class counts, so the share of every
job class, and with it the position of the p50 and p90 job inside the mix,
is the same in every run.  The parameters inside a class are drawn from the
seed, except where their cost decides the p50 or p90 job (the toric cones,
the links link-check vectors and families): those come from a pool that is
the same for every seed, and the seed draws frames, picks and order.

The links and ypq passes repeat the same lines (those layers keep no cache).
A toric pass keeps the cones, their order and the repeats, but puts every
cone in a fresh random GL(n, Z) frame, so no pass meets the caches that an
earlier pass filled; the only cache reuse is the stated share of exact
repeats inside a pass.

A Job is (spec, meta): spec is what reebmin receives, meta is what the
checks need to know about how the input was built.  Library jobs are calls
that no CLI command exposes; they are (name, args, meta) and are run by the
benchmark itself.
"""

from __future__ import annotations

import json
import random
from math import gcd, lcm

WORKLOADS = ("toric", "links", "ypq")

# Y^{p,q} with check_einstein: 0 < q < p <= 12, gcd 1 and q/p >= 2/3.  Below
# that ratio the finite-difference Einstein residual of a correct metric can
# exceed the stated 1e-4 at some sample points, and for (p, 1), p >= 8, the
# default sample margins trip StepTooLarge; both depend on the sampled points
# and so on the seed (see CHANGES.md).
EINSTEIN_PQ = tuple(
    (p, q) for p in range(3, 13) for q in range(1, p)
    if gcd(p, q) == 1 and 3 * q >= 2 * p
)
ALL_PQ = tuple(
    (p, q) for p in range(2, 13) for q in range(1, p) if gcd(p, q) == 1
)

N4_POLYTOPES = {
    "cube": [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)],
    "octahedron": [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    "prism3": [(x, y, z) for (x, y) in ((0, 0), (1, 0), (0, 1)) for z in (0, 1)],
    "prism4": [(x, y, z) for (x, y) in ((0, 0), (2, 0), (1, 1), (0, 1)) for z in (0, 1)],
    "simplex": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
}

PREDICATES = (
    "bgk", "bgk-fail", "gk", "gk-fail", "fano", "integral", "rational",
    "exists", "obstructed", "gk+bgk-fail", "fano+integral", "exists+rational",
)

# pairwise coprime 5-exponent spheres for bP_8, prod(a_i - 1) = 480, 1440, 5760
LARGE_SPHERES = ((2, 3, 5, 7, 11), (3, 4, 5, 7, 11), (4, 5, 7, 9, 11))


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    # a str seed is hashed with sha512, independent of PYTHONHASHSEED
    return random.Random(f"reebmin-bench/{workload}/{seed}/{stream}")


def ndjson(jobs) -> bytes:
    lines = [json.dumps(spec, sort_keys=True, separators=(",", ":")) for spec, _ in jobs]
    return ("\n".join(lines) + "\n").encode()


# --- lattice helpers --------------------------------------------------------


def random_frame(n: int, rng: random.Random) -> list[list[int]]:
    """A random element of GL(n, Z) that keeps the polytope's shape.

    It translates the height-1 polytope (adds multiples of the first
    coordinate to the others) and then permutes the coordinates with signs.
    Frames that also shear the polytope are left out: in some of them
    minimize_reeb stops with ConvergenceFailure (see CHANGES.md).
    """
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(1, n):
        m[i][0] = rng.randint(-2, 2)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[s * x for x in m[p]] for s, p in zip(signs, perm)]


def apply_frame(frame, normals):
    return [[sum(a * b for a, b in zip(row, v)) for row in frame] for v in normals]


def convex_hull(points):
    """Strict convex hull (no collinear points), counter-clockwise."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def random_polygon(rng: random.Random, d: int):
    """A random lattice polygon with exactly d vertices."""
    while True:
        b = rng.randint(1, 1 + d // 2)
        pts = [(rng.randint(-b, b), rng.randint(-b, b)) for _ in range(d + rng.randint(0, 4))]
        hull = convex_hull(pts)
        if len(hull) == d:
            return hull


def lift(points):
    """Height-1 normals (1, p) of a lattice polygon or polytope."""
    return [[1, *p] for p in points]


def ypq_normals(p, q):
    return [[1, 0, 0], [1, 1, 0], [1, p, p], [1, p - q - 1, p - q]]


def _cone_job(command, normals, meta, exact=None):
    payload = {"cone": {"n": len(normals[0]), "normals": normals}}
    if exact is not None:
        payload["exact_certify"] = exact
    return {"command": command, "payload": payload}, meta


def _interleave(rng, first, body, repeats):
    """first, then body shuffled, then each repeat inserted after its original."""
    rng.shuffle(body)
    jobs = [first] + body
    for spec, meta in repeats:
        origin = next(i for i, (s, _) in enumerate(jobs) if s is meta["repeat_of"])
        jobs.insert(rng.randint(origin + 1, len(jobs)), (spec, meta))
    return jobs


# --- toric ------------------------------------------------------------------

# Class counts per pass.  The cones themselves come from a fixed pool (the
# same for every seed: random polygons of fixed vertex counts, the parabolas,
# the n = 4 polytopes, ten Y^{p,q}); the seed draws the frames, the order,
# the second frames, the topology jobs and the repeats.  The cost of a
# random polygon depends on whether its minimizer is irregular, so a seeded
# pool would move the whole mix between seeds.
POLYGON_VERTICES = {3: 14, 4: 22, 5: 24, 6: 24, 7: 16}  # 100 polygons
POLYGON_REFRAMED = 12                                   # of them in a second frame
PARABOLA_D = tuple(range(4, 15))                        # d^3 tail of validate_cone
N4_JOBS = 10                                            # each polytope twice
YPQ_CONES = 10
# cone-topology jobs and exact repeats of earlier cone-minimize jobs, by class
TOPOLOGY_MIX = {"polygon": 8, "parabola": (5, 8, 11), "n4": 2, "ypq": 2}
REPEAT_MIX = {"polygon": 14, "parabola": (6, 9), "n4": 2, "ypq": 2}

# The d = 4 parabola cone in the frame [[0,1,2],[0,0,-1],[-1,0,0]]: a valid
# cone on which minimize_reeb raises ConvergenceFailure after 200 Newton
# iterations (3 in the standard frame).  It is in every pass, counted as failed.
KNOWN_FAILURE = [[0, 0, -1], [3, -1, -1], [10, -4, -1], [21, -9, -1]]


def _pick(rng, pool, mix):
    """Cones of pool by class: a count draws at random, a tuple names parabola sizes."""
    out = []
    for kind, want in mix.items():
        members = [c for c in pool if c[1]["kind"] == kind]
        if isinstance(want, tuple):
            out += [c for c in members if c[1]["d"] in want]
        else:
            out += [rng.choice(members) for _ in range(want)]
    return out


def toric_pass(seed: int, content: str, pass_no: int) -> tuple[list, list]:
    prng = rng_for("toric", 0, f"pool/{content}")
    rng = rng_for("toric", seed, content)
    frng = rng_for("toric", seed, f"{content}/{pass_no}")
    bases = []  # (cyclic normals, meta)
    for d, count in POLYGON_VERTICES.items():
        for _ in range(count):
            bases.append((lift(random_polygon(prng, d)), {"kind": "polygon"}))
    for d in PARABOLA_D:
        bases.append((lift([(k, k * k) for k in range(d)]), {"kind": "parabola", "d": d}))
    names = sorted(N4_POLYTOPES)
    for i in range(N4_JOBS):
        verts = list(N4_POLYTOPES[names[i % len(names)]])
        if names[i % len(names)] == "simplex" and i >= len(names):
            verts[-1] = (prng.randint(0, 2), prng.randint(0, 2), prng.randint(2, 3))
        bases.append((lift(verts), {"kind": "n4", "polytope": names[i % len(names)]}))
    for p, q in prng.sample(ALL_PQ, YPQ_CONES):
        bases.append((ypq_normals(p, q), {"kind": "ypq", "p": p, "q": q}))

    polygons = [b for b, (_, meta) in enumerate(bases) if meta["kind"] == "polygon"]
    reframed = set(rng.sample(polygons, POLYGON_REFRAMED))
    body, minimize = [], []
    for b, (normals, meta) in enumerate(bases):
        for _ in range(2 if b in reframed else 1):
            framed = apply_frame(random_frame(len(normals[0]), frng), normals)
            job = _cone_job("cone-minimize", framed, dict(meta, base=f"{content}/{b}"),
                            exact=len(body) % 2 == 0)
            body.append(job)
            minimize.append(job)
    for normals, meta in _pick(rng, bases, TOPOLOGY_MIX):
        framed = apply_frame(random_frame(len(normals[0]), frng), normals)
        body.append(_cone_job("cone-topology", framed, dict(meta)))
    repeats = [(json.loads(json.dumps(spec)), dict(meta, repeat_of=spec))
               for spec, meta in _pick(rng, minimize, REPEAT_MIX)]
    # one fixed job that fails on every seed: see KNOWN_FAILURE
    body.append(_cone_job("cone-minimize", KNOWN_FAILURE, {
        "kind": "parabola", "d": 4, "base": "known-failure",
        "expect_error": "ConvergenceFailure"}, exact=False))
    # the first job is the small one that setup_s runs: flat C^3, random frame
    flat = apply_frame(random_frame(3, frng), lift([(0, 0), (1, 0), (0, 1)]))
    first = _cone_job("cone-minimize", flat, {"kind": "flat", "base": f"{content}/flat"}, exact=True)
    jobs = _interleave(rng, first, body, repeats)
    for _, meta in jobs:
        meta.pop("repeat_of", None)
    return jobs, []


# --- links ------------------------------------------------------------------

LINKS_COUNTS = {"link-check": 60, "obstruct-hs": 12, "join": 10, "link-enumerate": 26}


def _random_exponents(rng, m, top):
    return [rng.randint(2, top) for _ in range(m)]


def _fano_weights(rng):
    while True:
        a = _random_exponents(rng, rng.randint(3, 5), 9)
        if sum(1 / x for x in a) > 1 + 1e-9:
            L = lcm(*a)
            return [L // x for x in a], L


def links_pass(seed: int, content: str, pass_no: int) -> tuple[list, list]:
    rng = rng_for("links", seed, content)
    # The link-check vectors and the enumerated families come from a pool
    # that is the same for every seed: they hold the p50 and the p90 job,
    # and drawn from the seed they moved those by 9% and 10% between seeds.
    # The seed draws the other inputs and the order.
    prng = rng_for("links", 0, f"pool/{content}")
    body = []
    # half the vectors from 2..9 (mostly Fano: the obstruction tests run),
    # half from 2..40 (mostly decided by the Fano test alone)
    for i in range(LINKS_COUNTS["link-check"] - 1):
        a = _random_exponents(prng, 3 + i % 3, (9, 40)[i % 2])
        body.append(({"command": "link-check", "payload": {"exponents": a}}, {}))
    for i in range(LINKS_COUNTS["obstruct-hs"]):
        if i % 2 == 0:
            k = rng.randint(3, 100)
            w, d = [k, k, k, 2], 2 * k
        else:
            w, d = _fano_weights(rng)
        body.append(({"command": "obstruct-hs", "payload": {"weights": w, "degree": d}}, {}))
    for _ in range(LINKS_COUNTS["join"]):
        body.append(({"command": "join", "payload": {
            "ord": [rng.randint(1, 6) for _ in range(2)],
            "index": [rng.randint(1, 8) for _ in range(2)],
            "n": [rng.randint(1, 4) for _ in range(2)],
        }}, {}))
    families = [
        ([2, 3, 7, None], [5, 41], "bgk", "count27"),
        ([2, 3, 5, None], [6, 59], "gk+bgk-fail", "list12"),
    ]
    for i in range(LINKS_COUNTS["link-enumerate"] - len(families)):
        m = (3, 4, 4, 5)[i % 4]
        fixed = _random_exponents(prng, m - 1, 9)
        slot = prng.randrange(m)
        template = fixed[:slot] + [None] + fixed[slot:]
        lo = prng.randint(2, 10)
        families.append((template, [lo, lo + 20 + 2 * i], prng.choice(PREDICATES), None))
    for template, values, pred, known in families:
        body.append(({"command": "link-enumerate", "payload": {
            "template": template, "range": values, "predicate": pred}}, {"known": known}))
    first = ({"command": "link-check", "payload": {"exponents": [2, 3, 7, rng.randint(5, 41)]}}, {})
    jobs = _interleave(rng, first, body, [])
    library = [("bp8_class", (6 * k - 1, 3, 2, 2, 2), {"k": k}) for k in range(1, 29)]
    library += [("bp8_class", a, {}) for a in LARGE_SPHERES]
    rng.shuffle(library)
    return jobs, library


# --- ypq --------------------------------------------------------------------

# samples per einstein job: fixed class sizes put p50 inside the 2-sample
# class and p90 inside the 3-sample class
YPQ_EINSTEIN_SAMPLES = ((1, 10), (2, 35), (3, 25))
YPQ_COUNTS = {"ypq": 8, "labc": 16, "gale-dual": 12}


def _admissible_labc(rng):
    while True:
        a, b = sorted((rng.randint(1, 9), rng.randint(1, 9)))
        c = rng.randint(1, b)
        d = a + b - c
        if d < 1 or gcd(gcd(a, b), gcd(c, d)) != 1:
            continue
        if all(gcd(x, y) == 1 for x in (a, b) for y in (c, d)):
            return a, b, c


def ypq_pass(seed: int, content: str, pass_no: int) -> tuple[list, list]:
    rng = rng_for("ypq", seed, content)
    body = []
    for samples, count in YPQ_EINSTEIN_SAMPLES:
        for _ in range(count):
            p, q = rng.choice(EINSTEIN_PQ)
            body.append(({"command": "ypq", "payload": {
                "p": p, "q": q, "check_einstein": True, "samples": samples,
                "seed": rng.randrange(10**6)}}, {}))
    for _ in range(YPQ_COUNTS["ypq"]):
        p, q = rng.choice(ALL_PQ)
        body.append(({"command": "ypq", "payload": {"p": p, "q": q}}, {}))
    for i in range(YPQ_COUNTS["labc"]):
        if i % 4 == 0:
            p, q = rng.choice(ALL_PQ)
            a, b, c = p - q, p + q, p
        else:
            a, b, c = _admissible_labc(rng)
        body.append(({"command": "labc", "payload": {
            "a": a, "b": b, "c": c, "to_cone": i % 2 == 0}}, {}))
    for _ in range(YPQ_COUNTS["gale-dual"]):
        a, b, c = _admissible_labc(rng)
        body.append(({"command": "gale-dual", "payload": {
            "charges": [a, b, -c, -(a + b - c)]}}, {}))
    p, q = rng.choice(ALL_PQ)
    first = ({"command": "ypq", "payload": {"p": p, "q": q}}, {})
    return _interleave(rng, first, body, []), []


PASSES = {"toric": toric_pass, "links": links_pass, "ypq": ypq_pass}


def make_pass(workload: str, seed: int, pass_no: int, content: str = "main"):
    """(jobs, library_jobs) of one pass over the content's job list."""
    return PASSES[workload](seed, content, pass_no)
