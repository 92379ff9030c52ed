"""The inward-normal lists of the cones the suite builds, by name.

Tests that must hold for every cone (rays carried through the Gorenstein
basis change, the second volume oracle) iterate over CONES.
"""

from reebmin import cones as cn
from reebmin import latcore as lc
from reebmin import ypq


def _ypq(p, q):
    # Y^{p,q} is L^{p-q, p+q, p}
    return lc.gale_dual([list(ypq.LabcParams(p - q, p + q, p).charges)])


def flat_normals(n):
    """C^n in its height-1 basis: (1, 0, ..., 0) and (1, e_i).

    The link is the round S^(2n-1) and the critical Reeb vector is
    (n, 1, ..., 1).
    """
    return [tuple(1 if j in (0, i) else 0 for j in range(n)) for i in range(n)]


CONES = {
    "quadrant": [(1, 0), (0, 1)],
    "wedge": [(1, 0), (1, 2)],
    "ell_two": [(2, 1), (2, -1)],
    "orthant3": lc.identity(3),
    "orthant4": lc.identity(4),
    **{f"flat{n}": flat_normals(n) for n in (1, 2, 3, 4)},
    "conifold": [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)],
    "y21": [(1, 0, 0), (1, 2, 0), (1, 0, 1), (1, 3, -1)],
    "y21_charges": lc.gale_dual([[2, 2, -1, -3]]),
    "heptagon": [
        (1, 0, 0), (1, 1, 0), (1, 2, 1), (1, 2, 2), (1, 1, 3), (1, 0, 3), (1, -1, 2),
    ],
    "c3_mod_z2": [(1, 0, 0), (1, 2, 0), (1, 0, 2)],
    "not_q_gorenstein": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, -1)],
    "parabola4": [(1, k, k * k) for k in range(4)],
    "parabola4_sheared": [(0, 0, -1), (3, -1, -1), (10, -4, -1), (21, -9, -1)],
    "parabola24": [(1, k, k * k) for k in range(24)],
    "y61": [(1, 0, 0), (1, 1, 0), (1, 6, 6), (1, 4, 5)],
    "y61_sheared": [(0, 2, 1), (0, 5, 3), (6, 32, 19), (5, 24, 14)],
    **{f"y{p}_{q}_labc": _ypq(p, q) for p, q in ((2, 1), (3, 1), (3, 2), (7, 3), (13, 7))},
}


def cone(name):
    return cn.validate_cone(CONES[name])
