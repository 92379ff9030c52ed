"""Tests of the benchmark's oracles and checks: known values pass, wrong ones fail.

    python3 -m pytest -q bench/test_oracles.py

Each oracle is shown to agree with published values, and the check built
on it is shown to reject one deliberately wrong report.  None of these
tests imports reebmin.
"""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracles as orc  # noqa: E402
import workloads  # noqa: E402

FLAT = [[1, 0, 0], [1, 1, 0], [1, 0, 1]]
CONIFOLD = [[1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1]]
Y73 = workloads.ypq_normals(7, 3)
CUBE = workloads.lift(workloads.N4_POLYTOPES["cube"])
IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def problems(check, spec, meta, res):
    P = checks.Problems()
    check(spec, meta, res, P)
    return P


def minimize_report(normals, xi, vol, exact=None, vol_exact=None, regularity="quasi-regular"):
    n = len(normals[0])
    return {
        "xi_star": xi, "normalized_volume": vol, "regularity": regularity,
        "gorenstein_ell": 1,
        "basis_change": [[int(i == j) for j in range(n)] for i in range(n)],
        "xi_star_exact": exact, "normalized_volume_exact": vol_exact,
    }


def cone_spec(normals):
    return {"command": "cone-minimize", "payload": {"cone": {"normals": normals}}}


# --- Martelli-Sparks-Yau -----------------------------------------------------


def test_msy_known_volumes():
    assert orc.msy_volume(FLAT, [F(3), F(1), F(1)]) == 1
    assert orc.msy_volume(CONIFOLD, [F(3), F(3, 2), F(3, 2)]) == F(16, 27)
    assert orc.msy_volume(Y73, [F(3), F(28, 3), F(28, 3)]) == F(81, 980)
    assert orc.msy_slice_gradient(CONIFOLD, [3, F(3, 2), F(3, 2)]) == [0, 0]


def test_msy_check_rejects_wrong_volume():
    xi, ex = [3.0, 1.5, 1.5], ["3/1", "3/2", "3/2"]
    good = minimize_report(CONIFOLD, xi, 16 / 27, ex, "16/27")
    assert not problems(checks.check_cone_minimize, cone_spec(CONIFOLD), {"kind": "polygon"}, good)
    bad = minimize_report(CONIFOLD, xi, 16 / 27, ex, "17/27")
    assert problems(checks.check_cone_minimize, cone_spec(CONIFOLD), {"kind": "polygon"}, bad)


def test_msy_check_rejects_non_critical_point():
    xi, ex = [3.0, 1.5, 1.25], ["3/1", "3/2", "5/4"]
    vol = orc.msy_volume(CONIFOLD, [F(3), F(3, 2), F(5, 4)])
    bad = minimize_report(CONIFOLD, xi, float(vol), ex, f"{vol.numerator}/{vol.denominator}")
    found = problems(checks.check_cone_minimize, cone_spec(CONIFOLD), {"kind": "polygon"}, bad)
    assert any("critical point" in p for p in found)


# --- qhull, n = 4 -------------------------------------------------------------


def test_qhull_cube_and_wrong_value():
    assert orc.qhull_volume(CUBE, [4.0, 2.0, 2.0, 2.0]) == pytest.approx(0.25, rel=1e-12)
    good = minimize_report(CUBE, [4.0, 2.0, 2.0, 2.0], 0.25)
    bad = minimize_report(CUBE, [4.0, 2.0, 2.0, 2.0], 0.3)
    meta = {"kind": "n4"}
    assert not problems(checks.check_cone_minimize, cone_spec(CUBE), meta, good)
    assert problems(checks.check_cone_minimize, cone_spec(CUBE), meta, bad)


# --- Y^{p,q} closed forms ------------------------------------------------------


def test_gmsw_volume():
    assert orc.gmsw_volume(2, 1) == pytest.approx(0.28664248944763, abs=1e-13)
    assert orc.gmsw_volume(7, 3) == pytest.approx(81 / 980, rel=1e-14)
    meta = {"kind": "ypq", "p": 7, "q": 3}
    xi, ex = [3.0, 28 / 3, 28 / 3], ["3/1", "28/3", "28/3"]
    good = minimize_report(Y73, xi, 81 / 980, ex, "81/980")
    assert not problems(checks.check_cone_minimize, cone_spec(Y73), meta, good)
    wrong_meta = {"kind": "ypq", "p": 7, "q": 2}
    assert problems(checks.check_cone_minimize, cone_spec(Y73), wrong_meta, good)


def test_ypq_closed_forms_and_wrong_root():
    a = orc.ypq_a(2, 1)
    roots = orc.ypq_roots(2, 1)
    assert all(abs(2 * y**3 - 3 * y**2 + a) < 1e-14 for y in roots)
    assert roots[0] < 0 < roots[1] < 1 < roots[2]
    spec = {"command": "ypq", "payload": {"p": 2, "q": 1}}
    good = {"a": a, "roots": list(roots), "regularity": "irregular", "m": None}
    assert not problems(checks.check_ypq, spec, {}, good)
    bad = dict(good, roots=[roots[0], roots[1] + 1e-6, roots[2]])
    assert problems(checks.check_ypq, spec, {}, bad)
    spec73 = {"command": "ypq", "payload": {"p": 7, "q": 3}}
    wrong_regularity = {"a": orc.ypq_a(7, 3), "roots": list(orc.ypq_roots(7, 3)),
                        "regularity": "irregular", "m": None}
    assert problems(checks.check_ypq, spec73, {}, wrong_regularity)


# --- links -------------------------------------------------------------------


def test_alexander_homology():
    assert orc.alexander_homology((2, 3, 7, 5)) == "integral_sphere"
    assert orc.alexander_homology((3, 3, 3, 4)) == "rational_sphere"
    assert orc.alexander_homology((2, 2, 2, 2)) == "other"
    assert orc.alexander_homology((5, 3, 2, 2, 2)) == "integral_sphere"
    wrong = dict(orc.link_oracle([3, 3, 3, 4]), homology_type="integral_sphere")
    assert problems(lambda s, m, r, P: checks.check_verdict(r, P), None, None, wrong)


def test_link_inequalities_in_integers():
    v = orc.link_oracle([2, 3, 7, 5])
    assert (v["bgk"], v["gk"], v["outcome"], v["reason"]) == ("pass", "pass", "exists", "bgk")
    assert orc.link_oracle([2, 3, 7, 7])["bgk"] == "fail(3)"
    assert orc.link_oracle([2, 3, 7, 43])["fano"] is False
    bad = dict(v, outcome="obstructed")
    assert problems(lambda s, m, r, P: checks.check_verdict(r, P), None, None, bad)


@pytest.mark.parametrize("k", [3, 4, 5, 20, 21, 60])
def test_bishop_lichnerowicz_thresholds(k):
    h = orc.hs_oracle([k, k, k, 2], 2 * k)
    assert (h["lichnerowicz"]["status"] == "obstructed") == (k >= 5)
    assert (h["bishop"] == "obstructed") == (k >= 21)


def test_hs_check_rejects_wrong_charge():
    spec = {"command": "obstruct-hs", "payload": {"weights": [1, 1, 1, 1], "degree": 2}}
    h = orc.hs_oracle([1, 1, 1, 1], 2)
    assert h["normalized_volume"] == F(16, 27)
    rep = {"weights": [1, 1, 1, 1], "degree": 2, "normalized_volume": "16/27",
           "volume": h["volume"], "bishop": h["bishop"],
           "lichnerowicz": {"status": "unobstructed", "witness_index": 0,
                            "charge": "3/2", "eigenvalue": "33/4"}}
    assert not problems(checks.check_obstruct_hs, spec, {}, rep)
    rep["lichnerowicz"] = dict(rep["lichnerowicz"], charge="4/3")
    assert problems(checks.check_obstruct_hs, spec, {}, rep)


def _enumerate_report(template, lo, hi, pred):
    slot = template.index(None)
    hits = []
    for k in range(lo, hi + 1):
        v = orc.link_oracle(template[:slot] + [k] + template[slot + 1:])
        if orc.predicate_holds(pred, v):
            hits.append((k, v))
    return {"count": len(hits), "values": [k for k, _ in hits], "verdicts": [v for _, v in hits]}


def test_family_counts():
    spec = {"command": "link-enumerate",
            "payload": {"template": [2, 3, 7, None], "range": [5, 41], "predicate": "bgk"}}
    rep = _enumerate_report([2, 3, 7, None], 5, 41, "bgk")
    assert not problems(checks.check_link_enumerate, spec, {"known": "count27"}, rep)
    short = dict(rep, values=rep["values"][:-1], verdicts=rep["verdicts"][:-1],
                 count=rep["count"] - 1)
    assert problems(checks.check_link_enumerate, spec, {"known": "count27"}, short)
    spec12 = {"command": "link-enumerate", "payload": {
        "template": [2, 3, 5, None], "range": [6, 59], "predicate": "gk+bgk-fail"}}
    rep12 = _enumerate_report([2, 3, 5, None], 6, 59, "gk+bgk-fail")
    assert rep12["values"] == [17, 19, 23, 29, 31, 37, 41, 43, 47, 49, 53, 59]
    assert not problems(checks.check_link_enumerate, spec12, {"known": "list12"}, rep12)


def _signature_by_fractions(a):
    from itertools import product
    plus = minus = 0
    for x in product(*(range(1, e) for e in a)):
        t = sum((F(xi, ai) for xi, ai in zip(x, a)), F(0)) % 2
        plus += 0 < t < 1
        minus += 1 < t < 2
    return plus - minus


def test_signatures():
    for k in range(1, 29):
        assert abs(orc.signature((6 * k - 1, 3, 2, 2, 2))) == 8 * k
    for a in ((2, 3, 5, 7, 11), (3, 4, 5, 7, 11)):
        assert orc.signature(a) == _signature_by_fractions(a)
    P = checks.Problems()
    checks.check_bp8((11, 3, 2, 2, 2), {"k": 2}, 2, P)
    assert not P
    checks.check_bp8((11, 3, 2, 2, 2), {"k": 2}, 3, P)
    assert P


# --- toric topology and Gale duals -----------------------------------------------


def test_pi1_from_minors():
    assert orc.pi1_order(CONIFOLD) == 1
    z2 = [[1, 0, 0], [1, 2, 0], [1, 0, 1], [1, 2, 1]]  # a Z_2 quotient of the conifold
    assert orc.pi1_order(z2) == 2
    spec = {"command": "cone-topology", "payload": {"cone": {"normals": z2}}}
    good = {"pi1_invariants": [2], "pi2_rank": 1, "simply_connected": False}
    assert not problems(checks.check_cone_topology, spec, {}, good)
    assert problems(checks.check_cone_topology, spec, {}, dict(good, pi1_invariants=[]))
    assert problems(checks.check_cone_topology, spec, {}, dict(good, pi2_rank=2))


def test_gale_relation():
    charges = [1, 1, -1, -1]
    rays = [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, -1]]
    assert orc.gale_ok([charges], rays)
    assert not orc.gale_ok([charges], [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert not orc.gale_ok([charges], [[2, 0, 0], [0, 1, 0], [2, 0, 1], [0, 1, -1]])


def test_det_exact():
    assert orc.det(IDENTITY3) == 1
    assert orc.det([[1, 2], [3, 4]]) == -2


# --- seeded generation ------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_file_is_byte_identical_across_hash_seeds(workload):
    code = ("import hashlib, sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            f"print(hashlib.sha256(workloads.ndjson(workloads.make_pass('{workload}', 7, 0)[0]))"
            ".hexdigest())")
    digests = set()
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", code, str(HERE)], env=env,
                             capture_output=True, text=True, check=True).stdout
        digests.add(out.strip())
    local = workloads.ndjson(workloads.make_pass(workload, 7, 0)[0])
    assert len(digests) == 1
    assert hashlib.sha256(local).hexdigest() in digests
