"""Checks of every report against the oracles, and the method's properties.

check_pass() returns the problems found in one pass (none when every
report is right) and the number of expected failures.  Nothing here reads
a stored copy of earlier output: every expected value is recomputed from
the job's own input.
"""

from __future__ import annotations

import math
from fractions import Fraction

import oracles as orc

REL = 1e-9


def frac(s) -> Fraction:
    """An exact rational from a report's "p/q" string."""
    return Fraction(s)


def close(x, y, rel=REL) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


class Problems(list):
    def expect(self, ok, what):
        if not ok:
            self.append(what)
        return ok


# --- toric ------------------------------------------------------------------


def _height_normals(spec, res, P):
    normals = spec["payload"]["cone"]["normals"]
    T = res["basis_change"]
    w = [orc.matvec(T, v) for v in normals]
    P.expect(abs(orc.det(T)) == 1, "basis_change is not unimodular")
    P.expect(res["gorenstein_ell"] == 1 and all(v[0] == 1 for v in w),
             "normals are not at height 1 in the reported basis")
    return w


def check_cone_minimize(spec, meta, res, P):
    w = _height_normals(spec, res, P)
    n = len(w[0])
    xi = res["xi_star"]
    P.expect(xi[0] == n, f"xi_star {xi} is off the slice xi_0 = {n}")
    exact = res.get("xi_star_exact")
    if n == 3:
        vol = float(orc.msy_volume(w, xi))
        P.expect(close(vol, res["normalized_volume"]),
                 f"MSY volume {vol} != reported {res['normalized_volume']}")
        if exact is not None:
            b = [frac(x) for x in exact]
            P.expect(orc.msy_volume(w, b) == frac(res["normalized_volume_exact"]),
                     "exact MSY volume differs from normalized_volume_exact")
            P.expect(all(g == 0 for g in orc.msy_slice_gradient(w, b)),
                     "certified minimizer is not an exact critical point")
        else:
            g = orc.central_gradient(lambda x: orc.msy_volume(w, x), xi, 1e-6)
            P.expect(max(map(abs, g)) <= 1e-6 * max(1.0, vol),
                     f"MSY gradient {g} at the minimizer")
    else:
        vol = orc.qhull_volume(w, xi)
        P.expect(close(vol, res["normalized_volume"], 1e-8),
                 f"qhull volume {vol} != reported {res['normalized_volume']}")
        g = orc.central_gradient(lambda x: orc.qhull_volume(w, x), xi, 1e-4)
        P.expect(max(map(abs, g)) <= 1e-6, f"qhull gradient {g} at the minimizer")
    if exact is not None:
        P.expect(res["regularity"] == "quasi-regular", "certified but not quasi-regular")
        P.expect(all(close(float(frac(a)), b) for a, b in zip(exact, xi)),
                 "xi_star_exact does not match xi_star")
    if meta["kind"] == "ypq":
        p, q = meta["p"], meta["q"]
        P.expect(close(orc.gmsw_volume(p, q), res["normalized_volume"]),
                 f"Y^{p},{q} volume differs from GMSW")
        want = "quasi-regular" if orc.is_square(4 * p * p - 3 * q * q) else "irregular"
        P.expect(res["regularity"] == want, f"Y^{p},{q} regularity {res['regularity']}")
    if meta["kind"] == "flat":
        P.expect(close(res["normalized_volume"], 1.0), "flat C^3 volume is not 1")


def check_cone_topology(spec, meta, res, P):
    normals = spec["payload"]["cone"]["normals"]
    n, d = len(normals[0]), len(normals)
    inv = res["pi1_invariants"]
    P.expect(math.prod(inv) == orc.pi1_order(normals), "pi1 order != gcd of minors")
    P.expect(all(x > 1 for x in inv) and all(b % a == 0 for a, b in zip(inv, inv[1:])),
             "pi1 invariants are not a divisibility chain")
    P.expect(res["pi2_rank"] == d - n, "pi2 rank != d - n")
    P.expect(res["simply_connected"] == (not inv), "simply_connected flag")
    if n == 3 and not inv:
        k = d - 3
        P.expect(res.get("smale") == {"k": k, "label": "S^5" if k == 0 else f"#{k}(S^2xS^3)"},
                 "Smale label")


def check_frames(jobs, reports, P):
    """Volume and regularity agree across GL(n, Z) frames of one cone."""
    seen = {}
    for (spec, meta), rep in zip(jobs, reports):
        if spec["command"] != "cone-minimize" or "error" in rep:
            continue
        res = rep["results"]
        got = (res["normalized_volume"], res["regularity"])
        first = seen.setdefault(meta["base"], got)
        P.expect(close(first[0], got[0]) and first[1] == got[1],
                 f"cone {meta['base']} differs between frames: {first} vs {got}")


# --- links ------------------------------------------------------------------


def check_verdict(v, P):
    want = orc.link_oracle(v["exponents"])
    for key, val in want.items():
        P.expect(v.get(key) == val, f"link {v['exponents']}: {key} {v.get(key)!r} != {val!r}")


def check_link_enumerate(spec, meta, res, P):
    pl = spec["payload"]
    template, (lo, hi), pred = pl["template"], pl["range"], pl["predicate"]
    slot = template.index(None)
    want = []
    for k in range(lo, hi + 1):
        a = template[:slot] + [k] + template[slot + 1:]
        if orc.predicate_holds(pred, orc.link_oracle(a)):
            want.append(k)
    P.expect(res["values"] == want, f"{template} {pred}: values {res['values']} != {want}")
    P.expect(res["count"] == len(res["values"]) == len(res["verdicts"]), "count mismatch")
    for k, v in zip(res["values"], res["verdicts"]):
        P.expect(v["exponents"][slot] == k, "verdict out of order")
        check_verdict(v, P)
    if meta.get("known") == "count27":
        fixed = (2, 3, 7)
        hits = [k for k in res["values"] if sum(math.gcd(f, k) == 1 for f in fixed) >= 2]
        P.expect(len(hits) == 27 and 7 not in hits, f"L(2,3,7,k) count {len(hits)} != 27")
    if meta.get("known") == "list12":
        P.expect(res["values"] == [17, 19, 23, 29, 31, 37, 41, 43, 47, 49, 53, 59],
                 "L(2,3,5,k) list")


def check_obstruct_hs(spec, meta, res, P):
    pl = spec["payload"]
    want = orc.hs_oracle(pl["weights"], pl["degree"])
    P.expect(res["weights"] == want["weights"] and res["degree"] == want["degree"],
             "normalized weights")
    P.expect(frac(res["normalized_volume"]) == want["normalized_volume"], "HS volume ratio")
    P.expect(close(res["volume"], want["volume"], 1e-12), "HS volume")
    P.expect(res["bishop"] == want["bishop"], "Bishop")
    lich = res["lichnerowicz"]
    wl = want["lichnerowicz"]
    P.expect(lich["status"] == wl["status"] and lich["witness_index"] == wl["witness_index"]
             and frac(lich["charge"]) == wl["charge"]
             and frac(lich["eigenvalue"]) == wl["eigenvalue"], "Lichnerowicz")


def check_join(spec, meta, res, P):
    pl = spec["payload"]
    (o1, o2), (i1, i2), (n1, n2) = pl["ord"], pl["index"], pl["n"]
    g = math.gcd(i1, i2)
    l1, l2 = i1 // g, i2 // g
    ob = math.gcd(o1 * l2, o2 * l1)
    P.expect(res == {"kind": "smooth" if ob == 1 else "orbifold",
                     "dimension": 2 * (n1 + n2) - 3,
                     "relative_indices": [l1, l2], "obstruction_gcd": ob}, "join")


def check_bp8(args, meta, value, P):
    tau = orc.signature(args)
    if "k" in meta:
        P.expect(abs(tau) == 8 * meta["k"], f"signature of {args} is {tau}, not 8k")
    P.expect(tau % 8 == 0 and value == (abs(tau) // 8) % 28,
             f"bp8 class of {args}: {value}, signature {tau}")


# --- ypq --------------------------------------------------------------------


def check_ypq(spec, meta, res, P):
    pl = spec["payload"]
    p, q = pl["p"], pl["q"]
    P.expect(close(res["a"], orc.ypq_a(p, q), 1e-12), "a_{p,q}")
    P.expect(all(close(x, y, 1e-12) for x, y in zip(res["roots"], orc.ypq_roots(p, q))),
             f"roots {res['roots']} != {orc.ypq_roots(p, q)}")
    D = 4 * p * p - 3 * q * q
    sq = orc.is_square(D)
    P.expect(res["regularity"] == ("quasi-regular" if sq else "irregular")
             and res["m"] == (math.isqrt(D) if sq else None), "Y^{p,q} regularity")
    if pl.get("check_einstein"):
        e = res["einstein"]
        P.expect(e["samples"] == pl["samples"] and e["seed"] == pl["seed"], "einstein echo")
        P.expect(e["pass"], f"Y^{p},{q} einstein check failed: {e}")


def check_einstein_tolerances(report, P):
    e = report["results"].get("einstein")
    if e is None:
        return
    tol = report["tolerances"]
    P.expect(e["max_residual"] <= tol["einstein"] and e["killing_max"] <= tol["killing"]
             and e["eta_max"] <= tol["eta"] and e["mean_residual"] <= e["max_residual"],
             f"einstein residuals beyond the stated tolerances: {e} vs {tol}")


def check_labc(spec, meta, res, P):
    pl = spec["payload"]
    a, b, c = pl["a"], pl["b"], pl["c"]
    d = a + b - c
    P.expect(res["valid"] and res["d"] == d and res["charges"] == [a, b, -c, -d], "labc")
    if pl.get("to_cone"):
        normals = res["cone"]["normals"]
        P.expect(all(v[0] == 1 for v in normals), "labc cone is not at height 1")
        P.expect(orc.gale_ok([res["charges"]], normals), "labc cone violates the Gale relation")
        P.expect(res["topology"]["pi2_rank"] == 1
                 and math.prod(res["topology"]["pi1_invariants"]) == orc.pi1_order(normals),
                 "labc topology")


def check_gale_dual(spec, meta, res, P):
    P.expect(orc.gale_ok([spec["payload"]["charges"]], res["rays"]), "Gale relation")


CHECKS = {
    "cone-minimize": check_cone_minimize,
    "cone-topology": check_cone_topology,
    "link-check": lambda spec, meta, res, P: check_verdict(res, P),
    "link-enumerate": check_link_enumerate,
    "obstruct-hs": check_obstruct_hs,
    "join": check_join,
    "ypq": check_ypq,
    "labc": check_labc,
    "gale-dual": check_gale_dual,
}


def check_pass(jobs, reports, library, library_values) -> tuple[list[str], int]:
    """(problems, failed) for one pass's reports and library results.

    A job whose meta names an expected error may fail with exactly that
    error; it is then counted in failed, not as a problem.
    """
    P = Problems()
    failed = 0
    if not P.expect(len(reports) == len(jobs), f"{len(reports)} reports for {len(jobs)} jobs"):
        return P, failed
    for (spec, meta), rep in zip(jobs, reports):
        if "error" in rep and rep["error"]["code"] == meta.get("expect_error"):
            failed += 1
            continue
        if not P.expect("error" not in rep, f"error line: {rep.get('error')}"):
            continue
        if not P.expect(rep["command"] == spec["command"] and rep["input"] == spec["payload"],
                        "report out of order"):
            continue
        CHECKS[spec["command"]](spec, meta, rep["results"], P)
        check_einstein_tolerances(rep, P)
    check_frames(jobs, reports, P)
    for (name, args, meta), value in zip(library, library_values):
        check_bp8(args, meta, value, P)
    return P, failed
