"""Command-line front end: subcommands, JSON/CSV reports, batch pipelines.

JSON is the machine contract (deterministic: sorted keys, shortest
round-trip float repr, exact rationals as "p/q" strings); the table format
is for humans only.  A batch file is newline-delimited JobSpec JSON and is
processed in input order, one report line per spec, errors confined to
their line.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction
from math import comb

from . import __version__, cones, latcore, links, obstruct, reebvol, ypq
from .errors import ReebminError, SchemaError

# the most work one payload may ask for: Einstein points, link-enumerate values
MAX_SAMPLES = 10_000
MAX_RANGE_WIDTH = 100_000
# and multiplications in the ray enumeration of a cone: C(d, n-1) candidate
# rays, each n signed minors of size n-1 (about n^3 each) and d pairings
MAX_CONE_WORK = 10_000_000


def _need(payload, key, kind):
    if key not in payload:
        raise SchemaError(f"missing field {key!r}")
    val = payload[key]
    if kind is int and isinstance(val, bool):
        raise SchemaError(f"field {key!r} must be an integer")
    if not isinstance(val, kind):
        raise SchemaError(f"field {key!r} has wrong type, expected {kind}")
    return val


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _opt_int(payload, key, default):
    val = payload.get(key, default)
    if not _is_int(val):
        raise SchemaError(f"field {key!r} must be an integer")
    return val


def _flag(payload, key):
    val = payload.get(key, False)
    if not isinstance(val, bool):
        raise SchemaError(f"field {key!r} must be a boolean")
    return val


def _int_list(payload, key):
    val = _need(payload, key, list)
    if not all(map(_is_int, val)):
        raise SchemaError(f"field {key!r} must be a list of integers")
    return val


CONE_KEYS = ("n", "normals")


def _known_keys(obj, allowed, where):
    unknown = [k for k in obj if k not in allowed]
    if unknown:
        raise SchemaError(f"unknown field(s) {', '.join(map(repr, unknown))} in {where}")


def _cone_payload(payload) -> cones.MomentCone:
    data = _need(payload, "cone", dict)
    _known_keys(data, CONE_KEYS, "the cone")
    normals = _need(data, "normals", list)
    if not all(isinstance(v, list) and all(map(_is_int, v)) for v in normals):
        raise SchemaError("field 'normals' must be a list of integer lists")
    n = data.get("n")
    if "n" in data and not (_is_int(n) and all(len(v) == n for v in normals)):
        raise SchemaError("field 'n' must be an integer, the length of every normal")
    d = len(normals)
    n = len(normals[0]) if normals else 0
    if n and comb(d, n - 1) * n * (d + n**3) > MAX_CONE_WORK:
        raise SchemaError(
            f"a cone with d = {d} normals in n = {n} dimensions is too large: "
            f"C(d, n-1) n (d + n^3) may be at most {MAX_CONE_WORK}"
        )
    return cones.validate_cone(normals)


# --- command handlers -------------------------------------------------------


def _run_cone_minimize(payload):
    exact = _flag(payload, "exact_certify")
    cone = _cone_payload(payload)
    g = cones.gorenstein_normalize(cone)
    res = reebvol.minimize_reeb(g)
    results = {
        "xi_star": list(res.xi_star),
        "normalized_volume": res.normalized_volume,
        "sasakian_volume": res.sasakian_volume,
        "regularity": res.regularity,
        "rank": res.rank,
        "iterations": res.iterations,
        "gradient_norm": res.gradient_norm,
        "gorenstein_ell": g.ell,
        "basis_change": [list(r) for r in g.basis_change],
    }
    if exact:
        results["xi_star_exact"] = (
            list(res.xi_star_exact) if res.xi_star_exact else None
        )
        results["normalized_volume_exact"] = res.normalized_volume_exact
    return results, {"gradient_norm": reebvol.GRAD_TOL}, False


def _run_cone_topology(payload):
    cone = _cone_payload(payload)
    top = cones.topology(cone)
    results = {
        "pi1_invariants": list(top.pi1_invariants),
        "pi2_rank": top.pi2_rank,
        "simply_connected": top.simply_connected,
    }
    if cone.n == 3 and top.simply_connected:
        smale = cones.smale_type(cone)
        results["smale"] = {"k": smale.k, "label": smale.label}
    return results, {}, False


def _run_link_check(payload):
    a = _int_list(payload, "exponents")
    verdict = links.link_verdict(a)
    return verdict.to_dict(), {}, verdict.outcome == links.OBSTRUCTED


def _run_link_enumerate(payload):
    template = _need(payload, "template", list)
    if not all(t is None or _is_int(t) for t in template):
        raise SchemaError("field 'template' must hold integers and nulls")
    bounds = _int_list(payload, "range")
    if len(bounds) != 2:
        raise SchemaError("field 'range' must be [lo, hi]")
    lo, hi = bounds
    if hi - lo >= MAX_RANGE_WIDTH:
        raise SchemaError(f"field 'range' may hold at most {MAX_RANGE_WIDTH} values")
    pred_spec = payload.get("predicate")
    if not (pred_spec is None or isinstance(pred_spec, str)):
        raise SchemaError("field 'predicate' must be a string or null")
    pred = None if pred_spec is None else links.parse_predicate(pred_spec)
    hits = links.enumerate_family(template, range(lo, hi + 1), pred)
    return (
        {
            "count": len(hits),
            "values": [k for k, _ in hits],
            "verdicts": [v.to_dict() for _, v in hits],
        },
        {},
        False,
    )


def _run_obstruct_hs(payload):
    h = obstruct.WeightedHS(
        weights=tuple(_int_list(payload, "weights")),
        degree=_need(payload, "degree", int),
    )
    volume, normalized = obstruct.hs_volume(h)
    lich = obstruct.lichnerowicz_check(h)
    bishop = obstruct.bishop_check(h)
    results = {
        "weights": list(h.weights),
        "degree": h.degree,
        "volume": volume,
        "normalized_volume": normalized,
        "bishop": bishop,
        "lichnerowicz": {
            "status": lich.status,
            "witness_index": lich.witness_index,
            "charge": lich.charge,
            "eigenvalue": lich.eigenvalue,
        },
    }
    strict_fail = obstruct.OBSTRUCTED in (bishop, lich.status)
    return results, {}, strict_fail


def _run_join(payload):
    ords = _int_list(payload, "ord")
    idxs = _int_list(payload, "index")
    ns = _int_list(payload, "n")
    if not len(ords) == len(idxs) == len(ns) == 2:
        raise SchemaError("join needs exactly two factors")
    res = obstruct.join_smooth(
        obstruct.JoinInput(order=ords[0], fano_index=idxs[0], n=ns[0]),
        obstruct.JoinInput(order=ords[1], fano_index=idxs[1], n=ns[1]),
    )
    return (
        {
            "kind": res.kind,
            "dimension": res.dimension,
            "relative_indices": [res.l1, res.l2],
            "obstruction_gcd": res.obstruction_gcd,
        },
        {},
        not res.smooth,
    )


def _run_ypq(payload):
    p = _need(payload, "p", int)
    q = _need(payload, "q", int)
    check_einstein = _flag(payload, "check_einstein")
    samples = _opt_int(payload, "samples", 20)
    if not 1 <= samples <= MAX_SAMPLES:
        raise SchemaError(f"field 'samples' must be between 1 and {MAX_SAMPLES}")
    seed = _opt_int(payload, "seed", 0)
    Y = ypq.ypq_params(p, q)
    reg = ypq.quasiregular_check(p, q)
    results = {
        "p": p,
        "q": q,
        "a": Y.a,
        "roots": [Y.y1, Y.y2, Y.y3],
        "regularity": reg.kind,
        "m": reg.m,
    }
    if not check_einstein:
        return results, {}, False
    pts = ypq.random_chart_points(Y, samples, random.Random(seed))
    res = [ypq.einstein_residual(Y, x) for x in pts]
    kil = [ypq.killing_residual(Y, x) for x in pts]
    eta = [ypq.reeb_norm_residual(Y, x) for x in pts]
    # each point is held to 1e-9 max(1, max_ij |g_ij|), as the entries of
    # g grow with p; the scale only matters where the residual tops 1e-9
    einstein_ok = all(
        r <= 1e-9 or r <= 1e-9 * ypq.metric_scale(Y, x) for r, x in zip(res, pts)
    )
    ok = einstein_ok and max(kil) <= 1e-6 and max(eta) <= 1e-6
    results["einstein"] = {
        "samples": samples,
        "seed": seed,
        "max_residual": max(res),
        "mean_residual": sum(res) / len(res),
        "killing_max": max(kil),
        "eta_max": max(eta),
        "pass": ok,
    }
    return results, {"einstein": 1e-9, "killing": 1e-6, "eta": 1e-6}, not ok


def _run_labc(payload):
    a = _need(payload, "a", int)
    b = _need(payload, "b", int)
    c = _need(payload, "c", int)
    to_cone = _flag(payload, "to_cone")
    verdict = ypq.labc_admissible(a, b, c)
    results = {
        "valid": verdict.valid,
        "reasons": list(verdict.reasons),
    }
    if verdict.valid:
        results["d"] = verdict.params.d
        results["charges"] = list(verdict.params.charges)
        if to_cone:
            g = ypq.labc_cone(verdict.params)
            top = cones.topology(g.cone)
            results["cone"] = g.cone.to_dict()
            results["topology"] = {
                "pi1_invariants": list(top.pi1_invariants),
                "pi2_rank": top.pi2_rank,
            }
    return results, {}, not verdict.valid


def _run_gale_dual(payload):
    charges = _need(payload, "charges", list)
    if charges and _is_int(charges[0]):
        charges = [charges]
    if not all(isinstance(row, list) and all(map(_is_int, row)) for row in charges):
        raise SchemaError("field 'charges' must be a row or a list of rows of integers")
    ncols = payload.get("ncols")
    if not (ncols is None or _is_int(ncols) and ncols >= 0):
        raise SchemaError("field 'ncols' must be a non-negative integer or null")
    width = len(charges[0]) if charges else ncols
    if any(len(row) != width for row in charges) or ncols not in (None, width):
        raise SchemaError("rows of 'charges' must all have ncols entries")
    rays = latcore.gale_dual(charges, ncols=ncols)
    return {"rays": [list(r) for r in rays]}, {}, False


_HANDLERS = {
    "cone-minimize": _run_cone_minimize,
    "cone-topology": _run_cone_topology,
    "link-check": _run_link_check,
    "link-enumerate": _run_link_enumerate,
    "obstruct-hs": _run_obstruct_hs,
    "join": _run_join,
    "ypq": _run_ypq,
    "labc": _run_labc,
    "gale-dual": _run_gale_dual,
}

COMMANDS = tuple(_HANDLERS)

# the payload fields of each command, as its $defs entry in
# schemas/jobspec.schema.json lists them; run() rejects any other field
PAYLOAD_KEYS = {
    "cone-minimize": ("cone", "exact_certify"),
    "cone-topology": ("cone",),
    "link-check": ("exponents",),
    "link-enumerate": ("template", "range", "predicate"),
    "obstruct-hs": ("weights", "degree"),
    "join": ("ord", "index", "n"),
    "ypq": ("p", "q", "check_einstein", "samples", "seed"),
    "labc": ("a", "b", "c", "to_cone"),
    "gale-dual": ("charges", "ncols"),
}


def run(spec: dict, timing: bool = False) -> dict:
    """Execute one JobSpec and return its Report dictionary.

    The report embeds the input payload verbatim for provenance; numeric
    fields carry the tolerance they were checked at.
    """
    if not isinstance(spec, dict):
        raise SchemaError("jobspec must be an object")
    command = spec.get("command")
    if command not in _HANDLERS:
        raise SchemaError(f"unknown command {command!r}")
    payload = spec.get("payload", {})
    if not isinstance(payload, dict):
        raise SchemaError("payload must be an object")
    _known_keys(payload, PAYLOAD_KEYS[command], f"the {command} payload")
    started = time.perf_counter()
    results, tolerances, strict_fail = _HANDLERS[command](payload)
    report = {
        "command": command,
        "input": payload,
        "results": results,
        "tolerances": tolerances,
        "strict_fail": strict_fail,
        "version": __version__,
    }
    if timing:
        report["timing_ms"] = 1000.0 * (time.perf_counter() - started)
    return report


def _error_report(spec, exc) -> dict:
    code, message = type(exc).__name__, str(exc)
    if not isinstance(exc, (ReebminError, ValueError, OSError)):
        # a fault of the program, not of the input: name it, keep the type
        code, message = "InternalError", f"{code}: {message}"
    return {
        "command": spec.get("command") if isinstance(spec, dict) else None,
        "error": {"code": code, "message": message},
        "version": __version__,
    }


# --- output formatting ------------------------------------------------------


def _fraction_str(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    raise TypeError(f"a report may not hold a {type(x).__name__}: {x!r}")


def _encode(report, **options) -> str:
    """A report as JSON text, Fractions as "p/q"; any other non-JSON type fails."""
    return json.dumps(report, default=_fraction_str, **options)


def _plain(report):
    """The report read back from its JSON text, for the human formats.

    Keys keep the order they were built in: the table prints a list of
    dicts (link-enumerate verdicts) as Python shows it, in that order, and
    sorts the keys of the report itself, as the CSV sorts its columns.
    """
    return json.loads(_encode(report))


def _emit_json(report, out):
    out.write(_encode(report, sort_keys=True, indent=2))
    out.write("\n")


def _emit_table(report, out):
    items = _plain(report)

    def walk(d, indent):
        for k in sorted(d):
            v = d[k]
            if isinstance(v, dict):
                out.write(f"{' ' * indent}{k}:\n")
                walk(v, indent + 2)
            else:
                out.write(f"{' ' * indent}{k}: {v}\n")

    walk(items, 0)


def _emit_csv(report, out):
    results = _plain(report.get("results", {}))
    verdicts = results.get("verdicts")
    if verdicts:
        cols = sorted({k for v in verdicts for k in v})
        out.write(",".join(cols) + "\n")
        for v in verdicts:
            out.write(",".join(_csv_cell(v.get(c)) for c in cols) + "\n")
    else:
        flat = _flatten(results)
        out.write(",".join(flat) + "\n")
        out.write(",".join(_csv_cell(results[k]) for k in flat) + "\n")


def _flatten(d):
    return sorted(k for k, v in d.items() if not isinstance(v, (dict, list)))


def _csv_cell(v):
    s = "" if v is None else str(v)
    if "," in s or '"' in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def _emit(report, fmt, out):
    if fmt == "table":
        _emit_table(report, out)
    elif fmt == "csv":
        _emit_csv(report, out)
    else:
        _emit_json(report, out)


# --- argument parsing -------------------------------------------------------


def _ints_csv(text):
    return [int(t) for t in str(text).replace(" ", "").split(",") if t != ""]


def _template_csv(text):
    out = []
    for t in str(text).replace(" ", "").split(","):
        out.append(None if t in ("_", "?") else int(t))
    return out


def _range_arg(text):
    lo, _, hi = str(text).partition("..")
    if not hi:
        raise SchemaError("range must look like 5..41")
    return [int(lo), int(hi)]


def _load_cone_arg(args) -> dict:
    if args.input:
        with open(args.input, encoding="utf-8") as fh:
            data = json.load(fh)
    elif args.normals:
        rows = [
            _ints_csv(part) for part in args.normals.replace(" ", "").split(";")
        ]
        data = {"n": len(rows[0]), "normals": rows}
    else:
        raise SchemaError("give --input cone.json or --normals 'a,b;c,d;...'")
    return {"cone": data}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reebmin",
        description="Sasaki-Einstein existence tests: toric Reeb-volume "
        "minimization, Brieskorn-Pham links, obstructions, Y^{p,q} metrics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table", "csv"), default="json")
    common.add_argument("--strict", action="store_true",
                        help="exit 2 on an obstructed/fail verdict")
    common.add_argument("--timing", action="store_true",
                        help="include wall-clock timing in reports")

    sub = parser.add_subparsers(dest="group", required=True)

    cone = sub.add_parser("cone", help="moment cone analysis").add_subparsers(
        dest="action", required=True
    )
    for action in ("minimize", "topology"):
        p = cone.add_parser(action, parents=[common])
        p.add_argument("--input", help="cone JSON file {n, normals}")
        p.add_argument("--normals", help="inline normals 'a,b;c,d;...'")
        if action == "minimize":
            p.add_argument("--exact-certify", action="store_true",
                           help="report exact rational minimizer data")

    link = sub.add_parser("link", help="Brieskorn-Pham links").add_subparsers(
        dest="action", required=True
    )
    p = link.add_parser("check", parents=[common])
    p.add_argument("exponents", help="comma-separated exponents, e.g. 2,3,7,5")
    p = link.add_parser("enumerate", parents=[common])
    p.add_argument("--template", required=True,
                   help="exponents with one free slot, e.g. 2,3,7,_")
    p.add_argument("--range", required=True, help="inclusive range lo..hi")
    p.add_argument("--predicate", default=None,
                   help="named predicate(s), '+'-conjoined: bgk, gk+bgk-fail, ...")

    obst = sub.add_parser("obstruct", help="volume/eigenvalue obstructions")
    obs_sub = obst.add_subparsers(dest="action", required=True)
    p = obs_sub.add_parser("hs", parents=[common])
    p.add_argument("--weights", required=True, help="comma-separated weights")
    p.add_argument("--degree", required=True, type=int)

    p = sub.add_parser("join", parents=[common], help="join smoothness test")
    p.add_argument("--ord", required=True, help="orbifold orders, e.g. 1,1")
    p.add_argument("--index", required=True, help="Fano indices, e.g. 2,2")
    p.add_argument("--n", required=True, help="half-dimensions n_i, e.g. 2,2")

    p = sub.add_parser("ypq", parents=[common], help="explicit Y^{p,q} metrics")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--check-einstein", action="store_true")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the sampled chart points")

    p = sub.add_parser("labc", parents=[common], help="L^{a,b,c} admissibility")
    p.add_argument("--a", required=True, type=int)
    p.add_argument("--b", required=True, type=int)
    p.add_argument("--c", required=True, type=int)
    p.add_argument("--to-cone", action="store_true",
                   help="emit the Gorenstein moment cone")

    p = sub.add_parser("gale-dual", parents=[common], help="charge matrix to rays")
    p.add_argument("--charges", required=True,
                   help="rows ';'-separated, entries ','-separated")

    p = sub.add_parser("batch", parents=[common],
                       help="run newline-delimited JobSpec JSON")
    p.add_argument("file", help="ndjson file of jobspecs, or - for stdin")
    return parser


def _spec_from_args(args) -> dict:
    group = args.group
    if group == "cone":
        payload = _load_cone_arg(args)
        if args.action == "minimize":
            payload["exact_certify"] = args.exact_certify
            return {"command": "cone-minimize", "payload": payload}
        return {"command": "cone-topology", "payload": payload}
    if group == "link":
        if args.action == "check":
            return {
                "command": "link-check",
                "payload": {"exponents": _ints_csv(args.exponents)},
            }
        return {
            "command": "link-enumerate",
            "payload": {
                "template": _template_csv(args.template),
                "range": _range_arg(args.range),
                "predicate": args.predicate,
            },
        }
    if group == "obstruct":
        return {
            "command": "obstruct-hs",
            "payload": {"weights": _ints_csv(args.weights), "degree": args.degree},
        }
    if group == "join":
        return {
            "command": "join",
            "payload": {
                "ord": _ints_csv(args.ord),
                "index": _ints_csv(args.index),
                "n": _ints_csv(args.n),
            },
        }
    if group == "ypq":
        return {
            "command": "ypq",
            "payload": {
                "p": args.p,
                "q": args.q,
                "check_einstein": args.check_einstein,
                "samples": args.samples,
                "seed": args.seed,
            },
        }
    if group == "labc":
        return {
            "command": "labc",
            "payload": {"a": args.a, "b": args.b, "c": args.c,
                        "to_cone": args.to_cone},
        }
    if group == "gale-dual":
        rows = [_ints_csv(part) for part in args.charges.split(";")]
        return {"command": "gale-dual", "payload": {"charges": rows}}
    raise SchemaError(f"unhandled group {group!r}")


def _run_batch(args, out) -> int:
    if args.file == "-":
        # universal newlines, as for a file: \n, \r\n and a lone \r end a line
        sys.stdin.reconfigure(newline=None)
        return _batch_lines(sys.stdin, args, out)
    with open(args.file, encoding="utf-8") as fh:
        return _batch_lines(fh, args, out)


def _batch_lines(lines, args, out) -> int:
    # iterating the stream splits at line ends only, where str.splitlines
    # would also split a JSON string at a raw U+2028 or \x1c
    worst = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            spec = json.loads(line)
        except json.JSONDecodeError as exc:
            _emit_line(_error_report({}, SchemaError(f"bad JSON: {exc}")), out)
            worst = max(worst, 1)
            continue
        try:
            report = run(spec, timing=args.timing)
            # encoded here, so a report that is not JSON fails its own job only
            text = _encode(report, sort_keys=True)
        except Exception as exc:
            _emit_line(_error_report(spec, exc), out)
            worst = max(worst, 1)
            continue
        out.write(text)
        out.write("\n")
        if args.strict and report.get("strict_fail"):
            worst = max(worst, 2)
    return worst


def _emit_line(report, out):
    out.write(_encode(report, sort_keys=True))
    out.write("\n")


def _run_command(args, out) -> int:
    if args.group == "batch":
        return _run_batch(args, out)
    try:
        spec = _spec_from_args(args)
        report = run(spec, timing=args.timing)
    except (ReebminError, ValueError, OSError, json.JSONDecodeError) as exc:
        _emit(_error_report({}, exc), args.format, out)
        return 1
    _emit(report, args.format, out)
    if args.strict and report.get("strict_fail"):
        return 2
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        status = _run_command(args, out)
        out.flush()
    except BrokenPipeError:
        # the reader closed early (`reebmin ... | head`): send what is left
        # in the buffer to devnull so the exit-time flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
