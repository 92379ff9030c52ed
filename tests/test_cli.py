import argparse
import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from reebmin import cli
from reebmin.errors import SchemaError

import oracles

# bad payloads, one per line, then two valid jobs
BAD_PAYLOADS = Path(__file__).parent / "data" / "bad_payloads.ndjson"
REPORT_SCHEMA = Path(__file__).parent.parent / "schemas" / "report.schema.json"

CONIFOLD_PAYLOAD = {
    "cone": {"n": 3, "normals": [[1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1]]}
}


def render(report):
    out = io.StringIO()
    cli._emit_json(report, out)
    return out.getvalue()


def test_run_cone_minimize():
    spec = {
        "command": "cone-minimize",
        "payload": dict(CONIFOLD_PAYLOAD, exact_certify=True),
    }
    report = cli.run(spec)
    res = report["results"]
    assert res["xi_star"] == [3.0, 1.5, 1.5]
    assert res["normalized_volume"] == pytest.approx(16 / 27, abs=1e-9)
    assert res["normalized_volume_exact"] == pytest.approx(16 / 27)
    assert res["regularity"] == "quasi-regular"
    assert report["tolerances"]["gradient_norm"] == 1e-10
    assert report["input"] == spec["payload"]  # verbatim echo


def test_run_is_deterministic_bytes():
    spec = {"command": "cone-minimize", "payload": dict(CONIFOLD_PAYLOAD)}
    assert render(cli.run(spec)) == render(cli.run(spec))
    spec = {"command": "link-check", "payload": {"exponents": [2, 3, 7, 5]}}
    assert render(cli.run(spec)) == render(cli.run(spec))


def test_run_link_check():
    report = cli.run({"command": "link-check", "payload": {"exponents": [2, 3, 7, 5]}})
    assert report["results"]["bgk"] == "pass"
    assert report["results"]["outcome"] == "exists"
    assert not report["strict_fail"]


def test_run_obstruct_strict_fail():
    report = cli.run(
        {
            "command": "obstruct-hs",
            "payload": {"weights": [21, 21, 21, 2], "degree": 42},
        }
    )
    assert report["results"]["bishop"] == "obstructed"
    assert report["strict_fail"]


def test_run_rejects_bad_specs():
    with pytest.raises(SchemaError):
        cli.run({"command": "does-not-exist", "payload": {}})
    with pytest.raises(SchemaError):
        cli.run({"command": "link-check", "payload": {}})
    with pytest.raises(SchemaError):
        cli.run({"command": "link-check", "payload": {"exponents": [2, "x"]}})
    with pytest.raises(SchemaError):
        cli.run({"command": "join", "payload": {"ord": [1], "index": [1], "n": [2]}})
    # row lengths that disagree with each other or with ncols
    with pytest.raises(SchemaError):
        cli.run({"command": "gale-dual", "payload": {"charges": [[1, 1, -1, -1], [1, 1, -1]]}})
    with pytest.raises(SchemaError):
        cli.run({"command": "gale-dual", "payload": {"charges": [1, 1, -1, -1], "ncols": 7}})


def test_main_minimize_json(capsys, tmp_path):
    cone_file = tmp_path / "conifold.json"
    cone_file.write_text(json.dumps(CONIFOLD_PAYLOAD["cone"]))
    code = cli.main(["cone", "minimize", "--input", str(cone_file), "--exact-certify"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["xi_star_exact"] == ["3/1", "3/2", "3/2"]
    assert out["results"]["normalized_volume_exact"] == "16/27"


def test_main_inline_normals(capsys):
    code = cli.main(["cone", "topology", "--normals", "1,0,0;1,1,0;1,1,1;1,0,1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["pi2_rank"] == 1
    assert out["results"]["smale"]["label"] == "#1(S^2xS^3)"


def test_main_link_enumerate_csv(capsys):
    code = cli.main(
        [
            "link", "enumerate",
            "--template", "2,3,5,_",
            "--range", "6..59",
            "--predicate", "gk+bgk-fail",
            "--format", "csv",
        ]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(lines) == 13  # header + 12 rows
    assert "exponents" in lines[0]


CONIFOLD_NORMALS = "1,0,0;1,1,0;1,1,1;1,0,1"


def test_main_table_bytes_with_fractions(capsys):
    # Fractions reach the human formats as the "p/q" strings of the JSON
    code = cli.main(["cone", "minimize", "--normals", CONIFOLD_NORMALS,
                     "--exact-certify", "--format", "table"])
    assert code == 0
    assert capsys.readouterr().out == (
        "command: cone-minimize\n"
        "input:\n"
        "  cone:\n"
        "    n: 3\n"
        "    normals: [[1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1]]\n"
        "  exact_certify: True\n"
        "results:\n"
        "  basis_change: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n"
        "  gorenstein_ell: 1\n"
        "  gradient_norm: 0.0\n"
        "  iterations: 0\n"
        "  normalized_volume: 0.5925925925925926\n"
        "  normalized_volume_exact: 16/27\n"
        "  rank: 1\n"
        "  regularity: quasi-regular\n"
        "  sasakian_volume: 18.374089884622112\n"
        "  xi_star: [3.0, 1.5, 1.5]\n"
        "  xi_star_exact: ['3/1', '3/2', '3/2']\n"
        "strict_fail: False\n"
        "tolerances:\n"
        "  gradient_norm: 1e-10\n"
        f"version: {cli.__version__}\n"
    )
    code = cli.main(["obstruct", "hs", "--weights", "21,21,21,2",
                     "--degree", "42", "--format", "table"])
    assert code == 0
    assert capsys.readouterr().out == (
        "command: obstruct-hs\n"
        "input:\n"
        "  degree: 42\n"
        "  weights: [21, 21, 21, 2]\n"
        "results:\n"
        "  bishop: obstructed\n"
        "  degree: 42\n"
        "  lichnerowicz:\n"
        "    charge: 6/23\n"
        "    eigenvalue: 588/529\n"
        "    status: obstructed\n"
        "    witness_index: 3\n"
        "  normalized_volume: 12167/11907\n"
        "  volume: 31.683326477635656\n"
        "  weights: [21, 21, 21, 2]\n"
        "strict_fail: True\n"
        "tolerances:\n"
        f"version: {cli.__version__}\n"
    )


def test_main_csv_bytes_with_fractions(capsys):
    code = cli.main(["cone", "minimize", "--normals", CONIFOLD_NORMALS,
                     "--exact-certify", "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out == (
        "gorenstein_ell,gradient_norm,iterations,normalized_volume,"
        "normalized_volume_exact,rank,regularity,sasakian_volume\n"
        "1,0.0,0,0.5925925925925926,16/27,1,quasi-regular,18.374089884622112\n"
    )
    code = cli.main(["obstruct", "hs", "--weights", "21,21,21,2",
                     "--degree", "42", "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out == (
        "bishop,degree,normalized_volume,volume\n"
        "obstructed,42,12167/11907,31.683326477635656\n"
    )


def test_main_table_keeps_verdict_key_order(capsys):
    # a list of verdicts prints as Python shows it, keys in the order built
    code = cli.main(["link", "enumerate", "--template", "2,3,5,_",
                     "--range", "17..17", "--format", "table"])
    assert code == 0
    assert (
        "  verdicts: [{'exponents': [2, 3, 5, 17], 'fano': True, "
        "'homology_type': 'integral_sphere', 'bgk': 'fail(2)', 'gk': 'pass', "
        "'bishop': 'unobstructed', 'lichnerowicz': 'unobstructed', "
        "'outcome': 'exists', 'reason': 'gk'}]\n"
    ) in capsys.readouterr().out


@pytest.mark.parametrize("emit", [
    cli._emit_line, cli._emit_json, cli._emit_table, cli._emit_csv,
])
def test_non_plain_report_value_is_never_printed(emit):
    report = {"command": "join", "results": {"kinds": {"smooth"}}, "version": "0"}
    out = io.StringIO()
    with pytest.raises(TypeError, match="set"):
        emit(report, out)
    assert out.getvalue() == ""


def test_main_strict_exit_codes(capsys):
    code = cli.main(
        ["obstruct", "hs", "--weights", "21,21,21,2", "--degree", "42", "--strict"]
    )
    capsys.readouterr()
    assert code == 2
    code = cli.main(
        ["obstruct", "hs", "--weights", "1,1,1,1", "--degree", "2", "--strict"]
    )
    capsys.readouterr()
    assert code == 0


def test_main_error_exit_code(capsys):
    code = cli.main(["cone", "topology", "--normals", "1,0;-1,0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"]["code"] == "NotStrictlyConvex"


def test_main_ypq_einstein(capsys):
    code = cli.main(
        ["ypq", "--p", "2", "--q", "1", "--check-einstein", "--samples", "3"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    e = out["results"]["einstein"]
    assert e["pass"] and e["max_residual"] <= 1e-9
    assert out["tolerances"]["einstein"] == 1e-9


@pytest.mark.parametrize("argv", [
    ["--p", "8", "--q", "1", "--samples", "20"],
    ["--p", "6", "--q", "1", "--samples", "40", "--seed", "3"],
    ["--p", "12", "--q", "1"],
    ["--p", "20", "--q", "1"],
])
def test_main_ypq_einstein_small_q_over_p(argv, capsys):
    # finite differences failed these exact metrics or stopped on the step size
    code = cli.main(["ypq", "--check-einstein", "--strict"] + argv)
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    e = out["results"]["einstein"]
    assert e["pass"] and e["max_residual"] <= 1e-9
    assert "step" not in e and "step" not in out["input"]


@pytest.mark.parametrize("p", [500, 1000])
def test_ypq_einstein_bound_is_relative_to_the_metric(p):
    # max |g_ij| grows with p (about 1.4e6 for Y^{1000,1}), and so does the
    # rounding in Ric - 4 g; each point is held to 1e-9 max(1, max |g_ij|)
    spec = {"command": "ypq",
            "payload": {"p": p, "q": 1, "check_einstein": True, "samples": 100}}
    report = cli.run(spec)
    e = report["results"]["einstein"]
    assert e["pass"] and not report["strict_fail"]
    assert e["max_residual"] > 1e-9
    assert report["tolerances"]["einstein"] == 1e-9


@pytest.mark.parametrize("p", [2, 1000])
def test_ypq_einstein_fails_a_perturbed_ricci(p, monkeypatch):
    from reebmin import ypq

    ricci = ypq.ricci_fd
    monkeypatch.setattr(ypq, "ricci_fd", lambda Y, x: tuple(
        tuple(v * (1.0 + 1e-6) for v in row) for row in ricci(Y, x)))
    spec = {"command": "ypq",
            "payload": {"p": p, "q": 1, "check_einstein": True, "samples": 20}}
    report = cli.run(spec)
    assert not report["results"]["einstein"]["pass"] and report["strict_fail"]


@pytest.fixture
def fresh_ypq_kernel():
    """An empty Y^{p,q} kernel cache before and after the test, so the kernel
    is traced from the code the test runs and none of it outlives the test."""
    from reebmin import ypq

    ypq._ypq_kernel.cache_clear()
    yield
    ypq._ypq_kernel.cache_clear()


@pytest.mark.parametrize("p", [2, 1000])
def test_ypq_einstein_fails_a_perturbed_metric(p, monkeypatch, fresh_ypq_kernel):
    # negative control through the trace: the compiled Ricci kernel must
    # follow the metric code, here w scaled by 1 + 1e-6
    from reebmin import ypq

    wqf = ypq.wqf

    def perturbed(Y, y):
        w, q, f = wqf(Y, y)
        return w * (1.0 + 1e-6), q, f

    monkeypatch.setattr(ypq, "wqf", perturbed)
    spec = {"command": "ypq",
            "payload": {"p": p, "q": 1, "check_einstein": True, "samples": 20}}
    report = cli.run(spec)
    assert not report["results"]["einstein"]["pass"] and report["strict_fail"]
    assert report["results"]["einstein"]["max_residual"] > 1e-7
    # a stale kernel would fail the check too; this one is the perturbed jets
    Y = ypq.ypq_params(p, 1)
    for x in ypq.random_chart_points(Y, 5, random.Random(p)):
        jets = ypq.ricci_from_jets(oracles.metric_jets(Y, x), 5, (0, 2))
        assert ypq.ricci_fd(Y, x) == jets


def test_seed_is_a_ypq_option_only(capsys):
    assert cli.main(["ypq", "--p", "2", "--q", "1", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["input"]["seed"] == 3
    for argv in (["link", "check", "2,3,7,5"], ["gale-dual", "--charges", "1,1,-1,-1"],
                 ["cone", "topology", "--normals", "1,0;0,1"]):
        with pytest.raises(SystemExit):
            cli.main(argv + ["--seed", "3"])
        capsys.readouterr()


PLAIN_TYPES = (dict, list, tuple, str, int, float, bool, type(None), Fraction)

ONE_SPEC_PER_COMMAND = [
    {"command": "cone-minimize", "payload": dict(CONIFOLD_PAYLOAD, exact_certify=True)},
    {"command": "cone-topology", "payload": CONIFOLD_PAYLOAD},
    {"command": "link-check", "payload": {"exponents": [2, 3, 7, 5]}},
    {"command": "link-enumerate",
     "payload": {"template": [2, 3, 5, None], "range": [6, 30], "predicate": "gk"}},
    {"command": "obstruct-hs", "payload": {"weights": [21, 21, 21, 2], "degree": 42}},
    {"command": "join", "payload": {"ord": [1, 1], "index": [2, 2], "n": [2, 2]}},
    {"command": "ypq", "payload": {"p": 2, "q": 1, "check_einstein": True, "samples": 3}},
    {"command": "labc", "payload": {"a": 1, "b": 3, "c": 2, "to_cone": True}},
    {"command": "gale-dual", "payload": {"charges": [[2, 2, -1, -3]]}},
]


def test_reports_hold_only_plain_values():
    # the encoder knows JSON's own types and Fractions only, so no report may
    # carry a numpy scalar or array (np.float64 is a float subclass: type, not
    # isinstance)
    def walk(x):
        assert type(x) in PLAIN_TYPES, (type(x), x)
        if isinstance(x, dict):
            assert all(type(k) is str for k in x)
            x = list(x.values())
        if isinstance(x, (list, tuple)):
            for v in x:
                walk(v)

    assert sorted(s["command"] for s in ONE_SPEC_PER_COMMAND) == sorted(cli.COMMANDS)
    for spec in ONE_SPEC_PER_COMMAND:
        walk(cli.run(spec, timing=True))


def test_main_gale_dual(capsys):
    code = cli.main(["gale-dual", "--charges", "2,2,-1,-3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["results"]["rays"] == [[1, 0, 0], [0, 1, 0], [2, 2, 3], [0, 0, -1]]


def test_batch_order_errors_and_counts(tmp_path, capsys):
    lines = []
    for k in range(5, 42):
        lines.append(
            json.dumps({"command": "link-check", "payload": {"exponents": [2, 3, 7, k]}})
        )
    lines.insert(10, "this is not json")
    batch = tmp_path / "jobs.ndjson"
    batch.write_text("\n".join(lines) + "\n")
    code = cli.main(["batch", str(batch)])
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert code == 1  # the malformed line surfaces as an error report
    assert len(out_lines) == 38
    reports = [json.loads(line) for line in out_lines]
    assert "error" in reports[10]
    passes = [
        r for r in reports
        if "results" in r
        and r["results"].get("bgk") == "pass"
        and r["results"].get("homology_type") == "integral_sphere"
    ]
    assert len(passes) == 27
    # order preserved: exponent slots ascend around the error line
    ks = [r["input"]["exponents"][3] for r in reports if "input" in r]
    assert ks == sorted(ks)


def test_batch_empty_file(tmp_path, capsys):
    batch = tmp_path / "empty.ndjson"
    batch.write_text("")
    code = cli.main(["batch", str(batch)])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_batch_strict(tmp_path, capsys):
    batch = tmp_path / "jobs.ndjson"
    batch.write_text(
        json.dumps(
            {"command": "obstruct-hs", "payload": {"weights": [21, 21, 21, 2], "degree": 42}}
        )
        + "\n"
    )
    code = cli.main(["batch", str(batch), "--strict"])
    capsys.readouterr()
    assert code == 2


def _batch(tmp_path, capsys, specs):
    batch = tmp_path / "jobs.ndjson"
    batch.write_text("".join(json.dumps(spec) + "\n" for spec in specs))
    code = cli.main(["batch", str(batch)])
    return code, [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_batch_rejects_non_integer_normals(tmp_path, capsys):
    bad = (
        [[1.5, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1]],  # float entry
        [[True, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1]],  # bool entry
        [5, [1, 1, 0], [1, 1, 1]],  # a normal that is not a list
    )
    specs = [{"command": "cone-topology", "payload": {"cone": {"n": 3, "normals": v}}}
             for v in bad]
    specs.append({"command": "cone-topology", "payload": CONIFOLD_PAYLOAD})
    code, reports = _batch(tmp_path, capsys, specs)
    assert code == 1
    assert [r.get("error", {}).get("code") for r in reports] == [
        "SchemaError", "SchemaError", "SchemaError", None]
    assert reports[3]["results"]["pi2_rank"] == 1


def test_batch_rejects_bad_enumerate_payloads(tmp_path, capsys):
    bad = (
        {"template": [2, 3, 7.9, None], "range": [5, 8]},  # float entry
        {"template": [2, 3, True, None], "range": [5, 8]},  # bool entry
        {"template": [2, 3, 7, None], "range": [5]},  # one bound
        {"template": [2, 3, 7, None], "range": [5, 8, 9]},  # three bounds
        {"template": [2, 3, 7, None], "range": [5, 8], "predicate": 5},
        {"template": [2, 3, 7, None], "range": [5, 8], "predicate": ["bgk"]},
        {"template": [2, 3, 7, None], "range": [5, 8], "predicate": ""},
        {"template": [2, 3, 7, None], "range": [5, 8], "predicate": "bgk+"},
    )
    specs = [{"command": "link-enumerate", "payload": p} for p in bad]
    specs.append({"command": "link-enumerate",
                  "payload": {"template": [2, 3, 7, None], "range": [5, 8]}})
    code, reports = _batch(tmp_path, capsys, specs)
    assert code == 1
    assert [r.get("error", {}).get("code") for r in reports] == [
        "SchemaError"] * 6 + ["ValueError"] * 2 + [None]
    assert reports[8]["results"]["values"] == [5, 6, 7, 8]


def test_link_enumerate_caps_the_width_of_its_range(monkeypatch):
    # a JSON Schema cannot bound hi - lo; no verdict may run either way
    from reebmin import links

    monkeypatch.setattr(links, "enumerate_family", lambda template, values, pred: [])
    payload = {"template": [2, 3, 5, None], "range": [1, cli.MAX_RANGE_WIDTH]}
    assert cli.run({"command": "link-enumerate", "payload": payload})["results"]["count"] == 0
    for bounds in ([0, cli.MAX_RANGE_WIDTH], [1, 10**9]):
        with pytest.raises(SchemaError, match="'range'"):
            cli.run({"command": "link-enumerate", "payload": dict(payload, range=bounds)})


def test_cone_work_is_capped_before_any_ray_is_enumerated(tmp_path, capsys, monkeypatch):
    # a JSON Schema cannot bound C(d, n-1) n (d + n^3); the moment curve at
    # d = 40, n = 8 asks for C(40, 7) ~ 1.9e7 candidate rays of 8 minors each
    from reebmin import cones

    def no_enumeration(*args):
        raise AssertionError("rays were enumerated")

    moment_curve = [[k**i for i in range(8)] for k in range(40)]
    spec = {"command": "cone-topology", "payload": {"cone": {"n": 8, "normals": moment_curve}}}
    monkeypatch.setattr(cones, "_extreme_rays_pointed", no_enumeration)
    for command in ("cone-minimize", "cone-topology"):
        with pytest.raises(SchemaError, match=f"at most {cli.MAX_CONE_WORK}"):
            cli.run(dict(spec, command=command))
    code, reports = _batch(tmp_path, capsys, [spec])
    assert code == 1 and reports[0]["error"]["code"] == "SchemaError"
    monkeypatch.undo()
    # the largest bench cones and the 24-normal parabola are admitted, and
    # a cone whose work equals the cap is too
    for normals in ([[1, k, k * k] for k in range(24)], [[1, k, k * k, k**3] for k in range(8)]):
        payload = {"cone": {"normals": normals}}
        assert cli.run({"command": "cone-topology", "payload": payload})["results"]["pi2_rank"] > 0
    parabola = {"cone": {"normals": [[1, k, k * k] for k in range(24)]}}
    monkeypatch.setattr(cli, "MAX_CONE_WORK", 276 * 3 * (24 + 27))
    cli.run({"command": "cone-topology", "payload": parabola})
    monkeypatch.setattr(cli, "MAX_CONE_WORK", 276 * 3 * (24 + 27) - 1)
    with pytest.raises(SchemaError):
        cli.run({"command": "cone-topology", "payload": parabola})


def test_ypq_with_a_huge_p_is_a_bad_params_line(tmp_path, capsys):
    # a_(p,q) as a float takes sqrt(4p^2 - 3q^2), which overflows for p ~ 1e400
    specs = [{"command": "ypq", "payload": {"p": 10**400, "q": 1}},
             {"command": "ypq", "payload": {"p": 2, "q": 1}}]
    code, reports = _batch(tmp_path, capsys, specs)
    assert code == 1
    assert reports[0]["error"]["code"] == "BadParams"
    assert reports[1]["results"]["regularity"] == "irregular"


def test_batch_rejects_bad_ypq_and_gale_dual_payloads(capsys):
    code = cli.main(["batch", str(BAD_PAYLOADS)])
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 1
    # the values the schema leaves to the handlers: one line per field
    # that holds them, with the handler's code (labc reports valid: false)
    decided = ["NotStrictlyConvex"] * 2 + ["ValueError"] * 6 + ["BadParams"] * 2 + [None] * 3
    assert [r.get("error", {}).get("code") for r in reports] == [
        "SchemaError"] * (len(reports) - 15) + decided + [None, None]
    assert [r["results"]["valid"] for r in reports[-5:-2]] == [False] * 3
    assert reports[-2]["results"]["einstein"]["samples"] == 2
    assert reports[-1]["results"]["rays"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]]


def test_batch_turns_an_unexpected_exception_into_an_error_line(
    tmp_path, capsys, monkeypatch
):
    def boom(exponents):
        raise RuntimeError("handler fault")

    monkeypatch.setitem(cli.COMMANDS, "link-check", (boom, cli.COMMANDS["link-check"][1]))
    specs = [
        {"command": "link-check", "payload": {"exponents": [2, 3, 7, 5]}},
        {"command": "join", "payload": {"ord": [1, 1], "index": [2, 2], "n": [2, 2]}},
    ]
    code, reports = _batch(tmp_path, capsys, specs)
    assert code == 1
    assert reports[0]["command"] == "link-check"
    assert reports[0]["error"] == {
        "code": "InternalError", "message": "RuntimeError: handler fault"}
    assert reports[1]["results"]["kind"]


def test_batch_turns_a_report_that_is_not_json_into_an_error_line(
    tmp_path, capsys, monkeypatch
):
    def unencodable(ords, idxs, ns):
        return {"kind": {1, 2}}, {}, False

    monkeypatch.setitem(cli.COMMANDS, "join", (unencodable, cli.COMMANDS["join"][1]))
    join = {"command": "join", "payload": {"ord": [1, 1], "index": [2, 2], "n": [2, 2]}}
    good = {"command": "link-check", "payload": {"exponents": [2, 3, 7, 5]}}
    code, reports = _batch(tmp_path, capsys, [join, join, good])
    assert code == 1
    assert len(reports) == 3
    for report in reports[:2]:
        assert report["command"] == "join"
        assert report["error"] == {
            "code": "InternalError", "message": "TypeError: a report may not hold a set: {1, 2}"}
    assert reports[2]["command"] == "link-check" and "error" not in reports[2]


def test_batch_rejects_a_jobspec_field_other_than_command_and_payload(tmp_path, capsys):
    # a misspelt top-level key; a command that is not a string, which must
    # not reach the table's dict lookup, where a list is unhashable
    good = ONE_SPEC_PER_COMMAND[2]
    specs = [dict(good, fromat="csv"), {"command": ["ypq"], "payload": {}},
             {"command": "ypq", "payload": [2, 1]}, good]
    code, reports = _batch(tmp_path, capsys, specs)
    assert code == 1
    assert [r.get("error", {}).get("code") for r in reports] == ["SchemaError"] * 3 + [None]
    assert "'fromat'" in reports[0]["error"]["message"]
    assert reports[1]["command"] is None
    assert reports[3]["results"]["bgk"] == "pass"


def _leaves(parser):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [parser]
    return [leaf for a in subs for p in a.choices.values() for leaf in _leaves(p)]


def test_every_command_has_one_argv_leaf():
    # each leaf but batch names its command, so _spec_from_args meets no other
    commands = [leaf.get_default("command") for leaf in _leaves(cli.build_parser())]
    assert sorted(c for c in commands if c is not None) == sorted(cli.COMMANDS)
    assert commands.count(None) == 1


def test_batch_answers_any_small_payload_with_one_report_line(tmp_path):
    # each field takes a value of its kind or any JSON value, small enough
    # that no payload nears a cap: one line per job, each a Report, none an
    # InternalError
    hypothesis = pytest.importorskip("hypothesis")
    jsonschema = pytest.importorskip("jsonschema")
    from reebmin import links

    st = hypothesis.strategies
    validator = jsonschema.Draft202012Validator(json.loads(REPORT_SCHEMA.read_text()))
    ints = st.integers(-6, 40)
    lists = st.lists(ints, max_size=6)
    rows = st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(ints, min_size=n, max_size=n), max_size=6))
    names = st.lists(st.sampled_from(sorted(links.NAMED_PREDICATES)), min_size=1, max_size=2)
    of_kind = {
        cli.INT: ints, cli.INTS: lists, cli.FLAG: st.booleans(), cli.NCOLS: st.none() | ints,
        cli.OBJECT: st.fixed_dictionaries({"normals": rows}, optional={"n": ints}),
        cli.TEXT: st.none() | names.map("+".join) | st.text(max_size=4),
        cli.TEMPLATE: st.lists(st.none() | ints, max_size=6),
        cli.BOUNDS: st.lists(ints, min_size=2, max_size=2), cli.CHARGES: lists | rows,
    }
    scalars = st.none() | st.booleans() | ints | st.floats(-6, 40) | st.text(max_size=4)
    any_json = st.recursive(scalars, lambda inner: (
        st.lists(inner, max_size=6)
        | st.dictionaries(st.sampled_from(("n", "normals", "x")), inner, max_size=3)),
        max_leaves=8)

    def spec(command):
        fields = cli.COMMANDS[command][1]
        typed = {k: of_kind[kind] for k, (kind, _) in fields.items()}
        required = {k: typed.pop(k) for k, (_, d) in fields.items() if d is cli.REQUIRED}
        mixed = {k: of_kind[kind] | any_json for k, (kind, _) in fields.items()}
        payload = (st.fixed_dictionaries(required, optional=typed)
                   | st.fixed_dictionaries({}, optional=mixed)
                   | st.fixed_dictionaries({"x": any_json}, optional=mixed))
        return st.fixed_dictionaries({"command": st.just(command), "payload": payload})

    batch = tmp_path / "jobs.ndjson"

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @hypothesis.given(st.lists(st.sampled_from(sorted(cli.COMMANDS)).flatmap(spec),
                               min_size=1, max_size=3))
    def check(specs):
        batch.write_text("".join(json.dumps(s) + "\n" for s in specs))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["batch", str(batch)])
        lines = out.getvalue().splitlines()
        assert len(lines) == len(specs)
        for line in lines:
            report = json.loads(line)
            validator.validate(report)
            assert report.get("error", {}).get("code") != "InternalError", line

    check()


@pytest.mark.parametrize("n", [7, 2, True, 3.0, "3", None])
def test_cone_n_must_match_the_normals(n):
    cone = {"n": n, "normals": [[1, 0, 0], [1, 1, 0], [1, 1, 1]]}
    with pytest.raises(SchemaError):
        cli.run({"command": "cone-topology", "payload": {"cone": cone}})


def test_report_round_trip():
    spec = {"command": "labc", "payload": {"a": 1, "b": 3, "c": 2, "to_cone": True}}
    report = cli.run(spec)
    again = cli.run({"command": report["command"], "payload": report["input"]})
    assert render(again) == render(report)


def test_timing_flag_controls_field():
    spec = {"command": "link-check", "payload": {"exponents": [2, 3, 7, 5]}}
    assert "timing_ms" not in cli.run(spec)
    assert "timing_ms" in cli.run(spec, timing=True)


def child_pythonpath():
    """PYTHONPATH under which a child interpreter imports the same reebmin
    this process imported, whether a source checkout or an installed copy."""
    import os
    from pathlib import Path

    pkg_parent = str(Path(cli.__file__).resolve().parent.parent)
    return os.pathsep.join(p for p in (pkg_parent, os.environ.get("PYTHONPATH")) if p)


def test_cross_process_byte_determinism(tmp_path):
    import subprocess
    import sys

    cone_file = tmp_path / "conifold.json"
    cone_file.write_text(json.dumps(CONIFOLD_PAYLOAD["cone"]))
    cmd = [
        sys.executable, "-m", "reebmin.cli",
        "cone", "minimize", "--input", str(cone_file), "--exact-certify",
    ]
    outs = set()
    for seed in ("0", "12345"):
        proc = subprocess.run(
            cmd, capture_output=True, text=True,
            env={
                "PYTHONHASHSEED": seed,
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": child_pythonpath(),
            },
        )
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1
    # identical but empty or truncated output must not pass
    report = json.loads(outs.pop())
    assert report["command"] == "cone-minimize"
    assert report["results"]["regularity"] == "quasi-regular"


def test_cross_process_byte_determinism_of_the_einstein_check():
    # the Ricci kernel is generated source: it must not depend on hash order
    import subprocess
    import sys

    cmd = [
        sys.executable, "-m", "reebmin.cli",
        "ypq", "--p", "8", "--q", "1", "--check-einstein", "--samples", "5",
    ]
    outs = set()
    for seed in ("0", "12345"):
        proc = subprocess.run(
            cmd, capture_output=True, text=True,
            env={
                "PYTHONHASHSEED": seed,
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": child_pythonpath(),
            },
        )
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1
    report = json.loads(outs.pop())
    assert report["command"] == "ypq"
    assert report["results"]["einstein"]["pass"] is True
    assert report["results"]["einstein"]["samples"] == 5


def test_closed_stdout_exits_quietly(tmp_path):
    import os
    import subprocess
    import sys

    cone_file = tmp_path / "conifold.json"
    cone_file.write_text(json.dumps(CONIFOLD_PAYLOAD["cone"]))
    env = dict(os.environ, PYTHONPATH=child_pythonpath())
    # a pipe whose reader is already gone, as after `reebmin ... | head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "reebmin.cli",
             "cone", "minimize", "--input", str(cone_file)],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_batch_normalizing_weights_writes_nothing_to_stderr(tmp_path):
    import os
    import subprocess
    import sys

    job = {"command": "obstruct-hs", "payload": {"weights": [9, 12, 15, 21], "degree": 18}}
    job_file = tmp_path / "jobs.ndjson"
    job_file.write_text(json.dumps(job) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "reebmin.cli", "batch", str(job_file)],
        capture_output=True, env=dict(os.environ, PYTHONPATH=child_pythonpath()),
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    # the normalization shows in the report itself
    report = json.loads(proc.stdout)
    assert report["input"]["weights"] == [9, 12, 15, 21]
    assert report["results"]["weights"] == [3, 4, 5, 7]
    assert report["results"]["degree"] == 6


def test_cli_import_loads_no_test_extras():
    import subprocess
    import sys

    extras = ("jsonschema", "scipy", "mpmath", "hypothesis", "pytest")
    code = (
        "import sys, reebmin.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {extras!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": child_pythonpath()},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Y^{3,1}: irregular of rank 2, since only sqrt(4p^2 - 3q^2) enters xi
Y31_CONE = {"n": 3, "normals": [[1, 0, 0], [1, 1, 0], [1, 3, 3], [1, 1, 2]]}
# the cone over a trapezoid times an interval: an irregular n = 4 minimizer
PRISM4_CONE = {"n": 4, "normals": [
    [1, 0, 0, 0], [1, 0, 0, 1], [1, 2, 0, 0], [1, 2, 0, 1],
    [1, 1, 1, 0], [1, 1, 1, 1], [1, 0, 1, 0], [1, 0, 1, 1],
]}

# one job of every code path: none may load numpy
NUMPY_FREE_SPECS = [
    {"command": "link-check", "payload": {"exponents": [2, 3, 7, 5]}},
    {"command": "link-enumerate",
     "payload": {"template": [2, 3, 5, None], "range": [6, 30], "predicate": "gk"}},
    {"command": "obstruct-hs", "payload": {"weights": [21, 21, 21, 2], "degree": 42}},
    {"command": "join", "payload": {"ord": [1, 1], "index": [2, 2], "n": [2, 2]}},
    {"command": "ypq", "payload": {"p": 2, "q": 1}},
    {"command": "ypq", "payload": {"p": 3, "q": 1, "check_einstein": True, "samples": 4, "seed": 5}},
    {"command": "labc", "payload": {"a": 1, "b": 3, "c": 2, "to_cone": True}},
    {"command": "gale-dual", "payload": {"charges": [[2, 2, -1, -3]]}},
    {"command": "cone-topology", "payload": CONIFOLD_PAYLOAD},
    {"command": "cone-minimize", "payload": dict(CONIFOLD_PAYLOAD, exact_certify=True)},
    # irregular minimizers: regularity and rank come from certification alone
    {"command": "cone-minimize", "payload": {"cone": Y31_CONE}},
    {"command": "cone-minimize", "payload": {"cone": PRISM4_CONE, "exact_certify": True}},
]


def test_numpy_stays_off_the_start_up_path():
    import subprocess
    import sys

    code = (
        "import json, sys\n"
        "before = 'numpy' in sys.modules\n"
        "from reebmin import cli\n"
        "for spec in json.loads(sys.argv[1]):\n"
        "    cli.run(spec)\n"
        "print(json.dumps([before, 'numpy' in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(NUMPY_FREE_SPECS)],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": child_pythonpath()},
    )
    assert proc.returncode == 0, proc.stderr
    before, loaded = json.loads(proc.stdout)
    assert not before  # the interpreter itself did not load it
    assert not loaded


def test_array_paths_keep_their_reports():
    # the irregular minimizer's report is pinned to the bits the LAPACK
    # solve gave before numpy left the package, and the Einstein report to
    # those of the sparse Ricci program
    report = cli.run({"command": "cone-minimize", "payload": {"cone": Y31_CONE}})
    assert report["results"] == {
        "basis_change": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "gorenstein_ell": 1,
        "gradient_norm": 1.0896096981628377e-18,
        "iterations": 3,
        "normalized_volume": 0.19473794616036783,
        "rank": 2,
        "regularity": "irregular",
        "sasakian_volume": 6.038098638801693,
        "xi_star": [3.0, 4.116843969807044, 4.116843969807044],
    }
    spec = {"command": "ypq",
            "payload": {"p": 3, "q": 1, "check_einstein": True, "samples": 4, "seed": 5}}
    assert cli.run(spec)["results"] == {
        "a": 0.1808576307478873,
        "einstein": {
            "eta_max": 2.220446049250313e-16,
            "killing_max": 0.0,
            "max_residual": 8.881784197001252e-15,
            "mean_residual": 3.9968028886505635e-15,
            "pass": True,
            "samples": 4,
            "seed": 5,
        },
        "m": None,
        "p": 3,
        "q": 1,
        "regularity": "irregular",
        "roots": [-0.22871355387816905, 0.27128644612183095, 1.457427107756338],
    }


def test_every_command_rejects_an_unknown_payload_field():
    # the misspelt cone-minimize flag and cone field are bad_payloads lines
    for spec in ONE_SPEC_PER_COMMAND:
        with pytest.raises(SchemaError, match="'typo'"):
            cli.run({"command": spec["command"], "payload": dict(spec["payload"], typo=0)})


@pytest.mark.parametrize("from_stdin", [False, True])
def test_batch_keeps_a_line_separator_inside_a_json_string(
    tmp_path, capsys, monkeypatch, from_stdin
):
    # a raw U+2028 inside a JSON string: str.splitlines would cut the line
    # there into two bad-JSON lines; the predicate parser strips it.  A lone
    # \r still ends a line, from a file and from stdin alike.
    spec = {"command": "link-enumerate",
            "payload": {"template": [2, 3, 7, None], "range": [5, 8], "predicate": "bgk\u2028"}}
    line = json.dumps(spec, ensure_ascii=False)
    assert "\u2028" in line and len(line.splitlines()) == 2
    data = (line + "\r" + json.dumps(ONE_SPEC_PER_COMMAND[2]) + "\n").encode()
    batch = tmp_path / "jobs.ndjson"
    batch.write_bytes(data)
    if from_stdin:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code = cli.main(["batch", "-" if from_stdin else str(batch)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 2
    reports = [json.loads(line) for line in out]
    assert reports[0]["input"]["predicate"] == "bgk\u2028"
    assert reports[0]["results"]["count"] >= 1
    assert reports[1]["command"] == "link-check"
