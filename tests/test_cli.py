"""Command-line behavior: parsing, reports, files, exit codes."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from rifclark import clark, cli
from rifclark.catalog import get, names
from rifclark.clark import clark_measure
from rifclark.errors import DomainError, NumericError
from rifclark.polynomials import UniPoly
from rifclark.rif import BiPolyN1, validate


def test_parse_alpha_literals_and_cartesian():
    assert cli.parse_alpha("1") == 1 + 0j
    assert cli.parse_alpha("-1") == -1 + 0j
    assert cli.parse_alpha("i") == 1j
    assert cli.parse_alpha("-i") == -1j
    v = cli.parse_alpha("0.6+0.8i")
    assert abs(v - (0.6 + 0.8j)) < 1e-12


def test_parse_alpha_polar_forms():
    for text in ("exp(i*0.7)", "e^{i0.7}", "e^{i*0.7}"):
        v = cli.parse_alpha(text)
        assert abs(v - complex(math.cos(0.7), math.sin(0.7))) < 1e-12
    v = cli.parse_alpha("e^{iπ/2}")
    assert abs(v - 1j) < 1e-12
    v = cli.parse_alpha("exp(i*pi/4)")
    assert abs(v - complex(math.cos(math.pi / 4), math.sin(math.pi / 4))) < 1e-12


def test_parse_alpha_normalizes_with_warning(capsys):
    v = cli.parse_alpha("0.5+0.2i")
    assert abs(abs(v) - 1.0) < 1e-14
    assert "normalizing" in capsys.readouterr().err


def test_parse_alpha_rejects_garbage():
    for bad in ("abc", "", "e^{iq}", "0", "nan", "inf", "nan+1i", "1e400",
                "e^{i*10**400}"):
        with pytest.raises(DomainError):
            cli.parse_alpha(bad)


def test_parse_alphas_list():
    vals = cli.parse_alphas("1,i,-1")
    assert len(vals) == 3
    assert vals[1] == 1j


def test_catalog_roundtrip(capsys):
    assert cli.main(["catalog"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert [e["name"] for e in listing] == names()
    for e in listing:
        poly = BiPolyN1.from_json(e["rif"])
        validate(poly)
    variant = [e for e in listing if e["name"] == "amy-variant"][0]
    assert "weights differ" in variant["description"]


def test_analyze_fave_exceptional(capsys):
    assert cli.main(["analyze", "fave", "--alpha=-1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kind"] == "exceptional"
    assert rep["blaschke"]["zeros"] == []
    (line,) = rep["lines"]
    assert abs(line["tau"][0] - 1.0) < 1e-12 and abs(line["tau"][1]) < 1e-12
    assert abs(line["mass"] - 0.5) < 1e-10
    assert rep["unitary"] is False
    assert rep["extreme"] == "not_extreme"
    assert rep["nearest_exceptional_distance"] == 0.0


def test_analyze_deg31_alpha_one(capsys):
    assert cli.main(["analyze", "deg31", "--alpha=1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    (line,) = rep["lines"]
    assert abs(line["tau"][0] + 1.0) < 1e-12
    assert abs(line["mass"] - 0.5) < 1e-10
    orders = {round(o["tau"][0]): o["order"] for o in rep["weight_vanishing_order"]}
    assert orders[-1] >= 2  # the weight vanishes at the contact point
    assert abs(rep["total_mass"] - 0.6) < 1e-8


def test_analyze_mass_next_to_a_near_circle_zero(capsys):
    # B_alpha has a zero 7e-5 from the circle here, where the fixed
    # 4096-node uniform rule reported 0.6022483, 1.8 % off
    assert cli.main(["analyze", "deg31", "--alpha=exp(i*0.37)"]) == 0
    rep = json.loads(capsys.readouterr().out)
    rif = get("deg31").build()
    want = clark_measure(rif, np.exp(0.37j)).closed_form_mass()
    assert abs(want - 0.6132807) < 1e-7
    assert abs(rep["total_mass"] - want) <= 1e-9 * want


def test_analyze_deg31_alpha_minus_one_weight_order(capsys):
    assert cli.main(["analyze", "deg31", "--alpha=-1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    orders = {round(o["tau"][0]): o["order"] for o in rep["weight_vanishing_order"]}
    assert orders[1] == 0  # nonvanishing weight at the simple contact


@pytest.mark.parametrize("name,angle,code", [
    ("fave", "pi+0.001", 0), ("amy-variant", "pi+0.001", 0),
    ("deg31", "pi+0.001", 0), ("amy", "pi+0.03", 0), ("amy", "pi+0.01", 3),
])
def test_analyze_reports_the_settled_mass_near_exceptional(name, angle, code, capsys):
    # B_alpha has a zero close to the circle here, where a fixed 4096-node
    # rule was 2 % to 48 % off; the reported mass is the adaptive one, or
    # the measure is refused
    alpha = f"exp(i*({angle}))"
    assert cli.main(["analyze", name, f"--alpha={alpha}"]) == code
    out = capsys.readouterr()
    if code:
        assert out.out == "" and "numeric error" in out.err
        return
    rep = json.loads(out.out)
    want = clark_measure(get(name).build(), cli.parse_alpha(alpha)).closed_form_mass()
    assert abs(rep["total_mass"] - want) <= 1e-8 * want


@pytest.mark.parametrize("alpha, want", [("1", 128), ("exp(i*0.37)", 8192)])
def test_analyze_reports_the_node_count_of_its_mass(alpha, want, monkeypatch, capsys):
    # mass_nodes is the last count of the adaptive mass's rule: low where
    # the Blaschke zeros keep far from the circle, 8192 for the mapped rule
    # next to a zero 7e-5 from it
    counts = []
    node_data = clark.ClarkMeasure.node_data

    def counted(cm, count):
        counts.append(count)
        return node_data(cm, count)

    monkeypatch.setattr(clark.ClarkMeasure, "node_data", counted)
    assert cli.main(["analyze", "deg31", f"--alpha={alpha}"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["mass_nodes"] == counts[-1] == want


def test_analyze_unsettled_mass_is_numeric_error(monkeypatch, capsys):
    # with no room to double from the least start, 64 nodes, the adaptive
    # mass cannot settle: analyze reports the failure instead of an
    # unsettled number
    monkeypatch.setattr(clark, "_MAX_ADAPTIVE_NODES", 64)
    assert cli.main(["analyze", "fave", "--alpha=i"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "did not settle" in out.err


def test_analyze_generic_warns_near_exceptional(capsys):
    # a generic alpha 1e-5 from the exceptional value is inside the
    # conditioning cliff: the warning must print, then the construction
    # fails as numerically inseparable from the exceptional measure
    code = cli.main(["analyze", "fave", "--alpha=exp(i*(pi+0.00001))"])
    assert code == 3
    err = capsys.readouterr().err
    assert "warning" in err and "exceptional" in err
    assert "numeric error" in err


def test_analyze_deterministic_bytes(capsys):
    cli.main(["analyze", "amy", "--alpha=exp(i*0.3)"])
    one = capsys.readouterr().out
    cli.main(["analyze", "amy", "--alpha=exp(i*0.3)"])
    two = capsys.readouterr().out
    assert one == two


def test_analyze_out_file(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert cli.main(["analyze", "fave", "--alpha=i", "--out", str(out)]) == 0
    capsys.readouterr()
    rep = json.loads(out.read_text())
    assert rep["kind"] == "generic"


def test_analyze_exit_codes(tmp_path, capsys):
    assert cli.main(["analyze", "nosuch", "--alpha=1"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"n": 1, "p1": {"coeffs": [[1.0, 0.0], [-2.0, 0.0]]},
         "p2": {"coeffs": [[0.0, 0.0]]}}))
    assert cli.main(["analyze", str(bad), "--alpha=1"]) == 2
    err = capsys.readouterr().err
    assert "not stable" in err


def test_analyze_rejects_non_finite_alpha(capsys):
    assert cli.main(["analyze", "fave", "--alpha=nan"]) == 2
    assert "not finite" in capsys.readouterr().err


def test_angle_forms_parse_in_floats(capsys):
    for text, want in (("pi/2", math.pi / 2), ("-(1+2)*3/4", -2.25), ("+1", 1.0),
                       ("2*(pi-1)", 2 * (math.pi - 1)), ("pi**2", math.pi ** 2),
                       ("2**0.5", math.sqrt(2.0)), ("(pi)", math.pi),
                       ("1e3", 1000.0), ("pi+1e-4", math.pi + 1e-4)):
        assert cli._eval_angle(text) == want
    for text, theta in (("e^{i*(pi+1e-4)}", math.pi + 1e-4), ("exp(i*2.5e-1)", 0.25),
                        ("e^{i*1E-3}", 1e-3)):
        assert cli.parse_alpha(text) == complex(math.cos(theta), math.sin(theta))
    for bad in ("1/0", "(-8)**(1/3)", "2pi", "i", "e", "2*e", "1e", "0**-1", "1+"):
        with pytest.raises(DomainError):
            cli._eval_angle(bad)
    # an exponent tower overflows in float arithmetic at once
    t0 = time.perf_counter()
    assert cli.main(["analyze", "fave", "--alpha=e^{i*9**9**9}"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "cannot parse angle" in capsys.readouterr().err


def test_analyze_malformed_json_exit_code(tmp_path, capsys):
    good = {"n": 1, "p1": {"coeffs": [[2.0, 0.0], [-1.0, 0.0]]},
            "p2": {"coeffs": [[-1.0, 0.0]]}}
    cases = {
        "missing.json": json.dumps({"n": 1, "p1": good["p1"]}),
        "nan.json": json.dumps({**good, "p2": {"coeffs": [[float("nan"), 0.0]]}}),
        "truncated.json": json.dumps(good)[:-3],
        "scalar.json": "5",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        assert cli.main(["analyze", str(path), "--alpha=1"]) == 2, name
    assert "Traceback" not in capsys.readouterr().err


def test_unreadable_input_path_is_input_error(tmp_path, capsys):
    # a directory passes the existence test but cannot be opened as a file
    assert cli.main(["analyze", str(tmp_path), "--alpha=1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_out_path_is_input_error(tmp_path, capsys):
    assert cli.main(["analyze", "fave", "--alpha=1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    missing = tmp_path / "missing" / "x.csv"
    assert cli.main(["levelset", "fave", "--alphas=1", "--out", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_subcommands_take_only_the_options_they_read(capsys):
    for argv in (["analyze", "fave", "--alpha=1", "--seed", "3"],
                 ["analyze", "fave", "--alpha=1", "--tol", "1e-9"],
                 ["levelset", "fave", "--alphas=1", "--seed", "3"],
                 ["verify", "fave", "--tol", "1e-9"],
                 ["analyze", "fave", "--alpha=1", "--nodes", "64"],
                 ["verify", "fave", "--nodes", "64"],
                 ["catalog", "--nodes", "64"],
                 ["catalog", "--seed", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
    assert "unrecognized arguments" in capsys.readouterr().err


def test_analyze_unsaturable_input_is_undetermined(tmp_path, capsys):
    # the declared n exceeds the degree, or p2 vanishes: the resultant
    # cannot reach degree 2n, so the extreme status is undetermined
    cases = {
        "padded.json": {"n": 2, "p1": {"coeffs": [[2.0, 0.0], [-1.0, 0.0]]},
                        "p2": {"coeffs": [[-1.0, 0.0]]}},
        "no_z2.json": {"n": 1, "p1": {"coeffs": [[2.0, 0.0], [-1.0, 0.0]]},
                       "p2": {"coeffs": [[0.0, 0.0]]}},
    }
    for name, obj in cases.items():
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        assert cli.main(["analyze", str(path), "--alpha=1"]) == 0, name
        rep = json.loads(capsys.readouterr().out)
        assert rep["extreme"] == "undetermined", name


def test_report_rejects_non_finite_values():
    with pytest.raises(NumericError):
        cli._dumps({"total_mass": float("nan")})


def test_analyze_json_input(tmp_path, capsys):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(
        {"n": 1, "p1": {"coeffs": [[2.0, 0.0], [-1.0, 0.0]]},
         "p2": {"coeffs": [[-1.0, 0.0]]}}))
    assert cli.main(["analyze", str(path), "--alpha=-1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kind"] == "exceptional"


def test_analyze_catalog_element_file_matches_the_name(tmp_path, capsys):
    # an element of `rifclark catalog` keeps its polynomial under "rif"
    assert cli.main(["catalog"]) == 0
    [entry] = [e for e in json.loads(capsys.readouterr().out) if e["name"] == "deg31"]
    path = tmp_path / "deg31.json"
    path.write_text(json.dumps(entry))
    assert cli.main(["analyze", str(path), "--alpha=-1"]) == 0
    from_file = capsys.readouterr().out
    assert cli.main(["analyze", "deg31", "--alpha=-1"]) == 0
    assert from_file == capsys.readouterr().out


def test_verify_single_suite(capsys):
    assert cli.main(["verify", "amy", "--suite=gram"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["all_passed"] is True
    (suite,) = rep["suites"]
    assert suite["name"] == "gram"
    assert suite["max_deviation"] < 1e-7


def test_verify_output_is_byte_deterministic(capsys):
    outs = []
    for _ in range(2):
        assert cli.main(["verify", "fave", "--seed", "0"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "elapsed" not in outs[0]


def test_verify_unknown_suite_is_input_error(capsys):
    assert cli.main(["verify", "fave", "--suite=bogus"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_failure_exit_code(monkeypatch, capsys):
    from rifclark.verification import SuiteResult

    def fake(entry, names=None, seed=0):
        return [SuiteResult("reflect", False, 1.0, 1e-10)]

    monkeypatch.setattr(cli, "run_suites", fake)
    assert cli.main(["verify", "fave"]) == 4
    rep = json.loads(capsys.readouterr().out)
    assert rep["all_passed"] is False


def test_numeric_error_exit_code(monkeypatch, capsys):
    def boom(entry, names=None, seed=0):
        raise NumericError("synthetic failure", residual=1.0)

    monkeypatch.setattr(cli, "run_suites", boom)
    assert cli.main(["verify", "fave"]) == 3
    assert "numeric error" in capsys.readouterr().err


def test_levelset_files_and_branches(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["levelset", "deg31", "--alphas=-1,1", "--nodes=32"]) == 0
    paths = capsys.readouterr().out.split()
    assert len(paths) == 2
    for path, theta in zip(paths, (0.0, math.pi)):
        rows = [r.split(",") for r in Path(path).read_text().splitlines()[1:]]
        branches = {r[2] for r in rows}
        assert branches == {"curve", "line_0"}
        line_t1 = {float(r[0]) for r in rows if r[2] == "line_0"}
        assert len(line_t1) == 1
        assert abs(line_t1.pop() - theta) < 1e-9


def test_levelset_generic_no_lines(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["levelset", "amy", "--alphas=e^{iπ/2}", "--nodes=16"]) == 0
    (path,) = capsys.readouterr().out.split()
    body = Path(path).read_text()
    assert "line" not in body
    assert body.count("curve") == 16


def test_cli_refuses_malformed_alphas(capsys):
    assert cli.main(["levelset", "fave", "--alphas=,"]) == 2
    assert "empty alpha list" in capsys.readouterr().err
    assert cli.main(["analyze", "fave", "--alpha=exp(i*1e308*10)"]) == 2
    assert "is not finite" in capsys.readouterr().err


def test_verify_without_contacts(tmp_path, capsys):
    # p = 3 - z1 - z2 has no boundary zero, so no alpha is exceptional and
    # the suites that need one say so
    path = tmp_path / "smooth.json"
    poly = BiPolyN1(UniPoly([3.0, -1.0]), UniPoly([-1.0]), 1)
    path.write_text(json.dumps(poly.to_json()), encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"]
    suites = {s["name"]: s for s in report["suites"]}
    for name in ("ortho_identity", "weakstar"):
        assert suites[name]["details"] == {"skipped": "no exceptional values"}


def test_levelset_out_single(tmp_path, capsys):
    out = tmp_path / "ls.csv"
    assert cli.main(["levelset", "fave", "--alphas=-1", "--nodes=8",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.exists()
    assert "line_0" in out.read_text()


@pytest.mark.parametrize("nodes", ["0", "-3"])
def test_levelset_nonpositive_nodes_is_input_error(nodes, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["levelset", "fave", "--alphas=-1", f"--nodes={nodes}"]) == 2
    assert "node count must be positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_levelset_curve_closes_continuously():
    # the curve branch is smooth: refining the sampling shrinks the
    # largest jump between neighbors (amy at alpha = i has a steep but
    # continuous branch, slope about 30)
    from rifclark.clark import clark_measure, level_set_sample
    from rifclark.catalog import get
    cm = clark_measure(get("amy").build(), 1j)
    gaps = {}
    for n in (256, 1024):
        s = level_set_sample(cm, n_points=n)
        t2 = s.curve[:, 1]
        step = np.abs(np.exp(1j * t2[1:]) - np.exp(1j * t2[:-1]))
        gaps[n] = np.max(step)
    assert gaps[1024] < gaps[256] / 2.0
    assert gaps[1024] < 0.5
