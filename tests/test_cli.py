import inspect
import json
from dataclasses import fields

import numpy as np
import pytest

import riemcond as rc
from riemcond.cli import build_parser, main


@pytest.fixture
def rig_file(tmp_path):
    path = tmp_path / "rig.json"
    assert main(["gen-rig", "--k", "4", "--seed", "1", "--out", str(path)]) == 0
    return path


@pytest.fixture
def point_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"y": [0.35, -0.2, 0.4]}))
    return path


def test_gen_rig_round_trip_bit_exact(tmp_path):
    out = tmp_path / "rig.json"
    assert main(["gen-rig", "--k", "6", "--seed", "9", "--out", str(out)]) == 0
    loaded = rc.rig_from_dict(json.loads(out.read_text()))
    direct = rc.gen_rig(rc.RigSpec(k=6, seed=9))
    for a, b in zip(loaded.cameras, direct.cameras):
        np.testing.assert_array_equal(a.matrix, b.matrix)


def test_kappa_on_manifold_point(rig_file, point_file, tmp_path, capsys):
    out = tmp_path / "kappa.json"
    code = main([
        "kappa", "--rig", str(rig_file), "--point", str(point_file),
        "--eta-scale", "0", "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "kappa =" in printed and "worst input direction" in printed
    payload = json.loads(out.read_text())
    rig = rc.rig_from_dict(json.loads(rig_file.read_text()))
    R = np.linalg.qr(rc.mv_jacobian(rig, [0.35, -0.2, 0.4]))[1]
    assert payload["kappa"] == pytest.approx(1.0 / np.linalg.svd(R)[1][2], rel=1e-12)
    assert payload["ill_posed"] is False


def test_kappa_builtin_manifold(capsys):
    code = main([
        "kappa", "--manifold", "graph2d", "--manifold-params", '{"coeff": 1.0}',
        "--u", "[0.0]", "--eta-scale", "0.25",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "kappa = 2.0" in printed
    assert "0.5" in printed  # singular offset of the parabola vertex


def test_kappa_ill_posed_exit_code(capsys):
    code = main([
        "kappa", "--manifold", "graph2d", "--u", "[0.0]", "--eta-scale", "0.5",
    ])
    assert code == 1


def test_triangulate_and_project(rig_file, tmp_path):
    rig = rc.rig_from_dict(json.loads(rig_file.read_text()))
    y = np.array([0.3, -0.1, 0.2])
    x = rc.mv_project(rig, y)
    corr = tmp_path / "x.json"
    corr.write_text(json.dumps({"x": x.tolist()}))
    out = tmp_path / "y.json"
    assert main(["triangulate", "--rig", str(rig_file), "--corr", str(corr),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    np.testing.assert_allclose(payload["y"], y, atol=1e-8)
    assert payload["status"] == "Converged"
    np.testing.assert_allclose(payload["x"], x, atol=1e-8)

    out2 = tmp_path / "proj.json"
    assert main(["project", "--rig", str(rig_file), "--corr", str(corr),
                 "--out", str(out2)]) == 0
    proj = json.loads(out2.read_text())
    np.testing.assert_allclose(proj["x"], x, atol=1e-8)


def test_project_builtin(tmp_path):
    out = tmp_path / "p.json"
    code = main([
        "project", "--manifold", "sphere", "--manifold-params", '{"radius": 1.0}',
        "--ambient", "[0.0, 2.0, 0.0]", "--u0", "[1.4, 0.1]", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    np.testing.assert_allclose(payload["x"], [0.0, 1.0, 0.0], atol=1e-6)


def test_sweep_is_deterministic_and_sized(rig_file, point_file, tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    args = ["sweep", "--rig", str(rig_file), "--point", str(point_file),
            "--seed", "7", "--grid", "-3:2:100"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert len(lines) == 1 + 200  # header + both signs


def test_validate_summary(rig_file, point_file, tmp_path, capsys):
    out = tmp_path / "v.csv"
    code = main([
        "validate", "--rig", str(rig_file), "--point", str(point_file),
        "--seed", "0", "--grid", "-3:0:8", "--one-sided", "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "ratio means" in printed and "arithmetic=" in printed
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 8
    # kappa_est column populated
    assert lines[1].split(",")[6] != ""


def test_plot_from_sweep(rig_file, point_file, tmp_path):
    csv_path = tmp_path / "s.csv"
    assert main(["sweep", "--rig", str(rig_file), "--point", str(point_file),
                 "--grid", "-2:3:120", "--out", str(csv_path)]) == 0
    svg_path = tmp_path / "s.svg"
    assert main(["plot", "--csv", str(csv_path), "--columns", "kappa",
                 "--out", str(svg_path)]) == 0
    text = svg_path.read_text()
    assert text.startswith("<svg")
    assert "<polyline" in text


def test_plot_two_series(rig_file, point_file, tmp_path):
    csv_path = tmp_path / "v.csv"
    assert main(["validate", "--rig", str(rig_file), "--point", str(point_file),
                 "--grid", "-2:0:6", "--one-sided", "--out", str(csv_path)]) == 0
    svg_path = tmp_path / "v.svg"
    assert main(["plot", "--csv", str(csv_path), "--columns", "kappa,kappa_est",
                 "--out", str(svg_path)]) == 0
    assert svg_path.read_text().count("kappa_est") >= 1


def test_plot_empty_csv_is_exit_2(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    out = tmp_path / "o.svg"
    assert main(["plot", "--csv", str(empty), "--out", str(out)]) == 2
    assert not out.exists()  # no partial output


def test_missing_file_is_exit_2(tmp_path, point_file):
    assert main(["sweep", "--rig", str(tmp_path / "nope.json"),
                 "--point", str(point_file), "--out", str(tmp_path / "s.csv")]) == 2


def test_malformed_rig_is_exit_2(tmp_path, point_file):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"cameras": [[1.0, 2.0, 3.0]]}))
    assert main(["kappa", "--rig", str(bad), "--point", str(point_file)]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text("{not json")
    assert main(["kappa", "--rig", str(bad2), "--point", str(point_file)]) == 2


def test_degenerate_rig_is_exit_1(tmp_path, point_file):
    rank2 = np.zeros((3, 4))
    rank2[0, 0] = rank2[1, 1] = 1.0
    bad = tmp_path / "degenerate.json"
    bad.write_text(json.dumps({"cameras": [rank2.reshape(-1).tolist()] * 2}))
    assert main(["kappa", "--rig", str(bad), "--point", str(point_file)]) == 1


def test_point_file_field_errors(tmp_path, rig_file):
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"z": [1, 2, 3]}))
    assert main(["kappa", "--rig", str(rig_file), "--point", str(wrong)]) == 2


_BAD_RIGS = ['42', '[1, 2]', '{"cameras": 5}', '{"cameras": [{"a": 1}]}', '{"cameras": ["abc"]}']
_BAD_VECTORS = ['42', '"abc"', '{"F": "abc"}', '{"F": [[1, 2], [3]]}', '{"F": {"a": 1}}']


@pytest.mark.parametrize("option, payload", [("--rig", p) for p in _BAD_RIGS]
                         + [("--point", p.replace("F", "y")) for p in _BAD_VECTORS]
                         + [("--corr", p.replace("F", "x")) for p in _BAD_VECTORS])
def test_malformed_input_file_is_exit_2(option, payload, rig_file, point_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    if option == "--corr":
        argv = ["triangulate", "--rig", str(rig_file), "--corr", str(bad)]
    else:
        files = {"--rig": rig_file, "--point": point_file, option: bad}
        argv = ["sweep", "--rig", str(files["--rig"]), "--point", str(files["--point"]),
                "--out", str(tmp_path / "s.csv")]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_wrong_arity_correspondence_is_exit_2(rig_file, tmp_path):
    corr = tmp_path / "short.json"
    corr.write_text(json.dumps({"x": [1.0, 2.0]}))
    out = tmp_path / "y.json"
    assert main(["triangulate", "--rig", str(rig_file), "--corr", str(corr),
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_non_finite_correspondence_is_exit_2(rig_file, tmp_path, capsys):
    corr = tmp_path / "nan.json"
    corr.write_text('{"x": [0.1, 0.2, NaN, 0.1, 0.0, 0.1, 0.2, 0.3]}')
    out = tmp_path / "y.json"
    assert main(["triangulate", "--rig", str(rig_file), "--corr", str(corr),
                 "--out", str(out)]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


def test_kappa_with_explicit_eta_file(rig_file, point_file, tmp_path, capsys):
    rig = rc.rig_from_dict(json.loads(rig_file.read_text()))
    rng = np.random.default_rng(0)
    eta_path = tmp_path / "eta.json"
    # a raw ambient vector: the CLI projects it onto the normal space
    eta_path.write_text(json.dumps({"eta": rng.standard_normal(2 * rig.r).tolist()}))
    code = main(["kappa", "--rig", str(rig_file), "--point", str(point_file),
                 "--eta", str(eta_path)])
    assert code == 0
    assert "kappa =" in capsys.readouterr().out


def test_triangulate_minimal_init(rig_file, tmp_path):
    rig = rc.rig_from_dict(json.loads(rig_file.read_text()))
    y = np.array([0.2, 0.05, -0.15])
    corr = tmp_path / "x.json"
    corr.write_text(json.dumps({"x": rc.mv_project(rig, y).tolist()}))
    out = tmp_path / "y.json"
    assert main(["triangulate", "--rig", str(rig_file), "--corr", str(corr),
                 "--minimal-init", "--out", str(out)]) == 0
    np.testing.assert_allclose(json.loads(out.read_text())["y"], y, atol=1e-8)


def test_plot_renders_gaps_for_inf_and_flagged(tmp_path):
    csv_path = tmp_path / "gaps.csv"
    rows = ["t_rel,kappa,kappa_lo,kappa_hi,sigma3,ill_posed,kappa_est,ratio,flagged"]
    ts = [0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0]
    for i, t in enumerate(ts):
        kappa = "inf" if i == 3 else repr(2.0 + i)
        flagged = "true" if i == 5 else "false"
        rows.append(f"{t!r},{kappa},,,{1.0!r},false,,,{flagged}")
    csv_path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "gaps.svg"
    assert main(["plot", "--csv", str(csv_path), "--out", str(out)]) == 0
    text = out.read_text()
    # two interior gaps split the series into three segments
    assert text.count("<polyline") + text.count("<circle") == 3


@pytest.mark.parametrize("command, option", [("kappa", "--point"), ("project", "--corr")])
def test_rig_command_without_its_input_file_is_exit_2(command, option, rig_file, capsys):
    capsys.readouterr()
    assert main([command, "--rig", str(rig_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and option in err


@pytest.mark.parametrize("argv, option", [
    (["kappa", "--manifold", "sphere", "--u", "[0.1]"], "--u"),
    (["kappa", "--manifold", "sphere", "--u", "[0.1, 0.2, 0.3]"], "--u"),
    (["project", "--manifold", "sphere", "--ambient", "[1, 2, 3]", "--u0", "[0.1]"], "--u0"),
    (["project", "--manifold", "sphere", "--ambient", "[1, 2]", "--u0", "[0.1, 0.2]"], "--ambient"),
    (["project", "--manifold", "sphere", "--ambient", "[[1, 2, 3]]", "--u0", "[0.1, 0.2]"],
     "--ambient"),
])
def test_chart_vector_of_wrong_length_is_exit_2(argv, option, capsys):
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option}: ")


@pytest.mark.parametrize("argv", [
    ["kappa", "--manifold", "graph2d", "--u", "[NaN]"],
    ["kappa", "--manifold", "sphere", "--u", "[0.1, Infinity]"],
    ["project", "--manifold", "graph2d", "--ambient", "[NaN, 1.0]", "--u0", "[0.0]"],
    ["project", "--manifold", "paraboloid", "--ambient", "[0.1, 0.2, 0.3]", "--u0", "[NaN, 0.0]"],
])
def test_non_finite_chart_input_is_exit_2(argv, capsys):
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "not finite" in captured.err


@pytest.mark.parametrize("argv", [
    ["triangulate", "--rig", "{rig}", "--corr", "{corr}", "--grad-tol", "inf"],
    ["triangulate", "--rig", "{rig}", "--corr", "{corr}", "--step-tol", "nan"],
    ["project", "--manifold", "graph2d", "--ambient", "[0.0, 1.0]", "--u0", "[0.1]",
     "--grad-tol", "nan"],
    ["validate", "--rig", "{rig}", "--point", "{point}", "--out", "{out}", "--step-tol", "inf"],
    ["gen-rig", "--radius", "nan", "--out", "{out}"],
    ["gen-rig", "--look-at", "0,inf,0", "--out", "{out}"],
    ["kappa", "--rig", "{nan_rig}", "--point", "{point}"],
    ["kappa", "--manifold", "graph2d", "--u", "[0.0]", "--eta-scale", "nan"],
    ["validate", "--rig", "{rig}", "--point", "{point}", "--out", "{out}", "--perturb-rel", "nan"],
], ids=["grad-tol", "step-tol", "project", "validate", "radius", "look-at", "camera", "eta-scale",
        "perturb-rel"])
def test_non_finite_setting_is_exit_2(argv, rig_file, point_file, tmp_path, capsys):
    rig = rc.rig_from_dict(json.loads(rig_file.read_text()))
    corr = tmp_path / "x.json"
    corr.write_text(json.dumps({"x": rc.mv_project(rig, [0.3, -0.1, 0.2]).tolist()}))
    cameras = rc.rig_to_dict(rig)["cameras"]
    cameras[1][5] = float("nan")
    nan_rig = tmp_path / "nan_rig.json"
    nan_rig.write_text(json.dumps({"cameras": cameras}))
    out = tmp_path / "out.json"
    paths = {"rig": rig_file, "corr": corr, "point": point_file, "out": out, "nan_rig": nan_rig}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "not finite" in captured.err
    assert not out.exists()
    if "{nan_rig}" in argv:  # one line that names the file and the camera
        assert captured.err == f"error: {nan_rig}: cameras[1] is not finite (entries [5])\n"


def test_non_positive_perturb_rel_is_exit_1(rig_file, point_file, tmp_path, capsys):
    out = tmp_path / "v.csv"
    capsys.readouterr()
    assert main(["validate", "--rig", str(rig_file), "--point", str(point_file),
                 "--out", str(out), "--perturb-rel", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: perturb_rel must be positive, got 0.0\n"
    assert not out.exists()


def test_parsed_defaults_are_the_library_defaults():
    parser = build_parser()
    gen = parser.parse_args(["gen-rig", "--out", "rig.json"])
    assert {f.name: getattr(gen, f.name) for f in fields(rc.RigSpec)} == vars(rc.RigSpec())
    solver_argv = {
        "project": ["--rig", "r.json", "--corr", "x.json"],
        "triangulate": ["--rig", "r.json", "--corr", "x.json"],
        "validate": ["--rig", "r.json", "--point", "p.json", "--out", "v.csv"],
    }
    for command, argv in solver_argv.items():
        args = parser.parse_args([command, *argv])
        assert {f.name: getattr(args, f.name) for f in fields(rc.SolverOptions)} == vars(
            rc.SolverOptions()), command
    validate = parser.parse_args(["validate", *solver_argv["validate"]])
    default = inspect.signature(rc.experiment_validate).parameters["perturb_rel"].default
    assert validate.perturb_rel == default == rc.experiments.PERTURB_REL


@pytest.mark.parametrize("look_at", ["1,2", "a,b,c"])
def test_malformed_look_at_is_exit_2(look_at, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-rig", "--look-at", look_at, "--out", str(tmp_path / "rig.json")])
    assert exc.value.code == 2
    assert "--look-at: expected three comma-separated numbers" in capsys.readouterr().err
    assert not (tmp_path / "rig.json").exists()
