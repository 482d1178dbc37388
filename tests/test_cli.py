import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import riemcond as rc
from riemcond.cli import build_parser, main
from riemcond.linalg import compact_qr


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


@pytest.mark.parametrize("command", ["sweep", "validate"])
def test_ray_commands_check_the_point_once(command, rig_file, point_file, tmp_path,
                                           monkeypatch):
    """sweep and validate draw the normal from the frame the run takes: one domain check
    of y and one Jacobian QR per run (two each before), and the CSV the library route
    random_unit_normal + experiment_* writes, byte for byte."""
    import riemcond.linalg as linalg
    import riemcond.multiview as mv

    out = tmp_path / "out.csv"
    args = [command, "--rig", str(rig_file), "--point", str(point_file), "--seed", "3",
            "--grid", "-3:0:8", "--out", str(out)]
    rig = rc.rig_from_dict(json.loads(rig_file.read_text()))
    y = np.array([0.35, -0.2, 0.4])
    run = rc.experiment_sweep if command == "sweep" else rc.experiment_validate
    want = rc.records_to_csv(run(rig, y, rc.random_unit_normal(rig, y, 3), rc.log_grid(-3, 0, 8)))
    counts = {"_checked": 0, "compact_qr": 0}
    for name, real in (("_checked", mv._checked), ("compact_qr", linalg.compact_qr)):
        def counted(*a, real=real, name=name):
            counts[name] += 1
            return real(*a)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("riemcond") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    assert main(args) == 0
    assert counts == {"_checked": 1, "compact_qr": 1}
    assert out.read_bytes() == want.encode()


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


def test_integer_too_large_for_a_float_is_exit_2(rig_file, point_file, tmp_path, capsys):
    huge = str(10**400)  # valid JSON that float() cannot hold
    cameras = json.loads(rig_file.read_text())["cameras"]
    big_rig, big_point = tmp_path / "big_rig.json", tmp_path / "big_point.json"
    big_rig.write_text(json.dumps({"cameras": cameras}).replace(repr(cameras[0][0]), huge, 1))
    big_point.write_text(f'{{"y": [{huge}, 0, 0]}}')
    corr = tmp_path / "x.json"
    rig = rc.rig_from_dict({"cameras": cameras})
    corr.write_text(json.dumps({"x": rc.mv_project(rig, [0.3, -0.1, 0.2]).tolist()}))
    for argv in (["gen-rig", "--k", huge, "--out", str(tmp_path / "r.json")],
                 ["triangulate", "--rig", str(rig_file), "--corr", str(corr), "--max-iters", huge],
                 ["kappa", "--rig", str(big_rig), "--point", str(point_file)],
                 ["kappa", "--rig", str(rig_file), "--point", str(big_point)],
                 ["kappa", "--manifold", "graph2d", "--u", f"[{huge}]"],
                 ["kappa", "--manifold", "graph2d", "--manifold-params", f'{{"coeff": {huge}}}',
                  "--u", "[0.1]"]):
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


def test_grid_past_the_float_range_is_exit_2(rig_file, point_file, tmp_path, capsys):
    """A grid bound whose power of ten overflows is one error line and exit 2: no
    numpy warning, no CSV of rows at t_rel = inf."""
    out = tmp_path / "out.csv"
    argv = ["sweep", "--rig", str(rig_file), "--point", str(point_file), "--grid=300:310:3",
            "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: grid bound 10**hi is not finite (hi = 310.0)\n"
    assert not out.exists()


@pytest.mark.parametrize("explicit_eta", [False, True])
def test_kappa_rig_takes_one_qr_frame(rig_file, point_file, tmp_path, capsys, monkeypatch,
                                      explicit_eta):
    """kappa --rig projects or draws eta, computes kappa and maps the worst direction
    with one Jacobian QR, and reports what the library's mv_kappa gives."""
    rig = rc.rig_from_dict(json.loads(rig_file.read_text()))
    y = np.array([0.35, -0.2, 0.4])
    out = tmp_path / "kappa.json"
    argv = ["kappa", "--rig", str(rig_file), "--point", str(point_file), "--out", str(out)]
    Q = compact_qr(rc.mv_jacobian(rig, y))[0]
    if explicit_eta:
        raw = np.random.default_rng(0).standard_normal(2 * rig.r)
        eta_path = tmp_path / "eta.json"
        eta_path.write_text(json.dumps({"eta": raw.tolist()}))
        argv += ["--eta", str(eta_path)]
        eta = raw - Q @ (Q.T @ raw)
    else:
        argv += ["--eta-scale", "0.1", "--seed", "3"]
        eta = 0.1 * float(np.linalg.norm(rc.mv_project(rig, y))) * rc.random_unit_normal(rig, y, 3)
    expected = rc.mv_kappa(rig, y, eta)

    original, calls = compact_qr, []

    def counted(J):
        calls.append(1)
        return original(J)

    for name, module in list(sys.modules.items()):
        if name.startswith("riemcond") and getattr(module, "compact_qr", None) is original:
            monkeypatch.setattr(module, "compact_qr", counted)
    assert main(argv) == 0
    assert len(calls) == 1
    payload = json.loads(out.read_text())
    assert payload["kappa"] == expected.kappa
    assert payload["worst_input_direction"] == expected.worst_input_direction.tolist()
    assert payload["worst_ambient_direction"] == (Q @ expected.worst_input_direction).tolist()
    assert f"kappa = {expected.kappa!r}" in capsys.readouterr().out


@pytest.mark.parametrize("name, params, u, scale", [
    ("graph2d", "{}", [0.2], 0.3),
    ("sphere", '{"radius": 2.0}', [0.3, -0.2], -0.7),
    ("paraboloid", "{}", [0.1, 0.4], 0.0),
], ids=["graph2d", "sphere", "paraboloid"])
def test_chart_route_takes_one_tangent_frame_per_weingarten_map(
        name, params, u, scale, tmp_path, capsys, monkeypatch):
    """weingarten_data checks eta and changes basis on one frame, so kappa --manifold
    takes three: its own for the normal, then one per Weingarten map."""
    param = rc.builtin(name, **json.loads(params))
    normal = rc.codim1_unit_normal(rc.tangent_frame(param, u))
    want = rc.weingarten_data(param, u, scale * normal)
    report = rc.kappa_cpp_from_weingarten(want)
    offsets = rc.ill_posedness_certificate(rc.weingarten_data(param, u, normal).curvatures)
    out = tmp_path / "kappa.json"
    original, calls = rc.tangent_frame, []

    def counted(param, u):
        calls.append(1)
        return original(param, u)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("riemcond") and getattr(module, "tangent_frame", 0) is original:
            monkeypatch.setattr(module, "tangent_frame", counted)
    got = rc.weingarten_data(param, u, scale * normal)
    assert len(calls) == 1
    for field in ("S_hat", "S", "H", "curvatures"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    calls.clear()
    capsys.readouterr()
    assert main(["kappa", "--manifold", name, "--manifold-params", params, "--u", json.dumps(u),
                 "--eta-scale", repr(scale), "--out", str(out)]) == 0
    assert len(calls) == 3
    assert f"kappa = {report.kappa!r}" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["kappa"] == report.kappa
    assert payload["singular_offsets"] == offsets.tolist()


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


@pytest.mark.parametrize("column, row", [("kappa", 2), ("t_rel", 3)])
def test_plot_non_numeric_cell_is_exit_2(column, row, tmp_path, capsys):
    csv_path = tmp_path / "bad.csv"
    rows = ["t_rel,kappa,kappa_lo,kappa_hi,sigma3,ill_posed,kappa_est,ratio,flagged"]
    for i, t in enumerate([0.01, 0.1, 1.0]):
        cells = {"t_rel": repr(t), "kappa": repr(2.0 + i)}
        if i + 1 == row:
            cells[column] = "abc"
        rows.append(f"{cells['t_rel']},{cells['kappa']},,,1.0,false,,,false")
    csv_path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "bad.svg"
    capsys.readouterr()
    assert main(["plot", "--csv", str(csv_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {csv_path}: data row {row}, column {column!r}: 'abc' is not a number\n")
    assert not out.exists()


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
    # doubled braces: every argument goes through str.format
    ["kappa", "--manifold", "sphere", "--manifold-params", '{{"radius": NaN}}',
     "--u", "[0.1, 0.2]"],
    ["kappa", "--manifold", "sphere", "--manifold-params", '{{"center": [0, NaN, 0]}}',
     "--u", "[0.1, 0.2]"],
    ["kappa", "--manifold", "graph2d", "--manifold-params", '{{"coeff": Infinity}}',
     "--u", "[0.1]"],
    ["kappa", "--manifold", "affine", "--manifold-params",
     '{{"basis": [[1, 0], [0, NaN], [0, 0]]}}', "--u", "[0.1, 0.2]"],
    ["kappa", "--manifold", "affine", "--manifold-params",
     '{{"basis": [[1, 0], [0, 1], [0, 0]], "offset": [0, NaN, 0]}}', "--u", "[0.1, 0.2]"],
    ["project", "--manifold", "graph2d", "--manifold-params", '{{"coeff": -Infinity}}',
     "--ambient", "[0.0, 1.0]", "--u0", "[0.1]"],
], ids=["grad-tol", "step-tol", "project", "validate", "radius", "look-at", "camera", "eta-scale",
        "perturb-rel", "sphere-radius", "sphere-center", "graph2d-coeff", "affine-basis",
        "affine-offset", "project-coeff"])
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


# The command line in a fresh interpreter in which any import of scipy fails.
_NO_SCIPY_CLI = ("import sys; sys.modules['scipy'] = None; "
                 "from riemcond.cli import main; sys.exit(main(sys.argv[1:]))")


def _run_cli(argv, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rc.__file__)))
    return subprocess.run([sys.executable, "-c", _NO_SCIPY_CLI, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_every_command_runs_without_scipy(tmp_path):
    (tmp_path / "p.json").write_text(json.dumps({"y": [0.35, -0.2, 0.4]}))
    rig = rc.gen_rig(rc.RigSpec(k=4, seed=1))
    x = rc.mv_project(rig, [0.3, -0.1, 0.2]) + 1e-3
    (tmp_path / "x.json").write_text(json.dumps({"x": x.tolist()}))
    rig_args = ["--rig", "rig.json", "--point", "p.json"]
    for argv in (
        ["gen-rig", "--k", "4", "--seed", "1", "--out", "rig.json"],
        ["kappa", *rig_args, "--eta-scale", "0.1"],
        ["kappa", "--manifold", "sphere", "--u", "[0.1, 0.2]", "--eta-scale", "0.5"],
        ["project", "--manifold", "sphere", "--ambient", "[0.0, 2.0, 0.0]", "--u0", "[1.4, 0.1]"],
        ["triangulate", "--rig", "rig.json", "--corr", "x.json", "--out", "y.json"],
        ["sweep", *rig_args, "--grid", "-2:3:40", "--out", "s.csv"],
        ["validate", *rig_args, "--grid", "-2:0:6", "--one-sided", "--out", "v.csv"],
        ["plot", "--csv", "s.csv", "--columns", "kappa", "--out", "s.svg"],
    ):
        proc = _run_cli(argv, tmp_path)
        assert proc.returncode == 0, (argv, proc.stderr)
    assert rc.rig_from_dict(json.loads((tmp_path / "rig.json").read_text())) == rig
    assert (tmp_path / "s.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("argv", [
    ["kappa", "--manifold", "sphere", "--manifold-params", '{"radius": 1e308}',
     "--u", "[0.1, 0.2]", "--eta-scale", "0.5"],
    ["kappa", "--manifold", "sphere", "--u", "[0.1, 0.2]", "--eta-scale", "1e308"],
    ["kappa", "--manifold", "graph2d", "--u", "[0.0]", "--eta-scale", "inf"],
    ["kappa", "--rig", "rig.json", "--point", "p.json", "--eta-scale", "1e200"],
], ids=["sphere-radius", "eta-norm", "eta-scale", "rig-eta-norm"])
def test_overflow_prints_only_the_error(argv, tmp_path):
    (tmp_path / "rig.json").write_text(json.dumps(rc.rig_to_dict(rc.gen_rig(rc.RigSpec(k=4)))))
    (tmp_path / "p.json").write_text(json.dumps({"y": [0.35, -0.2, 0.4]}))
    proc = _run_cli(argv, tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Warning" not in proc.stderr
    assert "not finite" in proc.stderr
