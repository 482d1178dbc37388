import numpy as np
import pytest

import riemcond as rc

DEFAULT_Y = np.array([0.35, -0.2, 0.4])


def _default_rig():
    return rc.gen_rig(rc.RigSpec())


def _affine_rig():
    P1 = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0]])
    P2 = np.array([[1.0, 0, 1.0, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0]])
    return rc.CameraRig(cameras=(rc.Camera.from_matrix(P1), rc.Camera.from_matrix(P2)))


def test_gen_rig_deterministic_in_seed():
    a = rc.gen_rig(rc.RigSpec(k=6, seed=123))
    b = rc.gen_rig(rc.RigSpec(k=6, seed=123))
    for cam_a, cam_b in zip(a.cameras, b.cameras):
        np.testing.assert_array_equal(cam_a.matrix, cam_b.matrix)
    c = rc.gen_rig(rc.RigSpec(k=6, seed=124))
    assert any(
        not np.array_equal(x.matrix, y.matrix) for x, y in zip(a.cameras, c.cameras)
    )


def test_gen_rig_two_camera_baseline_length():
    spec = rc.RigSpec(k=2, radius=3.0, arc_degrees=30.0, seed=5)
    rig = rc.gen_rig(spec)
    c0, c1 = rig.cameras[0].center(), rig.cameras[1].center()
    expected = 2.0 * spec.radius * np.sin(np.radians(15.0))
    assert abs(np.linalg.norm(c1 - c0) - expected) <= 1e-12


def test_gen_rig_all_cameras_see_target():
    spec = rc.RigSpec(k=10, seed=2)
    rig = rc.gen_rig(spec)
    look = np.asarray(spec.look_at)
    depths = [cam.c @ look + cam.d for cam in rig.cameras]
    assert all(d > 0 for d in depths)
    assert rc.mv_domain_check(rig, look + np.array([0.01, -0.02, 0.03]))


def test_rig_spec_validation():
    with pytest.raises(rc.InvalidGeometry):
        rc.RigSpec(k=1)
    with pytest.raises(rc.InvalidGeometry):
        rc.RigSpec(radius=-2.0)


@pytest.mark.parametrize("setting", [
    {"radius": np.nan}, {"focal": np.inf}, {"arc_degrees": np.nan}, {"look_at": (0.0, np.inf, 0.0)},
])
def test_non_finite_rig_spec_raises_non_finite(setting):
    (name,) = setting
    with pytest.raises(rc.NonFinite, match=f"{name} .* is not finite"):
        rc.RigSpec(**setting)


def test_random_unit_normal_contract():
    rig = _default_rig()
    eta = rc.random_unit_normal(rig, DEFAULT_Y, 11)
    assert abs(np.linalg.norm(eta) - 1.0) <= 1e-12
    Q = np.linalg.qr(rc.mv_jacobian(rig, DEFAULT_Y))[0]
    assert np.linalg.norm(Q.T @ eta) <= 1e-10


def test_random_unit_normal_dimension_effects():
    rig2 = rc.gen_rig(rc.RigSpec(k=2, seed=3))
    y = np.array([0.1, 0.05, -0.2])
    e1 = rc.random_unit_normal(rig2, y, 0)
    e2 = rc.random_unit_normal(rig2, y, 99)
    # r=2: the normal space is 1-dimensional, so directions agree up to sign
    assert abs(abs(e1 @ e2) - 1.0) <= 1e-12
    rig10 = rc.gen_rig(rc.RigSpec(k=10, seed=3))
    f1 = rc.random_unit_normal(rig10, y, 0)
    f2 = rc.random_unit_normal(rig10, y, 99)
    assert abs(f1 @ f2) < 0.999


def test_log_grid_shapes():
    g = rc.log_grid(-3, 2, 100)
    assert g.size == 200
    assert np.all(np.diff(g) > 0)
    g1 = rc.log_grid(-3, 2, 100, two_sided=False)
    assert g1.size == 100 and g1[0] == pytest.approx(1e-3) and g1[-1] == pytest.approx(100.0)


def test_sweep_at_zero_offset_collapses():
    rig = _default_rig()
    eta = rc.random_unit_normal(rig, DEFAULT_Y, 0)
    (rec,) = rc.experiment_sweep(rig, DEFAULT_Y, eta, [0.0])
    R = np.linalg.qr(rc.mv_jacobian(rig, DEFAULT_Y))[1]
    sigma3 = np.linalg.svd(R)[1][2]
    assert rec.kappa == pytest.approx(1.0 / sigma3, rel=1e-12)
    assert rec.bounds[0] == pytest.approx(rec.kappa, rel=1e-12)
    assert rec.bounds[1] == pytest.approx(rec.kappa, rel=1e-12)
    assert not rec.ill_posed


def test_sweep_affine_rig_constant_kappa():
    rig = _affine_rig()
    y = np.array([0.2, -0.1, 0.4])
    eta = rc.random_unit_normal(rig, y, 1)
    recs = rc.experiment_sweep(rig, y, eta, rc.log_grid(-3, 3, 40))
    kappas = np.array([r.kappa for r in recs])
    assert np.abs(kappas - kappas[0]).max() <= 1e-12 * kappas[0]


def test_sweep_matches_mv_kappa_rows():
    rig = _default_rig()
    eta = rc.random_unit_normal(rig, DEFAULT_Y, 0)
    grid = rc.log_grid(-2, 1, 7)
    recs = rc.experiment_sweep(rig, DEFAULT_Y, eta, grid)
    x_norm = np.linalg.norm(rc.mv_project(rig, DEFAULT_Y))
    for t, rec in zip(grid, recs):
        rep = rc.mv_kappa(rig, DEFAULT_Y, t * x_norm * eta)
        assert rec.kappa == pytest.approx(rep.kappa, rel=1e-12)


def test_small_offset_band_keeps_kappa_flat():
    # curvature hardly affects the condition number for |t| <= 1e-2 ||x||
    rig = _default_rig()
    eta = rc.random_unit_normal(rig, DEFAULT_Y, 0)
    grid = rc.log_grid(-3, -2, 25)
    recs = rc.experiment_sweep(rig, DEFAULT_Y, eta, grid)
    (rec0,) = rc.experiment_sweep(rig, DEFAULT_Y, eta, [0.0])
    for rec in recs:
        assert abs(rec.kappa / rec0.kappa - 1.0) <= 0.05


def test_singular_offsets_align_with_sweep_dips():
    rig10 = _default_rig()
    grid = rc.log_grid(-3, 4, 300)
    for k in (2, 3, 5, 10):
        rig = rc.prefix_rig(rig10, k)
        eta = rc.random_unit_normal(rig, DEFAULT_Y, 0)
        offsets = rc.singular_offsets_rel(rig, DEFAULT_Y, eta)
        recs = rc.experiment_sweep(rig, DEFAULT_Y, eta, grid)
        sig = np.array([r.sigma3 for r in recs])
        t = np.array([r.t_rel for r in recs])
        for sign in (-1, 1):
            mask = np.sign(t) == sign
            dips = rc.detect_dips(sig[mask])
            assert len(dips) <= 3
            t_side = t[mask]
            for off in offsets:
                if np.sign(off) != sign or not (
                    abs(t_side).min() <= abs(off) <= abs(t_side).max()
                ):
                    continue
                # some detected dip lies within a few grid steps of the offset
                gaps = [abs(np.log10(abs(t_side[i])) - np.log10(abs(off))) for i in dips]
                step = np.log10(abs(t_side[1])) - np.log10(abs(t_side[0]))
                assert min(gaps) <= 2.5 * abs(step)


def test_validate_ratios_and_consistency():
    rig = _default_rig()
    eta = rc.random_unit_normal(rig, DEFAULT_Y, 0)
    grid = rc.log_grid(-3, 0, 12, two_sided=False)
    vrecs = rc.experiment_validate(rig, DEFAULT_Y, eta, grid)
    srecs = rc.experiment_sweep(rig, DEFAULT_Y, eta, grid)
    for v, s in zip(vrecs, srecs):
        assert v.kappa == pytest.approx(s.kappa, rel=1e-12)
        assert v.kappa_est is not None and v.ratio is not None
        assert v.ratio == pytest.approx(1.0, abs=2e-2)
    arith, geo, excluded = rc.ratio_stats(vrecs)
    assert excluded == 0
    assert 0.95 <= arith <= 1.05 and 0.95 <= geo <= 1.05


def test_ratio_stats_examples():
    def rec(ratio, flagged=False):
        return rc.SweepRecord(
            t_rel=0.0, kappa=1.0, bounds=(1.0, 1.0), sigma3=1.0, ill_posed=False,
            kappa_est=1.0, ratio=ratio, flagged=flagged,
        )

    arith, geo, excl = rc.ratio_stats([rec(1.0), rec(1.0)])
    assert (arith, geo, excl) == (1.0, 1.0, 0)
    arith, geo, excl = rc.ratio_stats([rec(2.0), rec(0.5)])
    assert arith == pytest.approx(1.25) and geo == pytest.approx(1.0) and excl == 0
    arith, geo, excl = rc.ratio_stats([rec(1.0), rec(100.0, flagged=True)])
    assert arith == pytest.approx(1.0) and excl == 1
    with pytest.raises(rc.EmptyInput):
        rc.ratio_stats([rec(3.0, flagged=True)])


def test_nested_rigs_monotone_kappa_at_zero():
    rig10 = _default_rig()
    sigma3s = []
    kappas = []
    for k in (2, 3, 5, 10):
        rig_k = rc.prefix_rig(rig10, k)
        R = np.linalg.qr(rc.mv_jacobian(rig_k, DEFAULT_Y))[1]
        sigma3s.append(np.linalg.svd(R)[1][2])
        kappas.append(rc.mv_kappa(rig_k, DEFAULT_Y, np.zeros(2 * k)).kappa)
    assert all(b >= a - 1e-13 for a, b in zip(sigma3s, sigma3s[1:]))
    assert all(b <= a + 1e-13 for a, b in zip(kappas, kappas[1:]))


def test_csv_schema_and_determinism():
    rig = _default_rig()
    eta = rc.random_unit_normal(rig, DEFAULT_Y, 0)
    grid = rc.log_grid(-2, 0, 5)
    text1 = rc.records_to_csv(rc.experiment_sweep(rig, DEFAULT_Y, eta, grid))
    text2 = rc.records_to_csv(rc.experiment_sweep(rig, DEFAULT_Y, eta, grid))
    assert text1 == text2
    lines = text1.strip().split("\n")
    assert lines[0] == "t_rel,kappa,kappa_lo,kappa_hi,sigma3,ill_posed,kappa_est,ratio,flagged"
    assert len(lines) == 1 + 10
    first = lines[1].split(",")
    assert first[5] == "false" and first[8] == "false"
    assert first[6] == "" and first[7] == ""  # sweep rows carry no estimate
    # numbers round-trip exactly
    assert float(first[0]) == -1.0


def test_validate_records_per_row_errors(monkeypatch):
    import riemcond.experiments as exp

    rig = _default_rig()
    eta = rc.random_unit_normal(rig, DEFAULT_Y, 0)
    grid = rc.log_grid(-2, 0, 4, two_sided=False)
    real_rows = exp._triangulate_rows

    def flaky(rig_, A, y0, opts=None):
        results = real_rows(rig_, A, y0, opts)
        results[1] = rc.DomainEscape("synthetic failure")  # the second row's solve fails
        return results

    monkeypatch.setattr(exp, "_triangulate_rows", flaky)
    records = rc.experiment_validate(rig, DEFAULT_Y, eta, grid)
    assert len(records) == 4  # the run continued past the failure
    failed = [r for r in records if r.error is not None]
    assert len(failed) == 1
    assert failed[0].flagged and "DomainEscape" in failed[0].error
    arith, geo, excluded = rc.ratio_stats(records)
    assert excluded == 1



@pytest.mark.parametrize("perturb_rel, error", [
    (0.0, rc.InvalidGeometry), (-1e-6, rc.InvalidGeometry), (np.nan, rc.NonFinite),
    (np.inf, rc.NonFinite),
])
def test_bad_perturb_rel_raises_before_solving(perturb_rel, error, monkeypatch):
    import riemcond.experiments as exp

    def no_solve(*args):
        raise AssertionError("solved despite a bad perturb_rel")

    monkeypatch.setattr(exp, "_triangulate_rows", no_solve)
    rig = _default_rig()
    eta = rc.random_unit_normal(rig, DEFAULT_Y, 0)
    with pytest.raises(error, match="perturb_rel"):
        rc.experiment_validate(rig, DEFAULT_Y, eta, [0.1, 1.0], perturb_rel=perturb_rel)


def test_validate_records_carry_solver_status():
    rig = _default_rig()
    eta = rc.random_unit_normal(rig, DEFAULT_Y, 0)
    grid = [0.01, np.nan, 1.0]
    x = rc.mv_project(rig, DEFAULT_Y)
    x_norm = np.linalg.norm(x)
    for rec in rc.experiment_sweep(rig, DEFAULT_Y, eta, grid):
        assert rec.status is None and rec.iterations is None
    records = rc.experiment_validate(rig, DEFAULT_Y, eta, grid)
    assert records[1].error is not None
    assert records[1].status is None and records[1].iterations is None
    for rec in (records[0], records[2]):
        # the row's own solve, as experiment_validate sets it up
        a = x + rec.t_rel * x_norm * eta
        Q, _, _, _ = rc.mv_weingarten(rig, DEFAULT_Y, rec.t_rel * x_norm * eta)
        u = rc.mv_kappa(rig, DEFAULT_Y, rec.t_rel * x_norm * eta).worst_input_direction
        want = rc.triangulate(rig, a + 1e-6 * np.linalg.norm(a) * (Q @ u), warm_start=DEFAULT_Y)
        assert rec.status is want.status and rec.iterations == want.iterations
        assert isinstance(rec.iterations, int)
    # the CSV keeps its nine columns
    assert [row.count(",") for row in rc.records_to_csv(records).splitlines()] == [8] * 4


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("protocol", ["sweep", "validate"])
def test_bad_grid_row_is_its_own_error(protocol, bad):
    run = rc.experiment_sweep if protocol == "sweep" else rc.experiment_validate
    rig = _default_rig()
    eta = rc.random_unit_normal(rig, DEFAULT_Y, 0)
    records = run(rig, DEFAULT_Y, eta, [0.1, bad, 1.0, 0.0])
    clean = run(rig, DEFAULT_Y, eta, [0.1, 1.0, 0.0])
    assert [rec.error is None for rec in records] == [True, False, True, True]
    failed = records[1]
    assert failed.flagged and failed.error.startswith("NonFinite: ")
    # the message shows this row's 2r-vector, not the whole stack of normals
    assert failed.error.count(str(bad)) == 2 * rig.r
    assert f"(entries {list(range(2 * rig.r))})" in failed.error
    # the other rows are exactly what they are without the bad one
    for got, want in zip(records[:1] + records[2:], clean):
        assert vars(got) == vars(want)
    assert all(rec.kappa_est is not None for rec in clean) == (protocol == "validate")
