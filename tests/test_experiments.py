import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.signal
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import riemcond as rc
from riemcond.experiments import _peak_prominences
from riemcond.linalg import compact_qr

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


@pytest.mark.parametrize("lo, hi, name", [(300.0, 310.0, "hi"), (309.0, 2.0, "lo")])
def test_log_grid_bound_past_the_float_range_is_non_finite(lo, hi, name):
    with pytest.raises(rc.NonFinite, match=rf"10\*\*{name} is not finite \({name} = "):
        rc.log_grid(lo, hi, 3)
    grid = rc.log_grid(-400.0, 308.0, 3, two_sided=False)  # 10**-400 underflows to 0
    assert grid[0] == 0.0 and np.isfinite(grid).all()


@pytest.mark.parametrize("run", [rc.experiment_sweep, rc.experiment_validate])
def test_rows_whose_normal_overflows_are_records_without_warnings(run):
    """A finite offset whose normal tau eta overflows is that row's NonFinite record,
    as mv_kappa raises it, and no numpy warning leaves the run."""
    import warnings

    rig = _default_rig()
    eta = 1e10 * rc.random_unit_normal(rig, DEFAULT_Y, 0)
    x_norm = np.linalg.norm(rc.mv_project(rig, DEFAULT_Y))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        good, big, huge = run(rig, DEFAULT_Y, eta, [1e-12, 1e300, 1e308])
    assert good.error is None and not good.flagged
    with np.errstate(over="ignore"):
        for rec, t in ((big, 1e300), (huge, 1e308)):
            with pytest.raises(rc.NonFinite) as info:
                rc.mv_kappa(rig, DEFAULT_Y, t * x_norm * eta)
            assert rec.flagged and rec.error == f"NonFinite: {info.value}"


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


# First-order rounding bound of a sweep row against its own mv_kappa call, in units of
# eps kappa max(||R||_2, ||S R||_2); the largest factor read on the tests' rays is ~36.
FIRST_ORDER_C = 256


def _first_order_c(got, want, kappa, R, S):
    """|got / want - 1| of a kappa or sigma_3 over eps kappa max(||R||_2, ||S R||_2).

    The sweep builds row n's map as tau_n S_eta from one row's map S_k / tau_k, so its
    M = (I - S) R differs from the M of the row's own map by rounding, of order
    eps ||M|| <= 2 eps max(||R||_2, ||S R||_2). sigma_3 moves by at most ||dM||, so
    kappa = 1 / sigma_3 and sigma_3 move by kappa ||dM|| relative, to first order.
    """
    if got == want:
        return 0.0
    scale = max(np.linalg.norm(R, 2), np.linalg.norm(S @ R, 2))
    return abs(got / want - 1.0) / (np.finfo(float).eps * kappa * scale)


def test_sweep_matches_mv_kappa_rows():
    """Each sweep row against its own mv_kappa call, on prefix rigs k = 2, 3, 5, 10
    and a two-sided grid that crosses the ray's singular offsets. kappa and sigma_3
    hold the first-order bound FIRST_ORDER_C eps kappa max(||R||_2, |tau| ||S_eta R||_2)
    (a fixed 1e-12 fails near the singular offsets: 1.03e-12 at k = 5, t = -434), and
    the largest factor C is printed. The sweep takes the curvatures c of the whole ray
    from one row's map, which gives them to within a few 1e-14 of max |c_i| (k = 2 and
    3 read up to 2.6e-14), and the smallest factor |1 - c_i tau| of a bound divides the
    resulting error max |c_i tau| 1e-14. The largest bound differences away from and
    near (min factor < 1e-2) the singular offsets are printed."""
    for k in (2, 3, 5, 10):
        rig = rc.prefix_rig(_default_rig(), k)
        eta = rc.random_unit_normal(rig, DEFAULT_Y, 0)
        grid = rc.log_grid(-3, 3, 150)
        offsets = rc.singular_offsets_rel(rig, DEFAULT_Y, eta)
        assert sum(grid[0] < t < grid[-1] for t in offsets) >= 2  # it crosses singular offsets
        recs = rc.experiment_sweep(rig, DEFAULT_Y, eta, grid)
        x_norm = np.linalg.norm(rc.mv_project(rig, DEFAULT_Y))
        c = np.linalg.eigvalsh(rc.mv_weingarten(rig, DEFAULT_Y, eta)[3])
        far = near = largest_c = 0.0
        for t, rec in zip(grid, recs):
            tau = t * x_norm
            rep = rc.mv_kappa(rig, DEFAULT_Y, tau * eta)
            _, R, _, S = rc.mv_weingarten(rig, DEFAULT_Y, tau * eta)
            assert rec.ill_posed == rep.ill_posed
            for got, want in ((rec.kappa, rep.kappa), (rec.sigma3, rep.components["sigma3"])):
                largest_c = max(largest_c, _first_order_c(got, want, rep.kappa, R, S))
            assert largest_c <= FIRST_ORDER_C
            err = max(0.0 if got == want else abs(got / want - 1.0)
                      for got, want in zip(rec.bounds, (rep.bounds_lo, rep.bounds_hi)))
            factors = np.abs(1.0 - c * tau)
            assert err <= 1e-13 * max(1.0, np.abs(c * tau).max()) / factors.min()
            if factors.min() >= 1e-2:
                far = max(far, err)
            else:
                near = max(near, err)
        print(f"k={k}: largest first-order factor C {largest_c:.1f}; largest relative bound "
              f"difference {far:.2e}, near singular offsets {near:.2e}")


def test_sweep_solves_one_curvature_per_ray_and_no_vectors(monkeypatch):
    """A sweep calls eigvalsh on one 3 x 3 map at a time and runs the stacked SVD for
    values only; validate, which perturbs along the worst directions, computes them."""
    calls = []
    real_svd, real_eigvalsh = np.linalg.svd, np.linalg.eigvalsh

    def svd(a, *args, **kwargs):
        calls.append(("svd", np.ndim(a), kwargs.get("compute_uv", True)))
        return real_svd(a, *args, **kwargs)

    def eigvalsh(a, *args, **kwargs):
        calls.append(("eigvalsh", np.ndim(a), None))
        return real_eigvalsh(a, *args, **kwargs)

    rig = _default_rig()
    eta = rc.random_unit_normal(rig, DEFAULT_Y, 0)
    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    rc.experiment_sweep(rig, DEFAULT_Y, eta, rc.log_grid(-2, 1, 20))
    assert ("eigvalsh", 2, None) in calls and ("svd", 3, False) in calls
    assert all(ndim == 2 for name, ndim, _ in calls if name == "eigvalsh")
    assert all(not uv for name, ndim, uv in calls if name == "svd" and ndim == 3)
    calls.clear()
    rc.experiment_validate(rig, DEFAULT_Y, eta, [0.01, 1.0])
    assert [uv for name, ndim, uv in calls if name == "svd" and ndim == 3] == [True]


def _count_rows(monkeypatch, names):
    """Wrap every riemcond binding of the multiview and linalg functions named; returns,
    by name, the list to which each wrapper appends the number of maps its call built."""
    import riemcond.linalg as linalg
    import riemcond.multiview as mv

    rows = {name: [] for name in names}
    for name in names:
        real = getattr(mv, name, None) or getattr(linalg, name)

        def counted(*args, real=real, name=name):
            out = real(*args)
            rows[name].append(len(out.reshape(-1, 3, 3)))
            return out

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("riemcond") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return rows


def test_sweep_builds_one_weingarten_map_per_ray(monkeypatch):
    """A sweep runs the closed-form S_hat and the congruence R^-T S_hat R^-1 on one row
    of the ray and scales that map along the normal; validate builds every row's map."""
    rig = _default_rig()
    eta = rc.random_unit_normal(rig, DEFAULT_Y, 0)
    grid = rc.log_grid(-2, 1, 20)
    rows = _count_rows(monkeypatch, ("_stacked_hat", "congruence_by_inverse"))
    records = rc.experiment_sweep(rig, DEFAULT_Y, eta, grid)
    assert rows == {"_stacked_hat": [1], "congruence_by_inverse": [1]}
    assert all(rec.error is None for rec in records)
    for name in rows:
        rows[name].clear()
    records = rc.experiment_validate(rig, DEFAULT_Y, eta, grid[:10])
    assert rows == {"_stacked_hat": [10], "congruence_by_inverse": [10]}
    assert all(rec.error is None for rec in records)


@st.composite
def _stacked_runs(draw):
    """(rig, y, eta, grid): a RigSpec rig of 2 to 12 cameras; a point in its domain,
    half of them moved to a depth 10^-d (d <= 7) in one camera, where the maps are
    large; a seeded unit normal scaled by 10^e (|e| <= 200), with a NaN entry or a
    tangential part in a third of the draws each; and 1 to 12 offsets among 0, +-inf,
    NaN, +-10^u (|u| <= 300) and offsets that make the normal 1e140..1e160 long, about
    where its norm overflows."""
    spec = rc.RigSpec(
        k=draw(st.integers(2, 12)),
        radius=draw(st.floats(2.0, 10.0)),
        arc_degrees=draw(st.floats(20.0, 120.0)),
        seed=draw(st.integers(0, 2**16)),
        focal=draw(st.floats(0.5, 2.0)),
    )
    rig = rc.gen_rig(spec)
    y = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    if draw(st.booleans()):
        camera = draw(st.integers(0, rig.r - 1))
        c = rig.c[camera]
        depth = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** -draw(st.floats(0.0, 7.0))
        y = y + (depth - (c @ y + rig.d[camera])) * c / (c @ c)
    assume(rc.mv_domain_check(rig, y))
    e = draw(st.floats(-200.0, 200.0))
    eta = rc.random_unit_normal(rig, y, draw(st.integers(0, 2**16))) * 10.0 ** e
    kind = draw(st.sampled_from(["normal", "nan", "tangential"]))
    if kind == "nan":
        eta[draw(st.integers(0, 2 * rig.r - 1))] = np.nan
    elif kind == "tangential":
        tangent = compact_qr(rc.mv_jacobian(rig, y))[0][:, 0]
        eta = eta + draw(st.floats(1e-6, 1.0)) * 10.0 ** e * tangent
    sign = st.sampled_from([-1.0, 1.0])
    offsets = st.one_of(
        st.sampled_from([0.0, np.inf, -np.inf, np.nan]),
        st.builds(lambda s, u: s * 10.0 ** u, sign, st.floats(-300.0, 300.0)),
        st.builds(lambda s, v: s * 10.0 ** min(v - e, 300.0), sign, st.floats(140.0, 160.0)),
    )
    return rig, y, eta, draw(st.lists(offsets, min_size=1, max_size=12))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_stacked_runs())
def test_stacked_runs_give_every_row_its_one_row_outcome(run):
    """Random rigs, points, normals and grids through both stacked runs. Each sweep row
    is its own mv_kappa outcome: the same RiemcondError with the same message, or the
    same ill-posed verdict with kappa and sigma_3 within the first-order bound and the
    bounds within that of test_sweep_matches_mv_kappa_rows. A validation row has its
    mv_kappa error, or a RiemcondError of its solve, or none, and no other exception
    leaves either run. The one this found: at a point 1e-5 from a principal plane of a
    two-camera rig, J^T J + lam I was exactly singular in floats, and the stacked
    np.linalg.solve raised LinAlgError for the whole call."""
    rig, y, eta, grid = run
    x_norm = np.linalg.norm(rc.mv_project(rig, y))
    sweep = rc.experiment_sweep(rig, y, eta, grid)
    validate = rc.experiment_validate(rig, y, eta, grid)
    assert len(sweep) == len(validate) == len(grid)
    for t, rec, val in zip(grid, sweep, validate):
        with np.errstate(over="ignore", invalid="ignore"):
            normal = t * x_norm * eta
        try:
            rep = rc.mv_kappa(rig, y, normal)
        except rc.RiemcondError as exc:
            assert rec.error == val.error == f"{type(exc).__name__}: {exc}"
            continue
        assert rec.error is None and rec.ill_posed == rep.ill_posed
        assert val.error is None or issubclass(getattr(rc, val.error.split(":")[0]),
                                               rc.RiemcondError)
        if rep.ill_posed:
            continue
        _, R, _, S = rc.mv_weingarten(rig, y, normal)
        for got, want in ((rec.kappa, rep.kappa), (rec.sigma3, rep.components["sigma3"])):
            assert _first_order_c(got, want, rep.kappa, R, S) <= FIRST_ORDER_C
        lam = np.linalg.eigvalsh(S)
        for got, want in zip(rec.bounds, (rep.bounds_lo, rep.bounds_hi)):
            assert got == want or abs(got / want - 1.0) <= (
                1e-13 * max(1.0, np.abs(lam).max()) / np.abs(1.0 - lam).min())


@pytest.mark.parametrize("protocol", ["sweep", "validate"])
def test_nan_non_normal_and_zero_offset_rows(protocol):
    """Rows of a NaN eta, of an eta with a tangential part, and at t = 0 are what the
    one-row mv_kappa gives: its error, message included, or, at t = 0, bounds equal
    to kappa_S (a zero normal is normal whatever eta is)."""
    run = rc.experiment_sweep if protocol == "sweep" else rc.experiment_validate
    rig = _default_rig()
    x_norm = np.linalg.norm(rc.mv_project(rig, DEFAULT_Y))
    unit = rc.random_unit_normal(rig, DEFAULT_Y, 0)
    tangent = compact_qr(rc.mv_jacobian(rig, DEFAULT_Y))[0][:, 0]
    grid = [-1.0, 0.0, 0.1]
    for eta in (np.full(2 * rig.r, np.nan), unit + 0.5 * tangent):
        for t, rec in zip(grid, run(rig, DEFAULT_Y, eta, grid)):
            try:
                rep = rc.mv_kappa(rig, DEFAULT_Y, t * x_norm * eta)
            except rc.RiemcondError as exc:
                assert rec.error == f"{type(exc).__name__}: {exc}"
                assert rec.flagged and np.isnan(rec.kappa) and np.isnan(rec.bounds).all()
                continue
            assert t == 0.0 and rec.error is None and not np.isnan(eta).any()
            assert rec.bounds == (rep.bounds_lo, rep.bounds_hi) == (rep.components["kappa_S"],) * 2
            assert rec.kappa == pytest.approx(rep.kappa, rel=1e-14)


@pytest.mark.parametrize("protocol", ["sweep", "validate"])
def test_experiment_checks_y_once_and_takes_one_qr_frame(protocol, monkeypatch):
    """On a cold rig, one domain check of y serves x, the theory kernel and the solves'
    start, and one Jacobian QR the frame; a second run at y takes neither, as the rig
    keeps y's frame. The errors of y keep their type and message."""
    import riemcond.linalg as linalg
    import riemcond.multiview as mv

    run = rc.experiment_sweep if protocol == "sweep" else rc.experiment_validate
    rig = _default_rig()
    eta = rc.random_unit_normal(_default_rig(), DEFAULT_Y, 0)  # a twin: rig stays cold
    counts = {"_checked": 0, "compact_qr": 0}
    for name, real in (("_checked", mv._checked), ("compact_qr", linalg.compact_qr)):
        def counted(*args, real=real, name=name):
            counts[name] += 1
            return real(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("riemcond") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    records = run(rig, DEFAULT_Y, eta, [0.01, 1.0])
    assert counts == {"_checked": 1, "compact_qr": 1}
    assert all(rec.error is None for rec in records)
    assert run(rig, DEFAULT_Y, eta, [0.01, 1.0]) == records
    assert counts == {"_checked": 1, "compact_qr": 1}
    on_plane = np.array([0.0, 0.0, -rig.d[0] / rig.c[0, 2]])
    with pytest.raises(rc.OutsideDomain, match="principal plane"):
        run(rig, on_plane, eta, [0.01, 1.0])
    with pytest.raises(rc.NonFinite, match=r"world point \[nan"):
        run(rig, [np.nan, 0.0, 0.0], eta, [0.01, 1.0])


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


@pytest.mark.parametrize("profile, error, message", [
    ([None, 1.0, 1e-3, 1.0, 1.0], rc.NonFinite, "entries [0]"),  # an error row's sigma3
    ([1.0, 1.0, 1e-3, np.inf, 1.0], rc.NonFinite, "entries [3]"),
    ([1.0, np.nan, 1e-3, 1.0, -np.inf], rc.NonFinite, "entries [1, 4]"),
    ([], rc.EmptyInput, "empty"),
    ([[1.0, 1e-3, 1.0]], rc.InvalidGeometry, "must be 1-D, got shape (1, 3)"),
    (1e-3, rc.InvalidGeometry, "must be 1-D, got shape ()"),
])
def test_detect_dips_rejects_bad_profiles(profile, error, message):
    with pytest.raises(error) as exc:
        rc.detect_dips(np.array(profile, dtype=object))
    assert message in str(exc.value)


_COLD_IMPORT = """
import json, sys
import numpy as np
import riemcond, riemcond.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {"import": scipy_modules()}
try:
    riemcond.detect_dips([])
except riemcond.EmptyInput:
    pass
dips = riemcond.detect_dips(json.loads(sys.argv[1])).tolist()
loaded["detect_dips"] = scipy_modules()
rig = riemcond.gen_rig(riemcond.RigSpec(k=4, seed=1))
y = np.array([0.35, -0.2, 0.4])
eta = riemcond.random_unit_normal(rig, y, 0)
riemcond.experiment_sweep(rig, y, eta, riemcond.log_grid(-2, 1, 5))
loaded["experiment_sweep"] = scipy_modules()
riemcond.experiment_validate(rig, y, eta, riemcond.log_grid(-2, 0, 3, two_sided=False))
loaded["experiment_validate"] = scipy_modules()
riemcond.triangulate(rig, riemcond.mv_project(rig, y) + 1e-3)
loaded["triangulate"] = scipy_modules()
print(json.dumps([loaded, dips]))
"""


def test_import_does_not_load_scipy_signal():
    """Neither import riemcond (and its CLI) nor a detect_dips, sweep, validation
    or triangulation call loads any scipy module; detect_dips finds the dips."""
    profile = [1.0, 0.5, 1e-4, 0.5, 1.0, 0.8, 1.0, 1e-6, 1.0]  # 0.8: a crossing, not a dip
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rc.__file__)))
    out = subprocess.run([sys.executable, "-c", _COLD_IMPORT, json.dumps(profile)],
                         env=env, capture_output=True, text=True, check=True).stdout
    loaded, dips = json.loads(out)
    assert loaded == dict.fromkeys(
        ["import", "detect_dips", "experiment_sweep", "experiment_validate", "triangulate"], [])
    assert dips == rc.detect_dips(profile).tolist() == [2, 7]


# levels drawn from a few values, so that plateaus and ties are common
_PROFILES = st.one_of(
    st.lists(st.integers(0, 4).map(float), max_size=40),
    st.lists(st.floats(-5.0, 5.0), max_size=40),
).map(np.array)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_PROFILES)
def test_peak_prominences_match_scipy(x):
    peaks, prominences = _peak_prominences(x)
    expected = scipy.signal.find_peaks(x)[0]
    np.testing.assert_array_equal(peaks, expected)
    np.testing.assert_array_equal(prominences, scipy.signal.peak_prominences(x, expected)[0])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from([1e-8, 1e-4, 0.3, 0.5, 1.0]), min_size=1, max_size=40))
def test_detect_dips_matches_find_peaks(sigma3):
    assert rc.detect_dips(sigma3).tolist() == _scipy_dips(sigma3).tolist()


def test_detect_dips_matches_find_peaks_on_sweep_profiles():
    """The sigma_3 profiles of demo 03 and acceptance criterion 9."""
    rig10 = _default_rig()
    grid = rc.log_grid(-3, 4, 300)
    found = 0
    for k in (2, 3, 5, 10):
        rig = rc.prefix_rig(rig10, k)
        recs = rc.experiment_sweep(rig, DEFAULT_Y, rc.random_unit_normal(rig, DEFAULT_Y, 0), grid)
        t = np.array([r.t_rel for r in recs])
        sig = np.array([r.sigma3 for r in recs])
        for sign in (-1, 1):
            dips = rc.detect_dips(sig[np.sign(t) == sign])
            assert dips.tolist() == _scipy_dips(sig[np.sign(t) == sign]).tolist()
            found += len(dips)
    assert found > 0


def _scipy_dips(sigma3):
    """detect_dips as scipy.signal.find_peaks computes it."""
    s = np.asarray(sigma3, dtype=float)
    depth = -np.log10(np.maximum(s, max(s.max(), 1e-300) * 1e-30))
    return scipy.signal.find_peaks(depth, prominence=rc.experiments.DIP_PROMINENCE)[0]


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


def test_prefix_rig_takes_two_to_all_cameras():
    rig10 = _default_rig()
    for k in (2, 10):
        assert rc.prefix_rig(rig10, k) == rc.CameraRig(cameras=rig10.cameras[:k])
    for k in (-8, -1, 0, 1, 11):
        with pytest.raises(rc.InvalidGeometry, match="need 2 <= k <= 10"):
            rc.prefix_rig(rig10, k)


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

    def flaky(rig_, A, y0, *rest):
        results = real_rows(rig_, A, y0, *rest)
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
