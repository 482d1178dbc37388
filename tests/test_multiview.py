import dataclasses
import warnings

import numpy as np
import pytest

import riemcond as rc
from weingarten_oracle import weingarten_via_projector

CANONICAL = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0]])


def _generic_rig(k=4, seed=0):
    return rc.gen_rig(rc.RigSpec(k=k, radius=5.0, arc_degrees=50.0, seed=seed))


def _affine_rig():
    P1 = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0]])
    P2 = np.array([[1.0, 0, 1.0, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0]])
    return rc.CameraRig(cameras=(rc.Camera(P1), rc.Camera(P2)))


def _random_normal_at(rig, y, seed):
    return rc.random_unit_normal(rig, y, seed)


def test_camera_block_decomposition_round_trip():
    P = np.arange(12, dtype=float).reshape(3, 4) + np.eye(3, 4)
    cam = rc.Camera(P)
    np.testing.assert_allclose(cam.matrix, P, atol=1e-15)
    np.testing.assert_allclose(cam.A, P[:2, :3])
    np.testing.assert_allclose(cam.b, P[:2, 3])
    np.testing.assert_allclose(cam.c, P[2, :3])
    assert cam.d == P[2, 3]


def test_camera_keeps_a_read_only_copy_of_its_matrix():
    P = np.arange(12, dtype=float).reshape(3, 4) + np.eye(3, 4)
    cam = rc.Camera(P)
    before = hash(cam)
    P[0, 0] = 7.0
    assert cam.matrix[0, 0] == cam.A[0, 0] == 1.0 and hash(cam) == before
    assert cam == rc.Camera(np.arange(12, dtype=float).reshape(3, 4) + np.eye(3, 4))
    for view in (cam.matrix, cam.A, cam.b, cam.c):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 99.0
    assert isinstance(cam.d, float)


def test_rig_cameras_cannot_drift_from_the_rig_arrays():
    rig = _generic_rig()
    with pytest.raises(ValueError, match="read-only"):
        rig.cameras[0].A[0, 0] = 99.0
    np.testing.assert_array_equal(rig.P, np.stack([cam.matrix for cam in rig.cameras]))


@pytest.mark.parametrize("entries", [11, 13, 0])
def test_camera_matrix_of_other_than_twelve_numbers_is_invalid(entries):
    with pytest.raises(rc.InvalidGeometry, match=f"12 numbers, got shape \\({entries},\\)"):
        rc.Camera(np.ones(entries))


def test_camera_rank_invariant():
    bad = np.zeros((3, 4))
    bad[0, 0] = 1.0
    bad[1, 1] = 1.0  # rank 2
    with pytest.raises(rc.InvalidGeometry):
        rc.Camera(bad)


@pytest.mark.parametrize("entry, value", [((0, 0), np.nan), ((2, 3), np.inf)])
def test_non_finite_camera_raises_non_finite(entry, value):
    P = CANONICAL.copy()
    P[entry] = value
    with pytest.raises(rc.NonFinite, match="camera matrix"):
        rc.Camera(P)


def test_rig_requires_distinct_centers():
    cam = rc.Camera(CANONICAL)
    with pytest.raises(rc.InvalidGeometry):
        rc.CameraRig(cameras=(cam, cam))
    with pytest.raises(rc.InvalidGeometry):
        rc.CameraRig(cameras=(cam,))


def test_canonical_camera_projection():
    cam = rc.Camera(CANONICAL)
    y = np.array([2.0, 4.0, 2.0])
    block = (cam.A @ y + cam.b) / (cam.c @ y + cam.d)
    np.testing.assert_allclose(block, [1.0, 2.0], atol=1e-15)


def test_affine_camera_projection_is_linear():
    rig = _affine_rig()
    y = np.array([0.3, -0.7, 1.1])
    x = rc.mv_project(rig, y)
    for l, cam in enumerate(rig.cameras):
        np.testing.assert_allclose(x[2 * l : 2 * l + 2], cam.A @ y + cam.b, atol=1e-15)
    J = rc.mv_jacobian(rig, y)
    np.testing.assert_allclose(J, np.vstack([cam.A for cam in rig.cameras]), atol=1e-15)


def test_domain_check_excludes_principal_plane_and_baseline():
    rig = _generic_rig(k=3)
    cam = rig.cameras[0]
    # solve c . y + d = 0 with y on the optical axis direction
    y_pp = -cam.d * cam.c / (cam.c @ cam.c)
    assert abs(cam.c @ y_pp + cam.d) < 1e-12
    assert not rc.mv_domain_check(rig, y_pp)
    mid = 0.5 * (rig.cameras[0].center() + rig.cameras[1].center())
    assert not rc.mv_domain_check(rig, mid)
    y_good = np.array([0.2, -0.1, 0.3])
    assert np.all(np.abs([c.c @ y_good + c.d for c in rig.cameras]) > np.asarray(0.1))
    assert rc.mv_domain_check(rig, y_good)
    with pytest.raises(rc.OutsideDomain):
        rc.mv_project(rig, mid)


def test_round_trip_projection_triangulation():
    rig = _generic_rig(k=5, seed=2)
    rng = np.random.default_rng(20)
    for _ in range(100):
        y = rng.uniform(-0.8, 0.8, size=3)
        if not rc.mv_domain_check(rig, y):
            continue
        x = rc.mv_project(rig, y)
        y_hat = rc.triangulate_linear(rig, x)
        assert np.linalg.norm(y_hat - y) <= 1e-9 * (1.0 + np.linalg.norm(y))


def test_minimal_two_camera_variant_matches_on_consistent_data():
    rig = _generic_rig(k=4, seed=3)
    y = np.array([0.25, 0.1, -0.3])
    x = rc.mv_project(rig, y)
    y_min = rc.triangulate_linear(rig, x, minimal=True)
    y_all = rc.triangulate_linear(rig, x)
    assert np.linalg.norm(y_min - y) <= 1e-9 * (1.0 + np.linalg.norm(y))
    assert np.linalg.norm(y_all - y_min) <= 1e-9 * (1.0 + np.linalg.norm(y))


def test_dlt_takes_no_full_left_basis(monkeypatch):
    """The DLT reads s and Vt of its 2r x 4 system: its SVD builds a 2r x 4 U, not the
    2r x 2r one (80 x 80 at k = 40), and the point is the one the full SVD's Vt gives."""
    rig = _generic_rig(k=12, seed=5)
    rng = np.random.default_rng(22)
    x = rc.mv_project(rig, np.array([0.2, -0.1, 0.3])) + 1e-3 * rng.standard_normal(24)
    shapes = []
    real_svd = np.linalg.svd

    def svd(a, *args, **kwargs):
        out = real_svd(a, *args, **kwargs)
        shapes.append(out[0].shape)
        return out

    monkeypatch.setattr(np.linalg, "svd", svd)
    y = rc.triangulate_linear(rig, x)
    assert shapes == [(24, 4)]
    monkeypatch.undo()
    P = rig.P
    xy = x.reshape(-1, 2)
    M = (xy[:, :, None] * P[:, 2:3, :] - P[:, :2, :]).reshape(-1, 4)
    h = np.linalg.svd(M)[2][-1]
    assert np.linalg.norm(y - h[:3] / h[3]) <= 1e-12 * np.linalg.norm(y)


def test_noisy_triangulation_refinement_decreases_residual():
    rig = _generic_rig(k=4, seed=4)
    y = np.array([0.15, -0.2, 0.25])
    x = rc.mv_project(rig, y)
    rng = np.random.default_rng(21)
    noise = rng.standard_normal(x.size)
    a = x + 1e-3 * noise / np.linalg.norm(noise)
    y0 = rc.triangulate_linear(rig, a)
    res0 = np.linalg.norm(rc.mv_project(rig, y0) - a)
    result = rc.triangulate(rig, a)
    assert result.residual_norm < res0
    assert np.isfinite(result.residual_norm)


def test_jacobian_matches_finite_differences():
    rig = _generic_rig(k=4, seed=5)
    pm = rc.as_parametrization(rig)
    rng = np.random.default_rng(22)
    for _ in range(5):
        y = rng.uniform(-0.5, 0.5, size=3)
        J = rc.mv_jacobian(rig, y)
        J_fd = pm.jacobian_fd(y)
        assert np.linalg.norm(J - J_fd) / np.linalg.norm(J) <= 1e-6


def _oracle(rig, y, eta):
    """Per-camera loops over the Camera blocks: projection, Jacobian, S_hat."""
    a = [cam.c @ y + cam.d for cam in rig.cameras]  # numpy scalars: a[l] ** 2 is libm pow
    x = np.concatenate([(cam.A @ y + cam.b) / a[l] for l, cam in enumerate(rig.cameras)])
    J = np.vstack([
        cam.A / a[l] - np.outer(cam.A @ y + cam.b, cam.c) / a[l] ** 2
        for l, cam in enumerate(rig.cameras)
    ])
    S_hat = np.zeros((3, 3))
    for l, cam in enumerate(rig.cameras):
        eta_l = eta[2 * l : 2 * l + 2]
        beta = eta_l @ (cam.A @ y + cam.b)
        g = cam.A.T @ eta_l
        S_hat += 2.0 * beta / a[l] ** 3 * np.outer(cam.c, cam.c)
        S_hat -= (np.outer(cam.c, g) + np.outer(g, cam.c)) / a[l] ** 2
    return x, J, S_hat


@pytest.mark.parametrize("k", [2, 6, 40, "affine"])
def test_kernel_matches_per_camera_oracle(k):
    from riemcond.multiview import _checked, _stacked_hat

    rig = _affine_rig() if k == "affine" else _generic_rig(k=k, seed=6)
    rng = np.random.default_rng(23)
    checked = 0
    for i in range(300):
        y = rng.uniform(-0.7, 0.7, size=3)
        if not rc.mv_domain_check(rig, y):
            continue
        eta = _random_normal_at(rig, y, i) if i % 10 == 0 else np.zeros(2 * rig.r)
        x, J, S_hat = _oracle(rig, y, eta)
        # bit-equal: the validation protocol amplifies a last-bit change in J
        assert np.array_equal(rc.mv_project(rig, y), x)
        assert np.array_equal(rc.mv_jacobian(rig, y), J)
        got = _stacked_hat(rig, *_checked(rig, y), eta[None])[0]
        assert np.linalg.norm(got - S_hat) <= 1e-13 * np.linalg.norm(S_hat)
        checked += 1
    assert checked >= 250


@pytest.mark.parametrize("k", [2, 10, 40])
def test_stacked_hat_matches_einsum_bitwise(k):
    """The kernel's two-term sums over image coordinates, written as products,
    keep the bits of the einsums they replaced, on which the validation
    reference depends."""
    from riemcond.multiview import _checked, _stacked_hat

    rig = _generic_rig(k=k, seed=6)
    rng = np.random.default_rng(k)
    checked = 0
    for _ in range(40):
        y = rng.uniform(-0.7, 0.7, size=3)
        if not rc.mv_domain_check(rig, y):
            continue
        a, num = _checked(rig, y)
        E = 10.0 ** rng.uniform(-5, 5) * rng.standard_normal((int(rng.integers(1, 120)), 2 * k))
        eta_l = E.reshape(len(E), k, 2)
        beta = np.einsum("nlk,lk->nl", eta_l, num)
        g = np.einsum("lki,nlk->nli", rig.A, eta_l)
        cc = rig.c[:, :, None] * rig.c[:, None, :]
        cg = rig.c[:, :, None] * g[:, :, None, :]
        want = (np.einsum("nl,lij->nij", 2.0 * beta / a**3, cc)
                - np.einsum("l,nlij->nij", 1.0 / a**2, cg + cg.transpose(0, 1, 3, 2)))
        assert _stacked_hat(rig, a, num, E).tobytes() == want.tobytes()
        checked += 1
    assert checked >= 20


def _centers_baseline_distance(rig, y):
    """Distance to the line through the first two centers, from fresh SVDs."""
    h0 = rig.cameras[0].center_homogeneous()
    h1 = rig.cameras[1].center_homogeneous()
    finite0, finite1 = abs(h0[3]) >= 1e-12, abs(h1[3]) >= 1e-12
    if finite0 and finite1:
        p0 = rig.cameras[0].center()
        v = rig.cameras[1].center() - p0
    elif finite0 or finite1:
        p0 = (h0[:3] / h0[3]) if finite0 else (h1[:3] / h1[3])
        v = h1[:3] if finite0 else h0[:3]
    else:
        return np.inf
    v = v / np.linalg.norm(v)
    w = y - p0
    return float(np.linalg.norm(w - (w @ v) * v))


def _half_affine_rig():
    affine = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0]])
    finite = np.array([[1.0, 0, 0, -1.0], [0, 1.0, 0, 0], [0, 0, 1.0, 5.0]])  # center (1, 0, -5)
    return rc.CameraRig(cameras=(rc.Camera(affine), rc.Camera(finite)))


@pytest.mark.parametrize("make_rig", [_generic_rig, _half_affine_rig, _affine_rig])
def test_cached_baseline_distance_matches_centers(make_rig):
    from riemcond.multiview import _baseline_distances

    rig = make_rig()
    rng = np.random.default_rng(26)
    for _ in range(50):
        y = rng.uniform(-2.0, 2.0, size=3)
        want = _centers_baseline_distance(rig, y)
        (got,) = _baseline_distances(rig, y[None])
        if np.isinf(want):
            assert got == np.inf
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)
    if make_rig is _half_affine_rig:  # on the baseline through (1, 0, -5) along z
        assert not rc.mv_domain_check(rig, np.array([1.0, 0.0, 0.5]))


@pytest.mark.parametrize("make_rig", [_generic_rig, _half_affine_rig, _affine_rig])
def test_stacked_domain_check_matches_per_point(make_rig):
    from riemcond.multiview import DOM_TOL, _domain_rows

    rig = make_rig()
    rng = np.random.default_rng(27)
    Y = rng.uniform(-2.0, 2.0, size=(40, 3))
    Y[3, 1], Y[4, 2], Y[5, 0] = np.nan, np.inf, -np.inf
    excluded = [3, 4, 5]
    if rig.c[0].any():  # a point on camera 0's principal plane, and one within DOM_TOL of it
        Y[1] -= (rig.c[0] @ Y[1] + rig.d[0]) / (rig.c[0] @ rig.c[0]) * rig.c[0]
        Y[6] = Y[1] + 0.5 * DOM_TOL * rig.c[0] / (rig.c[0] @ rig.c[0])
        excluded += [1, 6]
    if rig.baseline_dir is not None:  # and the same for the baseline
        Y[2] = rig.baseline_point + 0.3 * rig.baseline_dir
        off = np.cross(rig.baseline_dir, rng.standard_normal(3))
        Y[7] = Y[2] + 0.5 * DOM_TOL * off / np.linalg.norm(off)
        excluded += [2, 7]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, ok = _domain_rows(rig, Y)

    def oracle(y):
        if not np.isfinite(y).all():
            return False
        depths = [(cam.matrix @ np.append(y, 1.0))[2] for cam in rig.cameras]
        return min(map(abs, depths)) > DOM_TOL and _centers_baseline_distance(rig, y) > DOM_TOL

    assert ok == [oracle(y) for y in Y]
    assert not any(ok[n] for n in excluded) and sum(ok) >= 30


def test_kernel_runs_no_svd(monkeypatch):
    rig = _generic_rig(k=10, seed=16)
    y = np.array([0.2, -0.1, 0.3])
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    monkeypatch.setattr(rc.Camera, "center_homogeneous",
                        counting("center", rc.Camera.center_homogeneous))
    assert rc.mv_domain_check(rig, y)
    rc.mv_project(rig, y)
    rc.mv_jacobian(rig, y)
    assert calls == []


def test_rig_arrays_are_cached_read_only():
    rig = _generic_rig(k=5, seed=17)
    for name in ("P", "A", "b", "c", "d", "M", "p4", "baseline_point", "baseline_dir"):
        arr = getattr(rig, name)
        assert arr.flags.writeable is False
        with pytest.raises(ValueError):
            arr[...] = 0.0
    for l, cam in enumerate(rig.cameras):
        assert np.array_equal(rig.P[l], cam.matrix)
        assert np.array_equal(rig.A[l], cam.A) and np.array_equal(rig.b[l], cam.b)
        assert np.array_equal(rig.c[l], cam.c) and rig.d[l] == cam.d
        assert np.array_equal(rig.M[3 * l:3 * l + 3], cam.matrix[:, :3])
        assert np.array_equal(rig.p4[l], cam.matrix[:, 3])
    assert abs(np.linalg.norm(rig.baseline_dir) - 1.0) <= 1e-15
    assert _affine_rig().baseline_dir is None and _affine_rig().baseline_point is None


def test_rig_equality_and_wire_format_unchanged():
    rig = _generic_rig(k=4, seed=18)
    assert [f.name for f in dataclasses.fields(rig) if f.compare] == ["cameras"]
    assert repr(rig).startswith("CameraRig(cameras=(Camera(") and "baseline" not in repr(rig)
    assert rig == rig and rig != "rig"
    data = rc.rig_to_dict(rig)
    assert data == {"cameras": [cam.matrix.reshape(-1).tolist() for cam in rig.cameras]}
    again = rc.rig_from_dict(data)
    assert rc.rig_to_dict(again) == data
    assert np.array_equal(again.P, rig.P)
    assert np.array_equal(again.baseline_dir, rig.baseline_dir)


def test_loaded_rigs_compare_and_hash_by_their_matrices():
    data = rc.rig_to_dict(_generic_rig(k=4, seed=18))
    first, second = rc.rig_from_dict(data), rc.rig_from_dict(data)
    assert first == second and hash(first) == hash(second)
    assert first.cameras[0] == second.cameras[0] and first.cameras[0] != first.cameras[1]
    assert first != _generic_rig(k=4, seed=19) and first != "rig"
    assert len({first, second}) == 1
    flipped = rc.Camera(np.where(first.cameras[0].matrix == 0.0, -0.0,
                                             first.cameras[0].matrix))
    assert flipped == first.cameras[0] and hash(flipped) == hash(first.cameras[0])


def test_non_finite_world_point_is_typed():
    rig = _generic_rig(k=3, seed=19)
    for bad in ([np.nan, 0.0, 0.0], [0.1, np.inf, 0.2]):
        assert rc.mv_domain_check(rig, bad) is False
        with pytest.raises(rc.NonFinite, match="world point"):
            rc.mv_project(rig, bad)
        with pytest.raises(rc.NonFinite, match="world point"):
            rc.mv_jacobian(rig, bad)


def test_non_finite_correspondence_is_typed():
    rig = _generic_rig(k=3, seed=20)
    x = rc.mv_project(rig, np.array([0.1, 0.2, -0.1]))
    x[3] = np.nan
    with pytest.raises(rc.NonFinite, match=r"correspondence .* \(entries \[3\]\)"):
        rc.triangulate_linear(rig, x)
    with pytest.raises(rc.NonFinite, match="correspondence"):
        rc.triangulate(rig, x)
    with pytest.raises(rc.NonFinite, match="correspondence"):
        rc.triangulate(rig, x, warm_start=[0.1, 0.2, -0.1])
    assert issubclass(rc.NonFinite, rc.RiemcondError)


def test_overflowing_dlt_system_is_typed():
    rig = _generic_rig(k=3, seed=20)
    x = rc.mv_project(rig, np.array([0.1, 0.2, -0.1]))
    x[2] = 1e308  # finite, but x * d overflows in the DLT rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rc.NonFinite, match="overflowing DLT system"):
            rc.triangulate_linear(rig, x)
        with pytest.raises(rc.NonFinite, match="overflowing DLT system"):
            rc.triangulate(rig, x)


def _rig_at_1e300():
    P = [[[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 1.0]],
         [[1.0, 0, 0, 1.0], [0, 1.0, 0, 0], [0, 0, 1.0, 1.0]]]
    return rc.CameraRig(cameras=tuple(rc.Camera(1e300 * np.array(p)) for p in P))


def test_overflowing_jacobian_is_typed():
    """Cameras at scale 1e300 project y = (0.5, 0.5, 1), but the Jacobian's depth square
    and c-term overflow, leaving NaNs: every entry that reads the Jacobian raises NonFinite,
    mv_kappa still from the QR, and no numpy warning leaks (scale-free rigs would mend
    the rejection itself)."""
    rig = _rig_at_1e300()
    y = np.array([0.5, 0.5, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = rc.mv_project(rig, y)
        with pytest.raises(rc.NonFinite, match="matrix to factor by QR"):
            rc.mv_kappa(rig, y, np.zeros(4))
        with pytest.raises(rc.NonFinite, match="Jacobian"):
            rc.mv_jacobian(rig, y)
        for warm_start in (y, None):
            with pytest.raises(rc.NonFinite, match="Jacobian at the start point"):
                rc.triangulate(rig, x, warm_start=warm_start)


def test_overflowing_images_are_typed_without_a_warning():
    """The 1e300-scale rig at y = (1e10, 0, 1): the point is in the domain (its depths are finite),
    but its image numerators overflow, so the projection is [inf, 0, inf, 0]. Checking the
    point raises no numpy warning, mv_project raises NonFinite rather than returning the
    infinities, and mv_kappa raises its NonFinite from the QR."""
    y = np.array([1e10, 0.0, 1.0])
    calls = [(rc.mv_project, (), "projection"),
             (rc.mv_kappa, (np.zeros(4),), "matrix to factor by QR")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order in (calls, calls[::-1]):  # a fresh rig: the first entry checks the point
            rig = _rig_at_1e300()
            assert rc.mv_domain_check(rig, y) is True
            for entry, args, match in order:
                with pytest.raises(rc.NonFinite, match=match):
                    entry(rig, y, *args)


def test_non_finite_normal_is_typed():
    rig = _generic_rig(k=3, seed=21)
    y = np.array([0.1, 0.2, -0.1])
    eta = _random_normal_at(rig, y, 0)
    eta[1] = np.inf
    with pytest.raises(rc.NonFinite, match="eta"):
        rc.mv_kappa(rig, y, eta)
    records = rc.experiment_sweep(rig, y, np.full(6, np.nan), [0.1, 1.0])
    assert all(rec.flagged and "NonFinite" in rec.error for rec in records)
    # finite entries whose norm overflows: kappa would come out with NaN bounds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rc.NonFinite, match="norm of normal vector eta inf is not finite"):
            rc.mv_kappa(rig, y, 1e200 * _random_normal_at(rig, y, 0))


def test_normal_errors_record_row_errors_and_runs_keep_other_rows():
    from riemcond.curvature import _normal_errors
    from riemcond.multiview import _frame

    rig = _generic_rig(k=4, seed=22)
    y = np.array([0.1, 0.2, -0.1])
    eta = _random_normal_at(rig, y, 0)
    Q = _frame(rig, y)[3]
    E = np.array([0.3 * eta, eta + Q[:, 0], np.full(8, np.nan), np.zeros(8), 1e200 * eta, eta])
    errors, norms = _normal_errors(Q, E)
    kinds = [type(err).__name__ if err is not None else None for err in errors]
    assert kinds == [None, "NotNormal", "NonFinite", None, "NonFinite", None]
    # each row's length, as the row's own np.linalg.norm gives it (inf where it overflows)
    with np.errstate(over="ignore", invalid="ignore"):
        want = [np.linalg.norm(e) for e in E]
    np.testing.assert_allclose(norms, want, rtol=1e-15)
    assert norms[3] == 0.0 and np.isnan(norms[2]) and norms[4] == np.inf
    with pytest.raises(rc.NotNormal, match="length 8"):
        _normal_errors(Q, E[:, :6])
    # a run builds the maps of its good rows alone: they come out as if the bad rows were absent
    for run in (rc.experiment_sweep, rc.experiment_validate):
        records = run(rig, y, eta, [0.3, np.inf, np.nan, 0.0, 1.0])
        assert [rec.error is None for rec in records] == [True, False, False, True, True]
        assert [records[n] for n in (0, 3, 4)] == run(rig, y, eta, [0.3, 0.0, 1.0])
        with pytest.raises(rc.OutsideDomain):
            run(rig, rig.baseline_point + 0.5 * rig.baseline_dir, eta, [0.3, 1.0])


_WORLD = "world point must have shape"
_CORRESPONDENCE = r"correspondence must have shape \(6,\)"


@pytest.mark.parametrize("call, match", [
    (lambda rig, y, x: rc.mv_project(rig, y[:2]), _WORLD),
    (lambda rig, y, x: rc.mv_jacobian(rig, np.append(y, 1.0)), _WORLD),
    (lambda rig, y, x: rc.mv_weingarten(rig, y[None], np.zeros(6)), _WORLD),
    (lambda rig, y, x: rc.mv_kappa(rig, y[:2], np.zeros(6)), _WORLD),
    (lambda rig, y, x: rc.random_unit_normal(rig, y[:2], 0), _WORLD),
    (lambda rig, y, x: rc.singular_offsets_rel(rig, y[:2], np.zeros(6)), _WORLD),
    (lambda rig, y, x: rc.mv_certificate(rig, y[:2], x), _WORLD),
    (lambda rig, y, x: rc.experiment_sweep(rig, y[:2], np.zeros(6), [0.1]), _WORLD),
    (lambda rig, y, x: rc.experiment_validate(rig, y[:2], np.zeros(6), [0.1]), _WORLD),
    (lambda rig, y, x: rc.triangulate(rig, x, warm_start=y[:2]), _WORLD),
    (lambda rig, y, x: rc.triangulate(rig, x[:4], warm_start=y), _CORRESPONDENCE),
    (lambda rig, y, x: rc.triangulate(rig, np.append(x, 0.0), warm_start=y), _CORRESPONDENCE),
    (lambda rig, y, x: rc.triangulate(rig, x.reshape(3, 2), warm_start=y), _CORRESPONDENCE),
    (lambda rig, y, x: rc.triangulate(rig, x.reshape(3, 2)), _CORRESPONDENCE),
    (lambda rig, y, x: rc.mv_domain_check(rig, [0.1, 0.2]), _WORLD),
    (lambda rig, y, x: rc.mv_certificate(rig, y, x[:4]), _CORRESPONDENCE),
], ids=["mv_project", "mv_jacobian", "mv_weingarten", "mv_kappa", "random_unit_normal",
        "singular_offsets_rel", "mv_certificate", "experiment_sweep", "experiment_validate",
        "triangulate-start", "triangulate-4", "triangulate-7", "triangulate-3x2-warm",
        "triangulate-3x2-dlt", "mv_domain_check", "mv_certificate-4"])
def test_wrong_shape_points_and_correspondences_raise_invalid_geometry(call, match):
    """A world point that is not a 3-vector, through every entry that takes y's frame and
    through mv_domain_check, and a correspondence that is not a 2r-vector, warm-started or
    not and in mv_certificate, raise InvalidGeometry, where numpy used to raise ValueError
    or IndexError; a rig that holds y's frame checks the other point all the same."""
    rig = _generic_rig(k=3, seed=21)
    y = np.array([0.1, 0.2, -0.1])
    x = rc.mv_project(rig, y)
    with pytest.raises(rc.InvalidGeometry, match=match):
        call(rig, y, x)


def test_weingarten_hat_flat_cases():
    from riemcond.multiview import mv_weingarten_hat

    rig = _affine_rig()
    y = np.array([0.1, 0.2, 0.3])
    eta = _random_normal_at(rig, y, 0)
    assert np.abs(mv_weingarten_hat(rig, y, eta)).max() == 0.0
    generic = _generic_rig(k=3, seed=7)
    assert np.abs(mv_weingarten_hat(generic, y, np.zeros(6))).max() == 0.0


def test_weingarten_hat_symmetric_and_normal_checked():
    from riemcond.multiview import mv_weingarten_hat

    rig = _generic_rig(k=5, seed=8)
    y = np.array([0.3, -0.1, 0.2])
    eta = _random_normal_at(rig, y, 1)
    S_hat = mv_weingarten_hat(rig, y, eta)
    assert np.abs(S_hat - S_hat.T).max() <= 1e-15
    tangent = rc.mv_jacobian(rig, y)[:, 0]
    with pytest.raises(rc.NotNormal):
        mv_weingarten_hat(rig, y, eta + 0.1 * tangent / np.linalg.norm(tangent))


def test_weingarten_matches_fd_contraction_and_projector_route():
    rig = _generic_rig(k=5, seed=9)
    pm = rc.as_parametrization(rig)
    rng = np.random.default_rng(24)
    for _ in range(5):
        y = rng.uniform(-0.4, 0.4, size=3)
        eta = _random_normal_at(rig, y, int(rng.integers(0, 1000)))
        _, R, S_hat, S = rc.mv_weingarten(rig, y, eta)
        S_hat_fd = rc.second_fundamental_contraction(pm, y, eta)
        S_fd = rc.weingarten(S_hat_fd, R)
        assert np.linalg.norm(S - S_fd) / max(1.0, np.linalg.norm(S)) <= 1e-5
        S_proj = weingarten_via_projector(pm, y, eta)
        assert np.linalg.norm(S - S_proj) / max(1.0, np.linalg.norm(S)) <= 1e-5


def test_normal_space_dimension():
    for k in (2, 5, 10):
        rig = _generic_rig(k=k, seed=10)
        y = np.array([0.2, 0.1, -0.2])
        J = rc.mv_jacobian(rig, y)
        Q, _ = np.linalg.qr(J)
        P_N = np.eye(2 * k) - Q @ Q.T
        assert np.linalg.matrix_rank(P_N, tol=1e-10) == 2 * k - 3


def test_mv_kappa_on_manifold_reduces_to_frame_factor():
    rig = _generic_rig(k=7, seed=11)
    y = np.array([0.15, 0.25, -0.1])
    rep = rc.mv_kappa(rig, y, np.zeros(14))
    R = np.linalg.qr(rc.mv_jacobian(rig, y))[1]
    sigma3 = np.linalg.svd(R)[1][2]
    assert rep.kappa == pytest.approx(1.0 / sigma3, rel=1e-12)
    assert rep.bounds_lo == pytest.approx(rep.kappa, rel=1e-12)
    assert rep.bounds_hi == pytest.approx(rep.kappa, rel=1e-12)


def test_mv_kappa_is_its_row_of_the_stacked_kernel():
    """mv_kappa takes its one critical pair on Python floats, mv_condition a stack on numpy:
    every field of mv_kappa is the stack's row, with ==, and the worst direction's bytes,
    at generic normals, at focal pairs (ill-posed) and at eta = 0."""
    from riemcond.multiview import _frame, _stacked_hat, mv_condition

    rng = np.random.default_rng(27)
    y = np.array([0.35, -0.2, 0.4])
    for k in (2, 10, 40):
        rig = rc.gen_rig(rc.RigSpec(k=k, seed=0))
        x_norm = float(np.linalg.norm(rc.mv_project(rig, y)))
        unit = _random_normal_at(rig, y, 7)
        E = [rng.uniform(-3.0, 3.0) * x_norm * _random_normal_at(rig, y, s) for s in range(6)]
        E += [t * x_norm * unit for t in rc.singular_offsets_rel(rig, y, unit)]
        E.append(np.zeros(2 * k))
        a, num, _, _, R = _frame(rig, y)
        rows = mv_condition(R, rc.weingarten(_stacked_hat(rig, a, num, np.array(E)), R))
        assert rows.ill_posed.any() and not rows.ill_posed.all()
        for n, eta in enumerate(E):
            rep = rc.mv_kappa(rig, y, eta)
            assert rep.ill_posed == rows.ill_posed[n]
            assert rep.kappa == rows.kappa[n]
            assert (rep.bounds_lo, rep.bounds_hi) == (rows.bounds_lo[n], rows.bounds_hi[n])
            assert rep.components == {"sigma3": rows.sigma[n, 2], "sigma1": rows.sigma[n, 0],
                                      "sigma3_R": rows.sigma_R[2], "kappa_S": rows.kappa_S}
            if rep.ill_posed:
                assert rep.worst_input_direction is None
            else:
                assert rep.worst_input_direction.tobytes() == rows.worst[n].tobytes()


def test_ill_posed_scale_takes_sigma_1_of_R(monkeypatch):
    """At the near-umbilic pair S = (1 - 1e-14) I, (I - S) R is about 1e-14 R: s3 (2.4e-15)
    lies above SING_TOL s1 but below SING_TOL sigma_1(R). The pair is ill-posed by the rule
    scale = max(s1, sigma_1(R)) on all three paths (a scale of s1 alone would call it well
    posed with kappa ~ 4e14)."""
    from riemcond import multiview
    from riemcond.condition import SING_TOL

    rig, y = rc.gen_rig(rc.RigSpec(k=10, seed=0)), np.array([0.35, -0.2, 0.4])
    R, S = multiview._frame(rig, y)[4], (1.0 - 1e-14) * np.eye(3)
    rows = multiview.mv_condition(R, S[None])
    s, sigma_R = rows.sigma[0], rows.sigma_R
    assert SING_TOL * s[0] < s[2] <= SING_TOL * sigma_R[0]  # the case the sigma_1(R) term decides
    assert rows.ill_posed.tolist() == [True] and rows.kappa.tolist() == [np.inf]
    ray = multiview._ray_condition(R, np.eye(3), np.array([1.0 - 1e-14]))
    assert ray.ill_posed.tolist() == [True] and ray.kappa.tolist() == [np.inf]
    monkeypatch.setattr(multiview, "_one_row", lambda rig, frame, eta: (None, S))
    rep = rc.mv_kappa(rig, y, np.zeros(20))
    assert rep.ill_posed and rep.kappa == np.inf and rep.worst_input_direction is None


def test_mv_kappa_affine_rig_insensitive_to_eta():
    rig = _affine_rig()
    y = np.array([0.4, -0.2, 0.6])
    rep0 = rc.mv_kappa(rig, y, np.zeros(4))
    eta = _random_normal_at(rig, y, 3)
    rep1 = rc.mv_kappa(rig, y, 7.5 * eta)
    assert rep1.kappa == pytest.approx(rep0.kappa, rel=1e-14)


def test_mv_kappa_matches_kappa_gcpp():
    rig = _generic_rig(k=6, seed=12)
    rng = np.random.default_rng(25)
    for _ in range(10):
        y = rng.uniform(-0.4, 0.4, size=3)
        eta = rng.uniform(0.2, 3.0) * _random_normal_at(rig, y, int(rng.integers(0, 1000)))
        _, R, _, S = rc.mv_weingarten(rig, y, eta)
        rep_mv = rc.mv_kappa(rig, y, eta)
        A = np.linalg.solve(R, np.eye(3))  # R^{-1}: derivative of mu^{-1} in Q coords
        rep_gcpp = rc.kappa_gcpp(rc.ProblemDerivative(A=A), np.eye(3) - S)
        assert rep_mv.kappa == pytest.approx(rep_gcpp.kappa, rel=1e-10)


def test_degenerate_kernel_on_baseline_correspondence():
    rig = _generic_rig(k=2, seed=13)
    c0, c1 = rig.cameras[0].center(), rig.cameras[1].center()
    y_base = 0.5 * (c0 + c1)  # on the baseline: both images see their epipole
    blocks = []
    for cam in rig.cameras:
        blocks.append((cam.A @ y_base + cam.b) / (cam.c @ y_base + cam.d))
    x = np.concatenate(blocks)
    with pytest.raises(rc.DegenerateKernel):
        rc.triangulate_linear(rig, x)


def test_triangulation_at_infinity():
    rig = _generic_rig(k=3, seed=14)
    v = np.array([0.1, -0.2, 1.0])  # vanishing point of this direction
    blocks = [(cam.A @ v) / (cam.c @ v) for cam in rig.cameras]
    x = np.concatenate(blocks)
    with pytest.raises(rc.AtInfinity):
        rc.triangulate_linear(rig, x)


def test_rig_serialization_round_trip():
    rig = _generic_rig(k=3, seed=15)
    data = rc.rig_to_dict(rig)
    rig2 = rc.rig_from_dict(data)
    for cam, cam2 in zip(rig.cameras, rig2.cameras):
        np.testing.assert_array_equal(cam.matrix, cam2.matrix)
    with pytest.raises(ValueError):
        rc.rig_from_dict({"not_cameras": []})
    with pytest.raises(ValueError):
        rc.rig_from_dict({"cameras": [[1.0, 2.0]]})


# ---------------------------------------------------------------------------
# The rig's memo of its last point's frame
# ---------------------------------------------------------------------------

MEMO_Y = np.array([0.35, -0.2, 0.4])


def _fields(record):
    """Every field of a record as exact text (the repr of a float round-trips)."""
    return repr(vars(record))


def test_warm_rig_gives_the_bits_of_a_cold_one():
    """Sweep rays, a validation chunk and mv_kappa on a rig that already holds y's frame
    equal, field by field, what a freshly built twin computes."""
    base = rc.gen_rig(rc.RigSpec(k=10, seed=0))
    sweep_grid, validate_grid = rc.log_grid(-3, 4, 50), rc.log_grid(-3, 2, 100)[60:70]
    for k in (2, 5, 10):
        warm = rc.prefix_rig(base, k)
        for seed in range(3):
            cold = rc.prefix_rig(base, k)
            eta = rc.random_unit_normal(warm, MEMO_Y, seed)
            np.testing.assert_array_equal(eta, rc.random_unit_normal(cold, MEMO_Y, seed))
            want = list(map(_fields, rc.experiment_sweep(cold, MEMO_Y, eta, sweep_grid)))
            for _ in range(2):
                assert list(map(_fields, rc.experiment_sweep(warm, MEMO_Y, eta, sweep_grid))) == want
    eta = rc.random_unit_normal(base, MEMO_Y, 7)
    want = rc.experiment_validate(rc.prefix_rig(base, 10), MEMO_Y, eta, validate_grid)
    for _ in range(2):
        got = rc.experiment_validate(base, MEMO_Y, eta, validate_grid)
        assert list(map(_fields, got)) == list(map(_fields, want))
    cold = rc.mv_kappa(rc.prefix_rig(base, 10), MEMO_Y, 0.1 * eta)
    for _ in range(2):
        warm = rc.mv_kappa(base, MEMO_Y, 0.1 * eta)
        assert repr(warm) == repr(cold)
        np.testing.assert_array_equal(warm.worst_input_direction, cold.worst_input_direction)


def test_returned_arrays_are_the_callers_own():
    """Writing into the J of mv_jacobian and the Q and R of mv_weingarten changes no
    later result."""
    rig = _generic_rig()
    eta = 0.1 * _random_normal_at(rig, MEMO_Y, 0)
    J0, kappa0 = np.copy(rc.mv_jacobian(rig, MEMO_Y)), rc.mv_kappa(rig, MEMO_Y, eta)
    Q0, R0, S_hat0, S0 = map(np.copy, rc.mv_weingarten(rig, MEMO_Y, eta))
    assert Q0.flags.f_contiguous  # the layout compact_qr gives
    rc.mv_jacobian(rig, MEMO_Y)[:] = np.nan
    for arr in rc.mv_weingarten(rig, MEMO_Y, eta)[:2]:
        arr[:] = np.nan
    np.testing.assert_array_equal(rc.mv_jacobian(rig, MEMO_Y), J0)
    for got, want in zip(rc.mv_weingarten(rig, MEMO_Y, eta), (Q0, R0, S_hat0, S0)):
        np.testing.assert_array_equal(got, want)
    assert repr(rc.mv_kappa(rig, MEMO_Y, eta)) == repr(kappa0)


def test_memo_arrays_are_read_only():
    from riemcond.multiview import _frame

    rig = _generic_rig()
    frame = _frame(rig, MEMO_Y)
    assert len(frame) == 5 and frame[3].flags.f_contiguous
    for arr in frame:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    assert all(got is arr for got, arr in zip(_frame(rig, MEMO_Y), frame))


def test_memo_misses_on_another_point_or_rig_and_fills_lazily(monkeypatch):
    """One entry per rig, keyed by y's bytes; mv_project on a new point takes no
    Jacobian, mv_jacobian no QR, and what a call computed is not computed again."""
    import riemcond.multiview as mv

    counts = {"_checked": 0, "_jacobian": 0, "compact_qr": 0}
    for name in counts:
        def counted(*args, real=getattr(mv, name), name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(mv, name, counted)
    rig, twin = _generic_rig(), _generic_rig()
    other = MEMO_Y + [0.0, 0.0, 1e-3]
    eta = 0.1 * _random_normal_at(rig, other, 0)  # fills rig's memo at other
    counts.update(dict.fromkeys(counts, 0))
    steps = [
        (lambda: rc.mv_project(rig, MEMO_Y), (1, 0, 0)),
        (lambda: rc.mv_project(rig, MEMO_Y.tolist()), (1, 0, 0)),  # the same bytes
        (lambda: rc.mv_jacobian(rig, MEMO_Y), (1, 1, 0)),
        (lambda: rc.mv_kappa(rig, MEMO_Y, eta * 0.0), (1, 1, 1)),
        (lambda: rc.mv_weingarten(rig, MEMO_Y, eta * 0.0), (1, 1, 1)),
        (lambda: rc.mv_project(rig, other), (2, 1, 1)),  # another point
        (lambda: rc.mv_project(rig, MEMO_Y), (3, 1, 1)),  # the memo holds one point
        (lambda: rc.mv_jacobian(twin, MEMO_Y), (4, 2, 1)),  # another rig, equal to rig
    ]
    for step, want in steps:
        step()
        assert tuple(counts.values()) == want
    assert twin == rig and hash(twin) == hash(rig) and repr(twin) == repr(_generic_rig())


@pytest.mark.parametrize("on_plane, error, message", [
    (True, rc.OutsideDomain, "principal plane"),
    (False, rc.NonFinite, r"world point \[nan"),
])
def test_errors_of_y_repeat_on_every_call(on_plane, error, message):
    """Errors of y are not remembered: each call raises them again, type and message
    alike, on a rig whose memo is cold or holds another point."""
    rig = _generic_rig()
    y = np.array([0.0, 0.0, -rig.d[0] / rig.c[0, 2]] if on_plane else [np.nan, 0.0, 0.0])
    eta = _random_normal_at(_generic_rig(), MEMO_Y, 0)
    for call in (rc.mv_project, rc.mv_jacobian, lambda rig, y: rc.mv_kappa(rig, y, eta),
                 lambda rig, y: rc.experiment_sweep(rig, y, eta, [0.1])):
        seen = []
        for warm in (False, True, True):
            if warm:
                rc.mv_project(rig, MEMO_Y)
            with pytest.raises(error, match=message) as info:
                call(rig, y)
            seen.append((type(info.value), str(info.value)))
        assert seen[0] == seen[1] == seen[2]


def test_non_finite_jacobian_fails_every_call_and_every_row(monkeypatch):
    """A Jacobian the QR's finite check rejects is not remembered: each call raises,
    and each run gives every row its NonFinite record, with one message throughout."""
    import riemcond.multiview as mv

    rig = _generic_rig()
    eta = _random_normal_at(_generic_rig(), MEMO_Y, 0)  # a twin: rig holds no frame yet
    monkeypatch.setattr(mv, "_jacobian", lambda rig, a, num: np.full((2 * rig.r, 3), np.nan))
    messages = set()
    for _ in range(2):
        with pytest.raises(rc.NonFinite, match="matrix to factor by QR") as info:
            rc.mv_kappa(rig, MEMO_Y, eta)
        messages.add(f"NonFinite: {info.value}")
        for run in (rc.experiment_sweep, rc.experiment_validate):
            messages.update(rec.error for rec in run(rig, MEMO_Y, eta, [0.1, 1.0]))
    assert len(messages) == 1


def test_threads_alternating_points_get_their_own_frames():
    """The memo is replaced as one tuple: threads (more than cores) that alternate two
    points on one rig always read their own point's arrays."""
    import sys
    import threading

    from riemcond.multiview import _frame

    rig = _generic_rig()
    points = [MEMO_Y, MEMO_Y + [0.1, 0.0, 0.0]]
    want = [tuple(np.copy(v) for v in _frame(_generic_rig(), y)) for y in points]
    bad, start = [], threading.Barrier(4, timeout=30)

    def work(i):
        start.wait()
        for n in range(1000):
            j = (i + n) % 2
            got = _frame(rig, points[j])
            if not all(np.array_equal(g, w) for g, w in zip(got, want[j])):
                bad.append((i, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_jacobian_squares_depths_as_libm_pow():
    """_jacobian squares the depths with np.float_power, which gives math.pow's bits
    where a * a does not; a depth past 1e154 squares to inf with no warning."""
    import math

    from riemcond.multiview import _images, _jacobian

    def want(rig, a, num):
        with np.errstate(over="ignore"):
            a2 = np.array([math.pow(t, 2) if abs(t) < 1e154 else t * t for t in a.ravel().tolist()])
        a2 = a2.reshape(a.shape)[..., None, None]
        return (rig.A / a[..., None, None] - num[..., None] * rig.c[:, None, :] / a2).reshape(
            a.shape[:-1] + (-1, 3))

    rng = np.random.default_rng(0)
    differs = 0
    for k in (4, 10, 40):
        rig = rc.gen_rig(rc.RigSpec(k=k, seed=0))
        Y = np.vstack([MEMO_Y, rng.uniform(-0.7, 0.7, size=(500, 3))])
        a, num = _images(rig, Y)
        np.testing.assert_array_equal(_jacobian(rig, a, num), want(rig, a, num))
        differs += int((a * a != np.float_power(a, 2.0)).sum())
    assert differs > 0  # the check can tell the two squares apart
    rig = _generic_rig()
    y = np.array([0.0, 0.0, 1e160])
    a, num = _images(rig, y[None])
    assert np.abs(a).min() > 1e154
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        J = rc.mv_jacobian(rig, y)
    np.testing.assert_array_equal(J, want(rig, a[0], num[0]))


@pytest.mark.parametrize("k", range(2, 41))
def test_fused_images_match_per_camera_oracle(k):
    """_images' one matmul of the stacked [A_l; c_l] blocks gives, on stacks of 1 to 17
    points, the bits of each camera's own c_l . y + d_l and A_l y + b_l."""
    from riemcond.multiview import _images

    rig = _generic_rig(k=k, seed=k)
    rng = np.random.default_rng(k)
    for m in range(1, 18):
        Y = rng.uniform(-0.7, 0.7, size=(m, 3)) * 10.0 ** rng.integers(-3, 4, size=(m, 1))
        a, num = _images(rig, Y)
        assert np.array_equal(a, [[cam.c @ y + cam.d for cam in rig.cameras] for y in Y])
        assert np.array_equal(num, [[cam.A @ y + cam.b for cam in rig.cameras] for y in Y])
