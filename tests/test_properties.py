"""Invariances of the triangulation condition number on random rigs.

Each case draws a RigSpec rig, a world point in front of it and a scaled
normal at its image, then checks that mv_kappa is unchanged (or scales
as it must) when the world, the rig, the camera order or one camera's
image plane is transformed in a way that leaves the image manifold's
geometry intact, that it reduces to 1 / sigma_3(R) on the manifold, and
that the stacked kernel gives every row what a one-row call gives it.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import riemcond as rc
from riemcond.multiview import _jet, _stacked_hat, mv_condition

REL_TOL = 1e-9
KAPPA_MAX = 1e6

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw, min_k=2):
    """(rig, y, eta, kappa) with a finite, moderate kappa."""
    spec = rc.RigSpec(
        k=draw(st.integers(min_k, 8)),
        radius=draw(st.floats(2.0, 10.0)),
        arc_degrees=draw(st.floats(20.0, 120.0)),
        seed=draw(st.integers(0, 2**16)),
        focal=draw(st.floats(0.5, 2.0)),
    )
    rig = rc.gen_rig(spec)
    y = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    assume(rc.mv_domain_check(rig, y))
    x_norm = float(np.linalg.norm(rc.mv_project(rig, y)))
    t_rel = draw(st.floats(-10.0, 10.0))
    eta = t_rel * x_norm * rc.random_unit_normal(rig, y, draw(st.integers(0, 2**16)))
    kappa = rc.mv_kappa(rig, y, eta).kappa
    assume(np.isfinite(kappa) and kappa <= KAPPA_MAX)
    return rig, y, eta, kappa


def _transformed_rig(rig, T):
    """Cameras P T: the rig that sees T^{-1} (y, 1) where the old one saw (y, 1)."""
    return rc.CameraRig(cameras=tuple(rc.Camera(P @ T) for P in rig.P))


def _rotation(seed):
    Q, R = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    Q = Q * np.sign(np.diag(R))
    return Q if np.linalg.det(Q) > 0 else -Q


@PROPERTY_SETTINGS
@given(instances(), st.floats(0.1, 10.0))
def test_world_scaling_scales_kappa(instance, s):
    rig, y, eta, kappa = instance
    scaled = _transformed_rig(rig, np.diag([1.0 / s, 1.0 / s, 1.0 / s, 1.0]))
    kappa_s = rc.mv_kappa(scaled, s * y, eta).kappa
    assert abs(kappa_s - s * kappa) <= REL_TOL * s * kappa


@PROPERTY_SETTINGS
@given(instances(), st.integers(0, 2**16), st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
def test_rigid_motion_leaves_kappa_unchanged(instance, rot_seed, shift):
    rig, y, eta, kappa = instance
    Q, t = _rotation(rot_seed), np.array(shift)
    # world points move by y -> Q y + t; the cameras move along with them
    T = np.eye(4)
    T[:3, :3] = Q.T
    T[:3, 3] = -Q.T @ t
    kappa_m = rc.mv_kappa(_transformed_rig(rig, T), Q @ y + t, eta).kappa
    assert abs(kappa_m - kappa) <= REL_TOL * kappa


@PROPERTY_SETTINGS
@given(instances(min_k=4), st.randoms(use_true_random=False))
def test_permuting_cameras_past_the_baseline_leaves_kappa_unchanged(instance, rnd):
    rig, y, eta, kappa = instance
    # the first two cameras define the baseline and stay in place
    order = [0, 1] + rnd.sample(range(2, rig.r), rig.r - 2)
    permuted = rc.CameraRig(cameras=tuple(rig.cameras[i] for i in order))
    eta_p = eta.reshape(rig.r, 2)[order].reshape(-1)
    kappa_p = rc.mv_kappa(permuted, y, eta_p).kappa
    assert abs(kappa_p - kappa) <= REL_TOL * kappa


@PROPERTY_SETTINGS
@given(instances(), st.integers(0, 7), st.floats(-np.pi, np.pi),
       st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
def test_image_plane_isometry_of_one_camera_leaves_kappa_and_bounds_unchanged(
        instance, l, angle, shift):
    """P_l -> T P_l with T = [[O, t], [0, 0, 1]] moves camera l's image by the isometry
    x -> O x + t, so the image manifold keeps its metric when eta's block l turns by O."""
    rig, y, eta, _ = instance
    l %= rig.r
    O = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    T = np.eye(3)
    T[:2, :2], T[:2, 2] = O, shift
    P = rig.P.copy()
    P[l] = T @ P[l]
    eta_m = eta.copy()
    eta_m[2 * l:2 * l + 2] = O @ eta[2 * l:2 * l + 2]
    got = rc.mv_kappa(rc.CameraRig(cameras=tuple(rc.Camera(p) for p in P)), y, eta_m)
    want = rc.mv_kappa(rig, y, eta)
    np.testing.assert_allclose([got.kappa, got.bounds_lo, got.bounds_hi],
                               [want.kappa, want.bounds_lo, want.bounds_hi], rtol=REL_TOL)


@PROPERTY_SETTINGS
@given(instances())
def test_kappa_at_zero_normal_is_inverse_sigma3_of_R(instance):
    rig, y, _, _ = instance
    sigma3 = np.linalg.svd(np.linalg.qr(rc.mv_jacobian(rig, y))[1], compute_uv=False)[2]
    kappa0 = rc.mv_kappa(rig, y, np.zeros(2 * rig.r)).kappa
    assert abs(kappa0 * sigma3 - 1.0) <= REL_TOL


def _same(got, want, rel=1e-15):
    return got == want or abs(got - want) <= rel * abs(want)


@PROPERTY_SETTINGS
@given(instances(), st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8),
       st.integers(0, 2**16))
def test_stacked_kernel_equals_one_row_calls(instance, t_rel, seed):
    rig, y, eta, _ = instance
    x_norm = float(np.linalg.norm(rc.mv_project(rig, y)))
    unit = rc.random_unit_normal(rig, y, seed)
    E = np.vstack([eta, np.multiply.outer(np.array(t_rel) * x_norm, unit)])
    a, num, _, _, R = _jet(rig, y, 5)
    S_hat = _stacked_hat(rig, num, a**3, 1.0 / a**2, E)
    S = rc.weingarten(S_hat, R)
    rows = mv_condition(R, S)
    for n, e in enumerate(E):
        one_hat, one = rc.mv_weingarten(rig, y, e)[2:]
        assert np.array_equal(S[n], one)
        assert np.array_equal(S_hat[n], one_hat)
        report = rc.mv_kappa(rig, y, e)
        assert bool(rows.ill_posed[n]) == report.ill_posed
        assert _same(rows.kappa[n], report.kappa)
        assert _same(rows.sigma[n, 2], report.components["sigma3"])
        assert _same(rows.bounds_lo[n], report.bounds_lo)
        assert _same(rows.bounds_hi[n], report.bounds_hi)
