import numpy as np
import pytest

import riemcond as rc
from riemcond.linalg import compact_qr


def test_affine_plane_frame_is_identity_blocks():
    plane = rc.affine(basis=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    fr = rc.tangent_frame(plane, [0.7, -1.3])
    np.testing.assert_allclose(fr.Q, [[1, 0], [0, 1], [0, 0]], atol=1e-15)
    np.testing.assert_allclose(fr.R, np.eye(2), atol=1e-15)


def test_parabola_frame_at_vertex():
    fr = rc.tangent_frame(rc.graph2d(1.0), [0.0])
    np.testing.assert_allclose(fr.Q, [[1.0], [0.0]], atol=1e-15)
    np.testing.assert_allclose(fr.R, [[1.0]], atol=1e-15)


def test_sphere_chart_frame_at_origin():
    # Differentiating the chart by hand at u = (0,0): columns e2 and e3.
    fr = rc.tangent_frame(rc.sphere(1.0), [0.0, 0.0])
    np.testing.assert_allclose(fr.Q, [[0, 0], [1, 0], [0, 1]], atol=1e-12)
    np.testing.assert_allclose(fr.R, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(fr.Q.T @ fr.Q, np.eye(2), atol=1e-12)


def test_frame_invariants_on_random_charts():
    rng = np.random.default_rng(0)
    for param in (rc.sphere(2.0), rc.paraboloid(), rc.graph2d(0.7)):
        for _ in range(10):
            u = 0.8 * rng.standard_normal(param.intrinsic_dim)
            fr = rc.tangent_frame(param, u)
            J = param.jacobian(u)
            m = param.intrinsic_dim
            assert np.abs(fr.Q.T @ fr.Q - np.eye(m)).max() <= 1e-12
            assert np.abs(fr.Q @ fr.R - J).max() <= 1e-10
            assert np.all(np.diag(fr.R) > 0)
            # R is the isometry bookkeeping: ||J w|| = ||R w||
            w = rng.standard_normal(m)
            assert abs(np.linalg.norm(J @ w) - np.linalg.norm(fr.R @ w)) <= 1e-10


def test_rank_deficient_immersion_rejected():
    cusp = rc.Parametrization(
        ambient_dim=2, intrinsic_dim=1, point=lambda u: np.array([u[0] ** 2, 0.0])
    )
    with pytest.raises(rc.RankDeficient):
        rc.tangent_frame(cusp, [0.0])


def test_domain_check_rejected():
    with pytest.raises(rc.OutsideDomain):
        rc.tangent_frame(rc.sphere(1.0), [0.0, np.pi / 2])


def test_builtin_sphere_radius_holds():
    rng = np.random.default_rng(3)
    s = rc.sphere(1.0)
    for _ in range(20):
        u = np.array([rng.uniform(-np.pi, np.pi), rng.uniform(-1.2, 1.2)])
        assert abs(np.linalg.norm(s(u)) - 1.0) <= 1e-12


def test_builtin_graph2d_evaluation():
    g = rc.graph2d(1.0)
    np.testing.assert_allclose(g([0.5]), [0.5, 0.25], atol=1e-15)


def test_builtin_affine_flat():
    plane = rc.affine(basis=np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 0.0]]), offset=[1, 2, 3])
    for i in range(2):
        for j in range(2):
            assert np.all(plane.second_derivative([0.3, -0.9], i, j) == 0.0)


def test_builtin_dispatcher():
    s = rc.builtin("sphere", radius=2.0)
    assert s.ambient_dim == 3
    with pytest.raises(rc.InvalidGeometry):
        rc.builtin("torus")
    with pytest.raises(rc.InvalidGeometry):
        rc.builtin("sphere", radius=-1.0)
    with pytest.raises(rc.InvalidGeometry):
        rc.affine(basis=np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]))
    for empty in ([[]], [[], []], np.zeros((0, 0))):
        with pytest.raises(rc.InvalidGeometry, match="m >= 1"):
            rc.affine(basis=empty)


@pytest.mark.parametrize("name, params, entry", [
    ("sphere", {"radius": np.nan}, "sphere radius"),
    ("sphere", {"radius": np.inf}, "sphere radius"),
    ("sphere", {"center": [0.0, np.nan, 0.0]}, "sphere center"),
    ("graph2d", {"coeff": np.inf}, "graph2d coeff"),
    ("graph2d", {"coeff": -np.inf}, "graph2d coeff"),
    ("sphere", {"radius": 10**400}, "sphere radius is too large for a float"),
    ("graph2d", {"coeff": 10**400}, "graph2d coeff is too large for a float"),
    ("affine", {"basis": [[1.0, 0.0], [0.0, np.nan], [0.0, 0.0]]}, "affine basis"),
    ("affine", {"basis": np.eye(3)[:, :2], "offset": [0.0, np.nan, 0.0]}, "affine offset"),
], ids=["radius-nan", "radius-inf", "center", "coeff-inf", "coeff-minus-inf", "radius-huge",
        "coeff-huge", "basis", "offset"])
def test_non_finite_builtin_parameter_raises_non_finite(name, params, entry):
    with pytest.raises(rc.NonFinite, match=entry):
        rc.builtin(name, **params)


_EYE = [1.0, 0.0, 0.0]
_HUGE = 10**400  # an integer no float holds
_Y = [0.1, 0.2, -0.1]  # a world point in the domain of the rig below


@pytest.mark.parametrize("call, error, match", [
    (lambda rig: rc.project_point(rc.sphere(), [2.0], [0.1, 0.2]),
     rc.InvalidGeometry, r"ambient point must have shape \(3,\)"),
    (lambda rig: rc.project_point(rc.graph2d(), [2.0], [0.1]),
     rc.InvalidGeometry, r"ambient point must have shape \(2,\)"),
    (lambda rig: rc.project_point(rc.sphere(), _EYE, [0.1]),
     rc.InvalidGeometry, r"start point must have shape \(2,\)"),
    (lambda rig: rc.project_point(rc.sphere(), _EYE, [[0.1, 0.2]]),
     rc.InvalidGeometry, r"start point must have shape \(2,\)"),
    (lambda rig: rc.tangent_frame(rc.sphere(), [0.1]),
     rc.InvalidGeometry, r"chart point must have shape \(2,\)"),
    (lambda rig: rc.tangent_frame(rc.sphere(), [[0.1, 0.2]]),
     rc.InvalidGeometry, r"chart point must have shape \(2,\)"),
    (lambda rig: rc.weingarten_data(rc.sphere(), [0.1], _EYE),
     rc.InvalidGeometry, r"chart point must have shape \(2,\)"),
    (lambda rig: rc.weingarten_data(rc.sphere(), [[0.1, 0.2]], _EYE),
     rc.InvalidGeometry, r"chart point must have shape \(2,\)"),
    (lambda rig: rc.second_fundamental_contraction(rc.graph2d(), [0.1, 0.2], [0.0, 1.0]),
     rc.InvalidGeometry, r"chart point must have shape \(1,\)"),
    (lambda rig: rc.sphere(center=[1.0, [2.0], 3.0]),
     rc.InvalidGeometry, "sphere center must be 3 numbers"),
    (lambda rig: rc.affine(np.eye(3)[:, :2], offset=[0.0, [1.0], 2.0]),
     rc.InvalidGeometry, "affine offset must be 3 numbers"),
    (lambda rig: rc.triangulate(rig, [1, [2], 3, 4, 5, 6]),
     rc.InvalidGeometry, "correspondence must be 6 numbers"),
    (lambda rig: rc.project_point(rc.sphere(), [_HUGE, 0, 0], [0.1, 0.2]),
     rc.NonFinite, "ambient point holds an integer too large for a float"),
    (lambda rig: rc.tangent_frame(rc.sphere(), [_HUGE, 0]),
     rc.NonFinite, "chart point holds an integer too large for a float"),
    (lambda rig: rc.sphere(center=[_HUGE, 0, 0]),
     rc.NonFinite, "sphere center holds an integer too large for a float"),
    (lambda rig: rc.triangulate(rig, [_HUGE, 0, 0, 0, 0, 0]),
     rc.NonFinite, "correspondence holds an integer too large for a float"),
    (lambda rig: rc.mv_project(rig, [0.1, [0.2], -0.1]),
     rc.InvalidGeometry, "world point must be 3 numbers"),
    (lambda rig: rc.triangulate(rig, rc.mv_project(rig, _Y), warm_start=[1, [2], 3]),
     rc.InvalidGeometry, "world point must be 3 numbers"),
    (lambda rig: rc.mv_project(rig, [_HUGE, 0, 0]),
     rc.NonFinite, "world point holds an integer too large for a float"),
    (lambda rig: rc.mv_kappa(rig, _Y, [1, [2]]),
     rc.InvalidGeometry, "normal vector eta must be 6 numbers"),
    (lambda rig: rc.mv_weingarten(rig, _Y, [1, [2]]),
     rc.InvalidGeometry, "normal vector eta must be 6 numbers"),
    (lambda rig: rc.mv_kappa(rig, _Y, [_HUGE] + [0] * 5),
     rc.NonFinite, "normal vector eta holds an integer too large for a float"),
    (lambda rig: rc.mv_kappa(rig, _Y, [1.0, 2.0]),
     rc.NotNormal, "eta must have length 6"),
    (lambda rig: rc.weingarten(np.eye(2), [1.0, 2.0]),
     rc.InvalidGeometry, r"triangular factor R must be .* square matrix, got shape \(2,\)"),
    (lambda rig: rc.weingarten(np.eye(2), np.ones((2, 2, 2))),
     rc.InvalidGeometry, r"triangular factor R must be .*, got shape \(2, 2, 2\)"),
    (lambda rig: rc.weingarten(np.eye(3), np.eye(2)),
     rc.InvalidGeometry, r"S_hat must be \(2, 2\) or \(N, 2, 2\) to fit R, got shape \(3, 3\)"),
], ids=["project_point-sphere-ambient", "project_point-graph2d-ambient",
        "project_point-short-start", "project_point-2d-start", "tangent_frame-short",
        "tangent_frame-2d", "weingarten_data-short", "weingarten_data-2d",
        "second_fundamental_contraction-long", "sphere-ragged-center", "affine-ragged-offset",
        "triangulate-ragged", "project_point-huge", "tangent_frame-huge", "sphere-huge-center",
        "triangulate-huge", "mv_project-ragged", "triangulate-ragged-start", "mv_project-huge",
        "mv_kappa-ragged-eta", "mv_weingarten-ragged-eta", "mv_kappa-huge-eta",
        "mv_kappa-short-eta", "weingarten-1d-R", "weingarten-3d-R", "weingarten-S_hat-size"])
def test_wrong_shape_ragged_or_huge_vectors_raise_typed_errors(call, error, match):
    """An ambient point, start point or chart point of the wrong shape, a ragged center,
    offset, correspondence, world point or normal, and an entry no float holds raise
    InvalidGeometry or NonFinite, where numpy broadcast the point or raised its own
    IndexError, ValueError or OverflowError; a normal of the wrong length is NotNormal. So
    does a triangular factor R that is not square, or an S_hat of another size than R's."""
    rig = rc.gen_rig(rc.RigSpec(k=3, seed=21))
    with pytest.raises(error, match=match):
        call(rig)


_R2 = [[2.0, 1.0], [0.0, 0.5]]  # a nonsingular triangular factor

# Each public entry that takes an array, with the bad value in that array's place and the
# name its error gives the array.
_ARRAY_INPUTS = {
    "Camera": (lambda rig, v: rc.Camera(v), "camera matrix"),
    "mv_domain_check": (lambda rig, v: rc.mv_domain_check(rig, v), "world point"),
    "lm_minimize": (lambda rig, v: rc.lm_minimize(lambda u: (u, lambda: np.eye(2)), v),
                    "start point"),
    "experiment_validate": (lambda rig, v: rc.experiment_validate(rig, v, np.zeros(6), [0.1]),
                            "world point"),
    "detect_dips": (lambda rig, v: rc.detect_dips(v), "sigma_3 profile"),
    "weingarten_data": (lambda rig, v: rc.weingarten_data(rc.sphere(), [0.1, 0.2], v),
                        "normal vector eta"),
    "second_fundamental_contraction": (
        lambda rig, v: rc.second_fundamental_contraction(rc.sphere(), [0.1, 0.2], v),
        "normal vector eta"),
    "critical_radii": (lambda rig, v: rc.critical_radii(v), "curvatures"),
    "ProblemDerivative-A": (lambda rig, v: rc.ProblemDerivative(v), "problem derivative A"),
    "ProblemDerivative-metric": (lambda rig, v: rc.ProblemDerivative(np.eye(2), v),
                                 "output metric"),
    "kappa_cpp": (lambda rig, v: rc.kappa_cpp(v), "distance Hessian H"),
    "kappa_gcpp": (lambda rig, v: rc.kappa_gcpp(rc.ProblemDerivative(np.eye(2)), v),
                   "distance Hessian H"),
    "kappa_bounds-c": (lambda rig, v: rc.kappa_bounds(1.0, v, 0.5), "curvatures"),
    "kappa_bounds-eta_norm": (lambda rig, v: rc.kappa_bounds(1.0, [1.0, 2.0], v),
                              "normal length"),
    "kappa_cpp_curvatures": (lambda rig, v: rc.kappa_cpp_curvatures(v, 0.5), "curvatures"),
    "ill_posedness_certificate": (lambda rig, v: rc.ill_posedness_certificate(v), "curvatures"),
    "weingarten-S_hat": (lambda rig, v: rc.weingarten(v, _R2), "S_hat"),
    "weingarten-R": (lambda rig, v: rc.weingarten(np.eye(2), v), "triangular factor R"),
    "affine": (lambda rig, v: rc.affine(v), "affine basis"),
}


@pytest.mark.parametrize("entry", sorted(_ARRAY_INPUTS))
@pytest.mark.parametrize("value, error, says", [
    ([1.0, [2.0, 3.0]], rc.InvalidGeometry, "must be"),
    ([_HUGE, 0.0], rc.NonFinite, "holds an integer too large for a float"),
], ids=["ragged", "huge"])
def test_every_public_array_is_converted_by_one_rule(entry, value, error, says):
    """errors._floats converts each of these arrays: a ragged value raises InvalidGeometry
    naming the input and an integer no float holds NonFinite, where numpy raised its own
    ValueError or OverflowError."""
    call, what = _ARRAY_INPUTS[entry]
    rig = rc.gen_rig(rc.RigSpec(k=3, seed=21))
    with pytest.raises(error, match=f"^{what} {says}"):
        call(rig, value)


def test_analytic_jacobians_match_finite_differences():
    rng = np.random.default_rng(4)
    cases = [rc.sphere(1.0), rc.sphere(3.0, center=[1, -2, 0.5]), rc.graph2d(1.0),
             rc.graph2d(-2.5), rc.paraboloid(),
             rc.affine(basis=rng.standard_normal((5, 2)))]
    for param in cases:
        for _ in range(10):
            u = 0.7 * rng.standard_normal(param.intrinsic_dim)
            if not param.in_domain(u):
                continue
            Ja = param.jacobian(u)
            Jf = param.jacobian_fd(u)
            denom = max(np.linalg.norm(Ja), 1e-30)
            assert np.linalg.norm(Ja - Jf) / denom <= 1e-6


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_compact_qr_rejects_non_finite(entry):
    J = np.arange(6.0).reshape(3, 2)
    J[2, 1] = entry
    with pytest.raises(rc.NonFinite, match=r"(?s)matrix to factor by QR .* \(entries \[5\]\)"):
        compact_qr(J)


def test_compact_qr_frame_is_fortran_ordered():
    J = np.random.default_rng(3).normal(size=(8, 3))
    Q, R = compact_qr(J)
    assert Q.flags.f_contiguous and (np.diag(R) > 0).all()
    np.testing.assert_allclose(Q @ R, J, atol=1e-14)


def test_codim1_unit_normal():
    fr = rc.tangent_frame(rc.graph2d(1.0), [0.0])
    np.testing.assert_allclose(rc.codim1_unit_normal(fr), [0.0, 1.0], atol=1e-14)
    fr_s = rc.tangent_frame(rc.sphere(1.0), [0.0, 0.0])
    np.testing.assert_allclose(rc.codim1_unit_normal(fr_s), [1.0, 0.0, 0.0], atol=1e-12)
    # not defined for codimension > 1
    line = rc.affine(basis=np.array([[1.0], [0.0], [0.0]]))
    with pytest.raises(rc.InvalidGeometry):
        rc.codim1_unit_normal(rc.tangent_frame(line, [0.0]))
