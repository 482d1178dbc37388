import numpy as np
import pytest

import riemcond as rc
from weingarten_oracle import weingarten_via_projector


def _sphere_instance(radius=1.0, u=(0.3, -0.2)):
    s = rc.sphere(radius)
    u = np.asarray(u, dtype=float)
    x = s(u)
    outward = x / np.linalg.norm(x)
    return s, u, x, outward


def test_affine_contraction_is_zero():
    plane = rc.affine(basis=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    S_hat = rc.second_fundamental_contraction(plane, [0.2, -0.5], [0.0, 0.0, 3.0])
    assert np.all(S_hat == 0.0)


def test_parabola_contraction_matches_osculating_circle():
    # d^2 phi/du^2 = (0, 2); the critical radius 1/2 is the focal distance.
    S_hat = rc.second_fundamental_contraction(rc.graph2d(1.0), [0.0], [0.0, 1.0])
    np.testing.assert_allclose(S_hat, [[2.0]], atol=1e-14)
    wd = rc.weingarten_data(rc.graph2d(1.0), [0.0], [0.0, 1.0])
    np.testing.assert_allclose(rc.critical_radii(wd.curvatures), [0.5], atol=1e-12)


def test_sphere_contraction_outward_is_minus_identity():
    s = rc.sphere(1.0)
    eta = np.array([1.0, 0.0, 0.0])  # outward unit normal at chart origin
    S_hat = rc.second_fundamental_contraction(s, [0.0, 0.0], eta)
    np.testing.assert_allclose(S_hat, -np.eye(2), atol=1e-12)
    # FD route agrees with the analytic one
    s_fd = rc.Parametrization(
        ambient_dim=3, intrinsic_dim=2, point=s.point, jac=s.jac,
        domain_check=s.domain_check,
    )
    S_hat_fd = rc.second_fundamental_contraction(s_fd, [0.0, 0.0], eta)
    assert np.abs(S_hat - S_hat_fd).max() <= 1e-7


def test_not_normal_rejected():
    with pytest.raises(rc.NotNormal):
        rc.second_fundamental_contraction(rc.graph2d(1.0), [0.0], [1.0, 1.0])


def test_weingarten_change_of_basis():
    S_hat = np.array([[2.0, 1.0], [1.0, -1.0]])
    np.testing.assert_allclose(rc.weingarten(S_hat, np.eye(2)), S_hat, atol=1e-15)
    np.testing.assert_allclose(rc.weingarten(np.zeros((2, 2)), np.array([[2.0, 1.0], [0.0, 3.0]])), 0.0, atol=1e-15)
    R = np.array([[2.0, 1.0], [0.0, 0.5]])
    Rinv = np.linalg.inv(R)
    np.testing.assert_allclose(rc.weingarten(S_hat, R), Rinv.T @ S_hat @ Rinv, atol=1e-12)
    with pytest.raises(rc.SingularR):
        rc.weingarten(S_hat, np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_parabola_weingarten_scales_with_offset():
    for t in (0.1, 0.25, -0.4):
        wd = rc.weingarten_data(rc.graph2d(1.0), [0.0], [0.0, t])
        np.testing.assert_allclose(wd.S, [[2.0 * t]], atol=1e-13)


def test_hessian_examples():
    wd0 = rc.weingarten_data(rc.graph2d(1.0), [0.0], [0.0, 0.0])
    np.testing.assert_allclose(wd0.H, np.eye(1), atol=1e-15)
    wd = rc.weingarten_data(rc.graph2d(1.0), [0.0], [0.0, 0.25])
    np.testing.assert_allclose(wd.H, [[0.5]], atol=1e-13)
    wd_focal = rc.weingarten_data(rc.graph2d(1.0), [0.0], [0.0, 0.5])
    np.testing.assert_allclose(wd_focal.H, [[0.0]], atol=1e-13)


def test_principal_curvatures_sphere_and_flat():
    s, u, x, outward = _sphere_instance()
    wd_out = rc.weingarten_data(s, u, outward)
    np.testing.assert_allclose(rc.principal_curvatures(wd_out), [-1.0, -1.0], atol=1e-10)
    wd_in = rc.weingarten_data(s, u, -outward)
    np.testing.assert_allclose(rc.principal_curvatures(wd_in), [1.0, 1.0], atol=1e-10)
    plane = rc.affine(basis=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    wd_flat = rc.weingarten_data(plane, [0.1, 0.2], [0.0, 0.0, 2.0])
    np.testing.assert_allclose(rc.principal_curvatures(wd_flat), [0.0, 0.0], atol=1e-15)


def test_zero_normal_refused():
    wd = rc.weingarten_data(rc.sphere(1.0), [0.1, 0.2], np.zeros(3))
    assert wd.eta_norm == 0.0
    assert np.all(wd.S == 0.0)
    assert np.all(wd.H == np.eye(2))
    assert wd.curvatures.size == 0
    with pytest.raises(rc.ZeroNormal):
        rc.principal_curvatures(wd)


def test_critical_radii_values():
    np.testing.assert_allclose(rc.critical_radii([2.0]), [0.5])
    assert rc.critical_radii([0.0])[0] == np.inf
    np.testing.assert_allclose(rc.critical_radii([-1.0, -1.0]), [1.0, 1.0])


def test_weingarten_linearity_in_eta():
    rng = np.random.default_rng(5)
    param = rc.paraboloid()
    u = np.array([0.3, -0.4])
    fr = rc.tangent_frame(param, u)
    for _ in range(25):
        eta = rc.project_normal(fr, rng.standard_normal(3))
        alpha = rng.uniform(-5, 5)
        S1 = rc.weingarten_data(param, u, eta).S
        S2 = rc.weingarten_data(param, u, alpha * eta).S
        assert np.linalg.norm(S2 - alpha * S1) <= 1e-8 * (1 + abs(alpha)) * max(
            np.linalg.norm(S1), 1e-300
        )


def test_analytic_vs_fd_oracle_on_builtins():
    rng = np.random.default_rng(6)
    for param in (rc.sphere(1.0), rc.sphere(2.0, center=[0.5, 0, -1]),
                  rc.graph2d(1.0), rc.paraboloid()):
        stripped = rc.Parametrization(
            ambient_dim=param.ambient_dim, intrinsic_dim=param.intrinsic_dim,
            point=param.point, jac=param.jac, domain_check=param.domain_check,
        )
        for _ in range(5):
            u = 0.5 * rng.standard_normal(param.intrinsic_dim)
            fr = rc.tangent_frame(param, u)
            eta = rc.project_normal(fr, rng.standard_normal(param.ambient_dim))
            S_a = rc.weingarten_data(param, u, eta).S
            S_f = rc.weingarten_data(stripped, u, eta).S
            assert np.linalg.norm(S_a - S_f) / max(1.0, np.linalg.norm(S_a)) <= 1e-5


def test_hessian_eigenvalues_match_curvature_products():
    rng = np.random.default_rng(7)
    param = rc.paraboloid()
    for _ in range(10):
        u = 0.5 * rng.standard_normal(2)
        fr = rc.tangent_frame(param, u)
        eta = rc.project_normal(fr, rng.standard_normal(3))
        wd = rc.weingarten_data(param, u, eta)
        h_eigs = np.sort(np.linalg.eigvalsh(wd.H))
        expected = np.sort(1.0 - wd.curvatures * wd.eta_norm)
        np.testing.assert_allclose(h_eigs, expected, atol=1e-9)


def test_asymmetric_hess_dirs_warns():
    good = rc.paraboloid()
    bad = rc.Parametrization(
        ambient_dim=3, intrinsic_dim=2, point=good.point, jac=good.jac,
        hess_dirs=lambda u, i, j: np.array([0.0, 0.0, 2.0]) if (i, j) == (0, 1) else np.zeros(3),
    )
    with pytest.warns(UserWarning, match="asymmetric"):
        rc.second_fundamental_contraction(bad, [0.0, 0.0], [0.0, 0.0, 1.0])


def test_projector_route_matches_contraction_route():
    rng = np.random.default_rng(8)
    for param in (rc.sphere(1.0), rc.paraboloid()):
        u = 0.4 * rng.standard_normal(2)
        fr = rc.tangent_frame(param, u)
        eta = rc.project_normal(fr, rng.standard_normal(3))
        S_contraction = rc.weingarten_data(param, u, eta).S
        S_projector = weingarten_via_projector(param, u, eta)
        assert np.linalg.norm(S_contraction - S_projector) <= 1e-6 * max(
            1.0, np.linalg.norm(S_contraction)
        )


@pytest.mark.parametrize("param, u, eta", [
    (rc.graph2d(1.0), [0.0], [0.0, np.nan]),
    (rc.sphere(1.0), [0.3, -0.2], [np.inf, 0.0, 0.0]),
])
def test_non_finite_eta_raises_non_finite(param, u, eta):
    for route in (rc.weingarten_data, rc.second_fundamental_contraction):
        with pytest.raises(rc.NonFinite, match="normal vector eta"):
            route(param, np.array(u), np.array(eta))
