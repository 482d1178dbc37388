import warnings

import numpy as np
import pytest

import riemcond as rc
from riemcond.condition import spectral_norm_metric
from riemcond.linalg import metric_cholesky


def test_spectral_norm_metric_examples():
    sigma, v = spectral_norm_metric(np.eye(3))
    assert abs(sigma - 1.0) <= 1e-14
    sigma, v = spectral_norm_metric(np.array([[3.0]]), G=np.array([[4.0]]))
    assert abs(sigma - 6.0) <= 1e-12  # ||M||_G = sqrt(M^T G M)
    sigma, v = spectral_norm_metric(np.diag([5.0, 2.0]))
    assert abs(sigma - 5.0) <= 1e-14
    np.testing.assert_allclose(np.abs(v), [1.0, 0.0], atol=1e-14)


def test_spectral_norm_metric_rejects_bad_metric():
    with pytest.raises(rc.NotSPD):
        spectral_norm_metric(np.eye(2), G=np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(rc.NotSPD):
        spectral_norm_metric(np.eye(2), G=np.array([[1.0, 0.5], [0.0, 1.0]]))


@pytest.mark.parametrize("M, G, what", [
    (np.array([[1.0, np.inf], [0.0, 1.0]]), None, r"(?s)matrix M .* \(entries \[1\]\)"),
    (np.array([[np.nan, 0.0]]), None, r"(?s)matrix M .* \(entries \[0\]\)"),
    (np.array([[1e308]]), np.array([[4.0]]), "matrix M in the output metric"),
], ids=["inf", "nan", "metric-overflow"])
def test_spectral_norm_metric_rejects_non_finite(M, G, what):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rc.NonFinite, match=what):
            spectral_norm_metric(M, G)


def test_kappa_cpp_identity_and_parabola():
    rep = rc.kappa_cpp(np.eye(3))
    assert rep.kappa == pytest.approx(1.0, rel=1e-14)
    assert not rep.ill_posed
    rep2 = rc.kappa_cpp(np.array([[0.5]]))
    assert rep2.kappa == pytest.approx(2.0, rel=1e-12)


def test_kappa_cpp_sphere_with_brute_force_oracle():
    # a = 2x on the unit sphere: H = 2 I so kappa = 0.5; the oracle perturbs a
    # tangentially and reprojects with the closed-form a/||a||.
    s = rc.sphere(1.0)
    u0 = np.array([0.3, -0.2])
    x = s(u0)
    a = 2.0 * x
    wd = rc.weingarten_data(s, u0, a - x)
    rep = rc.kappa_cpp(wd.H)
    assert rep.kappa == pytest.approx(0.5, rel=1e-12)
    fr = rc.tangent_frame(s, u0)
    rng = np.random.default_rng(0)
    eps = 1e-7
    est = 0.0
    for _ in range(25):
        w = rng.standard_normal(2)
        w /= np.linalg.norm(w)
        a_pert = a + eps * (fr.Q @ w)
        x_new = a_pert / np.linalg.norm(a_pert)
        est = max(est, np.linalg.norm(x_new - x) / eps)
    assert est == pytest.approx(0.5, abs=1e-6)


def test_kappa_cpp_ill_posed_cases():
    rep = rc.kappa_cpp(np.zeros((2, 2)))
    assert rep.ill_posed and rep.kappa == np.inf
    assert rep.worst_input_direction is None
    assert rc.kappa_cpp_curvatures([1.0, 1.0], 1.0) == np.inf


def test_kappa_bounds_propagate_nan():
    assert all(np.isnan(rc.kappa_bounds(1.0, [np.nan], 1.0)))


@pytest.mark.parametrize("call, match", [
    (lambda: rc.kappa_cpp([[1.0, 5.0], [0.0, 1.0]]), "^distance Hessian H is not symmetric"),
    (lambda: rc.kappa_cpp([1.0, 2.0]), r"square matrix, got shape \(1, 2\)"),
    (lambda: rc.kappa_cpp(np.ones((2, 2, 2))), r"square matrix, got shape \(2, 2, 2\)"),
    (lambda: rc.kappa_cpp(np.zeros((0, 0))), r"non-empty square matrix, got shape \(0, 0\)"),
    (lambda: rc.kappa_gcpp(rc.ProblemDerivative(np.eye(3)), [[1.0, 5.0], [0.0, 1.0]]),
     "^distance Hessian H is not symmetric"),
    (lambda: rc.kappa_gcpp(rc.ProblemDerivative(np.eye(2, 3)), np.eye(2)),
     r"^problem derivative A \(2, 3\) does not fit H \(2, 2\)"),
], ids=["asymmetric", "vector", "3-d", "empty", "gcpp-asymmetric", "gcpp-columns"])
def test_a_hessian_that_is_not_square_symmetric_is_invalid_geometry(call, match):
    """H is a square symmetric matrix by metric_cholesky's SYM_TOL rule, and A has its column
    count: eigh read one triangle of [[1, 5], [0, 1]] and said kappa = 1 (||H^-1|| is about
    5.19); the others raised numpy's LinAlgError, TypeError or ValueError."""
    with pytest.raises(rc.InvalidGeometry, match=match):
        call()


def test_the_symmetry_rule_is_shared_and_forgives_rounding():
    """One rule for the metric (NotSPD) and the Hessian (InvalidGeometry); an asymmetry of
    SYM_TOL passes, the next step past it does not, and a V diag V^T Hessian passes."""
    from riemcond.linalg import SYM_TOL

    for eps, ok in ((SYM_TOL, True), (2.0 * SYM_TOL, False)):
        H = np.array([[1.0, eps], [0.0, 1.0]])  # scale max(1, max |H|) = 1
        if ok:
            assert rc.kappa_cpp(H).kappa == pytest.approx(1.0)
            metric_cholesky(H)
        else:
            with pytest.raises(rc.InvalidGeometry, match="not symmetric"):
                rc.kappa_cpp(H)
            with pytest.raises(rc.NotSPD, match="^metric is not symmetric"):
                metric_cholesky(H)
    U = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))[0]
    H = U @ np.diag([0.5, -1.5, 2.0]) @ U.T
    assert H.tobytes() != H.T.tobytes()  # asymmetric in the last bits
    assert rc.kappa_cpp(H).kappa == pytest.approx(2.0, rel=1e-12)


def test_kappa_cpp_curvatures_examples():
    assert rc.kappa_cpp_curvatures([2.0], 0.25) == pytest.approx(2.0, rel=1e-14)
    t = 0.7
    val = rc.kappa_cpp_curvatures([-1.0, -1.0], t)
    assert val == pytest.approx(1.0 / (1.0 + t), rel=1e-14)
    assert val < 1.0  # curvature shrinks the perturbation on the far side
    assert rc.kappa_cpp_curvatures([], 0.0) == 1.0


def test_two_path_equality_500_random():
    rng = np.random.default_rng(10)
    for _ in range(500):
        m = rng.integers(1, 7)
        c = rng.standard_normal(m) * rng.uniform(0.1, 3.0)
        t = abs(rng.standard_normal()) * rng.uniform(0.0, 2.0)
        V = np.linalg.qr(rng.standard_normal((m, m)))[0]
        H = np.eye(m) - V @ np.diag(c * t) @ V.T
        k_sigma = rc.kappa_cpp(H).kappa
        k_curv = rc.kappa_cpp_curvatures(c, t)
        if np.isinf(k_sigma) or np.isinf(k_curv):
            assert np.isinf(k_sigma) == np.isinf(k_curv)
        else:
            assert abs(k_sigma - k_curv) <= 1e-10 * k_curv


def test_kappa_gcpp_reductions():
    H = np.diag([0.5, 2.0])
    pd_id = rc.ProblemDerivative(A=np.eye(2))
    assert rc.kappa_gcpp(pd_id, H).kappa == pytest.approx(rc.kappa_cpp(H).kappa, rel=1e-12)
    A = np.array([[3.0, 1.0], [0.0, 2.0], [1.0, -1.0]])
    rep = rc.kappa_gcpp(rc.ProblemDerivative(A=A), np.eye(2))
    assert rep.kappa == pytest.approx(np.linalg.svd(A)[1][0], rel=1e-12)
    rep_inf = rc.kappa_gcpp(rc.ProblemDerivative(A=A), np.diag([1.0, 0.0]))
    assert rep_inf.ill_posed and rep_inf.kappa == np.inf


def test_kappa_gcpp_in_an_output_metric_is_kappa_of_the_cholesky_scaled_derivative():
    """||A H^{-1}||_G with G = C^T C is the plain norm of C A H^{-1}: kappa and the worst
    direction match the identity-metric problem with derivative C A."""
    rng = np.random.default_rng(41)
    for _ in range(20):
        A = rng.standard_normal((4, 3))
        B = rng.standard_normal((4, 4))
        G = B.T @ B + 0.5 * np.eye(4)
        C = metric_cholesky(G)
        U = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        H = U @ np.diag(rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3)) @ U.T
        rep_g = rc.kappa_gcpp(rc.ProblemDerivative(A, G), H)
        rep_c = rc.kappa_gcpp(rc.ProblemDerivative(C @ A), H)
        assert rep_g.kappa == pytest.approx(rep_c.kappa, rel=1e-12)
        v_g, v_c = rep_g.worst_input_direction, rep_c.worst_input_direction
        assert min(np.linalg.norm(v_g - v_c), np.linalg.norm(v_g + v_c)) <= 1e-8


def test_problem_derivative_validates_metric():
    with pytest.raises(rc.NotSPD):
        rc.ProblemDerivative(A=np.eye(2), output_metric=-np.eye(2))


def test_kappa_bounds_examples():
    assert rc.kappa_bounds(3.0, [], 0.0) == (3.0, 3.0)
    lo, hi = rc.kappa_bounds(3.0, [2.0], 0.25)
    assert lo == pytest.approx(6.0, rel=1e-14) and hi == pytest.approx(6.0, rel=1e-14)
    lo, hi = rc.kappa_bounds(1.0, [-1.0, 3.0], 0.1)
    assert lo == pytest.approx(1.0 / 1.1, rel=1e-14)
    assert hi == pytest.approx(1.0 / 0.7, rel=1e-14)


def test_sandwich_bounds_1000_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        p = int(rng.integers(1, 5))
        A = rng.standard_normal((p, m))
        V = np.linalg.qr(rng.standard_normal((m, m)))[0]
        c = rng.standard_normal(m)
        t = abs(rng.standard_normal())
        S = V @ np.diag(c * t) @ V.T
        H = np.eye(m) - S
        rep = rc.kappa_gcpp(rc.ProblemDerivative(A=A), H)
        kappa_S = np.linalg.svd(A)[1][0]
        lo, hi = rc.kappa_bounds(kappa_S, c, t)
        if np.isfinite(rep.kappa) and np.isfinite(hi):
            assert lo <= rep.kappa * (1 + 1e-12)
            assert rep.kappa <= hi * (1 + 1e-12)


def test_sandwich_equality_when_isotropic():
    rng = np.random.default_rng(12)
    for _ in range(50):
        m, p = 3, 4
        A = rng.standard_normal((p, m))
        c0 = rng.uniform(-2, 2)
        t = rng.uniform(0, 0.4)
        if abs(1 - c0 * t) < 1e-3:
            continue
        H = (1 - c0 * t) * np.eye(m)
        rep = rc.kappa_gcpp(rc.ProblemDerivative(A=A), H)
        kappa_S = np.linalg.svd(A)[1][0]
        lo, hi = rc.kappa_bounds(kappa_S, c0 * np.ones(m), t)
        assert abs(lo - hi) <= 1e-10 * hi
        assert abs(rep.kappa - hi) <= 1e-10 * hi


def test_ill_posedness_certificate():
    np.testing.assert_allclose(rc.ill_posedness_certificate([2.0]), [0.5])
    assert rc.ill_posedness_certificate([0.0, 0.0]).size == 0
    np.testing.assert_allclose(rc.ill_posedness_certificate([-1.0, -1.0]), [-1.0])


def test_inverse_distance_identity():
    # 1/kappa equals the normalized gap to the nearest singular offset:
    # |1 - c_i t| = |1/c_i - t| / |1/c_i| is an algebraic identity.
    rng = np.random.default_rng(13)
    for _ in range(200):
        m = int(rng.integers(1, 6))
        c = rng.standard_normal(m)
        c = c[c != 0.0]
        if c.size == 0:
            continue
        t = abs(rng.standard_normal())
        offsets = rc.ill_posedness_certificate(c)
        if np.min(np.abs(offsets - t)) < 1e-12:
            continue
        gap = np.min(np.abs(offsets - t) / np.abs(offsets))
        kappa = rc.kappa_cpp_curvatures(c, t)
        assert abs(1.0 / kappa - gap) <= 1e-9


def _first_order_check(param, u0, a):
    x = param(u0)
    wd = rc.weingarten_data(param, u0, a - x)
    rep = rc.kappa_cpp(wd.H)
    fr = rc.tangent_frame(param, u0)
    eps = 1e-6 * np.linalg.norm(a)
    a_pert = a + eps * (fr.Q @ rep.worst_input_direction)
    res = rc.project_point(param, a_pert, u0)
    moved = np.linalg.norm(param(res.u_star) - x)
    return abs(moved / eps - rep.kappa) / rep.kappa


def test_first_order_operational_meaning():
    # Perturbing by eps in the worst direction moves the output by kappa*eps
    # to within 0.5%, on parabola and sphere instances.
    rel_parabola = _first_order_check(rc.graph2d(1.0), np.array([0.0]), np.array([0.0, 0.25]))
    assert rel_parabola <= 5e-3
    s = rc.sphere(1.0)
    u0 = np.array([0.3, -0.2])
    rel_sphere = _first_order_check(s, u0, 1.3 * s(u0))
    assert rel_sphere <= 5e-3


def test_kappa_invariant_under_orthonormal_recoordinatization():
    rng = np.random.default_rng(14)
    for _ in range(25):
        m, p = 3, 4
        A = rng.standard_normal((p, m))
        S = rng.standard_normal((m, m))
        S = 0.3 * (S + S.T)
        H = np.eye(m) - S
        base = rc.kappa_gcpp(rc.ProblemDerivative(A=A), H).kappa
        V = np.linalg.qr(rng.standard_normal((m, m)))[0]
        U = np.linalg.qr(rng.standard_normal((p, p)))[0]
        changed = rc.kappa_gcpp(
            rc.ProblemDerivative(A=U @ A @ V.T), V @ H @ V.T
        ).kappa
        assert abs(changed - base) <= 1e-10 * base


def test_dual_route_report_and_diagnostic():
    wd = rc.weingarten_data(rc.graph2d(1.0), [0.0], [0.0, 0.25])
    rep = rc.kappa_cpp_from_weingarten(wd)
    assert rep.kappa == pytest.approx(2.0, rel=1e-12)
    assert rep.components["kappa_curvatures"] == pytest.approx(2.0, rel=1e-12)
    assert rep.bounds_lo <= rep.kappa <= rep.bounds_hi * (1 + 1e-15)
    # fabricated mismatch between the two routes warns but does not raise
    bad = rc.WeingartenData(
        S_hat=np.array([[0.5]]), S=np.array([[0.5]]), H=np.array([[0.5]]),
        curvatures=np.array([0.9]), eta_norm=1.0,
    )
    with pytest.warns(UserWarning, match="disagree"):
        rc.kappa_cpp_from_weingarten(bad)


@pytest.mark.parametrize("make", [
    lambda: rc.kappa_cpp(np.array([[np.nan]])),
    lambda: rc.kappa_cpp(np.diag([1.0, np.inf])),
    lambda: rc.kappa_gcpp(rc.ProblemDerivative(A=np.eye(2)), np.diag([np.nan, 1.0])),
    lambda: rc.ProblemDerivative(A=[[np.inf]]),
    lambda: rc.ProblemDerivative(A=np.eye(2), output_metric=np.diag([1.0, np.nan])),
], ids=["kappa_cpp-nan", "kappa_cpp-inf", "kappa_gcpp-H", "derivative-A", "derivative-metric"])
def test_non_finite_matrix_raises_non_finite(make):
    with pytest.raises(rc.NonFinite, match="is not finite"):
        make()
