import numpy as np
import pytest

import riemcond as rc


def test_linear_least_squares_in_two_steps():
    rng = np.random.default_rng(3)
    M = 100.0 * rng.standard_normal((7, 3))
    z = rng.standard_normal(7)
    expected, *_ = np.linalg.lstsq(M, z, rcond=None)
    res = rc.lm_minimize(lambda u: M @ u - z, lambda u: M, np.zeros(3))
    assert res.status is rc.Status.Converged
    assert res.iterations <= 2
    assert np.linalg.norm(res.u_star - expected) <= 1e-10


def test_zero_residual_returns_immediately():
    u0 = np.array([1.0, -2.0])
    res = rc.lm_minimize(lambda u: u - u0, lambda u: np.eye(2), u0)
    assert res.status is rc.Status.Converged
    assert res.iterations == 0
    assert res.residual_norm == 0.0


def test_parabola_residual_converges_to_vertex():
    p = rc.graph2d(1.0)
    target = np.array([0.0, 0.25])
    res = rc.lm_minimize(lambda u: p(u) - target, p.jacobian, np.array([0.3]))
    assert abs(res.u_star[0]) <= 1e-6


def test_descent_is_strictly_monotone():
    p = rc.paraboloid()
    target = np.array([0.3, -0.2, 0.9])
    history = []
    rc.lm_minimize(
        lambda u: p(u) - target, p.jacobian, np.array([1.0, 1.0]),
        callback=lambda u, rn: history.append(rn),
    )
    assert len(history) >= 2
    assert all(b < a for a, b in zip(history, history[1:]))


def test_domain_escape_after_retries():
    with pytest.raises(rc.DomainEscape):
        rc.lm_minimize(
            lambda u: u - 10.0,
            lambda u: np.eye(1),
            np.array([0.0]),
            domain_check=lambda u: abs(u[0]) < 1e-12,
        )


def test_max_iters_status():
    p = rc.sphere(1.0)
    res = rc.project_point(p, 2.0 * p([0.3, -0.2]), np.array([0.35, -0.25]),
                           opts=rc.SolverOptions(max_iters=1))
    assert res.status is rc.Status.MaxIters
    assert res.iterations == 1


def test_solver_options_validation():
    with pytest.raises(rc.InvalidGeometry):
        rc.SolverOptions(max_iters=0)
    with pytest.raises(rc.InvalidGeometry):
        rc.SolverOptions(grad_tol=-1.0)


def test_project_point_on_manifold_input():
    p = rc.paraboloid()
    u_true = np.array([0.2, -0.3])
    a = p(u_true)
    res = rc.project_point(p, a, u_true + np.array([0.1, -0.05]))
    assert np.linalg.norm(p(res.u_star) - a) <= 1e-10


def test_project_point_sphere_along_ray():
    s = rc.sphere(1.0)
    u0 = np.array([0.3, -0.2])
    x = s(u0)
    res = rc.project_point(s, 3.0 * x, u0 + np.array([0.05, -0.08]))
    assert np.linalg.norm(s(res.u_star) - x) <= 1e-7


def test_project_point_parabola_below_focal():
    p = rc.graph2d(1.0)
    res = rc.project_point(p, np.array([0.0, 0.4]), np.array([0.0]))
    assert res.status is rc.Status.Converged
    assert abs(res.u_star[0]) <= 1e-10


def test_cpp_certificate_at_converged_exits():
    p = rc.paraboloid()
    rng = np.random.default_rng(30)
    for _ in range(10):
        u_true = rng.uniform(-0.5, 0.5, size=2)
        a = p(u_true) + 0.05 * rng.standard_normal(3)
        res = rc.project_point(p, a, u_true)
        if res.status is rc.Status.Converged:
            cert = rc.cpp_certificate(p, res.u_star, a)
            assert cert <= 1e-8 * (1.0 + np.linalg.norm(a))


def test_triangulate_exact_correspondence():
    rig = rc.gen_rig(rc.RigSpec(k=5, seed=40))
    y = np.array([0.2, -0.15, 0.3])
    x = rc.mv_project(rig, y)
    res = rc.triangulate(rig, x)
    assert np.linalg.norm(res.u_star - y) <= 1e-9 * (1.0 + np.linalg.norm(y))
    assert res.residual_norm <= 1e-9


def test_triangulate_normal_offset_returns_same_point():
    # a = x + t eta has critical point exactly x, so the solver returns y.
    rig = rc.gen_rig(rc.RigSpec(k=5, seed=41))
    y = np.array([0.1, 0.2, -0.25])
    x = rc.mv_project(rig, y)
    eta = rc.random_unit_normal(rig, y, 7)
    a = x + 1e-3 * np.linalg.norm(x) * eta
    res = rc.triangulate(rig, a)
    assert np.linalg.norm(res.u_star - y) <= 1e-8 * (1.0 + np.linalg.norm(y))
    cert = rc.mv_certificate(rig, res.u_star, a)
    assert cert <= 1e-8 * (1.0 + np.linalg.norm(a))


def test_triangulate_worst_direction_displacement_matches_kappa():
    rig = rc.gen_rig(rc.RigSpec(k=10, seed=0))
    y = np.array([0.35, -0.2, 0.4])
    x = rc.mv_project(rig, y)
    eta = rc.random_unit_normal(rig, y, 0)
    t = 0.5 * np.linalg.norm(x)  # well inside the first singular offset
    a = x + t * eta
    Q, R, _, S = rc.mv_weingarten(rig, y, t * eta)
    rep = rc.mv_kappa(rig, y, t * eta)
    eps = 1e-6 * np.linalg.norm(a)
    a_pert = a + eps * (Q @ rep.worst_input_direction)
    res = rc.triangulate(rig, a_pert, warm_start=y)
    moved = np.linalg.norm(res.u_star - y)
    assert abs(moved / eps - rep.kappa) / rep.kappa <= 5e-3
