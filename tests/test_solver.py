import functools
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from lm_oracle import lm_rows_one_trial

import riemcond as rc
import riemcond.solver as solver


def _evaluator(residual, jacobian):
    """lm_minimize's evaluate from a residual and a Jacobian defined everywhere."""
    return lambda u: (residual(u), lambda: jacobian(u))


def test_linear_least_squares_in_two_steps():
    rng = np.random.default_rng(3)
    M = 100.0 * rng.standard_normal((7, 3))
    z = rng.standard_normal(7)
    expected, *_ = np.linalg.lstsq(M, z, rcond=None)
    res = rc.lm_minimize(_evaluator(lambda u: M @ u - z, lambda u: M), np.zeros(3))
    assert res.status is rc.Status.Converged
    assert res.iterations <= 2
    assert np.linalg.norm(res.u_star - expected) <= 1e-10


def test_zero_residual_returns_immediately():
    u0 = np.array([1.0, -2.0])
    res = rc.lm_minimize(_evaluator(lambda u: u - u0, lambda u: np.eye(2)), u0)
    assert res.status is rc.Status.Converged
    assert res.iterations == 0
    assert res.residual_norm == 0.0


def test_parabola_residual_converges_to_vertex():
    p = rc.graph2d(1.0)
    target = np.array([0.0, 0.25])
    res = rc.lm_minimize(_evaluator(lambda u: p(u) - target, p.jacobian), np.array([0.3]))
    assert abs(res.u_star[0]) <= 1e-6


def test_descent_is_strictly_monotone():
    p = rc.paraboloid()
    target = np.array([0.3, -0.2, 0.9])
    u0 = np.array([1.0, 1.0])

    def solve(max_iters):
        return rc.lm_minimize(_evaluator(lambda u: p(u) - target, p.jacobian), u0,
                              opts=rc.SolverOptions(max_iters=max_iters))

    n = solve(200).iterations
    assert n >= 2
    history = [np.linalg.norm(p(u0) - target)]
    for k in range(1, n + 1):
        res = solve(k)
        assert res.iterations == k  # the first k accepted steps of the full solve
        history.append(res.residual_norm)
    assert all(b < a for a, b in zip(history, history[1:]))


def test_domain_escape_after_retries():
    def evaluate(u):
        if abs(u[0]) >= 1e-12:
            return None
        return u - 10.0, lambda: np.eye(1)

    with pytest.raises(rc.DomainEscape):
        rc.lm_minimize(evaluate, np.array([0.0]))


def test_callback_outputs_are_converted_by_the_input_rule():
    """lm_minimize converts the residuals and Jacobians its callback returns through
    errors._floats: lists work, where the start residual raised a TypeError, and a ragged
    residual or Jacobian raises InvalidGeometry naming it."""
    res = rc.lm_minimize(lambda u: ([u[0] - 1.0, u[1]], lambda: [[1.0, 0.0], [0.0, 1.0]]),
                         [0.0, 0.0])
    assert res.status is rc.Status.Converged
    np.testing.assert_allclose(res.u_star, [1.0, 0.0], atol=1e-9)
    want = rc.lm_minimize(_evaluator(lambda u: u - [1.0, 0.0], lambda u: np.eye(2)), [0.0, 0.0])
    _same_outcome(res, want)
    with pytest.raises(rc.InvalidGeometry, match="^residual must be a vector of numbers"):
        rc.lm_minimize(lambda u: ([u[0], [u[1]]], lambda: np.eye(2)), [0.0, 0.0])
    with pytest.raises(rc.InvalidGeometry, match="^Jacobian must be a matrix of numbers"):
        rc.lm_minimize(lambda u: (u - 1.0, lambda: [[1.0, 0.0], [0.0]]), [0.0, 0.0])


def test_each_trial_point_is_evaluated_once(monkeypatch):
    """Every LM point reaches the depth computation once: the start point's
    domain verdict, residual and Jacobian share it, and so do each trial
    point's verdict, residual and (when accepted) Jacobian."""
    import riemcond.multiview as mv

    calls = {}
    images = mv._images

    def counted(rig, Y):
        for y in Y:
            key = np.asarray(y, dtype=float).tobytes()
            calls[key] = calls.get(key, 0) + 1
        return images(rig, Y)

    rig = rc.gen_rig(rc.RigSpec(k=10, seed=0))
    rng = np.random.default_rng(8)
    monkeypatch.setattr(mv, "_images", counted)
    for _ in range(5):
        x = rc.mv_project(rig, rng.uniform(-0.7, 0.7, size=3))
        a = x + 1e-2 * rng.standard_normal(x.size)
        y0 = rc.triangulate_linear(rig, a)
        calls.clear()
        res = rc.triangulate(rig, a, warm_start=y0)
        assert res.iterations >= 2
        assert calls[y0.tobytes()] == 1
        trials = {key: n for key, n in calls.items() if key != y0.tobytes()}
        assert len(trials) >= res.iterations
        assert set(trials.values()) == {1}


def test_triangulate_leaves_its_solution_jet_in_the_rig(monkeypatch):
    """triangulate leaves u_star's depths, numerators and Jacobian in the rig's memo, the
    bits a cold _jet computes, read-only; a solve that takes no step leaves y0's, which is
    u_star. mv_jacobian and mv_project at u_star then check no domain and take no Jacobian."""
    import riemcond.multiview as mv

    rng = np.random.default_rng(5)
    for k in (4, 10, 40):
        spec = rc.RigSpec(k=k, seed=0)
        rig = rc.gen_rig(spec)
        y = rng.uniform(-0.5, 0.5, size=3)
        x = rc.mv_project(rig, y)
        for a, warm, steps in ((x + 1e-3 * rng.standard_normal(x.size), None, True),
                               (x, y, False)):
            res = rc.triangulate(rig, a, warm_start=warm)
            assert (res.iterations > 0) == steps
            key, *jet = rig._last_point
            assert key == ((3,), res.u_star.tobytes()) and len(jet) == 3
            cold = mv._jet(rc.gen_rig(spec), res.u_star, 3)
            for got, want in zip(jet, cold):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert not got.flags.writeable
    counts = {"_checked": 0, "_jacobian": 0}
    for name in counts:
        def counted(*args, real=getattr(mv, name), name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(mv, name, counted)
    res = rc.triangulate(rig, x + 1e-3 * rng.standard_normal(x.size))
    counts.update(_checked=0, _jacobian=0)  # the start point's
    J, image = rc.mv_jacobian(rig, res.u_star), rc.mv_project(rig, res.u_star)
    assert counts == {"_checked": 0, "_jacobian": 0}
    twin = rc.gen_rig(spec)
    assert np.array_equal(J, rc.mv_jacobian(twin, res.u_star))
    assert np.array_equal(image, rc.mv_project(twin, res.u_star))


def test_triangulate_checks_its_correspondence_once(monkeypatch):
    """triangulate hands its checked correspondence to the DLT body, so _vector converts
    and checks it once per call, with or without a warm start."""
    original, whats = rc.errors._vector, []

    def counted(v, n, what):
        whats.append(what)
        return original(v, n, what)

    for name, module in list(sys.modules.items()):
        if name.startswith("riemcond") and getattr(module, "_vector", None) is original:
            monkeypatch.setattr(module, "_vector", counted)
    rig, y = rc.gen_rig(rc.RigSpec(k=10, seed=0)), np.array([0.35, -0.2, 0.4])
    x = rc.mv_project(rig, y) + 1e-3 * np.random.default_rng(3).standard_normal(20)
    for warm_start in (None, y):
        whats.clear()
        rc.triangulate(rig, x, warm_start=warm_start)
        assert whats.count("correspondence") == 1


def test_validate_leaves_the_memo_on_its_theory_point():
    """experiment_validate's solves leave the rig's memo on y, so a second run hits it."""
    rig, y = rc.gen_rig(rc.RigSpec(k=10, seed=0)), np.array([0.35, -0.2, 0.4])
    records = rc.experiment_validate(rig, y, rc.random_unit_normal(rig, y, 7),
                                     rc.log_grid(-2.0, 0.0, 3))
    assert any(rec.iterations for rec in records)
    assert rig._last_point[0] == ((3,), y.tobytes())


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


@pytest.mark.parametrize("max_iters, error, message", [
    (2.5, rc.InvalidGeometry, "max_iters must be an integer >= 1"),
    (1.0, rc.InvalidGeometry, "max_iters must be an integer >= 1"),
    ("3", rc.NonFinite, "max_iters must be a number, got '3'"),
], ids=["2.5", "1.0", "3"])
def test_max_iters_must_be_an_integer(max_iters, error, message):
    """A finite non-integer is InvalidGeometry; a string is no number at all, NonFinite
    named as given, as every setting that is not a number."""
    with pytest.raises(error, match=message):
        rc.SolverOptions(max_iters=max_iters)


@pytest.mark.parametrize("setting", [
    {"grad_tol": np.inf}, {"grad_tol": np.nan}, {"step_tol": np.nan}, {"max_iters": np.inf},
])
def test_non_finite_solver_options_raise_non_finite(setting):
    (name,) = setting
    with pytest.raises(rc.NonFinite, match=f"{name} .* is not finite"):
        rc.SolverOptions(**setting)


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


def test_project_point_from_a_start_outside_the_chart_domain_raises():
    s = rc.sphere(1.0)
    pole = np.array([0.3, np.pi / 2])
    assert not s.in_domain(pole)
    with pytest.raises(rc.OutsideDomain, match="rejected by domain check"):
        rc.tangent_frame(s, pole)
    with pytest.raises(rc.OutsideDomain, match="rejected by domain check"):
        rc.project_point(s, np.array([0.1, 0.2, 2.0]), pole)


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
            # the critical-point certificate: the tangential part of a - phi(u*)
            frame = rc.tangent_frame(p, res.u_star)
            cert = np.linalg.norm(frame.Q.T @ (a - p(res.u_star)))
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


def _stacked_fixture():
    """Nine correspondences around a warm start y0 on RigSpec(k=10): the fourth
    one's critical point lies 1.5e-12 off the baseline, inside the excluded
    tube, and its solve escapes the domain. A row whose residual at y0
    overflows and a NaN row are appended."""
    from riemcond.multiview import DOM_TOL, _baseline_distances

    rig = rc.gen_rig(rc.RigSpec(k=10, seed=0))
    c0, c1 = rig.cameras[0].center(), rig.cameras[1].center()
    q = c0 + 0.3127406440199621 * (c1 - c0) + np.array([0.0, 1.4636589138887032e-12, 0.0])
    assert _baseline_distances(rig, q[None])[0] < DOM_TOL
    h = rig.P @ np.append(q, 1.0)
    y0 = np.array([-2.3368325008789785, -0.0013137917105427912, 4.414056798183368])
    rng = np.random.default_rng(5)
    rows = []
    for _ in range(8):
        x = rc.mv_project(rig, y0 + rng.standard_normal(3) * 10 ** rng.uniform(-3, -1))
        rows.append(x + 10 ** rng.uniform(-6, -1) * rng.standard_normal(x.size))
    rows.insert(3, (h[:, :2] / h[:, 2:]).ravel())
    rows.append(rc.mv_project(rig, y0) + 1e200 * rc.random_unit_normal(rig, y0, 0))
    rows.append(np.full(2 * rig.r, np.nan))
    return rig, np.array(rows), y0


def test_stacked_solve_matches_per_row_triangulate():
    """Row independence of the lockstep loop: solving the fixture's rows in
    one N-row _triangulate_rows call gives, row by row, the bits and the
    error messages of solving each alone (triangulate is the one-row call)."""
    from riemcond.solver import _triangulate_rows

    rig, A, y0 = _stacked_fixture()
    seen = set()
    for opts in (None, rc.SolverOptions(max_iters=2), rc.SolverOptions(max_iters=20)):
        got, _ = _triangulate_rows(rig, A, y0, opts)
        assert len(got) == len(A)
        for a, res in zip(A, got):
            try:
                want = rc.triangulate(rig, a, warm_start=y0, opts=opts)
            except rc.RiemcondError as exc:
                assert type(res) is type(exc) and str(res) == str(exc)
                seen.add(type(exc).__name__)
                continue
            assert isinstance(res, rc.SolveResult)
            assert np.array_equal(res.u_star, want.u_star)
            assert res.residual_norm == want.residual_norm
            assert res.status is want.status
            assert res.iterations == want.iterations
            assert res.first_order_norm == want.first_order_norm
            seen.add(want.status.value)
    assert seen == {"Converged", "Stalled", "MaxIters", "DomainEscape", "NonFinite"}


def test_overflowing_start_residual_is_non_finite():
    from riemcond.solver import _triangulate_rows

    rig = rc.gen_rig(rc.RigSpec(k=4))
    y0 = np.array([0.35, -0.2, 0.4])
    v = rc.random_unit_normal(rig, y0, 0)
    for k in (160, 200, 300):
        a = rc.mv_project(rig, y0) + 10.0**k * v
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rc.NonFinite, match="residual norm at the start point") as exc:
                rc.triangulate(rig, a, warm_start=y0)
            (row,), _ = _triangulate_rows(rig, a[None], y0)
        assert type(row) is rc.NonFinite and str(row) == str(exc.value)


def test_stacked_solve_raises_an_error_of_the_warm_start():
    """A warm start off the domain is an error of the call, not of a row: both
    callers check their start point first, so the stacked solve raises it."""
    from riemcond.solver import _triangulate_rows

    rig, A, _ = _stacked_fixture()
    on_plane = np.array([0.0, 0.0, -rig.d[0] / rig.c[0, 2]])  # camera 0's principal plane
    assert abs(rig.c[0] @ on_plane + rig.d[0]) < 1e-12
    with pytest.raises(rc.OutsideDomain, match="principal plane"):
        _triangulate_rows(rig, A, on_plane)
    with pytest.raises(rc.OutsideDomain, match="principal plane"):
        rc.triangulate(rig, A[0], warm_start=on_plane)
    assert _triangulate_rows(rig, A[:0], on_plane) == ([], None)


def test_validate_records_do_not_depend_on_chunking():
    rig = rc.gen_rig(rc.RigSpec(k=10, seed=0))
    y = np.array([0.35, -0.2, 0.4])
    grid = rc.log_grid(-3, 2, 100)
    for seed in (4, 7):
        eta = rc.random_unit_normal(rig, y, seed)
        whole = rc.experiment_validate(rig, y, eta, grid)
        chunked = [rec for c in range(0, len(grid), 10)
                   for rec in rc.experiment_validate(rig, y, eta, grid[c:c + 10])]
        assert len(whole) == len(chunked) == len(grid)
        for got, want in zip(chunked, whole):
            np.testing.assert_equal(vars(got), vars(want))


def test_singular_step_system_stalls_its_rows():
    """A point 1e-5 from a principal plane of a two-camera rig (found by the stacked-run
    fuzzer in test_experiments.py): J^T J + lam I at the start is exactly singular in
    floats, and the stacked np.linalg.solve raised LinAlgError out of the whole call.
    A singular rung takes no step, so its row stalls where it is; each row is what it
    is alone."""
    P0 = [[-0.98397656, 0.04107695, -0.17350162, 0.0],
          [0.04045289, 0.99915599, 0.00713294, 0.0],
          [0.17364818, 0.0, -0.98480775, 2.0]]
    P1 = [[-0.98246, -0.0690091, 0.17323421, 0.0],
          [-0.06796069, 0.99761603, 0.0119833, 0.0],
          [-0.17364818, 0.0, -0.98480775, 2.0]]
    rig = rc.CameraRig(cameras=(rc.Camera(P0), rc.Camera(P1)))
    y = np.array([0.62254822, 0.0, 2.14063543])
    J = rc.mv_jacobian(rig, y)
    with pytest.raises(np.linalg.LinAlgError, match="Singular"):
        np.linalg.solve((J.T @ J + solver.INITIAL_DAMPING * np.eye(3))[None], np.ones((1, 3, 1)))
    eta = rc.random_unit_normal(rig, y, 0)
    grid = [0.0, 1e-3, 0.1]
    records = rc.experiment_validate(rig, y, eta, grid)
    for t, rec in zip(grid, records):
        assert rec.error is None and rec.status is rc.Status.Stalled and rec.iterations == 0
        assert rec.kappa_est == 0.0 and rec.flagged
        np.testing.assert_equal(vars(rec), vars(rc.experiment_validate(rig, y, eta, [t])[0]))


def _same_outcome(got, want):
    """Bitwise agreement of two solve outcomes: SolveResults or row errors."""
    if isinstance(want, rc.RiemcondError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert isinstance(got, rc.SolveResult)
    assert got.u_star.tobytes() == want.u_star.tobytes()
    assert got.residual_norm == want.residual_norm
    assert got.status is want.status
    assert got.iterations == want.iterations
    assert got.first_order_norm == want.first_order_norm


def _one_trial(solve, exits=None):
    """solve() with the one-trial-per-pass oracle in place of the damping ladder."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_lm_rows", functools.partial(lm_rows_one_trial, exits=exits))
        return solve()


def _outcome(solve):
    try:
        return solve()
    except rc.RiemcondError as exc:
        return exc


LADDER_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)
# step_tol 1e-300 leaves the damping cap as the only stall, so both stalls occur
STEP_TOLS = st.sampled_from([1e-14, 1e-300])


@LADDER_SETTINGS
@given(k=st.integers(2, 12), seed=st.integers(0, 2**16),
       y=st.tuples(*[st.floats(-1.0, 1.0)] * 3), noise=st.floats(-9.0, 1.0),
       rows=st.integers(1, 6), max_iters=st.integers(1, 300), step_tol=STEP_TOLS)
def test_ladder_matches_one_trial_loop_on_triangulation(k, seed, y, noise, rows, max_iters,
                                                        step_tol):
    """The damping ladder makes the one-trial loop's arithmetic and decisions:
    every row of a stacked triangulation comes out with its bits."""
    from riemcond.solver import _triangulate_rows

    rig = rc.gen_rig(rc.RigSpec(k=k, seed=seed))
    y = np.array(y)
    assume(rc.mv_domain_check(rig, y))
    x = rc.mv_project(rig, y)
    A = x + 10.0**noise * np.random.default_rng(seed).standard_normal((rows, x.size))
    opts = rc.SolverOptions(max_iters=max_iters, step_tol=step_tol)
    got, _ = _triangulate_rows(rig, A, y, opts)
    want, _ = _one_trial(lambda: _triangulate_rows(rig, A, y, opts))
    for g, w in zip(got, want, strict=True):
        _same_outcome(g, w)


@LADDER_SETTINGS
@given(chart=st.sampled_from(["sphere", "paraboloid", "graph2d"]), seed=st.integers(0, 2**16),
       noise=st.floats(-9.0, 1.0), max_iters=st.integers(1, 300), step_tol=STEP_TOLS)
def test_ladder_matches_one_trial_loop_on_projection(chart, seed, noise, max_iters, step_tol):
    p = rc.builtin(chart)
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, size=p.intrinsic_dim)
    a = p(u) + 10.0**noise * rng.standard_normal(p.ambient_dim)
    u0 = u + 0.1 * rng.standard_normal(u.size)
    opts = rc.SolverOptions(max_iters=max_iters, step_tol=step_tol)
    got = _outcome(lambda: rc.project_point(p, a, u0, opts))
    _same_outcome(got, _one_trial(lambda: _outcome(lambda: rc.project_point(p, a, u0, opts))))


def test_ladder_matches_one_trial_loop_at_every_exit():
    """Each way a row can end, by the oracle's account, with the same bits."""
    from riemcond.solver import _triangulate_rows

    rig, A, y0 = _stacked_fixture()
    exits = []
    for opts in (None, rc.SolverOptions(max_iters=2), rc.SolverOptions(step_tol=1e-300)):
        got, _ = _triangulate_rows(rig, A, y0, opts)
        want, _ = _one_trial(lambda: _triangulate_rows(rig, A, y0, opts), exits)
        for g, w in zip(got, want, strict=True):
            _same_outcome(g, w)

    def evaluate(u):  # only the start point is inside
        return None if abs(u[0]) >= 1e-12 else (u - 10.0, lambda: np.eye(1))

    solve = functools.partial(_outcome, lambda: rc.lm_minimize(evaluate, np.array([0.0])))
    _same_outcome(solve(), _one_trial(solve, exits))
    assert {reason for _, reason in exits} == {
        "grad_tol", "max_iters", "step_tol", "damping_cap", "domain", "start"}


# (normal seed, first row) of the benchmark's validation chunks (10 rows of the grid
# log_grid(-3, 2, 100) at RigSpec(k=10, seed=0), y = (0.35, -0.2, 0.4)) that hold a row
# ending at max_iters or accepting a step after 8 or more rejections in a row, found from
# the one-trial loop's decisions on every chunk.
STREAK_CHUNKS = [(4, 10), (4, 30), (5, 0), (5, 10), (5, 150), (5, 180), (5, 190), (6, 170),
                 (7, 0), (7, 10), (7, 140), (7, 190), (8, 0), (8, 10), (8, 170), (8, 180),
                 (8, 190), (9, 0), (9, 20), (9, 190)]


def test_ladder_matches_one_trial_loop_on_the_streak_rows_of_validation(monkeypatch):
    """Random rigs rarely reach ladders of LADDER_CAP rungs, which a row gets after a
    rejection streak: the validation rows with the longest streaks and the MaxIters exits
    come out of the ladder with the one-trial loop's bits."""
    import riemcond.experiments as experiments
    from riemcond.solver import _triangulate_rows

    rig = rc.gen_rig(rc.RigSpec(k=10, seed=0))
    y = np.array([0.35, -0.2, 0.4])
    grid = rc.log_grid(-3.0, 2.0, 100)
    solves = []  # the arguments of each chunk's stacked solve
    monkeypatch.setattr(experiments, "_triangulate_rows",
                        lambda *args: solves.append(args) or _triangulate_rows(*args))
    for seed, c in STREAK_CHUNKS:
        eta = rc.random_unit_normal(rig, y, seed)
        rc.experiment_validate(rig, y, eta, grid[c:c + 10], perturb_rel=1e-6)
    exits = []
    for args in solves:
        got, _ = _triangulate_rows(*args)
        want, _ = _one_trial(lambda: _triangulate_rows(*args), exits)
        for g, w in zip(got, want, strict=True):
            _same_outcome(g, w)
    assert "max_iters" in {reason for _, reason in exits}


def test_ladder_cuts_the_passes_of_validation(monkeypatch):
    """On the benchmark's six validation rays in 10-row calls, a call makes
    31.1 stacked passes on average with one trial per row and pass (p90 27.6),
    most of them retrying a rejected row. The ladder takes a streak in fewer:
    17.6 (p90 12.3), for 245.0 rungs solved, since a row's ladder after an
    acceptance is as long as that acceptance took. The counts repeat exactly; the
    rung bound keeps a schedule from buying passes with unbounded evaluations."""
    solves, rungs = [], []
    solve = np.linalg.solve

    def counted(A, b):
        solves[-1] += 1
        rungs[-1] += len(A)
        return solve(A, b)

    rig = rc.gen_rig(rc.RigSpec(k=10, seed=0))
    y = np.array([0.35, -0.2, 0.4])
    grid = rc.log_grid(-3.0, 2.0, 100)
    monkeypatch.setattr(np.linalg, "solve", counted)
    for seed in range(4, 10):
        eta = rc.random_unit_normal(rig, y, seed)
        for c in range(0, len(grid), 10):
            solves.append(0)
            rungs.append(0)
            rc.experiment_validate(rig, y, eta, grid[c:c + 10], perturb_rel=1e-6)
    assert len(solves) == 120
    assert np.mean(solves) <= 18 and np.percentile(solves, 90) <= 13
    assert np.mean(rungs) <= 250


_UNDERFLOW_CASE = """
import numpy as np
import riemcond as rc
rig = rc.gen_rig(rc.RigSpec(k=10, seed=0))
y = np.array([0.35, -0.2, 0.4])
(rec,) = rc.experiment_validate(rig, y, rc.random_unit_normal(rig, y, 7), [49.770235643321136],
                                perturb_rel=1e-6, opts=rc.SolverOptions(max_iters=400))
print(rec.status.value, rec.iterations)
"""


def test_damping_that_would_underflow_keeps_rising_on_rejection():
    """This row accepts more than 320 steps, after which 1e-3 * 0.1**k is 0.0;
    a zero damping could not rise on a rejection, and the row retried the
    same step forever. The damping floor lets it rise and the solve ends."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rc.__file__)))
    proc = subprocess.run([sys.executable, "-c", _UNDERFLOW_CASE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    status, iterations = proc.stdout.split()
    assert status in {"Stalled", "Converged"} and 320 < int(iterations) < 400
