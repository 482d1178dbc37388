"""Levenberg-Marquardt least squares for projection and triangulation.

The solver drives two uses: projecting an ambient point onto a
parametrized manifold (critical points of the squared distance) and
refining a linear triangulation against the reprojection residual.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .errors import DomainEscape, InvalidGeometry, NonFinite, OutsideDomain, RiemcondError
from .errors import _finite, _non_finite, _require_finite
from .linalg import compact_qr
from .manifold import Parametrization, project_tangent, tangent_frame
from .multiview import (
    CameraRig,
    _checked,
    _domain_rows,
    _jacobian,
    _projection,
    mv_jacobian,
    mv_project,
    triangulate_linear,
)

# Fixed damping schedule of the LM iteration: start, factor on a rejected
# step, factor on an accepted step.
INITIAL_DAMPING = 1e-3
DAMPING_UP = 10.0
DAMPING_DOWN = 0.1


@dataclass(frozen=True)
class SolverOptions:
    """Stopping rules of the damped least-squares iteration."""

    max_iters: int = 200
    grad_tol: float = 1e-12
    step_tol: float = 1e-14

    def __post_init__(self):
        for f in fields(self):
            _require_finite(np.array(getattr(self, f.name), dtype=float), f.name)
        if self.max_iters < 1:
            raise InvalidGeometry("max_iters must be at least 1")
        for name in ("grad_tol", "step_tol"):
            if getattr(self, name) <= 0:
                raise InvalidGeometry(f"{name} must be positive")


class Status(enum.Enum):
    Converged = "Converged"
    MaxIters = "MaxIters"
    Stalled = "Stalled"


@dataclass
class SolveResult:
    """Solver outcome; first_order_norm is ||J^T r|| at the exit point."""

    u_star: np.ndarray
    residual_norm: float
    status: Status
    iterations: int
    first_order_norm: float


def _start_not_finite(u, r_norm) -> NonFinite:
    return NonFinite(f"residual norm at the start point {u} is not finite ({float(r_norm)})")


def lm_minimize(evaluate, u0, opts: SolverOptions | None = None) -> SolveResult:
    """Minimize 0.5 ||r(u)||^2 with damped Gauss-Newton steps.

    evaluate(u) returns None off the domain, else the array r(u) and a
    callable jac() for the Jacobian at u, called only at accepted points.
    Steps are accepted only when they strictly decrease the residual norm
    and realize a minimal fraction of the model's predicted reduction
    (plain accept-on-decrease stalls on large-residual problems, where the
    Gauss-Newton model underestimates the curvature and overshoots). The
    residual sequence is monotone. Exits when ||J^T r|| falls below
    grad_tol (1 + ||r||), when the step drops below step_tol, or at the
    iteration cap. A start point off the domain raises OutsideDomain, ten
    damping retries off it DomainEscape. A residual norm at u0 that is not
    finite raises NonFinite; later trial points with one are rejected.
    """
    opts = opts or SolverOptions()
    u = np.array(u0, dtype=float)
    start = evaluate(u)
    if start is None:
        raise OutsideDomain(f"start point {u} rejected by domain check")
    r, jac = start
    with np.errstate(over="ignore"):  # an overflow is reported as NonFinite
        r_norm = np.linalg.norm(r)
    if not np.isfinite(r_norm):
        raise _start_not_finite(u, r_norm)
    J = np.asarray(jac(), dtype=float)

    lam = INITIAL_DAMPING
    iterations = 0
    status = Status.MaxIters
    for _ in range(opts.max_iters):
        g = J.T @ r
        if np.linalg.norm(g) <= opts.grad_tol * (1.0 + np.linalg.norm(r)):
            status = Status.Converged
            break
        JtJ = J.T @ J
        eye = np.eye(u.size)
        accepted = False
        domain_failures = 0
        while not accepted:
            delta = np.linalg.solve(JtJ + lam * eye, -g)
            if np.linalg.norm(delta) <= opts.step_tol * (1.0 + np.linalg.norm(u)):
                status = Status.Stalled
                break
            u_try = u + delta
            trial = evaluate(u_try)
            if trial is None:
                domain_failures += 1
                if domain_failures > 10:
                    raise DomainEscape(f"iterates left the admissible domain near u={u_try}")
                lam *= DAMPING_UP
                continue
            r_try, jac = trial
            # predicted reduction of 0.5||r||^2 under the damped model
            predicted = 0.5 * delta @ (JtJ @ delta) + lam * (delta @ delta)
            actual = 0.5 * (r @ r - r_try @ r_try)
            if np.linalg.norm(r_try) < np.linalg.norm(r) and actual >= 0.25 * predicted:
                u, r = u_try, r_try
                J = np.asarray(jac(), dtype=float)
                lam *= DAMPING_DOWN
                iterations += 1
                accepted = True
            else:
                lam *= DAMPING_UP
                if lam > 1e18:
                    status = Status.Stalled
                    break
        if not accepted:
            break
    return SolveResult(
        u_star=u,
        residual_norm=float(np.linalg.norm(r)),
        status=status,
        iterations=iterations,
        first_order_norm=float(np.linalg.norm(J.T @ r)),
    )


def project_point(param: Parametrization, a, u0, opts: SolverOptions | None = None) -> SolveResult:
    """Critical point of the squared distance from a onto the manifold.

    At a converged exit the residual a - phi(u*) is normal to the manifold
    (the critical-point certificate, see cpp_certificate). A start point
    that the chart's domain check rejects raises OutsideDomain, as
    tangent_frame does there.
    """
    a = np.asarray(a, dtype=float)
    _require_finite(a, "ambient point")
    _require_finite(np.asarray(u0, dtype=float), "start point")

    def evaluate(u):
        if not param.in_domain(u):
            return None
        return param(u) - a, lambda: param.jacobian(u)

    return lm_minimize(evaluate, u0, opts)


def cpp_certificate(param: Parametrization, u, a) -> float:
    """Norm of the tangential part of a - phi(u): zero exactly at critical points."""
    frame = tangent_frame(param, u)
    return float(np.linalg.norm(project_tangent(frame, np.asarray(a, dtype=float) - param(u))))


def triangulate(
    rig: CameraRig,
    a,
    opts: SolverOptions | None = None,
    warm_start=None,
    minimal_init: bool = False,
) -> SolveResult:
    """Gold-standard triangulation of the ambient correspondence a.

    Starts from the linear (DLT) solution unless warm_start supplies an
    explicit world point, then refines the reprojection residual. The
    start point must pass mv_domain_check.
    """
    a = np.asarray(a, dtype=float)
    _require_finite(a, "correspondence")
    if warm_start is not None:
        y0 = np.asarray(warm_start, dtype=float)
    else:
        y0 = triangulate_linear(rig, a, minimal=minimal_init)
    _checked(rig, y0)  # NonFinite or OutsideDomain, worded for the world point

    def evaluate(y):
        depths, num, inside = _domain_rows(rig, y[None])
        if not inside[0]:
            return None
        return _projection(depths[0], num[0]) - a, lambda: _jacobian(rig, depths[0], num[0])

    return lm_minimize(evaluate, y0, opts)


def _dots(V, W):
    """Row-wise v @ w of two (M, k) stacks.

    A (1, k) @ (k, 1) matmul per row runs the BLAS dot of the one-vector
    `@` and of np.linalg.norm, so each row matches its one-row value
    bitwise (einsum and norm(axis=1) sum in another order).
    """
    return (V[:, None, :] @ W[:, :, None])[:, 0, 0]


def _triangulate_rows(rig: CameraRig, A, y0, opts: SolverOptions | None = None):
    """triangulate(rig, a, warm_start=y0, opts=opts) for every row a of A (N, 2r).

    The rows run lm_minimize's iteration in lockstep. Each keeps its own
    damping, domain-failure count, iteration count and status, and leaves
    the active set when it converges, stalls, reaches max_iters or escapes
    the domain. A pass makes one stacked solve over the active rows, one
    stacked projection and domain check over their trial points and one
    stacked Jacobian over the accepted ones. Every contraction is a stacked
    matmul, which runs the BLAS call of the one-row `@` on each slice, so
    every row's result equals its triangulate call bitwise. Returns, per
    row, a SolveResult or the RiemcondError triangulate would raise.
    """
    opts = opts or SolverOptions()
    A = np.asarray(A, dtype=float)
    out = [None if _finite(a) else _non_finite(a, "correspondence") for a in A]
    pos = np.array([n for n, res in enumerate(out) if res is None], dtype=int)
    if not pos.size:
        return out
    y0 = np.array(y0, dtype=float)
    try:
        a0, num0 = _checked(rig, y0)
    except RiemcondError as exc:
        return [exc if res is None else res for res in out]
    x0, J0 = _projection(a0, num0), _jacobian(rig, a0, num0)
    # the rows still running, one leading axis per array: row i stands for input row pos[i]
    m, target = pos.size, A[pos]
    s = SimpleNamespace(pos=pos, target=target, u=np.repeat(y0[None], m, axis=0), r=x0 - target,
                        J=np.repeat(J0[None], m, axis=0), lam=np.full(m, INITIAL_DAMPING),
                        fails=np.zeros(m, dtype=int), iters=np.zeros(m, dtype=int))
    eye = np.eye(3)

    def refresh():
        """g = J^T r, JtJ = J^T J and the squared norms rr, gg, uu of the current u, r, J."""
        Jt = s.J.transpose(0, 2, 1)
        s.g, s.JtJ = (Jt @ s.r[:, :, None])[:, :, 0], Jt @ s.J
        s.rr, s.gg, s.uu = (_dots(v, v) for v in (s.r, s.g, s.u))

    def keep(mask):
        for name, rows in vars(s).items():
            setattr(s, name, rows[mask])

    def finish(mask, status):
        for i in mask.nonzero()[0].tolist():
            out[s.pos[i]] = SolveResult(
                u_star=s.u[i].copy(), residual_norm=float(np.sqrt(s.rr[i])), status=status,
                iterations=int(s.iters[i]), first_order_norm=float(np.sqrt(s.gg[i])),
            )

    def outer_exits():
        """Rows at the head of an outer iteration that are done: max_iters, then converged."""
        maxed = s.iters >= opts.max_iters
        conv = ~maxed & (np.sqrt(s.gg) <= opts.grad_tol * (1.0 + np.sqrt(s.rr)))
        finish(maxed, Status.MaxIters)
        finish(conv, Status.Converged)
        return maxed | conv

    with np.errstate(over="ignore"):  # an overflow is reported as NonFinite
        refresh()
    overflow = ~np.isfinite(s.rr)
    for i in overflow.nonzero()[0].tolist():
        out[s.pos[i]] = _start_not_finite(s.u[i], np.sqrt(s.rr[i]))
    keep(~overflow)
    leave = outer_exits()
    while True:
        if leave.any():
            keep(~leave)
        if not s.pos.size:
            return out
        delta = np.linalg.solve(s.JtJ + s.lam[:, None, None] * eye, -s.g[:, :, None])[:, :, 0]
        dd = _dots(delta, delta)
        stalled = np.sqrt(dd) <= opts.step_tol * (1.0 + np.sqrt(s.uu))
        if stalled.any():
            finish(stalled, Status.Stalled)
            keep(~stalled)
            delta, dd = delta[~stalled], dd[~stalled]
            if not s.pos.size:
                return out
        u_try = s.u + delta
        a, num, inside = _domain_rows(rig, u_try)
        leave = np.zeros(s.pos.size, dtype=bool)
        if not inside.all():
            s.fails += ~inside
            leave = s.fails > 10
            for i in leave.nonzero()[0].tolist():
                out[s.pos[i]] = DomainEscape(
                    f"iterates left the admissible domain near u={u_try[i]}")
            # rows outside get a harmless placeholder; they are neither accepted nor stalled
            a = np.where(inside[:, None], a, 1.0)
            num = np.where(inside[:, None, None], num, 0.0)
        r_try = _projection(a, num) - s.target
        rr_try = _dots(r_try, r_try)
        # predicted reduction of 0.5||r||^2 under the damped model
        predicted = _dots(0.5 * delta, (s.JtJ @ delta[:, :, None])[:, :, 0]) + s.lam * dd
        actual = 0.5 * (s.rr - rr_try)
        accept = inside & (np.sqrt(rr_try) < np.sqrt(s.rr)) & (actual >= 0.25 * predicted)
        s.lam = np.where(accept, s.lam * DAMPING_DOWN, s.lam * DAMPING_UP)
        gave_up = inside & ~accept & (s.lam > 1e18)
        finish(gave_up, Status.Stalled)
        leave |= gave_up
        if accept.any():
            s.u[accept], s.r[accept] = u_try[accept], r_try[accept]
            s.J[accept] = _jacobian(rig, a[accept], num[accept])
            s.iters += accept
            s.fails[accept] = 0
            refresh()
            leave |= outer_exits()


def mv_certificate(rig: CameraRig, y, a) -> float:
    """Tangential residual norm of a - mu(y) on the multiview manifold."""
    Q, _ = compact_qr(mv_jacobian(rig, y))
    return float(np.linalg.norm(Q.T @ (np.asarray(a, dtype=float) - mv_project(rig, y))))
