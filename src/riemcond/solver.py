"""Levenberg-Marquardt least squares for projection and triangulation.

The solver drives two uses: projecting an ambient point onto a
parametrized manifold (critical points of the squared distance) and
refining a linear triangulation against the reprojection residual.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainEscape, InvalidGeometry
from .linalg import compact_qr
from .manifold import Parametrization, project_tangent, tangent_frame
from .multiview import (
    CameraRig,
    _require_finite,
    mv_domain_check,
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


def lm_minimize(
    residual,
    jacobian,
    u0,
    opts: SolverOptions | None = None,
    domain_check=None,
    callback=None,
) -> SolveResult:
    """Minimize 0.5 ||residual(u)||^2 with damped Gauss-Newton steps.

    Steps are accepted only when they strictly decrease the residual norm
    and realize a minimal fraction of the model's predicted reduction
    (plain accept-on-decrease stalls on large-residual problems, where the
    Gauss-Newton model underestimates the curvature and overshoots). The
    residual sequence is monotone. Exits when ||J^T r|| falls below
    grad_tol (1 + ||r||), when the step drops below step_tol, or at the
    iteration cap. Trial points violating domain_check raise DomainEscape
    after ten damping retries. callback, when given, is invoked after each
    accepted step with (u, residual_norm) and must be reentrant.
    """
    opts = opts or SolverOptions()
    u = np.array(u0, dtype=float)
    r = np.asarray(residual(u), dtype=float)
    J = np.asarray(jacobian(u), dtype=float)

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
            if domain_check is not None and not domain_check(u_try):
                domain_failures += 1
                if domain_failures > 10:
                    raise DomainEscape(
                        f"iterates left the admissible domain near u={u_try}"
                    )
                lam *= DAMPING_UP
                continue
            r_try = np.asarray(residual(u_try), dtype=float)
            # predicted reduction of 0.5||r||^2 under the damped model
            predicted = 0.5 * delta @ (JtJ @ delta) + lam * (delta @ delta)
            actual = 0.5 * (r @ r - r_try @ r_try)
            if np.linalg.norm(r_try) < np.linalg.norm(r) and actual >= 0.25 * predicted:
                u, r = u_try, r_try
                J = np.asarray(jacobian(u), dtype=float)
                lam *= DAMPING_DOWN
                iterations += 1
                accepted = True
                if callback is not None:
                    callback(u, float(np.linalg.norm(r)))
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
    (the critical-point certificate, see cpp_certificate).
    """
    a = np.asarray(a, dtype=float)
    return lm_minimize(
        residual=lambda u: param(u) - a,
        jacobian=param.jacobian,
        u0=u0,
        opts=opts,
        domain_check=param.in_domain,
    )


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
    explicit world point, then refines the reprojection residual.
    """
    a = np.asarray(a, dtype=float)
    _require_finite(a, "correspondence")
    if warm_start is not None:
        y0 = np.asarray(warm_start, dtype=float)
    else:
        y0 = triangulate_linear(rig, a, minimal=minimal_init)
    return lm_minimize(
        residual=lambda y: mv_project(rig, y) - a,
        jacobian=lambda y: mv_jacobian(rig, y),
        u0=y0,
        opts=opts,
        domain_check=lambda y: mv_domain_check(rig, y),
    )


def mv_certificate(rig: CameraRig, y, a) -> float:
    """Tangential residual norm of a - mu(y) on the multiview manifold."""
    Q, _ = compact_qr(mv_jacobian(rig, y))
    return float(np.linalg.norm(Q.T @ (np.asarray(a, dtype=float) - mv_project(rig, y))))
