"""Levenberg-Marquardt least squares for projection and triangulation.

The solver drives two uses: projecting an ambient point onto a
parametrized manifold (critical points of the squared distance) and
refining a linear triangulation against the reprojection residual.
"""

from __future__ import annotations

import contextlib
import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainEscape, InvalidGeometry, NonFinite, OutsideDomain, RiemcondError
from .errors import _finite, _non_finite, _require_finite, _require_finite_setting
from .linalg import compact_qr  # noqa: F401  (a binding perfbench's tracer wraps)
from .manifold import Parametrization, project_tangent, tangent_frame
from .multiview import (
    CameraRig, _domain_rows, _frame, _jacobian, _jet, _projection, triangulate_linear)

# Fixed damping schedule of the LM iteration: start, factor on a rejected
# step, factor on an accepted step.
INITIAL_DAMPING = 1e-3
DAMPING_UP = 10.0
DAMPING_DOWN = 0.1
# Accepted steps lower the damping no further than this: at 0.0 a rejected
# step could not raise it, and the row would retry the same step forever.
# 200 accepted steps from INITIAL_DAMPING stay above it.
MIN_DAMPING = 1e-300
MAX_DAMPING = 1e18  # a row whose damping passes this on a rejected step stalls


@dataclass(frozen=True)
class SolverOptions:
    """Stopping rules of the damped least-squares iteration."""

    max_iters: int = 200
    grad_tol: float = 1e-12
    step_tol: float = 1e-14

    def __post_init__(self):
        for f in fields(self):
            _require_finite_setting(getattr(self, f.name), f.name)
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


def _dots(V, W):
    """Row-wise v @ w of two (M, k) stacks.

    A (1, k) @ (k, 1) matmul per row runs the BLAS dot of the one-vector
    `@` and of np.linalg.norm, so each row matches its one-row value
    bitwise (einsum and norm(axis=1) sum in another order).
    """
    return (V[:, None, :] @ W[:, :, None])[:, 0, 0]


def _lm_rows(evaluate, u, r, J, opts: SolverOptions):
    """lm_minimize's iteration on the M rows of u (M, n) in lockstep.

    r (M, m) and J (M, m, n) hold the residuals and Jacobians at the start
    points u; the loop writes accepted points into u. evaluate(U, rows)
    takes the trial points U (K, n) of the rows numbered `rows` and returns
    their residuals (K, m), a list of K domain verdicts and jac(sel), the
    Jacobians at the trial points numbered sel; residuals off the domain
    are placeholders the loop ignores.

    A rejected trial leaves a row's u, J^T r and J^T J as they are, so the
    dampings of its next trials are known in advance. Each pass therefore
    tries a ladder of dampings per running row: rung j damps by the row's
    damping times DAMPING_UP, j times over, and no rung goes past the first
    one above MAX_DAMPING. A row has one rung at the start and after each
    acceptance, and twice as many after a pass whose rungs were all
    rejected. A pass makes one stacked solve over every rung, one evaluate
    call on the rungs before each row's first step_tol stall and one jac
    call on the accepted ones; each row then replays its rungs in order,
    as passes of one trial each, up to its first acceptance or exit, and
    the rungs past that are wasted. Each row keeps its own damping,
    domain-failure count, iteration count and exit, decided on Python
    floats. Every contraction is a stacked matmul or _dots, which run the
    BLAS call of the one-row `@` on each slice, so a row's result does not
    depend on the rows or rungs beside it. Returns, per row, a SolveResult
    or the NonFinite or DomainEscape that lm_minimize raises.
    """
    out = [None] * len(u)
    Jt = J.transpose(0, 2, 1)
    with np.errstate(over="ignore"):  # an overflow is reported as NonFinite
        g, JtJ = (Jt @ r[:, :, None])[:, :, 0], Jt @ J
        rr, gg, uu = (_dots(v, v).tolist() for v in (r, g, u))
    for i, v in enumerate(rr):
        if not math.isfinite(v):
            out[i] = NonFinite(f"residual norm at the start point {u[i]} is not finite "
                               f"({math.sqrt(v)})")
    # the running rows: position p holds input row live[p], its u, g = J^T r and
    # JtJ = J^T J, and its damping, domain failures, iterations, squared norms and rungs
    live = list(range(len(u)))
    lam, fails, iters, rungs = ([v] * len(u) for v in (INITIAL_DAMPING, 0, 0, 1))
    eye = np.eye(u.shape[1])

    def finish(p, status):
        out[live[p]] = SolveResult(u[p].copy(), math.sqrt(rr[p]), status, iters[p], math.sqrt(gg[p]))

    moved = [p for p in live if out[p] is None]  # rows at the head of an outer iteration
    while True:
        for p in moved:
            if iters[p] >= opts.max_iters:
                finish(p, Status.MaxIters)
            elif math.sqrt(gg[p]) <= opts.grad_tol * (1.0 + math.sqrt(rr[p])):
                finish(p, Status.Converged)
        keep = [p for p, i in enumerate(live) if out[i] is None]
        if not keep:
            return out
        if len(keep) < len(live):
            live, lam, fails, iters, rr, gg, uu, rungs = (
                [v[p] for p in keep] for v in (live, lam, fails, iters, rr, gg, uu, rungs))
            u, g, JtJ = (v.take(keep, 0) for v in (u, g, JtJ))
        if max(rungs) == 1:
            src, damp, uj, gj, JtJj = range(len(live)), lam, u, g, JtJ
        else:  # rung j belongs to row src[j] and damps by damp[j]
            src, damp = [], []
            for p, (v, n) in enumerate(zip(lam, rungs)):
                for _ in range(n):
                    src.append(p)
                    damp.append(v)
                    if v > MAX_DAMPING:
                        break
                    v *= DAMPING_UP
            uj, gj, JtJj = (v.take(src, 0) for v in (u, g, JtJ))
        A, b = JtJj + np.array(damp)[:, None, None] * eye, -gj[:, :, None]
        try:
            delta = np.linalg.solve(A, b)[:, :, 0]
        except np.linalg.LinAlgError:  # a rung whose damping is lost against J^T J is singular:
            delta = np.zeros(gj.shape)  # it takes no step, so its row stalls
            for j in range(len(A)):
                with contextlib.suppress(np.linalg.LinAlgError):
                    delta[j] = np.linalg.solve(A[j:j + 1], b[j:j + 1])[0, :, 0]
        dd = _dots(delta, delta).tolist()
        # predicted reduction of 0.5||r||^2 under the damped model, less its lam ||delta||^2
        model = _dots(0.5 * delta, (JtJj @ delta[:, :, None])[:, :, 0]).tolist()
        trial, stalled = [], [False] * len(live)  # the rungs evaluated, before each row's stall
        for j, p in enumerate(src):
            if stalled[p]:
                continue
            if math.sqrt(dd[j]) <= opts.step_tol * (1.0 + math.sqrt(uu[p])):
                stalled[p] = True
            else:
                trial.append(j)
        moved = []
        if trial:
            U = uj + delta
            if len(trial) < len(src):
                U = U.take(trial, 0)
            R, inside, jac = evaluate(U, [live[src[j]] for j in trial])
            rr_try = _dots(R, R).tolist()
        accepted, decided = [], [False] * len(live)
        for k, j in enumerate(trial):
            p = src[j]
            if decided[p]:
                continue
            if not inside[k]:
                fails[p] += 1
                if fails[p] > 10:
                    out[live[p]] = DomainEscape(
                        f"iterates left the admissible domain near u={U[k]}")
                    decided[p] = True
                lam[p] *= DAMPING_UP
            elif (math.sqrt(rr_try[k]) < math.sqrt(rr[p])
                  and 0.5 * (rr[p] - rr_try[k]) >= 0.25 * (model[j] + lam[p] * dd[j])):
                accepted.append(k)
                moved.append(p)
                rr[p] = rr_try[k]
                lam[p] = max(lam[p] * DAMPING_DOWN, MIN_DAMPING)
                iters[p] += 1
                fails[p] = 0
                rungs[p] = 1
                decided[p] = True
            else:
                lam[p] *= DAMPING_UP
                if lam[p] > MAX_DAMPING:
                    finish(p, Status.Stalled)
                    decided[p] = True
        for p, done in enumerate(decided):
            if done:
                continue
            if stalled[p]:  # every rung before the stall was rejected
                finish(p, Status.Stalled)
            else:
                rungs[p] *= 2
        if accepted:
            Ja, Ua, Ra = jac(accepted), U.take(accepted, 0), R.take(accepted, 0)
            Jt = Ja.transpose(0, 2, 1)
            ga = (Jt @ Ra[:, :, None])[:, :, 0]
            at = np.array(moved)
            u[at], g[at], JtJ[at] = Ua, ga, Jt @ Ja
            for p, a, b in zip(moved, _dots(ga, ga).tolist(), _dots(Ua, Ua).tolist()):
                gg[p], uu[p] = a, b


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
    The iteration is _lm_rows on one row.
    """
    u = np.array(u0, dtype=float)
    start = evaluate(u)
    if start is None:
        raise OutsideDomain(f"start point {u} rejected by domain check")
    r, jac = start

    def evaluate_rows(U, _):
        trials = [evaluate(v) for v in U]
        # the start residual is the ignored placeholder of a point off the domain
        R = np.array([r if t is None else t[0] for t in trials], dtype=float)
        return R, [t is not None for t in trials], lambda sel: np.array(
            [np.asarray(trials[k][1](), dtype=float) for k in sel])

    J = np.asarray(jac(), dtype=float)
    (res,) = _lm_rows(evaluate_rows, u[None], r[None], J[None], opts or SolverOptions())
    if isinstance(res, RiemcondError):
        raise res
    return res


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
    explicit world point, then refines the reprojection residual: the one
    row of _triangulate_rows. The start point must pass mv_domain_check.
    """
    a = np.asarray(a, dtype=float)
    _require_finite(a, "correspondence")
    y0 = triangulate_linear(rig, a, minimal=minimal_init) if warm_start is None else warm_start
    (res,) = _triangulate_rows(rig, a[None], y0, opts)
    if isinstance(res, RiemcondError):
        raise res
    return res


def _triangulate_rows(rig: CameraRig, A, y0, opts: SolverOptions | None = None):
    """triangulate(rig, a, warm_start=y0, opts=opts) for every row a of A (N, 2r).

    One _lm_rows call solves all rows. Returns, per row, a SolveResult or
    the RiemcondError triangulate would raise; an error of y0 (NonFinite or
    OutsideDomain) raises.
    """
    A = np.asarray(A, dtype=float)
    out = [None if _finite(a) else _non_finite(a, "correspondence") for a in A]
    pos = [n for n, res in enumerate(out) if res is None]
    if not pos:
        return out
    y0 = np.asarray(y0, dtype=float)
    a0, num0, J0 = _jet(rig, y0)
    target = A[pos]

    def evaluate(Y, rows):
        a, num, inside = _domain_rows(rig, Y)
        if not all(inside):
            # rows outside get a harmless placeholder; the loop ignores their residuals
            mask = np.array(inside)
            a = np.where(mask[:, None], a, 1.0)
            num = np.where(mask[:, None, None], num, 0.0)
        return (_projection(a, num) - target.take(rows, 0), inside,
                lambda sel: _jacobian(rig, a.take(sel, 0), num.take(sel, 0)))

    m = len(pos)
    u, J = np.repeat(y0[None], m, axis=0), np.repeat(J0[None], m, axis=0)
    results = _lm_rows(evaluate, u, _projection(a0, num0) - target, J, opts or SolverOptions())
    for n, res in zip(pos, results):
        out[n] = res
    return out


def mv_certificate(rig: CameraRig, y, a) -> float:
    """Tangential residual norm of a - mu(y) on the multiview manifold."""
    alpha, num, _, Q, _ = _frame(rig, y)
    return float(np.linalg.norm(Q.T @ (np.asarray(a, dtype=float) - _projection(alpha, num))))
