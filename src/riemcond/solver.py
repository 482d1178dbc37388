"""Levenberg-Marquardt least squares for projection and triangulation.

The solver drives two uses: projecting an ambient point onto a
parametrized manifold (critical points of the squared distance) and
refining a linear triangulation against the reprojection residual.
"""

from __future__ import annotations

import contextlib
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainEscape, NonFinite, OutsideDomain, RiemcondError, _non_finite
from .errors import _require_finite, _require_finite_setting, _require_integer, _require_positive
from .errors import _floats, _vector
from .linalg import compact_qr  # noqa: F401  (a binding perfbench's tracer wraps)
from .manifold import Parametrization
from .multiview import (
    CameraRig, _dlt, _domain_rows, _frame, _jacobian, _jet, _projection, _remember)

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
LADDER_CAP = 8  # the most rungs _lm_rows gives a row after an acceptance
LADDER_GROWTH = 4  # the factor on a row's rungs after a pass that rejected them all


@dataclass(frozen=True)
class SolverOptions:
    """Stopping rules of the damped least-squares iteration."""

    max_iters: int = 200
    grad_tol: float = 1e-12
    step_tol: float = 1e-14

    def __post_init__(self):
        for name in ("grad_tol", "step_tol"):
            _require_positive(getattr(self, name), name)
        _require_finite_setting(self.max_iters, "max_iters")  # so 10**400 is NonFinite
        _require_integer(self.max_iters, "max_iters", 1)


_DEFAULTS = SolverOptions()  # frozen, so every call without options shares it


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
    points u, which the loop overwrites. evaluate(U, rows) takes the trial
    points U (K, n) of the rows numbered `rows` and returns their residuals
    (K, m), a list of K domain verdicts and jac(sel), the Jacobians at the
    trial points numbered sel (ascending); residuals off the domain are
    placeholders the loop ignores.

    A rejected trial leaves a row's u, J^T r and J^T J as they are, so the
    dampings of its next trials are known in advance. Each pass therefore
    tries a ladder of dampings per running row: rung j damps by the row's
    damping times DAMPING_UP, j times over, and no rung goes past the first
    one above MAX_DAMPING. A row has one rung at the start; after an
    acceptance, one per trial it made since the acceptance before
    (LADDER_CAP at most: rows repeat their rejection streaks); after a pass
    whose rungs were all rejected, LADDER_GROWTH times as many. A pass makes
    one stacked solve over every rung, one evaluate call on the rungs before
    each row's first step_tol stall and one jac call on the accepted ones;
    each row then replays its rungs in order, as passes of one trial each,
    up to its first acceptance or exit, and the rungs past that are wasted:
    ladders set a solve's passes and evaluations, never a row's trials,
    decisions or bits, which are the one-trial loop's (tests/lm_oracle.py).
    Each row keeps its own damping, domain-failure count, iteration count
    and exit, decided on Python floats. Every contraction is a stacked
    matmul or _dots, which run the BLAS call of the one-row `@` on each
    slice, so a row's result does not depend on the rows or rungs beside it.
    Returns, per row, a SolveResult or the NonFinite or DomainEscape that
    lm_minimize raises.
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
    # the running rows: position p holds input row live[p], its u, g = J^T r, JtJ = J^T J,
    # damping, domain failures, iterations, squared norms, rungs and trials since accepting
    live = list(range(len(u)))
    lam, fails, iters, rungs, tries = ([v] * len(u) for v in (INITIAL_DAMPING, 0, 0, 1, 0))
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
            live, lam, fails, iters, rr, gg, uu, rungs, tries = ([v[p] for p in keep] for v in (
                live, lam, fails, iters, rr, gg, uu, rungs, tries))
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
        A, b = JtJj + np.multiply.outer(damp, eye), -gj[:, :, None]
        try:
            delta = np.linalg.solve(A, b)  # (K, n, 1), so dt @ delta is _dots' matmul
        except np.linalg.LinAlgError:  # a rung whose damping is lost against J^T J is singular:
            delta = np.zeros(b.shape)  # it takes no step, so its row stalls
            for j in range(len(A)):
                with contextlib.suppress(np.linalg.LinAlgError):
                    delta[j] = np.linalg.solve(A[j:j + 1], b[j:j + 1])[0]
        dt = delta.transpose(0, 2, 1)
        dd = (dt @ delta)[:, 0, 0].tolist()
        # predicted reduction of 0.5||r||^2 under the damped model, less its lam ||delta||^2
        model = ((0.5 * dt) @ (JtJj @ delta))[:, 0, 0].tolist()
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
            U = uj + delta[:, :, 0]
            if len(trial) < len(src):
                U = U.take(trial, 0)
            R, inside, jac = evaluate(U, [live[src[j]] for j in trial])
            rr_try = _dots(R, R).tolist()
        accepted, decided = [], [False] * len(live)
        for k, j in enumerate(trial):
            p = src[j]
            if decided[p]:
                continue
            tries[p] += 1
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
                rungs[p], tries[p] = min(tries[p], LADDER_CAP), 0
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
                rungs[p] *= LADDER_GROWTH
        if accepted:
            Ja, Ua, Ra = jac(accepted), U, R
            if len(accepted) < len(trial):
                Ua, Ra = U.take(accepted, 0), R.take(accepted, 0)
            Jt = Ja.transpose(0, 2, 1)
            ga, JtJa = (Jt @ Ra[:, :, None])[:, :, 0], Jt @ Ja
            if len(moved) == len(live):  # moved is ascending: every live row, in order
                u, g, JtJ = Ua, ga, JtJa
            else:
                at = np.array(moved)
                u[at], g[at], JtJ[at] = Ua, ga, JtJa
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
    u = _floats(u0, "start point", "a vector of numbers").copy()  # never the caller's array
    start = evaluate(u)
    if start is None:
        raise OutsideDomain(f"start point {u} rejected by domain check")
    r, jac = _floats(start[0], "residual", "a vector of numbers"), start[1]

    def evaluate_rows(U, _):
        trials = [evaluate(v) for v in U]
        # the start residual is the ignored placeholder of a point off the domain
        R = _floats([r if t is None else t[0] for t in trials], "residual", "a vector of numbers")
        return R, [t is not None for t in trials], lambda sel: np.array(
            [_floats(trials[k][1](), "Jacobian", "a matrix of numbers") for k in sel])

    J = _floats(jac(), "Jacobian", "a matrix of numbers")
    (res,) = _lm_rows(evaluate_rows, u[None], r[None], J[None], opts or _DEFAULTS)
    if isinstance(res, RiemcondError):
        raise res
    return res


def project_point(param: Parametrization, a, u0, opts: SolverOptions | None = None) -> SolveResult:
    """Critical point of the squared distance from a onto the manifold.

    At a converged exit the residual a - phi(u*) is normal to the manifold:
    its tangential part is the critical-point certificate. A start point
    that the chart's domain check rejects raises OutsideDomain, as
    tangent_frame does there.
    """
    a = _vector(a, param.ambient_dim, "ambient point")
    u0 = _vector(u0, param.intrinsic_dim, "start point")

    def evaluate(u):
        if not param.in_domain(u):
            return None
        return param(u) - a, lambda: param.jacobian(u)

    return lm_minimize(evaluate, u0, opts)


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
    row of _triangulate_rows, whose jet at u_star the rig keeps (see _jet).
    The start point must pass mv_domain_check.
    """
    a = _vector(a, 2 * rig.r, "correspondence")
    y0 = _dlt(rig, a, minimal_init) if warm_start is None else warm_start
    (res,), jet = _triangulate_rows(rig, a[None], y0, opts)
    if isinstance(res, RiemcondError):
        raise res
    if jet is not None:  # else no step was taken, and the rig keeps y0's
        _remember(rig, res.u_star, [v[0] for v in jet])
    return res


def _triangulate_rows(rig: CameraRig, A, y0, opts: SolverOptions | None = None):
    """triangulate(rig, a, warm_start=y0, opts=opts) for every row a of A (N, 2r).

    One _lm_rows call solves all rows. Returns (out, jet): out holds, per row,
    a SolveResult or the RiemcondError triangulate would raise; jet is the
    depths, numerators and Jacobians (a, num, J) of the trial points accepted
    last, or None, so with one row its row 0 is _jet's at u_star. An error of
    y0 (InvalidGeometry, NonFinite or OutsideDomain) raises.
    """
    A = np.asarray(A, dtype=float)
    finite = np.logical_and.reduce(np.isfinite(A), axis=1).tolist()
    out = [None if ok else _non_finite(a, "correspondence") for a, ok in zip(A, finite)]
    pos = [n for n, res in enumerate(out) if res is None]
    if not pos:
        return out, None
    a0, num0, J0 = _jet(rig, y0)
    y0 = np.asarray(y0, dtype=float)
    _require_finite(J0, "Jacobian at the start point")
    target = A if len(pos) == len(A) else A[pos]
    every, jet = list(range(len(pos))), None

    def evaluate(Y, rows):
        a, num, inside = _domain_rows(rig, Y)
        if not all(inside):
            # rows outside get a harmless placeholder; the loop ignores their residuals
            mask = np.array(inside)
            a = np.where(mask[:, None], a, 1.0)
            num = np.where(mask[:, None, None], num, 0.0)

        def jac(sel):  # sel ascends: one as long as a is every trial point
            nonlocal jet
            at = (a, num) if len(sel) == len(a) else (a.take(sel, 0), num.take(sel, 0))
            jet = (*at, _jacobian(rig, *at))
            return jet[2]
        T = target if rows == every else target.take(rows, 0)
        return _projection(a, num) - T, inside, jac

    m = len(pos)
    u, J = np.repeat(y0[None], m, axis=0), np.repeat(J0[None], m, axis=0)
    with np.errstate(over="ignore"):  # for jac: a depth past ~1e154 squares to inf
        results = _lm_rows(evaluate, u, _projection(a0, num0) - target, J, opts or _DEFAULTS)
    for n, res in zip(pos, results):
        out[n] = res
    return out, jet


def mv_certificate(rig: CameraRig, y, a) -> float:
    """Tangential residual norm of a - mu(y); a is checked as triangulate checks it."""
    alpha, num, _, Q, _ = _frame(rig, y)
    a = _vector(a, 2 * rig.r, "correspondence")
    return float(np.linalg.norm(Q.T @ (a - _projection(alpha, num))))
