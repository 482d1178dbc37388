"""Test oracle: the Levenberg-Marquardt loop with one trial point per row and pass.

The reference against which tests compare `solver._lm_rows`, which tries a
ladder of dampings per row and pass. Both make the same arithmetic and the
same decisions, so their results agree bitwise. Swap it in for
`riemcond.solver._lm_rows` to run `_triangulate_rows` or `lm_minimize`
through it.
"""

import math

import numpy as np

from riemcond.errors import DomainEscape, NonFinite
from riemcond.solver import (
    DAMPING_DOWN,
    DAMPING_UP,
    INITIAL_DAMPING,
    MAX_DAMPING,
    MIN_DAMPING,
    SolveResult,
    Status,
    _dots,
)


def lm_rows_one_trial(evaluate, u, r, J, opts, exits=None):
    """_lm_rows with one trial per running row and pass.

    exits, when given, is a list that receives one (input row, reason) pair
    per finished row; the reasons are "grad_tol", "max_iters", "step_tol",
    "damping_cap", "domain" and "start".
    """
    out = [None] * len(u)
    exits = [] if exits is None else exits
    Jt = J.transpose(0, 2, 1)
    with np.errstate(over="ignore"):
        g, JtJ = (Jt @ r[:, :, None])[:, :, 0], Jt @ J
        rr, gg, uu = (_dots(v, v).tolist() for v in (r, g, u))
    for i, v in enumerate(rr):
        if not math.isfinite(v):
            out[i] = NonFinite(f"residual norm at the start point {u[i]} is not finite "
                               f"({math.sqrt(v)})")
            exits.append((i, "start"))
    live = list(range(len(u)))
    lam, fails, iters = [INITIAL_DAMPING] * len(u), [0] * len(u), [0] * len(u)
    eye = np.eye(u.shape[1])

    def finish(p, status, reason):
        out[live[p]] = SolveResult(u[p].copy(), math.sqrt(rr[p]), status, iters[p], math.sqrt(gg[p]))
        exits.append((live[p], reason))

    moved = [p for p in live if out[p] is None]
    while True:
        for p in moved:
            if iters[p] >= opts.max_iters:
                finish(p, Status.MaxIters, "max_iters")
            elif math.sqrt(gg[p]) <= opts.grad_tol * (1.0 + math.sqrt(rr[p])):
                finish(p, Status.Converged, "grad_tol")
        keep = [p for p, i in enumerate(live) if out[i] is None]
        if not keep:
            return out
        if len(keep) < len(live):
            live, lam, fails, iters, rr, gg, uu = (
                [v[p] for p in keep] for v in (live, lam, fails, iters, rr, gg, uu))
            u, g, JtJ = (v.take(keep, 0) for v in (u, g, JtJ))
        delta = np.linalg.solve(JtJ + np.array(lam)[:, None, None] * eye, -g[:, :, None])[:, :, 0]
        dd = _dots(delta, delta).tolist()
        model = _dots(0.5 * delta, (JtJ @ delta[:, :, None])[:, :, 0]).tolist()
        for p in range(len(live)):
            if math.sqrt(dd[p]) <= opts.step_tol * (1.0 + math.sqrt(uu[p])):
                finish(p, Status.Stalled, "step_tol")
        trial = [p for p, i in enumerate(live) if out[i] is None]
        moved = []
        if not trial:
            continue
        U = u + delta
        if len(trial) < len(live):
            U = U.take(trial, 0)
        R, inside, jac = evaluate(U, [live[p] for p in trial])
        rr_try = _dots(R, R).tolist()
        accepted = []
        for k, p in enumerate(trial):
            if not inside[k]:
                fails[p] += 1
                if fails[p] > 10:
                    out[live[p]] = DomainEscape(
                        f"iterates left the admissible domain near u={U[k]}")
                    exits.append((live[p], "domain"))
                lam[p] *= DAMPING_UP
            elif (math.sqrt(rr_try[k]) < math.sqrt(rr[p])
                  and 0.5 * (rr[p] - rr_try[k]) >= 0.25 * (model[p] + lam[p] * dd[p])):
                accepted.append(k)
                moved.append(p)
                rr[p] = rr_try[k]
                lam[p] = max(lam[p] * DAMPING_DOWN, MIN_DAMPING)
                iters[p] += 1
                fails[p] = 0
            else:
                lam[p] *= DAMPING_UP
                if lam[p] > MAX_DAMPING:
                    finish(p, Status.Stalled, "damping_cap")
        if accepted:
            Ja, Ua, Ra = jac(accepted), U.take(accepted, 0), R.take(accepted, 0)
            Jt = Ja.transpose(0, 2, 1)
            ga = (Jt @ Ra[:, :, None])[:, :, 0]
            at = np.array(moved)
            u[at], g[at], JtJ[at] = Ua, ga, Jt @ Ja
            for p, a, b in zip(moved, _dots(ga, ga).tolist(), _dots(Ua, Ua).tolist()):
                gg[p], uu[p] = a, b
