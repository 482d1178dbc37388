"""Benchmark workloads: seeded inputs, the timed call, and its correctness check.

Import only after env.pin_threads() and env.load_riemcond().

sweep and validate walk a fixed pool of calls whose outputs were stored
at the seed commit (reference.npz, written by make_reference.py); the seed
sets the order of the walk, drawn anew on every pass over the pool, so any
stretch of a run samples the whole pool evenly. triangulate draws a fresh
point per call from the seed and checks each solve without stored values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import riemcond as rc
import riemcond.linalg

REFERENCE = Path(__file__).resolve().parent / "reference.npz"

Y = np.array([0.35, -0.2, 0.4])

# sweep: the Experiment-2 analog on the nested prefix rigs of RigSpec(k=10, seed=0).
SWEEP_KS = (2, 3, 5, 10)
SWEEP_NORMALS = 8  # normal seeds 0..7 per rig
SWEEP_GRID = (-3.0, 4.0, 50)  # two-sided: 100 rows per call

# validate: the Experiment-1 analog (k=10, two-sided 1e-3..1e2, perturb_rel 1e-6).
# Normal seeds 4..9, with 7 the ROADMAP fixture's: six rays, so a run of the
# benchmark passes the pool more than twice and the share of calls a seed adds
# in a partial pass stays small.
VALIDATE_NORMALS = range(4, 10)
VALIDATE_GRID = (-3.0, 2.0, 100)  # two-sided: 200 rows per ray
VALIDATE_CHUNK = 10  # rows per call; rows do not depend on how the grid is split
PERTURB_REL = 1e-6

# triangulate: cold solves of noisy correspondences, then kappa at the solution.
TRIANGULATE_KS = (4, 10, 40)
TRIANGULATE_NOISE = 1e-3

# Correctness tolerances (relative).
TOL_THEORY = 1e-10  # kappa, sigma3, bounds: acceptance criterion 6
TOL_KAPPA_EST = 1e-8  # validation kappa_est
TOL_CERTIFICATE = 1e-8  # mv_certificate <= tol (1 + ||a||): criterion 10

SEEDS = {"default": 0, "holdout": 1001}  # the same for every workload

# Calls whose per-layer counts the traced run reports. A fixed number of calls
# from a seeded walk, so the counts repeat exactly for a seed; for sweep it is
# one whole pass over the pool, so its counts do not depend on the seed.
COUNT_WINDOW = {"sweep": 32, "validate": 40, "triangulate": 300}


@dataclass
class Call:
    """One closed-loop call: run() is timed, check(out) is not."""

    run: Callable[[], object]
    items: int
    check: Callable[[object], "Verdict"]


@dataclass
class Verdict:
    failed: int
    degraded: int
    problems: list


def _seeded_cycle(seed: int, pool):
    """Walk the pool in a new seeded order on every pass."""
    rng = np.random.default_rng(seed)
    while True:
        for i in rng.permutation(len(pool)):
            yield pool[i]


def _close(got, want, tol) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if np.isinf(want) or np.isinf(got):
        return got == want
    return abs(got - want) <= tol * abs(want)


def check_records(records, ref, where: str) -> Verdict:
    """Compare sweep/validate records with stored reference rows."""
    problems = []
    failed = degraded = 0
    for row, rec in enumerate(records):
        bad = []
        if rec.error is not None:
            bad.append(f"error {rec.error}")
        else:
            for field, got, tol in (
                ("kappa", rec.kappa, TOL_THEORY),
                ("sigma3", rec.sigma3, TOL_THEORY),
                ("lo", rec.bounds[0], TOL_THEORY),
                ("hi", rec.bounds[1], TOL_THEORY),
                ("kappa_est", rec.kappa_est, TOL_KAPPA_EST),
            ):
                want = float(ref[field][row])
                if not _close(got, None if np.isnan(want) else want, tol):  # NaN: no value
                    bad.append(f"{field}: got {got!r}, want {want!r}")
            for field, got in (("ill", rec.ill_posed), ("flagged", rec.flagged)):
                if bool(got) != bool(ref[field][row]):
                    bad.append(f"{field}: got {got}, want {bool(ref[field][row])}")
        if bad:
            failed += 1
            problems.extend(f"{where} row {row} t_rel={rec.t_rel!r}: {b}" for b in bad)
        elif rec.flagged:
            degraded += 1
    if len(records) != len(ref["kappa"]):
        problems.append(f"{where}: {len(records)} rows, want {len(ref['kappa'])}")
        failed += max(0, len(ref["kappa"]) - len(records))
    return Verdict(failed, degraded, problems)


def _ref_rows(ref, prefix, index, rows=slice(None)):
    return {f: ref[f"{prefix}_{f}"][index][rows]
            for f in ("kappa", "sigma3", "lo", "hi", "kappa_est", "ill", "flagged")}


def sweep_setup():
    rig10 = rc.gen_rig(rc.RigSpec(k=10, seed=0))
    rigs = [rc.prefix_rig(rig10, k) for k in SWEEP_KS]
    return rigs, rc.log_grid(*SWEEP_GRID)


def sweep_calls(seed: int, ref):
    rigs, grid = sweep_setup()
    rays = [(ki, s, rig, rc.random_unit_normal(rig, Y, s))
            for ki, rig in enumerate(rigs) for s in range(SWEEP_NORMALS)]
    for ki, s, rig, eta in _seeded_cycle(seed, rays):
        where = f"sweep k={SWEEP_KS[ki]} normal={s}"
        yield Call(
            run=lambda rig=rig, eta=eta: rc.experiment_sweep(rig, Y, eta, grid),
            items=len(grid),
            check=lambda out, ki=ki, s=s, where=where: check_records(
                out, _ref_rows(ref, "sweep", (ki, s)), where),
        )


def validate_setup():
    return rc.gen_rig(rc.RigSpec(k=10, seed=0)), rc.log_grid(*VALIDATE_GRID)


def validate_calls(seed: int, ref):
    rig, grid = validate_setup()
    rays = [(i, s, rc.random_unit_normal(rig, Y, s)) for i, s in enumerate(VALIDATE_NORMALS)]
    chunks = [slice(c, c + VALIDATE_CHUNK) for c in range(0, len(grid), VALIDATE_CHUNK)]
    for (i, s, eta), rows in _seeded_cycle(seed, list(itertools.product(rays, chunks))):
        where = f"validate normal={s} rows {rows.start}:{rows.stop}"
        yield Call(
            run=lambda eta=eta, rows=rows: rc.experiment_validate(
                rig, Y, eta, grid[rows], perturb_rel=PERTURB_REL),
            items=rows.stop - rows.start,
            check=lambda out, i=i, rows=rows, where=where: check_records(
                out, _ref_rows(ref, "validate", i, rows), where),
        )


def solve_and_kappa(rig, a):
    """Cold triangulation, then kappa at the solution along the projected residual.

    The residual is projected onto the normal space as `riemcond kappa --eta` does.
    """
    result = rc.triangulate(rig, a)
    y = result.u_star
    Q, _ = riemcond.linalg.compact_qr(rc.mv_jacobian(rig, y))
    residual = a - rc.mv_project(rig, y)
    eta = residual - Q @ (Q.T @ residual)
    return result, rc.mv_kappa(rig, y, eta)


def check_solve(rig, a, out, where: str) -> Verdict:
    result, report = out
    problems = []
    cert = rc.mv_certificate(rig, result.u_star, a)
    if not cert <= TOL_CERTIFICATE * (1.0 + np.linalg.norm(a)):
        problems.append(f"{where}: mv_certificate {cert:.3e}")
    dlt_residual = float(np.linalg.norm(rc.mv_project(rig, rc.triangulate_linear(rig, a)) - a))
    if not result.residual_norm < dlt_residual:
        problems.append(f"{where}: residual {result.residual_norm!r} not below DLT {dlt_residual!r}")
    if not np.isfinite(report.kappa) and not report.ill_posed:
        problems.append(f"{where}: kappa {report.kappa!r} without ill_posed")
    failed = 1 if problems else 0
    degraded = 0 if failed or result.status.value == "Converged" else 1
    return Verdict(failed, degraded, problems)


def triangulate_setup():
    return [rc.gen_rig(rc.RigSpec(k=k, seed=0)) for k in TRIANGULATE_KS]


def triangulate_calls(seed: int, ref=None):
    rigs = triangulate_setup()
    rng = np.random.default_rng(seed)
    for i in itertools.count():
        rig = rigs[i % len(rigs)]
        while True:
            y = rng.uniform(-0.7, 0.7, size=3)
            if rc.mv_domain_check(rig, y):
                break
        x = rc.mv_project(rig, y)
        noise = rng.standard_normal(x.size)
        a = x + TRIANGULATE_NOISE * noise / np.linalg.norm(noise)
        where = f"triangulate call {i} k={rig.r}"
        yield Call(
            run=lambda rig=rig, a=a: solve_and_kappa(rig, a),
            items=1,
            check=lambda out, rig=rig, a=a, where=where: check_solve(rig, a, out, where),
        )


CALLS = {"sweep": sweep_calls, "validate": validate_calls, "triangulate": triangulate_calls}


def load_reference():
    with np.load(REFERENCE) as data:
        return {name: data[name] for name in data.files}
