"""Synthetic-rig validation experiments for the triangulation condition number.

Two protocols: a sweep of the theoretical condition number along a normal
ray (with curvature bounds and ill-posedness markers), and a validation
run that perturbs each swept input in its worst direction, re-solves the
triangulation, and compares the observed amplification with the theory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.signal

from .condition import ill_posedness_certificate
from .errors import EmptyInput, InvalidGeometry, RiemcondError, _require_finite
from .linalg import compact_qr
from .multiview import (
    Camera,
    CameraRig,
    mv_condition,
    mv_factors,
    mv_jacobian,
    mv_project,
    mv_weingarten,
)
from .solver import SolverOptions, Status, _triangulate_rows

# A validation row is a basin escape when the observed output displacement
# exceeds the first-order prediction by this factor.
BASIN_ESCAPE_FACTOR = 1e3
# Worst-direction perturbation of a validation row, relative to ||a(t)||.
PERTURB_REL = 1e-6
# Prominence (decades of sigma_3) of a singular dip: true dips deepen without bound as
# the grid refines (>= ~0.6 decades on the default grids), singular-value crossings ~0.1.
DIP_PROMINENCE = 0.4


@dataclass(frozen=True)
class RigSpec:
    """Deterministic description of a synthetic camera rig.

    k cameras sit on a circular arc of radius `radius` spanning
    `arc_degrees`, optical axes through look_at. The seed drives the
    per-camera roll about the optical axis (centers stay exactly on the
    arc so baseline geometry is predictable).
    """

    k: int = 10
    radius: float = 5.0
    arc_degrees: float = 60.0
    look_at: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    seed: int = 0
    focal: float = 1.0

    def __post_init__(self):
        for name in ("k", "radius", "arc_degrees", "look_at", "focal"):
            _require_finite(np.array(getattr(self, name), dtype=float), name)
        if self.k < 2:
            raise InvalidGeometry(f"need at least 2 cameras, got {self.k}")
        if self.radius <= 0 or self.focal <= 0:
            raise InvalidGeometry("radius and focal must be positive")


@dataclass
class SweepRecord:
    """One grid point of a sweep or validation run.

    t_rel is the signed offset in units of ||x||. kappa_est and ratio are
    present only for validation rows, as are status and iterations, the
    solver's exit status and accepted steps for the row; flagged marks
    basin escapes (or rows whose theory value is not finite), which
    ratio_stats excludes. A per-point failure is recorded in `error` (NaN
    numeric fields, flagged) and the rest of the run continues.
    """

    t_rel: float
    kappa: float
    bounds: Tuple[float, float]
    sigma3: float
    ill_posed: bool
    kappa_est: Optional[float] = None
    ratio: Optional[float] = None
    flagged: bool = False
    error: Optional[str] = None
    status: Optional[Status] = None
    iterations: Optional[int] = None


def _error_record(t_rel: float, exc: Exception) -> SweepRecord:
    return SweepRecord(
        t_rel=float(t_rel), kappa=np.nan, bounds=(np.nan, np.nan), sigma3=np.nan,
        ill_posed=False, flagged=True, error=f"{type(exc).__name__}: {exc}",
    )


def gen_rig(spec: RigSpec) -> CameraRig:
    """Build the synthetic rig described by spec, deterministically."""
    rng = np.random.default_rng(spec.seed)
    look = np.asarray(spec.look_at, dtype=float)
    arc = np.radians(spec.arc_degrees)
    thetas = np.linspace(-arc / 2.0, arc / 2.0, spec.k)
    up = np.array([0.0, 1.0, 0.0])
    cams = []
    for theta in thetas:
        roll = rng.uniform(-0.15, 0.15)
        center = look + spec.radius * np.array([np.sin(theta), 0.0, np.cos(theta)])
        z = look - center
        z = z / np.linalg.norm(z)
        x = np.cross(up, z)
        x = x / np.linalg.norm(x)
        yax = np.cross(z, x)
        Rw2c = np.vstack([x, yax, z])
        cr, sr = np.cos(roll), np.sin(roll)
        Rw2c[:2] = np.array([[cr, sr], [-sr, cr]]) @ Rw2c[:2]
        K = np.diag([spec.focal, spec.focal, 1.0])
        P = K @ np.hstack([Rw2c, (-Rw2c @ center)[:, None]])
        cams.append(Camera.from_matrix(P))
    return CameraRig(cameras=tuple(cams))


def prefix_rig(rig: CameraRig, k: int) -> CameraRig:
    """First k cameras of a rig: the nested family used for monotonicity checks."""
    return CameraRig(cameras=rig.cameras[:k])


def random_unit_normal(rig: CameraRig, y, seed: int):
    """Unit normal at mu(y) from a projected standard-normal draw."""
    rng = np.random.default_rng(seed)
    Q, _ = compact_qr(mv_jacobian(rig, y))
    n = Q.shape[0]
    for _ in range(100):
        v = rng.standard_normal(n)
        eta = v - Q @ (Q.T @ v)
        nrm = np.linalg.norm(eta)
        if nrm > 1e-8:
            return eta / nrm
    raise InvalidGeometry("could not draw a normal direction (degenerate frame?)")


def log_grid(lo: float, hi: float, count: int, two_sided: bool = True):
    """Log-spaced |t|/||x|| grid; mirrored to negative offsets when two_sided."""
    pos = 10.0 ** np.linspace(float(lo), float(hi), int(count))
    if not two_sided:
        return pos
    return np.concatenate([-pos[::-1], pos])


def _theory_rows(rig, y, eta, t_grid, x_norm):
    """Sweep records over t_grid from one kernel call, the frame Q, and the
    worst direction of every row (None for error rows).

    Row n uses the normal t_n ||x|| eta; an error of y applies to every row,
    an error of one row to that row alone.
    """
    t = np.asarray(t_grid, dtype=float)
    try:
        factors = mv_factors(rig, y, np.multiply.outer(t * x_norm, np.asarray(eta, dtype=float)))
        good = [n for n, err in enumerate(factors.errors) if err is None]
        cond = mv_condition(factors.R, factors.S[good], np.abs(t[good]) * x_norm)
    except RiemcondError as exc:
        return [_error_record(t_rel, exc) for t_rel in t], None, [None] * len(t)
    records = [None if err is None else _error_record(t_rel, err)
               for t_rel, err in zip(t, factors.errors)]
    worst = [None] * len(t)
    rows = zip(good, cond.kappa.tolist(), cond.bounds_lo.tolist(), cond.bounds_hi.tolist(),
               cond.sigma[:, 2].tolist(), cond.ill_posed.tolist(), cond.worst)
    for n, kappa, lo, hi, sigma3, ill, u in rows:
        records[n] = SweepRecord(t_rel=float(t[n]), kappa=kappa, bounds=(lo, hi),
                                 sigma3=sigma3, ill_posed=ill)
        worst[n] = u
    return records, factors.Q, worst


def experiment_sweep(rig: CameraRig, y, eta, t_grid: Sequence[float]):
    """Theoretical condition numbers along a(t) = x + t ||x|| eta over t_grid."""
    y = np.asarray(y, dtype=float)
    x_norm = float(np.linalg.norm(mv_project(rig, y)))
    return _theory_rows(rig, y, eta, t_grid, x_norm)[0]


def experiment_validate(
    rig: CameraRig,
    y,
    eta,
    t_grid: Sequence[float],
    perturb_rel: float = PERTURB_REL,
    opts: SolverOptions | None = None,
):
    """Worst-direction perturbation study along the normal ray.

    Per grid point: perturb a(t) by perturb_rel ||a(t)|| in the worst
    tangent direction, re-solve the triangulation warm-started at the
    unperturbed solution y, and record the observed amplification
    kappa_est = ||y - y_est|| / ||E|| next to the theory value. All rows
    are solved in one stacked call, each exactly as triangulate would. A
    perturb_rel that is not finite raises NonFinite, one <= 0
    InvalidGeometry, before anything is solved.
    """
    _require_finite(np.array(perturb_rel, dtype=float), "perturb_rel")
    if perturb_rel <= 0:
        raise InvalidGeometry(f"perturb_rel must be positive, got {perturb_rel}")
    y = np.asarray(y, dtype=float)
    x = mv_project(rig, y)
    x_norm = float(np.linalg.norm(x))
    eta = np.asarray(eta, dtype=float)
    records, Q, worst = _theory_rows(rig, y, eta, t_grid, x_norm)
    todo, perturbed, perturbations = [], [], []
    for n, (rec, u) in enumerate(zip(records, worst)):
        if rec.error is not None:
            continue
        if not np.isfinite(rec.kappa):
            rec.flagged = True
            continue
        a = x + rec.t_rel * x_norm * eta
        E = perturb_rel * np.linalg.norm(a) * (Q @ u)
        todo.append(n)
        perturbed.append(a + E)
        perturbations.append(E)
    results = _triangulate_rows(rig, perturbed, y, opts)
    for n, E, result in zip(todo, perturbations, results):
        rec = records[n]
        if isinstance(result, RiemcondError):
            records[n] = _error_record(rec.t_rel, result)
            continue
        rec.status, rec.iterations = result.status, result.iterations
        displacement = float(np.linalg.norm(result.u_star - y))
        E_norm = float(np.linalg.norm(E))
        rec.kappa_est = displacement / E_norm
        rec.ratio = rec.kappa / rec.kappa_est if rec.kappa_est > 0 else np.inf
        rec.flagged = (
            displacement > BASIN_ESCAPE_FACTOR * rec.kappa * E_norm or not np.isfinite(rec.ratio)
        )
    return records


def ratio_stats(records: Sequence[SweepRecord]):
    """Arithmetic and geometric means of unexcluded ratios.

    Flagged rows and rows without a ratio are excluded; raises EmptyInput
    when nothing remains.
    """
    ratios = [r.ratio for r in records if r.ratio is not None and not r.flagged]
    excluded = len(records) - len(ratios)
    if not ratios:
        raise EmptyInput("no unexcluded validation rows")
    arr = np.asarray(ratios, dtype=float)
    return float(arr.mean()), float(np.exp(np.log(arr).mean())), excluded


def singular_offsets_rel(rig: CameraRig, y, eta):
    """Signed grid offsets t_rel where the sweep along eta is ill-posed.

    These are the ill-posedness certificate's offsets 1 / c_i over the
    nonzero eigenvalues c_i of the Weingarten map in the unit direction
    eta, in units of ||x||.
    """
    y = np.asarray(y, dtype=float)
    x_norm = float(np.linalg.norm(mv_project(rig, y)))
    S_unit = mv_weingarten(rig, y, eta)[3]
    return ill_posedness_certificate(np.linalg.eigvalsh(S_unit)) / x_norm


def detect_dips(sigma3: Sequence[float]):
    """Indices of singular dips in a sigma_3 profile.

    A dip is a peak of -log10(sigma_3) with a prominence of at least
    DIP_PROMINENCE decades, i.e. sigma_3 drops that far below its
    surroundings.
    """
    s = np.asarray(sigma3, dtype=float)
    floor = max(s.max(), 1e-300) * 1e-30
    depth = -np.log10(np.maximum(s, floor))
    peaks, _ = scipy.signal.find_peaks(depth, prominence=DIP_PROMINENCE)
    return peaks


CSV_HEADER = "t_rel,kappa,kappa_lo,kappa_hi,sigma3,ill_posed,kappa_est,ratio,flagged"


def _csv_num(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def record_to_csv_row(rec: SweepRecord) -> str:
    fields = [
        _csv_num(rec.t_rel),
        _csv_num(rec.kappa),
        _csv_num(rec.bounds[0]),
        _csv_num(rec.bounds[1]),
        _csv_num(rec.sigma3),
        "true" if rec.ill_posed else "false",
        _csv_num(rec.kappa_est),
        _csv_num(rec.ratio),
        "true" if rec.flagged else "false",
    ]
    return ",".join(fields)


def records_to_csv(records: Sequence[SweepRecord]) -> str:
    """Full CSV text (header row first, '\\n' line endings)."""
    lines = [CSV_HEADER]
    lines.extend(record_to_csv_row(r) for r in records)
    return "\n".join(lines) + "\n"
