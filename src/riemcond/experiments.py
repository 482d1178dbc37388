"""Synthetic-rig validation experiments for the triangulation condition number.

Two protocols: a sweep of the theoretical condition number along a normal
ray (with curvature bounds and ill-posedness markers), and a validation
run that perturbs each swept input in its worst direction, re-solves the
triangulation, and compares the observed amplification with the theory.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .condition import ill_posedness_certificate
from .errors import EmptyInput, InvalidGeometry, NonFinite, RiemcondError, _floats
from .errors import _require_finite, _require_finite_setting, _require_integer, _require_positive
from .multiview import (
    Camera,
    CameraRig,
    _condition,
    _jet,
    _maps,
    _normal_errors,
    _one_row,
    _ray_condition,
    mv_jacobian,  # noqa: F401  (a binding perfbench's tracer wraps)
)
from .solver import SolverOptions, Status, _dots, _triangulate_rows

# A validation row is a basin escape when the observed output displacement
# exceeds the first-order prediction by this factor.
BASIN_ESCAPE_FACTOR = 1e3
# Worst-direction perturbation of a validation row, relative to ||a(t)||.
PERTURB_REL = 1e-6
# Prominence (decades of sigma_3) of a singular dip: true dips deepen without bound as
# the grid refines (>= ~0.6 decades on the default grids), singular-value crossings ~0.1.
DIP_PROMINENCE = 0.4
# Largest log_grid count: a run holds every row and its record in memory.
MAX_GRID_COUNT = 10**6


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
        for name in ("k", "arc_degrees"):
            _require_finite_setting(getattr(self, name), name)
        for name in ("radius", "focal"):
            _require_positive(getattr(self, name), name)
        look = np.array(self.look_at, dtype=object)  # a ragged list stays one row of objects
        if look.shape != (3,) or any(map(np.ndim, look)):
            raise InvalidGeometry(f"look_at must be 3 numbers, got {self.look_at!r}")
        for value in self.look_at:
            _require_finite_setting(value, "look_at")
        _require_integer(self.k, "k", 2)
        _require_integer(self.seed, "seed", 0)


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
    # a degenerate spec gives a matrix that is not finite, and Camera raises NonFinite
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
            cams.append(Camera(P))
    return CameraRig(cameras=tuple(cams))


def prefix_rig(rig: CameraRig, k: int) -> CameraRig:
    """First k cameras of a rig: the nested family used for monotonicity checks.

    Raises InvalidGeometry unless k is an integer with 2 <= k <= rig.r.
    """
    if not isinstance(k, numbers.Integral) or not 2 <= k <= rig.r:
        raise InvalidGeometry(f"prefix of {k!r} cameras: need 2 <= k <= {rig.r}, k an integer")
    return CameraRig(cameras=rig.cameras[:k])


def random_unit_normal(rig: CameraRig, y, seed: int):
    """Unit normal at mu(y) from a projected standard-normal draw, seeded by seed (an
    integer >= 0, else InvalidGeometry)."""
    _require_integer(seed, "seed", 0)
    Q = _jet(rig, y, 5)[3]
    rng = np.random.default_rng(seed)
    for _ in range(100):
        v = rng.standard_normal(len(Q))
        eta = v - Q @ (Q.T @ v)
        nrm = np.linalg.norm(eta)
        if nrm > 1e-8:
            return eta / nrm
    raise InvalidGeometry("could not draw a normal direction (degenerate frame?)")


def log_grid(lo: float, hi: float, count: int, two_sided: bool = True):
    """Log-spaced |t|/||x|| grid of count points, 1 <= count <= MAX_GRID_COUNT (else
    InvalidGeometry); mirrored to negative offsets when two_sided. A bound that is not
    finite, or whose power of ten is not (past about 308.25), raises NonFinite."""
    for name, bound in (("lo", lo), ("hi", hi)):
        _require_finite_setting(bound, f"grid bound {name}")
    _require_integer(count, "grid count", 1)
    if count > MAX_GRID_COUNT:  # the count itself may be too long to print
        raise InvalidGeometry(f"grid count must be at most {MAX_GRID_COUNT}")
    with np.errstate(over="ignore"):
        ends = 10.0 ** np.array([lo, hi], dtype=float)
    for name, bound, end in zip(("lo", "hi"), (lo, hi), ends.tolist()):
        if not np.isfinite(end):
            raise NonFinite(f"grid bound 10**{name} is not finite ({name} = {bound})")
    pos = 10.0 ** np.linspace(float(lo), float(hi), count)
    if not two_sided:
        return pos
    return np.concatenate([-pos[::-1], pos])


def _theory_rows(rig, y, eta, t_grid, validate):
    """Records over t_grid from the _jet of y and one _normal_errors call, the normals E
    (N, 2r) and, for validate, the worst ambient direction Q w of each good row, by row.

    Row n uses the normal E_n = tau_n eta, tau_n = t_n ||x||, x = mu(y). As in mv_kappa, an
    error of y applies to every row, then each row has its own verdict, and an error building
    the maps goes to the rows without one. Validate builds each row's S from its own normal, so no
    row depends on how the grid is split into calls. A sweep reads no singular vectors, and
    S is linear in the normal: the good row whose normal's length is nearest 1 gives the map
    S_eta of eta (0 if no normal has a length), and _ray_condition the rows tau_n S_eta. The
    rig keeps y's jet: a second run at y reads x, the maps' constants and sigma(R) from it.
    """
    _jet(rig, y, 2)  # an error of y raises, before the grid's
    t = _floats(t_grid, "t_grid", "a 1-D array of numbers")
    if t.ndim != 1:
        raise InvalidGeometry(f"t_grid must be 1-D, got shape {t.shape}")
    t_rel, errors = t.tolist(), [None] * len(t)
    try:  # the QR in here: a Jacobian that is not finite is every row's error
        jet = _jet(rig, y, 8)
        Q, R, sigma = jet[3], jet[4], jet[6]
        with np.errstate(over="ignore"):  # a row whose normal overflows is NonFinite below
            tau = t * jet[7][1]
            E = np.multiply.outer(tau, _floats(eta, "normal vector eta", f"{len(Q)} numbers"))
        errors, norms = _normal_errors(Q, E)
        every = errors.count(None) == len(t)
        good = range(len(t)) if every else [n for n, err in enumerate(errors) if err is None]
        sel = slice(None) if every else good  # a view when every row is good
        tau, norms = tau[sel], norms[sel]
        if validate:
            cond = _condition(R, sigma, _maps(rig, jet, E[sel])[1])
        else:
            S_eta = np.zeros((3, 3))
            if norms.any():
                with np.errstate(divide="ignore"):  # a zero length is never nearest 1
                    k = np.argmin(np.abs(np.log(norms)))
                S_eta = _maps(rig, jet, E[good[k]][None])[1][0] / tau[k]
            else:  # as in mv_kappa, a zero normal's map meets the congruence's singularity check
                _maps(rig, jet, E[:0])
            cond = _ray_condition(R, sigma, S_eta, tau)
    except RiemcondError as exc:
        return [_error_record(v, err or exc) for v, err in zip(t_rel, errors)], None, None
    rows = map(SweepRecord, t_rel if every else t[sel].tolist(), cond.kappa.tolist(),
               zip(cond.bounds_lo.tolist(), cond.bounds_hi.tolist()),
               cond.sigma[:, 2].tolist(), cond.ill_posed.tolist())
    records = list(rows) if every else [
        next(rows) if err is None else _error_record(v, err) for v, err in zip(t_rel, errors)]
    worst = dict(zip(good, (Q[None] @ cond.worst[:, :, None])[:, :, 0])) if validate else None
    return records, E, worst


def experiment_sweep(rig: CameraRig, y, eta, t_grid: Sequence[float]):
    """Theoretical condition numbers along a(t) = x + t ||x|| eta over t_grid."""
    return _theory_rows(rig, y, eta, t_grid, validate=False)[0]


def experiment_validate(rig: CameraRig, y, eta, t_grid: Sequence[float],
                        perturb_rel: float = PERTURB_REL, opts: SolverOptions | None = None):
    """Worst-direction perturbation study along the normal ray.

    Per grid point: perturb a(t) by perturb_rel ||a(t)|| in the worst
    tangent direction, re-solve the triangulation warm-started at the
    unperturbed solution y, and record the observed amplification
    kappa_est = ||y - y_est|| / ||E|| next to the theory value. All rows
    are solved in one stacked call, each exactly as triangulate would. A
    perturb_rel that is not finite raises NonFinite, one <= 0
    InvalidGeometry, before anything is solved.
    """
    _require_positive(perturb_rel, "perturb_rel")
    y = _floats(y, "world point", "3 numbers")
    records, normals, worst = _theory_rows(rig, y, eta, t_grid, validate=True)
    for rec in records:  # a theory value that is not finite: inf, or an error row's NaN
        rec.flagged = not math.isfinite(rec.kappa)
    todo = [n for n, rec in enumerate(records) if not rec.flagged]
    if not todo:
        return records
    # each row's a = x + t ||x|| eta and E = perturb_rel ||a|| Q w: sqrt(_dots) is norm;
    # the rig keeps y's jet, x included, for the solves
    A = _jet(rig, y, 8)[7][0] + normals[todo]
    E = (perturb_rel * np.sqrt(_dots(A, A)))[:, None] * np.array([worst[n] for n in todo])
    results, _ = _triangulate_rows(rig, A + E, y, opts)  # the memo stays on y
    D = np.array([y if isinstance(res, RiemcondError) else res.u_star for res in results]) - y
    for n, E_norm, displacement, result in zip(
            todo, np.sqrt(_dots(E, E)).tolist(), np.sqrt(_dots(D, D)).tolist(), results):
        rec = records[n]
        if isinstance(result, RiemcondError):
            records[n] = _error_record(rec.t_rel, result)
            continue
        rec.status, rec.iterations = result.status, result.iterations
        rec.kappa_est = displacement / E_norm
        rec.ratio = rec.kappa / rec.kappa_est if rec.kappa_est > 0 else np.inf
        rec.flagged = (
            displacement > BASIN_ESCAPE_FACTOR * rec.kappa * E_norm or not math.isfinite(rec.ratio)
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
    jet = _jet(rig, y, 8)
    S_unit = _one_row(rig, jet, eta)[1]
    return ill_posedness_certificate(np.linalg.eigvalsh(S_unit)) / jet[7][1]


def detect_dips(sigma3: Sequence[float]):
    """Indices of singular dips in a sigma_3 profile.

    A dip is a peak of -log10(sigma_3) with a prominence of at least
    DIP_PROMINENCE decades, i.e. sigma_3 drops that far below its
    surroundings. The profile must be 1-D (else InvalidGeometry), non-empty
    (else EmptyInput) and finite (else NonFinite: a row without a value
    reads as NaN).
    """
    s = _floats(sigma3, "sigma_3 profile", "a 1-D array of numbers")
    if s.ndim != 1:
        raise InvalidGeometry(f"sigma_3 profile must be 1-D, got shape {s.shape}")
    if s.size == 0:
        raise EmptyInput("sigma_3 profile is empty")
    _require_finite(s, "sigma_3 profile")
    floor = max(s.max() * 1e-30, 5e-324)  # the least subnormal: a floor of 0 logs to -inf
    peaks, prominences = _peak_prominences(-np.log10(np.maximum(s, floor)))
    return peaks[prominences >= DIP_PROMINENCE]


def _peak_prominences(x):
    """Peaks of the 1-D profile x (a sample or flat run above both neighbours, at its middle
    rounded down; never an end sample) and their topographic prominences: the height
    above the higher of the minima on each side before x rises above it or ends."""
    steps = np.flatnonzero(x[1:] != x[:-1])
    up = x[steps + 1] > x[steps]
    tops = np.flatnonzero(up[:-1] & ~up[1:])  # a rise, a flat run (maybe empty), a fall
    peaks = (steps[tops] + 1 + steps[tops + 1]) // 2
    prominences = []
    for p in peaks.tolist():
        lo = np.flatnonzero(np.r_[True, x[:p] > x[p]])[-1]  # just past the last higher sample
        hi = p + np.flatnonzero(np.r_[x[p:] > x[p], True])[0]  # at the next higher one
        prominences.append(x[p] - max(x[lo:p + 1].min(), x[p:hi].min()))
    return peaks, np.array(prominences)


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
