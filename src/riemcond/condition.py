"""Condition numbers of critical-point, approximation, and generalized problems.

The critical-point condition number is ||H^{-1}|| with H = I - S the
distance Hessian; equivalently max_i 1 / |1 - c_i ||eta|||. The
generalized problem multiplies in the derivative A of the idealized
problem and measures the result in an SPD output metric G via its
Cholesky factor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .curvature import WeingartenData
from .errors import InvalidGeometry, _floats, _require_finite
from .linalg import _require_symmetric, metric_cholesky

# Relative threshold below which a singular value counts as zero (ill-posed).
SING_TOL = 1e-12
# Relative gap within which two ill-posed offsets are reported as one.
MERGE_TOL = 1e-9


@dataclass
class ConditionReport:
    """Result of a condition-number computation.

    worst_input_direction is a unit vector in orthonormal tangent
    coordinates, present only when kappa is finite. bounds_lo/bounds_hi
    are the curvature sandwich bounds when curvature data was available.
    components records the sigma-values each factor contributed.
    """

    kappa: float
    ill_posed: bool
    worst_input_direction: Optional[np.ndarray] = None
    bounds_lo: Optional[float] = None
    bounds_hi: Optional[float] = None
    components: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ProblemDerivative:
    """Derivative of the idealized problem in fixed coordinates.

    A is p x m: the derivative of the solution map in the orthonormal
    tangent frame of the input manifold and caller-chosen output
    coordinates. output_metric is the SPD Gram matrix of those output
    coordinates (identity when None).
    """

    A: np.ndarray
    output_metric: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "A", _floats(self.A, "problem derivative A", "a matrix"))
        _require_finite(self.A, "problem derivative A")
        if self.output_metric is not None:
            G = _floats(self.output_metric, "output metric", "a matrix")
            _require_finite(G, "output metric")
            metric_cholesky(G)  # raises NotSPD on failure
            object.__setattr__(self, "output_metric", G)


def spectral_norm_metric(M, G=None):
    """Largest singular value of M measured in the output metric G.

    Returns (sigma, v) where sigma = sigma_1(C M) for the Cholesky factor
    C^T C = G and v is the corresponding right singular vector (the worst
    input direction). G = None means the identity metric.
    """
    M = np.atleast_2d(_floats(M, "matrix M", "a matrix"))
    if G is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            M = metric_cholesky(G) @ M
    _require_finite(M, "matrix M" if G is None else "matrix M in the output metric")
    _, s, Vt = np.linalg.svd(M, full_matrices=False)
    return float(s[0]), Vt[0]


def kappa_cpp(H) -> ConditionReport:
    """Condition number ||H^{-1}|| of a critical point with distance Hessian H.

    H must be a square symmetric matrix (SYM_TOL's rule), else InvalidGeometry; a NaN or
    infinity in it raises NonFinite. Returns infinity (ill_posed) when the smallest
    singular value of H falls below SING_TOL relative to the largest.
    """
    H = np.atleast_2d(_floats(H, "distance Hessian H", "a square matrix"))
    _require_finite(H, "distance Hessian H")
    _require_symmetric(H, InvalidGeometry, "distance Hessian H")
    evals, evecs = np.linalg.eigh(H)
    sigma = np.abs(evals)
    k = int(np.argmin(sigma))
    sigma_min, sigma_max = float(sigma[k]), float(sigma.max())
    components = {"sigma_min_H": sigma_min, "sigma_max_H": sigma_max}
    # H = I - S carries the identity's scale, so the zero threshold is
    # relative to max(1, sigma_max); this also catches H entirely ~ 0
    # (every direction simultaneously focal).
    if sigma_min <= SING_TOL * max(1.0, sigma_max):
        return ConditionReport(kappa=np.inf, ill_posed=True, components=components)
    return ConditionReport(
        kappa=1.0 / sigma_min,
        ill_posed=False,
        worst_input_direction=evecs[:, k],
        components=components,
    )


def kappa_cpp_curvatures(c, eta_norm: float) -> float:
    """Curvature form of the critical-point condition number.

    max_i 1 / |1 - c_i ||eta|||; infinity when some factor vanishes.
    With no curvature data (eta = 0 convention) the value is 1.
    """
    return kappa_bounds(1.0, c, eta_norm)[1]


def kappa_gcpp(pd: ProblemDerivative, H) -> ConditionReport:
    """Condition number ||A H^{-1}||_G of a generalized critical point.

    H's spectrum and ill-posed verdict are kappa_cpp(H)'s; InvalidGeometry unless A has m columns.
    """
    H = np.atleast_2d(_floats(H, "distance Hessian H", "a square matrix"))
    base = kappa_cpp(H)
    if pd.A.shape[-1:] != H.shape[1:]:  # A is p x m, or one row of m
        raise InvalidGeometry(f"problem derivative A {pd.A.shape} does not fit H {H.shape}")
    if base.ill_posed:
        return base
    M = np.linalg.solve(H, pd.A.T).T  # A H^{-1}
    sigma1, v = spectral_norm_metric(M, pd.output_metric)
    base.components["sigma1_AHinv"] = sigma1
    return ConditionReport(
        kappa=sigma1, ill_posed=False, worst_input_direction=v, components=base.components
    )


def _sandwich(kappa_S, d_max, d_min):
    """kappa_S over the largest and the smallest factor |1 - c_i ||eta|||, elementwise; a
    factor at most SING_TOL gives infinity."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return tuple(np.where(d <= SING_TOL, np.inf, kappa_S / d) for d in (d_max, d_min))


def kappa_bounds(kappa_S: float, c, eta_norm):
    """Curvature sandwich around the generalized condition number.

    (kappa_S / max_i |1 - c_i ||eta|||, kappa_S / min_i |1 - c_i ||eta|||);
    both collapse to kappa_S on the manifold (eta = 0). A factor at most
    SING_TOL gives infinity; NaN input propagates as NaN. c may also be a
    stack (N, m) of curvature rows with eta_norm (N,) or one length; lo and
    hi are then (N,) arrays.
    """
    c = _floats(c, "curvatures", "an array of numbers")
    if c.ndim < 2 and c.size == 0:
        return float(kappa_S), float(kappa_S)
    d = np.abs(1.0 - c * _floats(eta_norm, "normal length", "a number or an array")[..., None])
    lo, hi = _sandwich(kappa_S, d.max(axis=-1), d.min(axis=-1))
    if c.ndim < 2:
        return float(lo), float(hi)
    return lo, hi


def ill_posedness_certificate(c):
    """Signed offsets t along the unit normal ray where the problem is ill-posed.

    These are {1/c_i : c_i != 0}, the normal multiples whose length equals
    a critical radius. Offsets equal up to MERGE_TOL (relative) are
    reported once, sorted.
    """
    c = _floats(c, "curvatures", "an array of numbers")
    nz = c[c != 0.0]
    if nz.size == 0:
        return np.empty(0)
    offsets = np.sort(1.0 / nz)
    clusters = [[offsets[0]]]
    for t in offsets[1:]:
        if abs(t - clusters[-1][-1]) <= MERGE_TOL * max(abs(t), abs(clusters[-1][-1])):
            clusters[-1].append(t)
        else:
            clusters.append([t])
    return np.array([np.mean(cl) for cl in clusters])


def kappa_cpp_from_weingarten(wd: WeingartenData) -> ConditionReport:
    """Critical-point condition number with the dual sigma/curvature route.

    Computes kappa from H = I - S and, when curvature data is present,
    from the curvature product form; a relative discrepancy above 1e-8
    raises a diagnostic warning (not an error). Bounds collapse to kappa
    itself since A = I for the plain critical-point problem.
    """
    report = kappa_cpp(wd.H)
    lo, kappa_curv = kappa_bounds(1.0, wd.curvatures, wd.eta_norm)
    report.components["kappa_curvatures"] = kappa_curv
    both_finite = np.isfinite(report.kappa) and np.isfinite(kappa_curv)
    if both_finite:
        disc = abs(report.kappa - kappa_curv) / max(report.kappa, kappa_curv)
        if disc > 1e-8:
            warnings.warn(
                f"sigma-based and curvature-based kappa disagree by {disc:.3e}",
                stacklevel=2,
            )
        report.bounds_lo, report.bounds_hi = lo, kappa_curv
    elif report.ill_posed != (not np.isfinite(kappa_curv)):
        warnings.warn("sigma-based and curvature-based ill-posedness verdicts differ", stacklevel=2)
    return report
