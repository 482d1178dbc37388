"""Pinhole multiview geometry: projection, DLT triangulation, curvature.

A rig of r cameras defines the stacked projection
mu(y) = [(A_l y + b_l) / (c_l . y + d_l)]_l from world points to R^{2r}.
Off the excluded set (principal planes, first-two-camera baseline) the
image is a 3-dimensional manifold; its Weingarten map and the condition
number 1 / sigma_3((I - S) R) have closed forms implemented here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from .condition import SING_TOL, ConditionReport, kappa_bounds
from .curvature import NORMALITY_TOL, weingarten
from .errors import (
    AtInfinity,
    DegenerateKernel,
    InvalidGeometry,
    NonFinite,
    NotNormal,
    OutsideDomain,
    _non_finite,
    _require_finite,
)
from .linalg import compact_qr
from .manifold import Parametrization

# Absolute floor on |c_l . y + d_l| and on the distance to the baseline.
DOM_TOL = 1e-8

_HOMOG_TOL = 1e-12  # |h_4| below this means a point/center at infinity


@dataclass(frozen=True)
class Camera:
    """Finite projective camera split into the blocks of P = [A b; c^T d]."""

    A: np.ndarray  # 2 x 3
    b: np.ndarray  # (2,)
    c: np.ndarray  # (3,)
    d: float

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float).reshape(2, 3))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).reshape(2))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).reshape(3))
        object.__setattr__(self, "d", float(self.d))
        _require_finite(self.matrix, "camera matrix")
        s = np.linalg.svd(self.matrix, compute_uv=False)
        if s[0] == 0.0 or s[2] <= 1e-10 * s[0]:
            raise InvalidGeometry("camera matrix must have rank 3")

    # the generated methods would compare and hash the array fields themselves
    def __eq__(self, other):
        if not isinstance(other, Camera):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash(tuple(self.matrix.ravel().tolist()))  # -0.0 and 0.0 hash alike

    @property
    def matrix(self):
        """The 3 x 4 projection matrix."""
        P = np.empty((3, 4))
        P[:2, :3] = self.A
        P[:2, 3] = self.b
        P[2, :3] = self.c
        P[2, 3] = self.d
        return P

    @classmethod
    def from_matrix(cls, P) -> "Camera":
        P = np.asarray(P, dtype=float).reshape(3, 4)
        return cls(A=P[:2, :3], b=P[:2, 3], c=P[2, :3], d=P[2, 3])

    def center_homogeneous(self):
        """Unit homogeneous kernel vector of P (the camera center)."""
        _, _, Vt = np.linalg.svd(self.matrix)
        return Vt[-1]

    def center(self):
        """Affine camera center; raises AtInfinity for affine cameras."""
        h = self.center_homogeneous()
        if abs(h[3]) < _HOMOG_TOL:
            raise AtInfinity("camera center is at infinity")
        return h[:3] / h[3]


def _readonly(arr) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CameraRig:
    """Ordered collection of r >= 2 cameras with a well-defined baseline.

    Construction stacks the cameras into read-only arrays P (r, 3, 4),
    A (r, 2, 3), b (r, 2), c (r, 3) and d (r,), and caches the baseline
    through the first two centers as a point and unit direction. With a
    center at infinity the baseline runs through the finite center along
    the infinite direction; with both at infinity there is no affine
    baseline and both are None. These derived attributes are not dataclass
    fields: equality, hash and repr see only `cameras`. Nor is the frame
    of the last point the rig was asked about, which _jet remembers.
    """

    cameras: Tuple[Camera, ...]

    def __post_init__(self):
        object.__setattr__(self, "cameras", tuple(self.cameras))
        if len(self.cameras) < 2:
            raise InvalidGeometry(f"a rig needs at least 2 cameras, got {len(self.cameras)}")
        h0 = self.cameras[0].center_homogeneous()
        h1 = self.cameras[1].center_homogeneous()
        if 1.0 - abs(float(h0 @ h1)) <= 1e-10:
            raise InvalidGeometry("first two camera centers coincide; baseline undefined")
        P = np.stack([cam.matrix for cam in self.cameras])
        blocks = {"P": P, "A": P[:, :2, :3], "b": P[:, :2, 3], "c": P[:, 2, :3], "d": P[:, 2, 3]}
        for name, arr in blocks.items():
            object.__setattr__(self, name, _readonly(arr))
        finite0, finite1 = abs(h0[3]) >= _HOMOG_TOL, abs(h1[3]) >= _HOMOG_TOL
        if finite0 and finite1:
            p0 = h0[:3] / h0[3]
            v = h1[:3] / h1[3] - p0
        elif finite0 or finite1:
            p0 = (h0[:3] / h0[3]) if finite0 else (h1[:3] / h1[3])
            v = h1[:3] if finite0 else h0[:3]
        else:
            p0 = v = None
        if v is not None:
            p0, v = _readonly(p0), _readonly(v / np.linalg.norm(v))
        object.__setattr__(self, "baseline_point", p0)
        object.__setattr__(self, "baseline_dir", v)
        object.__setattr__(self, "_last_point", (None,))

    @property
    def r(self) -> int:
        return len(self.cameras)


def rig_to_dict(rig: CameraRig) -> dict:
    """JSON-ready form: {"cameras": [[12 numbers, row-major 3x4], ...]}."""
    return {"cameras": rig.P.reshape(rig.r, 12).tolist()}


def rig_from_dict(data: dict) -> CameraRig:
    """Parse the rig wire format; structural problems raise ValueError,
    entries that are not finite NonFinite, geometric ones (rank-deficient
    cameras, coincident centers) InvalidGeometry."""
    if not isinstance(data, dict) or not isinstance(data.get("cameras"), list):
        raise ValueError('rig must be a JSON object whose "cameras" field is a list')
    cams = []
    for i, row in enumerate(data["cameras"]):
        try:
            flat = np.asarray(row, dtype=float)
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"cameras[{i}] must hold numbers: {exc}") from exc
        if flat.shape != (12,):
            raise ValueError(f"cameras[{i}] must hold 12 numbers, got shape {flat.shape}")
        bad = np.flatnonzero(~np.isfinite(flat)).tolist()
        if bad:
            raise NonFinite(f"cameras[{i}] is not finite (entries {bad})")
        cams.append(Camera.from_matrix(flat.reshape(3, 4)))
    return CameraRig(cameras=tuple(cams))


def alphas(rig: CameraRig, y):
    """Projective depths c_l . y + d_l of the point y (3,), or of every point
    in a stack y (..., 3), as (..., r).

    A stack runs the matmul of one point on every row, so a row's depths
    do not depend on the rows stacked with it; the same holds for
    _numerators, _projection and _jacobian.
    """
    return (rig.c @ np.asarray(y, dtype=float)[..., None])[..., 0] + rig.d


def _numerators(rig: CameraRig, y):
    """A_l y + b_l for every camera, as (..., r, 2)."""
    return (rig.A.reshape(-1, 3) @ y[..., None]).reshape(y.shape[:-1] + (rig.r, 2)) + rig.b


def _baseline_distances(rig: CameraRig, Y):
    """Distances from the points Y (M, 3) to the cached baseline (infinite when there is none)."""
    if rig.baseline_dir is None:
        return [math.inf] * len(Y)
    # |w x v| for the unit direction v, in Python floats: this runs on every LM trial point
    vx, vy, vz = rig.baseline_dir.tolist()
    return [math.hypot(wy * vz - wz * vy, wz * vx - wx * vz, wx * vy - wy * vx)
            for wx, wy, wz in (Y - rig.baseline_point).tolist()]


def _domain_rows(rig: CameraRig, Y):
    """Depths (M, r), numerators (M, r, 2) and domain verdicts (a list of M bools) of
    the points Y (M, 3), each point checked once: a point passes when it is finite and
    both |depth| in every camera and its distance to the baseline exceed DOM_TOL."""
    ok = np.isfinite(Y).all(axis=1)
    if not ok.all():
        Y = np.where(ok[:, None], Y, 0.0)  # such points fail; zeros keep the arithmetic quiet
    a, num = alphas(rig, Y), _numerators(rig, Y)
    ok &= np.abs(a).min(axis=1) > DOM_TOL
    dist = iter(_baseline_distances(rig, Y[ok]))
    return a, num, [passed and next(dist) > DOM_TOL for passed in ok.tolist()]


def _projection(a, num):
    """Stacked projection (..., 2r) from the depths a (..., r) and numerators (..., r, 2)."""
    return (num / a[..., None]).reshape(a.shape[:-1] + (-1,))


def _jacobian(rig: CameraRig, a, num):
    """Derivative (..., 2r, 3) of the stacked projection from its depths and numerators."""
    # libm pow, as the per-camera a_l ** 2 did: a * a and np.square differ in the last
    # bit for ~0.1% of inputs, and LM solves near focal points amplify that to ~1e-6
    with np.errstate(over="ignore"):  # a depth past ~1e154 squares to inf
        a2 = np.float_power(a, 2.0)
    outer = num[..., None] * rig.c[:, None, :]
    J = rig.A / a[..., None, None] - outer / a2[..., None, None]
    return J.reshape(a.shape[:-1] + (-1, 3))


def mv_domain_check(rig: CameraRig, y) -> bool:
    """Whether y is in the domain: the one-row view of _domain_rows."""
    return _domain_rows(rig, np.asarray(y, dtype=float)[None])[2][0]


def _checked(rig: CameraRig, y):
    """Depths and numerators of the world point y; NonFinite or OutsideDomain off the domain."""
    y = np.asarray(y, dtype=float)
    a, num, ok = _domain_rows(rig, y[None])
    if not ok[0]:
        _require_finite(y, "world point")
        raise OutsideDomain(
            f"world point {y} lies on a principal plane "
            "or the baseline (or within tolerance of them)"
        )
    return a[0], num[0]


def mv_project(rig: CameraRig, y):
    """Stacked pinhole projection of y: a 2r-vector of image coordinates."""
    return _projection(*_jet(rig, y, 2))


def mv_jacobian(rig: CameraRig, y):
    """2r x 3 derivative of the stacked projection at y."""
    return _jet(rig, y)[2].copy()


def triangulate_linear(rig: CameraRig, x, minimal: bool = False):
    """Direct linear triangulation of a (possibly inconsistent) correspondence.

    Stacks the rows (x_l e3 - e1) P_l and (y_l e3 - e2) P_l and returns the
    dehomogenized kernel direction. minimal=True uses only the first two
    cameras (the 4 x 4 system); the default uses all r cameras.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (2 * rig.r,):
        raise InvalidGeometry(f"correspondence must have length {2 * rig.r}, got {x.shape}")
    _require_finite(x, "correspondence")
    P = rig.P[:2] if minimal else rig.P
    xy = x[: 2 * len(P)].reshape(-1, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        M = (xy[:, :, None] * P[:, 2:3, :] - P[:, :2, :]).reshape(-1, 4)
    _require_finite(M, "overflowing DLT system")
    _, s, Vt = np.linalg.svd(M, full_matrices=False)  # Vt alone: no 2r x 2r U
    # gap measured against the matrix scale: a kernel direction is ambiguous
    # both when sigma_3 ~ sigma_4 and when both vanish together
    if s[2] - s[3] <= 1e-8 * s[0]:
        raise DegenerateKernel(
            f"two smallest singular values nearly equal ({s[3]:.3e} vs {s[2]:.3e})"
        )
    h = Vt[-1]
    if abs(h[3]) < _HOMOG_TOL:
        raise AtInfinity("triangulated point is at infinity")
    return h[:3] / h[3]


class MultiviewFactors(NamedTuple):
    """Frame at one world point and the Weingarten maps of a stack of normals.

    Q (2r, 3) and R (3, 3) are the compact QR of the Jacobian at y, taken
    once. S_hat (N, 3, 3) holds each normal's second fundamental form in
    frame coordinates and S (N, 3, 3) its Weingarten map in the orthonormal
    frame. errors[n] is the error of row n (NonFinite or NotNormal) or None;
    the S_hat and S of a failed row are NaN.
    """

    Q: np.ndarray
    R: np.ndarray
    S_hat: np.ndarray
    S: np.ndarray
    errors: tuple


def _stacked_hat(rig: CameraRig, a, num, E):
    """Closed-form S_hat (N, 3, 3) of every normal in E (N, 2r), from the point's a and num."""
    eta_l = E.reshape(len(E), rig.r, 2)
    e0, e1 = eta_l[:, :, 0], eta_l[:, :, 1]
    # two-term sums written out: the bits of the einsums, at a third of the cost
    beta = e0 * num[:, 0] + e1 * num[:, 1]
    g = e0[:, :, None] * rig.A[:, 0] + e1[:, :, None] * rig.A[:, 1]
    cc = rig.c[:, :, None] * rig.c[:, None, :]
    cg = rig.c[:, :, None] * g[:, :, None, :]
    # each term is symmetric bitwise, so the sums over cameras are too
    return (np.einsum("nl,lij->nij", 2.0 * beta / a**3, cc)
            - np.einsum("l,nlij->nij", 1.0 / a**2, cg + cg.transpose(0, 1, 3, 2)))


def _jet(rig: CameraRig, y, n=3):
    """The first n of (a, num, J, Q, R) at y: depths, numerators, Jacobian and its compact
    QR. y's domain errors, and the QR's NonFinite, raise on every call.

    The rig remembers them for the last point it was asked about, keyed by y's shape and
    bytes, and fills them only as far as its callers ask: a hit returns the read-only
    arrays a miss computed. The memo is one tuple replaced whole, so no thread reads one
    point's key with another point's arrays.
    """
    y = np.asarray(y, dtype=float)
    key = (y.shape, y.tobytes())
    last = memo = rig._last_point
    if memo[0] != key:
        memo = (key, *_checked(rig, y))
    if n > 2 and len(memo) == 3:
        memo += (_jacobian(rig, memo[1], memo[2]),)
    if n > 3 and len(memo) == 4:
        memo += compact_qr(memo[3])
    if memo is not last:
        for arr in memo[1:]:
            arr.flags.writeable = False
        object.__setattr__(rig, "_last_point", memo)
    return memo[1:n + 1]


def _frame(rig: CameraRig, y):
    """(a, num, J, Q, R) at y: the _jet of y and the compact QR of its Jacobian."""
    return _jet(rig, y, 5)


def mv_factors(rig: CameraRig, y, E) -> MultiviewFactors:
    """Frame at y once, then S_hat and S for every normal in the stack E (N, 2r).

    Errors of y itself (OutsideDomain, NonFinite, SingularR) and a stack
    whose rows are not 2r long raise. A row that is not finite or not
    normal is recorded in errors instead, and the other rows come out as
    if it were absent.
    """
    factors = _factors(rig, _frame(rig, y), np.asarray(E, dtype=float))
    return factors._replace(Q=np.copy(factors.Q), R=np.copy(factors.R))  # the caller's own


def _factors(rig: CameraRig, frame, E, maps=True) -> MultiviewFactors:
    """mv_factors of the float stack E from the _frame of y; maps=False gives the row
    verdicts alone (S_hat and S None), for a caller that builds the maps itself."""
    a, num, _, Q, R = frame
    if E.ndim != 2 or E.shape[1] != 2 * rig.r:
        raise NotNormal(f"eta must have length {2 * rig.r}, got rows of shape {E.shape[1:]}")
    finite = np.isfinite(E).all(axis=1)
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite rows are reported below
        nrm = np.linalg.norm(E, axis=1)
        tangential = np.linalg.norm(E @ Q, axis=1)
    ok = finite & np.isfinite(nrm) & ~(tangential > NORMALITY_TOL * nrm)
    errors = [None] * len(E)
    for n in np.flatnonzero(~ok).tolist():
        if not finite[n]:
            errors[n] = _non_finite(E[n], "normal vector eta")
        elif not np.isfinite(nrm[n]):  # finite entries past ~1.3e154 square to inf
            errors[n] = _non_finite(nrm[n], "norm of normal vector eta")
        else:
            errors[n] = NotNormal(
                f"eta has tangential component {tangential[n]:.3e} (norm {nrm[n]:.3e})")
    if not maps:
        return MultiviewFactors(Q, R, None, None, tuple(errors))
    if ok.all():
        S_hat = _stacked_hat(rig, a, num, E)
        return MultiviewFactors(Q, R, S_hat, weingarten(S_hat, R), tuple(errors))
    S_hat = np.full((len(E), 3, 3), np.nan)
    S = S_hat.copy()
    S_hat[ok] = _stacked_hat(rig, a, num, E[ok])
    S[ok] = weingarten(S_hat[ok], R)
    return MultiviewFactors(Q, R, S_hat, S, tuple(errors))


def _one_row(rig: CameraRig, frame, eta) -> MultiviewFactors:
    """_factors on the one-row stack [eta]; the row's error is raised."""
    factors = _factors(rig, frame, np.asarray(eta, dtype=float)[None])
    if factors.errors[0] is not None:
        raise factors.errors[0]
    return factors


def mv_weingarten_hat(rig: CameraRig, y, eta):
    """Second fundamental form of the multiview manifold contracted with eta.

    Closed form: sum over cameras of
    2 (eta_l . (A_l y + b_l)) c_l c_l^T / alpha_l^3
    - (c_l (A_l^T eta_l)^T + (A_l^T eta_l) c_l^T) / alpha_l^2.
    """
    return _one_row(rig, _frame(rig, y), eta).S_hat[0]


def mv_weingarten(rig: CameraRig, y, eta):
    """Frame and Weingarten map at mu(y): returns (Q, R, S_hat, S)."""
    Q, R, S_hat, S, _ = _one_row(rig, _frame(rig, y), eta)
    return np.copy(Q), np.copy(R), S_hat[0], S[0]


def kappa_from_factors(R, S, sigma_R, _vectors=True):
    """kappa = 1 / sigma_3((I - S) R) plus the worst tangent direction.

    Returns (kappa, ill_posed, u, singular_values) where u is the third
    left singular vector of (I - S) R: the tangent coordinates of the
    worst ambient perturbation. The zero threshold is taken relative to
    the larger of sigma_1((I - S) R) and sigma_1(R) so that I - S ~ 0
    (all directions focal at once) is detected as ill-posed too.
    sigma_R holds the singular values of R, descending. S may be a stack
    (N, 3, 3); every result then gains the leading axis N. A caller that
    reads no direction passes _vectors=False: the SVD then computes the
    singular values alone, and u is None.
    """
    M = (np.eye(3) - S) @ R
    U, s = np.linalg.svd(M)[:2] if _vectors else (None, np.linalg.svd(M, compute_uv=False))
    scale = np.maximum(s[..., 0], sigma_R[0])
    ill = (scale == 0.0) | (s[..., 2] <= SING_TOL * scale)
    with np.errstate(divide="ignore"):
        kappa = np.where(ill, np.inf, 1.0 / s[..., 2])
    return kappa, ill, None if U is None else np.ascontiguousarray(U[..., :, 2]), s


class ConditionRows(NamedTuple):
    """Condition numbers of N critical pairs that share the frame factor R.

    kappa, ill_posed, bounds_lo and bounds_hi are (N,); worst (N, 3) holds
    the worst tangent directions (None if not asked for) and sigma (N, 3) the
    singular values of (I - S) R; sigma_R and kappa_S belong to R alone.
    """

    kappa: np.ndarray
    ill_posed: np.ndarray
    worst: np.ndarray
    sigma: np.ndarray
    sigma_R: np.ndarray
    kappa_S: float
    bounds_lo: np.ndarray
    bounds_hi: np.ndarray


def mv_condition(R, S, eta_norms) -> ConditionRows:
    """kappa, worst direction, sandwich bounds and sigmas for a stack S (N, 3, 3).

    eta_norms (N,) are the lengths of the normals behind S; a zero length
    collapses the bounds to kappa_S. Every small-matrix factorization is
    one call on the whole stack.
    """
    eta_norms = np.asarray(eta_norms, dtype=float)
    # a zero normal has S = 0, so dividing by 1 gives the curvatures 0 and factors 1
    curv = np.linalg.eigvalsh(S) / np.where(eta_norms > 0, eta_norms, 1.0)[:, None]
    return _condition(R, S, curv, eta_norms)


def _condition(R, S, curv, eta_norms, vectors=True) -> ConditionRows:
    """mv_condition for rows whose curvatures curv (N, 3) the caller already has,
    as a sweep has them for a whole ray; vectors=False leaves worst None."""
    sigma_R = np.linalg.svd(R, compute_uv=False)
    kappa, ill, worst, s = kappa_from_factors(R, S, sigma_R, _vectors=vectors)
    kappa_S = np.inf if sigma_R[2] <= SING_TOL * sigma_R[0] else 1.0 / float(sigma_R[2])
    lo, hi = kappa_bounds(kappa_S, curv, eta_norms)
    return ConditionRows(kappa, ill, worst, s, sigma_R, kappa_S, lo, hi)


def mv_kappa(rig: CameraRig, y, eta) -> ConditionReport:
    """Condition number of triangulation at the critical pair (mu(y) + eta, mu(y)).

    The worst_input_direction is in the orthonormal tangent coordinates of
    the frame Q at mu(y); the worst ambient perturbation is Q times it.
    """
    eta = np.asarray(eta, dtype=float)
    factors = _one_row(rig, _frame(rig, y), eta)
    rows = mv_condition(factors.R, factors.S, [np.linalg.norm(eta)])
    ill = bool(rows.ill_posed[0])
    return ConditionReport(
        kappa=float(rows.kappa[0]),
        ill_posed=ill,
        worst_input_direction=None if ill else rows.worst[0],
        bounds_lo=float(rows.bounds_lo[0]),
        bounds_hi=float(rows.bounds_hi[0]),
        components={
            "sigma3": float(rows.sigma[0, 2]),
            "sigma1": float(rows.sigma[0, 0]),
            "sigma3_R": float(rows.sigma_R[2]),
            "kappa_S": rows.kappa_S,
        },
    )


def as_parametrization(rig: CameraRig) -> Parametrization:
    """The multiview manifold as a chart over world space.

    Carries the analytic Jacobian but no analytic second derivatives, so
    curvature computed through this adapter exercises the finite-difference
    route (the independent check of the closed-form Weingarten map).
    """
    return Parametrization(
        ambient_dim=2 * rig.r,
        intrinsic_dim=3,
        point=lambda y: mv_project(rig, y),
        jac=lambda y: mv_jacobian(rig, y),
        hess_dirs=None,
        domain_check=lambda y: mv_domain_check(rig, y),
        name=f"multiview(r={rig.r})",
    )
