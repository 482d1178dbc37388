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

from .condition import SING_TOL, ConditionReport, _sandwich, kappa_bounds
from .curvature import _normal_errors
from .errors import AtInfinity, DegenerateKernel, InvalidGeometry, NonFinite, OutsideDomain
from .errors import SingularR, _floats, _require_finite, _vector
from .linalg import _congruence, _triangular_rows, compact_qr
from .manifold import Parametrization

# Absolute floor on |c_l . y + d_l| and on the distance to the baseline.
DOM_TOL = 1e-8

_HOMOG_TOL = 1e-12  # |h_4| below this means a point/center at infinity

_NEAR_DOUBLE = 1e-4  # 1 + cos(3 phi) below which _top_eigenvalues' pair is nearly double
_UPPER = np.triu_indices(3)


@dataclass(frozen=True)
class Camera:
    """Finite projective camera, kept as a read-only copy of its 3 x 4 matrix [A b; c^T d]."""

    matrix: np.ndarray

    def __post_init__(self):
        P = _floats(self.matrix, "camera matrix", "12 numbers").copy()  # frozen below
        if P.size != 12:
            raise InvalidGeometry(f"camera matrix must hold 12 numbers, got shape {P.shape}")
        object.__setattr__(self, "matrix", _readonly(P.reshape(3, 4)))
        _require_finite(self.matrix, "camera matrix")
        s = np.linalg.svd(self.matrix, compute_uv=False)
        if s[0] == 0.0 or s[2] <= 1e-10 * s[0]:
            raise InvalidGeometry("camera matrix must have rank 3")

    # the generated methods would compare and hash the array itself
    def __eq__(self, other):
        if not isinstance(other, Camera):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash(tuple(self.matrix.ravel().tolist()))  # -0.0 and 0.0 hash alike

    A = property(lambda self: self.matrix[:2, :3])
    b = property(lambda self: self.matrix[:2, 3])
    c = property(lambda self: self.matrix[2, :3])
    d = property(lambda self: float(self.matrix[2, 3]))

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

    Construction stacks the cameras into read-only arrays P (r, 3, 4), A (r, 2, 3), b (r, 2),
    c (r, 3), d (r,), M (3r, 3), p4 (r, 3) and cc (r, 3, 3), with P_l = [M_l | p4_l], the
    M_l = [A_l; c_l] one under another and cc_l = c_l c_l^T, and caches the baseline
    through the first two centers as a point and unit direction. With a center at infinity
    the baseline runs through the finite center along the infinite direction; with both at
    infinity there is no affine baseline and both are None. These derived attributes are
    not dataclass fields: equality, hash and repr see only `cameras`. Nor is the frame of
    the last point the rig was asked about, which _jet and triangulate remember.
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
        blocks = {"P": P, "A": P[:, :2, :3], "b": P[:, :2, 3], "c": P[:, 2, :3], "d": P[:, 2, 3],
                  "M": P[:, :, :3].reshape(-1, 3), "p4": P[:, :, 3]}
        with np.errstate(over="ignore"):
            blocks["cc"] = blocks["c"][:, :, None] * blocks["c"][:, None, :]
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
        cams.append(Camera(flat))
    return CameraRig(cameras=tuple(cams))


def _images(rig: CameraRig, Y):
    """Depths c_l . y + d_l (M, r) and numerators A_l y + b_l (M, r, 2) of the points Y
    (M, 3), views of the images M_l y + p4_l. The matmul of one point runs on every row, so
    a row's values do not depend on the rows stacked with it, nor do _projection's and
    _jacobian's."""
    H = (rig.M @ Y[:, :, None]).reshape(len(Y), rig.r, 3) + rig.p4
    return H[:, :, 2], H[:, :, :2]


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
    ok = np.logical_and.reduce(np.isfinite(Y), axis=1)
    if not all(ok.tolist()):
        Y = np.where(ok[:, None], Y, 0.0)  # such points fail; zeros keep the arithmetic quiet
    a, num = _images(rig, Y)
    ok = (ok & (np.minimum.reduce(np.abs(a), axis=1) > DOM_TOL)).tolist()
    dist = iter(_baseline_distances(rig, Y if all(ok) else Y[ok]))
    return a, num, [passed and next(dist) > DOM_TOL for passed in ok]


def _projection(a, num):
    """Stacked projection (..., 2r) from the depths a (..., r) and numerators (..., r, 2)."""
    return (num / a[..., None]).reshape(a.shape[:-1] + (-1,))


def _jacobian(rig: CameraRig, a, num):
    """Derivative (..., 2r, 3) of the stacked projection from its depths and numerators."""
    # libm pow, as the per-camera a_l ** 2 did: a * a and np.square differ in the last
    # bit for ~0.1% of inputs, and LM solves near focal points amplify that to ~1e-6.
    # A depth past ~1e154 squares to inf: callers hold np.errstate(over="ignore").
    a2 = np.float_power(a, 2.0)
    outer = num[..., None] * rig.c[:, None, :]
    J = rig.A / a[..., None, None] - outer / a2[..., None, None]
    return J.reshape(a.shape[:-1] + (-1, 3))


def mv_domain_check(rig: CameraRig, y) -> bool:
    """Whether y is in the domain: the one-row view of _domain_rows. A y that is not
    a 3-vector raises _checked's InvalidGeometry."""
    y = _floats(y, "world point", "3 numbers")
    with np.errstate(over="ignore"):  # an image past the float range is no domain failure
        return _domain_rows(rig, y[None])[2][0] if y.shape == (3,) else _checked(rig, y)


def _checked(rig: CameraRig, y):
    """Depths and numerators of the world point y; InvalidGeometry, NonFinite or OutsideDomain."""
    y = _vector(y, 3, "world point")
    with np.errstate(over="ignore"):  # an image past the float range: its callers raise NonFinite
        a, num, ok = _domain_rows(rig, y[None])
    if not ok[0]:
        raise OutsideDomain(
            f"world point {y} lies on a principal plane "
            "or the baseline (or within tolerance of them)"
        )
    return a[0], num[0]


def mv_project(rig: CameraRig, y):
    """Stacked pinhole projection of y, a 2r-vector; NonFinite if it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        x = _projection(*_jet(rig, y, 2))
    _require_finite(x, "projection")
    return x


def mv_jacobian(rig: CameraRig, y):
    """2r x 3 derivative of the stacked projection at y; NonFinite if it overflows."""
    J = _jet(rig, y)[2]
    _require_finite(J, "Jacobian")
    return J.copy()


def triangulate_linear(rig: CameraRig, x, minimal: bool = False):
    """Direct linear triangulation of a (possibly inconsistent) correspondence.

    Stacks the rows (x_l e3 - e1) P_l and (y_l e3 - e2) P_l and returns the
    dehomogenized kernel direction. minimal=True uses only the first two
    cameras (the 4 x 4 system); the default uses all r cameras.
    """
    return _dlt(rig, _vector(x, 2 * rig.r, "correspondence"), minimal)


def _dlt(rig: CameraRig, x, minimal):
    """triangulate_linear of the correspondence x, a checked float array (2r,)."""
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


def _stacked_hat(rig: CameraRig, num, a3, inv_a2, E):
    """Closed-form S_hat (N, 3, 3) of every normal in E (N, 2r), from the point's numerators
    and its depths' a^3 and 1 / a^2 (a depth past ~1e103 cubes to inf, and its term to 0)."""
    eta_l = E.reshape(len(E), rig.r, 2)
    e0, e1 = eta_l[:, :, 0], eta_l[:, :, 1]
    # two-term sums written out: the bits of the einsums, at a third of the cost
    beta = e0 * num[:, 0] + e1 * num[:, 1]
    g = e0[:, :, None] * rig.A[:, 0] + e1[:, :, None] * rig.A[:, 1]
    cg = rig.c[:, :, None] * g[:, :, None, :]
    # each term is symmetric bitwise, so the sums over cameras are too
    with np.errstate(over="ignore"):
        return (np.einsum("nl,lij->nij", 2.0 * beta / a3, rig.cc)
                - np.einsum("l,nlij->nij", inv_a2, cg + cg.transpose(0, 1, 3, 2)))


def _jet(rig: CameraRig, y, n=3):
    """The first n of (a, num, J, Q, R, maps, sigma, image) at y: depths, numerators,
    Jacobian, its compact QR, and what every normal at y shares: maps = (a^3, 1 / a^2, R's
    rows as Python floats, their SingularR message or None), sigma = _sigma_R(R) and image
    = (x, ||x||), x = mu(y). y's domain errors and the QR's NonFinite raise on every call.

    The rig remembers them for the last point it was asked about, keyed by y's shape and
    bytes, and fills them only as far as its callers ask: a hit returns what a miss
    computed, the frame's arrays read-only. triangulate leaves its solution's first three.
    """
    y = _floats(y, "world point", "3 numbers")
    key = (y.shape, y.tobytes())
    last = memo = rig._last_point
    if memo[0] != key:
        memo = (key, *_checked(rig, y))
    if n > 2 and len(memo) == 3:
        with np.errstate(over="ignore", invalid="ignore"):  # the callers raise NonFinite
            memo += (_jacobian(rig, memo[1], memo[2]),)
    if n > 3 and len(memo) == 4:
        memo += compact_qr(memo[3])
    if n > 5 and len(memo) == 6:
        with np.errstate(over="ignore"):  # far depths: a^3 = inf, 1 / a^2 = 0
            memo += ((memo[1]**3, 1.0 / memo[1]**2, *_triangular_rows(memo[5])),)
    if n > 6 and len(memo) == 7:
        memo += (_sigma_R(memo[5]),)
    if n > 7 and len(memo) == 8:
        x = _projection(memo[1], memo[2])
        memo += ((x, float(np.linalg.norm(x))),)
    if memo is not last:
        _remember(rig, y, memo[1:])
    return memo[1:n + 1]


def _remember(rig: CameraRig, y, jet):
    """Make y, with its jet (a, num, ...), the rig's last point: the frame's arrays read-only,
    one tuple replaced whole, so no thread reads one point's key with another point's jet."""
    for arr in jet[:5]:
        arr.setflags(write=False)  # half the cost of arr.flags.writeable = False
    object.__setattr__(rig, "_last_point", ((y.shape, y.tobytes()), *jet))


def _maps(rig: CameraRig, jet, E):
    """(S_hat, S) (N, 3, 3) of the normals E (N, 2r) from the _jet of y through maps: S is
    weingarten(S_hat, R), with its SingularR, and R's checks read from maps."""
    a3, inv_a2, rows, singular = jet[5]
    if singular is not None:
        raise SingularR(singular)
    S_hat = _stacked_hat(rig, jet[1], a3, inv_a2, E)
    return S_hat, _congruence(S_hat, rows)


def _one_row(rig: CameraRig, jet, eta):
    """(S_hat, S) of the one normal eta from the _jet of y through maps; errors are raised."""
    Q = jet[3]
    E = _floats(eta, "normal vector eta", f"{len(Q)} numbers")[None]
    (error,), _ = _normal_errors(Q, E)
    if error is not None:
        raise error
    S_hat, S = _maps(rig, jet, E)
    return S_hat[0], S[0]


def mv_weingarten_hat(rig: CameraRig, y, eta):
    """Second fundamental form of the multiview manifold contracted with eta.

    Closed form: sum over cameras of
    2 (eta_l . (A_l y + b_l)) c_l c_l^T / alpha_l^3
    - (c_l (A_l^T eta_l)^T + (A_l^T eta_l) c_l^T) / alpha_l^2.
    """
    return _one_row(rig, _jet(rig, y, 6), eta)[0]


def mv_weingarten(rig: CameraRig, y, eta):
    """Frame and Weingarten map at mu(y): returns (Q, R, S_hat, S)."""
    jet = _jet(rig, y, 6)
    S_hat, S = _one_row(rig, jet, eta)
    return np.copy(jet[3]), np.copy(jet[4]), S_hat, S


def _sigma_R(R):
    """The singular values of R, descending, and kappa_S = 1 / sigma_3(R) (inf if R is singular)."""
    sigma_R = np.linalg.svd(R, compute_uv=False)
    return sigma_R, np.inf if sigma_R[2] <= SING_TOL * sigma_R[0] else 1.0 / float(sigma_R[2])


def _verdicts(s, sigma_R):
    """kappa and ill_posed from the singular values s (..., 3) of (I - S) R: the zero
    threshold is relative to max(s_1, sigma_1(R)), so I - S ~ 0 (all focal) is ill too."""
    scale = np.maximum(s[..., 0], sigma_R[0])
    ill = (scale == 0.0) | (s[..., 2] <= SING_TOL * scale)
    with np.errstate(divide="ignore"):
        return np.where(ill, np.inf, 1.0 / s[..., 2]), ill


def kappa_from_factors(R, S, sigma_R):
    """(kappa, ill_posed, u, singular_values) of (I - S) R for R's singular values sigma_R,
    descending: u, its third left singular vector, is the worst tangent direction. S may
    be a stack (N, 3, 3); every result then gains the leading axis N."""
    U, s = np.linalg.svd((np.eye(3) - S) @ R)[:2]
    return (*_verdicts(s, sigma_R), np.ascontiguousarray(U[..., :, 2]), s)


class ConditionRows(NamedTuple):
    """Condition numbers of N critical pairs that share the frame factor R.

    kappa, ill_posed, bounds_lo and bounds_hi are (N,); worst (N, 3) holds
    the worst tangent directions (None from _ray_condition) and sigma (N, 3) the
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


def mv_condition(R, S) -> ConditionRows:
    """kappa, worst direction, sandwich bounds and sigmas for a stack S (N, 3, 3).

    The bounds' factors are 1 - eigvalsh(S): S holds the normal's length, and a zero
    normal (S = 0) collapses the bounds to kappa_S. Every small-matrix factorization
    is one call on the whole stack.
    """
    return _condition(R, _sigma_R(R), S)


def _condition(R, sigma, S) -> ConditionRows:
    """mv_condition for R's _sigma_R pair sigma."""
    sigma_R, kappa_S = sigma
    kappa, ill, worst, s = kappa_from_factors(R, S, sigma_R)
    lo, hi = kappa_bounds(kappa_S, np.linalg.eigvalsh(S), 1.0)
    return ConditionRows(kappa, ill, worst, s, sigma_R, kappa_S, lo, hi)


def _top_eigenvalues(a00, a01, a02, a11, a12, a22):
    """Top eigenvalues of the symmetric 3 x 3 matrices with these upper-triangle entries
    (O. K. Smith, CACM 4(4), 1961), and 1 + cos(3 phi), 0 where the top two meet."""
    q = (a00 + a11 + a22) / 3.0
    b0, b1, b2 = a00 - q, a11 - q, a22 - q
    s01, s02, s12 = a01 * a01, a02 * a02, a12 * a12
    p = np.sqrt((b0 * b0 + b1 * b1 + b2 * b2 + 2.0 * (s01 + s02 + s12)) / 6.0)
    det = b0 * b1 * b2 + 2.0 * a01 * a02 * a12 - b0 * s12 - b1 * s02 - b2 * s01
    unit = np.where(p > 0.0, p, 1.0)  # p = 0 is q I, whose eigenvalue is q
    r = np.minimum(np.maximum(det / unit / unit / unit / 2.0, -1.0), 1.0)
    return q + 2.0 * p * np.cos(np.arccos(r) / 3.0), 1.0 + r


def _ray_condition(R, sigma, S_eta, tau) -> ConditionRows:
    """ConditionRows, worst directions aside, of the maps tau (N,) S_eta of one ray; sigma =
    _sigma_R(R).

    With S_eta = V diag(c) V^T, row n's (I - S) R is V diag(d) B for d = 1 - tau_n c and
    B = V^T R: sigma_1^2 and sigma_3^-2 are the top eigenvalues of D G D and D^-1 H D^-1,
    G = B B^T and H the Gram matrix of B^-1 = R^-1 V (inv(G) would square cond(R)). Near
    a double top eigenvalue the closed form keeps half the digits (8.7e-9 where the two
    meet, 7e-15 at _NEAR_DOUBLE): rows whose sigma_2 and sigma_3 nearly meet take the SVD,
    and sigma_1 only sets the ill-posed threshold. d gives kappa_bounds' bounds exactly.
    """
    sigma_R, kappa_S = sigma
    c, V = np.linalg.eigh(S_eta)
    B, X = V.T @ R, np.linalg.solve(R, V)
    d = 1.0 - np.multiply.outer(c, tau)
    a0, a1, a2 = abs(d)
    d_max, d_min = np.maximum(np.maximum(a0, a1), a2), np.minimum(np.minimum(a0, a1), a2)
    d_mid = np.maximum(np.minimum(a0, a1), np.minimum(np.maximum(a0, a1), a2))
    # d / max|d| and min|d| / d have entries of at most 1, so no square overflows; 1 fills 0 / 0
    zero, none = d == 0.0, d_max == 0.0
    F = np.array([(d + none) / (d_max + none), (d_min + zero) / (d + zero)]).swapaxes(0, 1)
    K = np.array([(B @ B.T)[_UPPER], (X.T @ X)[_UPPER]]).T[:, :, None]  # G's and H's, (6, 2, 1)
    # F (3, 2, N): each of the six entries (2, N) is (F_i F_j) K_ij, in one broadcast
    (lam_G, lam_H), (_, meet) = _top_eigenvalues(*(F[_UPPER[0]] * F[_UPPER[1]] * K))
    s = np.array([d_max * np.sqrt(lam_G),  # s1 s2 s3 = |det M|
                  abs(R[0, 0] * R[1, 1] * R[2, 2]) * d_mid * np.sqrt(lam_H / lam_G),
                  d_min / np.sqrt(lam_H)]).T
    redo = np.flatnonzero((meet < _NEAR_DOUBLE) & (d_min > 0.0))
    if len(redo):
        s[redo] = np.linalg.svd(V @ (d[:, redo].T[:, :, None] * B), compute_uv=False)
    lo, hi = _sandwich(kappa_S, d_max, d_min)
    return ConditionRows(*_verdicts(s, sigma_R), None, s, sigma_R, kappa_S, lo, hi)


def mv_kappa(rig: CameraRig, y, eta) -> ConditionReport:
    """Condition number of triangulation at the critical pair (mu(y) + eta, mu(y)).

    The worst_input_direction is in the orthonormal tangent coordinates of
    the frame Q at mu(y); the worst ambient perturbation is Q times it.
    """
    jet = _jet(rig, y, 7)
    R, S, (sigma_R, kappa_S) = jet[4], _one_row(rig, jet, eta)[1], jet[6]
    # mv_condition's row, bit for bit: its LAPACK calls, then Python floats, not the stack
    U, s = np.linalg.svd((np.eye(3) - S) @ R)[:2]
    (s1, _, s3), (sR1, _, sR3) = s.tolist(), sigma_R.tolist()
    scale = max(s1, sR1)  # _verdicts' rule
    ill = scale == 0.0 or s3 <= SING_TOL * scale
    d = [abs(1.0 - c) for c in np.linalg.eigvalsh(S).tolist()]  # _sandwich's rule
    lo, hi = (math.inf if v <= SING_TOL else kappa_S / v for v in (max(d), min(d)))
    return ConditionReport(
        kappa=math.inf if ill else 1.0 / s3,
        ill_posed=ill,
        worst_input_direction=None if ill else np.ascontiguousarray(U[:, 2]),
        bounds_lo=lo,
        bounds_hi=hi,
        components={"sigma3": s3, "sigma1": s1, "sigma3_R": sR3, "kappa_S": kappa_S},
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
