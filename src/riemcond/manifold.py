"""Embedded submanifolds of R^n given by local parametrizations.

A manifold piece is a smooth immersion u in R^m -> phi(u) in R^n together
with optional analytic first and second derivatives. Frames, the
codimension-1 unit normal, and the built-in test manifolds (sphere,
parabola, paraboloid, affine subspace) live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidGeometry, OutsideDomain, RankDeficient, _require_finite
from .errors import _floats, _require_finite_setting, _require_positive, _vector
from .linalg import compact_qr

# Central-difference steps balancing truncation against roundoff in float64.
FD_JAC_STEP = 1e-5
FD_HESS_STEP = 1e-4

# Relative threshold on the smallest Jacobian singular value.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class Parametrization:
    """Local smooth immersion defining a manifold piece.

    point maps chart coordinates u (shape (m,)) to ambient coordinates
    (shape (n,)). jac and hess_dirs are optional analytic derivatives;
    when absent, central finite differences are used. domain_check
    restricts the chart to the locus where the immersion has full rank.
    """

    ambient_dim: int
    intrinsic_dim: int
    point: Callable[[np.ndarray], np.ndarray]
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hess_dirs: Optional[Callable[[np.ndarray, int, int], np.ndarray]] = None
    domain_check: Optional[Callable[[np.ndarray], bool]] = None
    name: str = ""

    def __call__(self, u):
        return np.asarray(self.point(np.asarray(u, dtype=float)), dtype=float)

    def in_domain(self, u) -> bool:
        if self.domain_check is None:
            return True
        return bool(self.domain_check(np.asarray(u, dtype=float)))

    def jacobian(self, u):
        """n x m Jacobian at u: analytic when available, else central FD."""
        u = np.asarray(u, dtype=float)
        if self.jac is not None:
            return np.asarray(self.jac(u), dtype=float)
        return self.jacobian_fd(u)

    def jacobian_fd(self, u):
        u = np.asarray(u, dtype=float)
        steps = FD_JAC_STEP * np.eye(self.intrinsic_dim)
        return np.column_stack([(self(u + e) - self(u - e)) / (2.0 * FD_JAC_STEP) for e in steps])

    def second_derivative(self, u, i: int, j: int):
        """d^2 phi / du_i du_j at u, an ambient vector."""
        u = np.asarray(u, dtype=float)
        if self.hess_dirs is not None:
            return np.asarray(self.hess_dirs(u, i, j), dtype=float)
        return self.second_derivative_fd(u, i, j)

    def second_derivative_fd(self, u, i: int, j: int):
        u = np.asarray(u, dtype=float)
        step = FD_HESS_STEP
        ei, ej = step * np.eye(self.intrinsic_dim)[[i, j]]
        if i == j:
            return (self(u + ei) - 2.0 * self(u) + self(u - ei)) / step**2
        return (
            self(u + ei + ej) - self(u + ei - ej) - self(u - ei + ej) + self(u - ei - ej)
        ) / (4.0 * step**2)


@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal tangent frame Q and triangular bookkeeping factor R.

    Q R equals the Jacobian of the parametrization at the base parameter;
    columns of Q span the tangent space at phi(u).
    """

    Q: np.ndarray  # n x m, orthonormal columns
    R: np.ndarray  # m x m, upper triangular, diag > 0


def tangent_frame(param: Parametrization, u) -> TangentFrame:
    """Compact QR frame of the Jacobian at u.

    Raises InvalidGeometry when u is not an intrinsic_dim-vector, NonFinite
    when u or the Jacobian at u (say one that overflows) holds a NaN or an
    infinity, OutsideDomain when the chart's own domain check rejects u, and
    RankDeficient when the smallest singular value of the Jacobian drops
    below RANK_TOL times the largest (u outside the smooth locus).
    """
    u = _vector(u, param.intrinsic_dim, "chart point")
    if not param.in_domain(u):
        raise OutsideDomain(f"chart point {u} rejected by domain check")
    J = param.jacobian(u)
    _require_finite(J, f"Jacobian at chart point {u}")
    Q, R = compact_qr(J)
    s = np.linalg.svd(R, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= RANK_TOL * s[0]:
        raise RankDeficient(
            f"Jacobian rank-deficient at u={u}: singular values {s[-1]:.3e}..{s[0]:.3e}"
        )
    return TangentFrame(Q=Q, R=R)


def codim1_unit_normal(frame: TangentFrame):
    """Unit normal at the base point for codimension-1 manifolds.

    Sign convention: the largest-magnitude component is positive, so the
    result is deterministic. Raises InvalidGeometry for codimension != 1.
    """
    n, m = frame.Q.shape
    if n - m != 1:
        raise InvalidGeometry(f"codimension is {n - m}, not 1")
    full, _ = np.linalg.qr(frame.Q, mode="complete")
    eta = full[:, m]
    k = int(np.argmax(np.abs(eta)))
    if eta[k] < 0:
        eta = -eta
    return eta


# ---------------------------------------------------------------------------
# Built-in manifolds
# ---------------------------------------------------------------------------


def sphere(radius: float = 1.0, center=None) -> Parametrization:
    """Round 2-sphere in R^3, chart by longitude/latitude angles.

    phi(u) = center + radius (cos u1 cos u2, sin u1 cos u2, sin u2);
    the chart degenerates at the poles, excluded by the domain check.
    """
    _require_positive(radius, "sphere radius")
    c = np.zeros(3) if center is None else _vector(center, 3, "sphere center")
    r = float(radius)

    def point(u):
        u1, u2 = u
        return c + r * np.array(
            [np.cos(u1) * np.cos(u2), np.sin(u1) * np.cos(u2), np.sin(u2)]
        )

    def jac(u):
        u1, u2 = u
        return r * np.array(
            [
                [-np.sin(u1) * np.cos(u2), -np.cos(u1) * np.sin(u2)],
                [np.cos(u1) * np.cos(u2), -np.sin(u1) * np.sin(u2)],
                [0.0, np.cos(u2)],
            ]
        )

    def hess_dirs(u, i, j):
        u1, u2 = u
        if i == 0 and j == 0:
            return r * np.array([-np.cos(u1) * np.cos(u2), -np.sin(u1) * np.cos(u2), 0.0])
        if i == 1 and j == 1:
            return r * np.array(
                [-np.cos(u1) * np.cos(u2), -np.sin(u1) * np.cos(u2), -np.sin(u2)]
            )
        return r * np.array([np.sin(u1) * np.sin(u2), -np.cos(u1) * np.sin(u2), 0.0])

    return Parametrization(
        ambient_dim=3,
        intrinsic_dim=2,
        point=point,
        jac=jac,
        hess_dirs=hess_dirs,
        domain_check=lambda u: abs(np.cos(u[1])) > 1e-6,
        name=f"sphere(radius={r})",
    )


def graph2d(coeff: float = 1.0) -> Parametrization:
    """Plane curve phi(u) = (u, coeff u^2): the parabola for coeff = 1."""
    _require_finite_setting(coeff, "graph2d coeff")
    a = float(coeff)

    def point(u):
        return np.array([u[0], a * u[0] ** 2])

    def jac(u):
        return np.array([[1.0], [2.0 * a * u[0]]])

    def hess_dirs(u, i, j):
        return np.array([0.0, 2.0 * a])

    return Parametrization(
        ambient_dim=2, intrinsic_dim=1, point=point, jac=jac, hess_dirs=hess_dirs,
        name=f"graph2d({a})",
    )


def paraboloid() -> Parametrization:
    """Surface phi(u) = (u1, u2, u1^2 + u2^2) in R^3."""

    def point(u):
        return np.array([u[0], u[1], u[0] ** 2 + u[1] ** 2])

    def jac(u):
        return np.array([[1.0, 0.0], [0.0, 1.0], [2.0 * u[0], 2.0 * u[1]]])

    def hess_dirs(u, i, j):
        if i == j:
            return np.array([0.0, 0.0, 2.0])
        return np.zeros(3)

    return Parametrization(
        ambient_dim=3, intrinsic_dim=2, point=point, jac=jac, hess_dirs=hess_dirs,
        name="paraboloid",
    )


def affine(basis, offset=None) -> Parametrization:
    """Affine subspace phi(u) = offset + basis @ u (flat: zero curvature)."""
    B = _floats(basis, "affine basis", "a matrix")
    _require_finite(B, "affine basis")
    if B.ndim != 2 or not B.shape[0] >= B.shape[1] >= 1:
        raise InvalidGeometry(f"basis must be a tall n x m matrix, m >= 1, got shape {B.shape}")
    n, m = B.shape
    s = np.linalg.svd(B, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= 1e-12 * s[0]:
        raise InvalidGeometry("affine basis is rank-deficient")
    o = np.zeros(n) if offset is None else _vector(offset, n, "affine offset")

    return Parametrization(
        ambient_dim=n,
        intrinsic_dim=m,
        point=lambda u: o + B @ u,
        jac=lambda u: B,
        hess_dirs=lambda u, i, j: np.zeros(n),
        name=f"affine({n},{m})",
    )


_BUILTINS = {
    "sphere": sphere,
    "graph2d": graph2d,
    "paraboloid": paraboloid,
    "affine": affine,
}


def builtin(name: str, **params) -> Parametrization:
    """Construct a built-in manifold by name (CLI entry point)."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise InvalidGeometry(
            f"unknown builtin manifold {name!r}; choices: {sorted(_BUILTINS)}"
        ) from None
    return factory(**params)
