"""Second fundamental form, Weingarten map, and distance-Hessian machinery.

For a normal vector eta at x = phi(u), the contraction of the second
fundamental form gives the frame-coordinate matrix
S_hat[i, j] = <d^2 phi / du_i du_j, eta>; the change of basis
S = R^{-T} S_hat R^{-1} expresses the Weingarten map in the orthonormal
frame, and H = I - S is the Riemannian Hessian of the half-squared
distance from a = x + eta at its critical point x.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NotNormal, ZeroNormal, _require_finite
from .linalg import congruence_by_inverse
from .manifold import Parametrization, tangent_frame

# Tangential-component tolerance for vectors claimed to be normal.
NORMALITY_TOL = 1e-8


@dataclass(frozen=True)
class WeingartenData:
    """Weingarten map of a manifold point in a fixed normal direction.

    S_hat is in frame coordinates, S in orthonormal coordinates, and
    H = I - S. curvatures holds the eigenvalues of S / ||eta|| sorted
    ascending (empty when eta = 0, where the direction is undefined).
    """

    S_hat: np.ndarray
    S: np.ndarray
    H: np.ndarray
    curvatures: np.ndarray
    eta_norm: float


def second_fundamental_contraction(param: Parametrization, u, eta):
    """Frame-coordinate matrix S_hat of the second fundamental form against eta.

    Uses analytic second derivatives when the parametrization carries them,
    central finite differences otherwise. eta must be normal at phi(u);
    no normal projection of d^2 phi is needed inside the inner product
    because eta already is.
    """
    u = np.asarray(u, dtype=float)
    eta = np.asarray(eta, dtype=float)
    _require_finite(eta, "normal vector eta")
    frame = tangent_frame(param, u)
    eta_norm = float(np.linalg.norm(eta))
    if eta_norm > 0:
        tangential = np.linalg.norm(frame.Q.T @ eta)
        if tangential > NORMALITY_TOL * eta_norm:
            raise NotNormal(
                f"eta has tangential component {tangential:.3e} (norm {eta_norm:.3e})"
            )
    m = param.intrinsic_dim
    S_hat = np.empty((m, m))
    if param.hess_dirs is not None:
        for i in range(m):
            for j in range(m):
                S_hat[i, j] = param.second_derivative(u, i, j) @ eta
        asym = np.abs(S_hat - S_hat.T).max()
        if asym > 1e-10 * max(1.0, np.abs(S_hat).max()):
            warnings.warn(
                f"second fundamental form asymmetric by {asym:.3e}; "
                "mixed partials of the supplied hess_dirs disagree",
                stacklevel=2,
            )
    else:
        # The central mixed-difference stencil is symmetric in (i, j).
        for i in range(m):
            for j in range(i, m):
                S_hat[i, j] = S_hat[j, i] = param.second_derivative(u, i, j) @ eta
    return 0.5 * (S_hat + S_hat.T)


def weingarten(S_hat, R):
    """Weingarten map in orthonormal coordinates: R^{-T} S_hat R^{-1}."""
    return congruence_by_inverse(S_hat, R)


def weingarten_data(param: Parametrization, u, eta) -> WeingartenData:
    """Assemble frame, contraction, orthonormal Weingarten map, and H = I - S."""
    eta = np.asarray(eta, dtype=float)
    _require_finite(eta, "normal vector eta")
    eta_norm = float(np.linalg.norm(eta))
    frame = tangent_frame(param, u)
    m = param.intrinsic_dim
    if eta_norm == 0.0:
        S_hat = np.zeros((m, m))
        S = np.zeros((m, m))
        curv = np.empty(0)
    else:
        S_hat = second_fundamental_contraction(param, u, eta)
        S = weingarten(S_hat, frame.R)
        curv = np.sort(scipy.linalg.eigvalsh(S)) / eta_norm
    return WeingartenData(S_hat=S_hat, S=S, H=np.eye(m) - S, curvatures=curv, eta_norm=eta_norm)


def principal_curvatures(wd: WeingartenData):
    """Eigenvalues of S / ||eta||, ascending. Undefined (raises) for eta = 0."""
    if wd.eta_norm == 0.0:
        raise ZeroNormal("principal curvatures need a nonzero normal direction")
    return np.array(wd.curvatures, copy=True)


def critical_radii(c):
    """Osculating-circle radii 1/|c_i|; infinite where the curvature vanishes."""
    c = np.asarray(c, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(c == 0.0, np.inf, 1.0 / np.abs(c))

