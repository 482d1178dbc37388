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

from .errors import NotNormal, ZeroNormal, _floats, _non_finite, _require_finite
from .linalg import congruence_by_inverse
from .manifold import Parametrization, tangent_frame

# Tangential-component tolerance for vectors claimed to be normal.
NORMALITY_TOL = 1e-8


def _normal_errors(Q, E):
    """The verdict on every row of the float stack E (N, n) at the orthonormal frame Q (n, m),
    and the rows' lengths (N,): a list whose entry i is row i's NonFinite or NotNormal error,
    or None. Rows that are not n long raise NotNormal. Both Weingarten routes ask this, and
    a caller builds the maps of the good rows alone."""
    if E.ndim != 2 or E.shape[1] != len(Q):
        raise NotNormal(f"eta must have length {len(Q)}, got rows of shape {E.shape[1:]}")
    finite = np.isfinite(E).all(axis=1)
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite rows are reported below
        nrm = np.linalg.norm(E, axis=1)
        tangential = np.linalg.norm(E @ Q, axis=1)
    ok = finite & np.isfinite(nrm) & ~(tangential > NORMALITY_TOL * nrm)
    errors = [None] * len(E)
    for i in np.flatnonzero(~ok).tolist():
        if not finite[i]:
            errors[i] = _non_finite(E[i], "normal vector eta")
        elif not np.isfinite(nrm[i]):  # finite entries past ~1.3e154 square to inf
            errors[i] = _non_finite(nrm[i], "norm of normal vector eta")
        else:
            errors[i] = NotNormal(
                f"eta has tangential component {tangential[i]:.3e} (norm {nrm[i]:.3e})")
    return errors, nrm


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
    return weingarten_data(param, u, eta).S_hat


def weingarten(S_hat, R):
    """Weingarten map in orthonormal coordinates: R^{-T} S_hat R^{-1}."""
    return congruence_by_inverse(S_hat, R)


def weingarten_data(param: Parametrization, u, eta) -> WeingartenData:
    """Assemble frame, contraction, orthonormal Weingarten map, and H = I - S, on one frame."""
    frame = tangent_frame(param, u)  # u is checked here, and second_derivative converts it
    eta = _floats(eta, "normal vector eta", f"{param.ambient_dim} numbers")
    (error,), norms = _normal_errors(frame.Q, eta[None])
    if error is not None:
        raise error
    eta_norm = float(norms[0])
    m = param.intrinsic_dim
    if eta_norm == 0.0:
        S = np.zeros((m, m))
        return WeingartenData(S_hat=np.zeros((m, m)), S=S, H=np.eye(m) - S,
                              curvatures=np.empty(0), eta_norm=eta_norm)
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
    with np.errstate(over="ignore", invalid="ignore"):
        S_hat = 0.5 * (S_hat + S_hat.T)
        _require_finite(S_hat, "second fundamental form")  # an overflow of the contraction
        S = weingarten(S_hat, frame.R)
    _require_finite(S, "Weingarten map")  # R^{-1} can overflow it even from a finite S_hat
    return WeingartenData(S_hat=S_hat, S=S, H=np.eye(m) - S,
                          curvatures=np.linalg.eigvalsh(S) / eta_norm, eta_norm=eta_norm)


def principal_curvatures(wd: WeingartenData):
    """Eigenvalues of S / ||eta||, ascending. Undefined (raises) for eta = 0."""
    if wd.eta_norm == 0.0:
        raise ZeroNormal("principal curvatures need a nonzero normal direction")
    return np.array(wd.curvatures, copy=True)


def critical_radii(c):
    """Osculating-circle radii 1/|c_i|; infinite where the curvature vanishes."""
    c = _floats(c, "curvatures", "an array of numbers")
    with np.errstate(divide="ignore"):
        return np.where(c == 0.0, np.inf, 1.0 / np.abs(c))

