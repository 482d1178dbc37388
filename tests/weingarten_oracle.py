"""Test oracle: the Weingarten map from the derivative of a normal extension.

An independent route to the shape operator, against which tests compare the
contraction-based `weingarten_data` and the closed-form multiview kernel.
"""

import numpy as np
import scipy.linalg

from riemcond.linalg import compact_qr
from riemcond.manifold import FD_HESS_STEP, tangent_frame


def weingarten_via_projector(param, u, eta):
    """Weingarten map from the derivative of a normal extension of eta.

    Extends eta along the manifold as N(x') = P_normal(x') eta and
    differentiates numerically along unit tangent directions at step
    FD_HESS_STEP; the tangential part of -dN is the shape operator.
    """
    u = np.asarray(u, dtype=float)
    eta = np.asarray(eta, dtype=float)
    frame = tangent_frame(param, u)
    m, step = param.intrinsic_dim, FD_HESS_STEP
    S = np.empty((m, m))
    for i in range(m):
        # chart velocity realizing the i-th orthonormal tangent direction
        w = scipy.linalg.solve_triangular(frame.R, np.eye(m)[i], lower=False)

        def normal_field(up):
            Qp, _ = compact_qr(param.jacobian(up))
            return eta - Qp @ (Qp.T @ eta)

        dN = (normal_field(u + step * w) - normal_field(u - step * w)) / (2.0 * step)
        S[:, i] = frame.Q.T @ (-dN)
    return 0.5 * (S + S.T)
