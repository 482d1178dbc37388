"""Small dense linear-algebra helpers shared across modules."""

from __future__ import annotations

import numpy as np

from .errors import InvalidGeometry, NotSPD, SingularR, _floats, _require_finite

# Relative |diagonal| floor at or below which a triangular factor is singular.
TRIANGULAR_TOL = 1e-14
# Largest asymmetry |G - G^T| of a metric or a distance Hessian, relative to max(1, max |G|).
SYM_TOL = 1e-10


def compact_qr(J):
    """Compact QR of a tall matrix with the diag(R) > 0 sign convention.

    The sign normalization makes the frame deterministic: two computations
    of the same Jacobian give bit-identical Q and R. Q is Fortran-ordered,
    as LAPACK writes it. A J that is not a 2-D array of numbers raises InvalidGeometry, one
    holding a NaN, an infinity or an integer past the float range NonFinite.
    """
    J = _floats(J, "matrix to factor by QR", "a matrix")
    if J.ndim != 2:
        raise InvalidGeometry(f"matrix to factor by QR must be 2-D, got shape {J.shape}")
    _require_finite(J, "matrix to factor by QR")
    Q, R = np.linalg.qr(J)
    d = np.sign(np.diag(R))
    d[d == 0] = 1.0
    # LAPACK's layout: from a C-ordered Q, Q @ u runs another BLAS kernel and differs in
    # the last bit, which the validation solve amplifies past its reference tolerance
    return np.asfortranarray(Q) * d, d[:, None] * R


def _forward_substitution(R, B):
    """X with R^T X = B for upper-triangular R (m rows of Python floats), along the leading
    axis of B. Elementwise, not a matmul, so no entry of X depends on what else B stacks."""
    X = np.empty_like(B)
    for i in range(len(R)):
        s = B[i]
        for j in range(i):
            s = s - R[j][i] * X[j]
        X[i] = s / R[i][i]
    return X


def _forward_rows(R, B):
    """_forward_substitution on Python lists, R's rows and B's m rows: the same operations
    in the same order, so the same bits (IEEE arithmetic rounds alike in CPython and numpy)."""
    X = []
    for i, s in enumerate(B):
        for j in range(i):
            s = [v - R[j][i] * x for v, x in zip(s, X[j])]
        X.append([v / R[i][i] for v in s])
    return X


def congruence_by_inverse(S_hat, R):
    """Return R^{-T} S_hat R^{-1} for upper-triangular R, symmetrized.

    S_hat may be one m x m matrix or a stack (N, m, m): each of the two
    triangular solves is one forward substitution over the whole stack. One
    matrix, which costs less on Python floats, gives the bits of its row in a stack.
    R is read once, as floats: InvalidGeometry unless square (and S_hat unless R's size),
    NonFinite unless finite, SingularR when numerically singular (its diagonal carries
    the singular values up to conditioning).
    """
    R = _floats(R, "triangular factor R", "a square matrix")
    _require_square(R, InvalidGeometry, "triangular factor R")
    _require_finite(R, "triangular factor R")
    Rl, singular = _triangular_rows(R)
    if singular is not None:
        raise SingularR(singular)
    S_hat = _floats(S_hat, "S_hat", "a matrix or a stack of matrices")
    m = len(Rl)
    if S_hat.ndim not in (2, 3) or S_hat.shape[-2:] != (m, m):
        raise InvalidGeometry(f"S_hat must be ({m}, {m}) or (N, {m}, {m}) to fit R, "
                              f"got shape {S_hat.shape}")
    return _congruence(S_hat, Rl)


def _triangular_rows(R):
    """R's rows as Python floats, and SingularR's message for them (None if R is regular)."""
    Rl = R.tolist()
    diag = sorted(abs(row[i]) for i, row in enumerate(Rl))
    if diag[0] == 0.0 or diag[0] <= TRIANGULAR_TOL * diag[-1]:
        return Rl, f"triangular factor singular: |diag| range {diag[0]:.3e}..{diag[-1]:.3e}"
    return Rl, None


def _congruence(S_hat, Rl):
    """congruence_by_inverse of the float array S_hat for the rows Rl of a checked R."""
    m = len(Rl)
    if S_hat.size == m * m:
        St = np.array(_forward_rows(Rl, zip(*_forward_rows(Rl, S_hat.reshape(m, m).tolist()))))
        return (0.5 * (St + St.T)).reshape(S_hat.shape)  # St is S^T, and a + b is b + a
    # R^{-T} S_hat = solve(R^T, S_hat) on the block row [S_hat_1 ... S_hat_N],
    # then (.) R^{-1} = solve(R^T, (.)^T)^T on the block row of transposes
    Y = _forward_substitution(Rl, S_hat.reshape(-1, m, m).transpose(1, 0, 2))
    S = _forward_substitution(Rl, Y.transpose(2, 1, 0)).transpose(1, 2, 0)
    return (0.5 * (S + S.transpose(0, 2, 1))).reshape(S_hat.shape)


def _require_square(G, error, what: str):
    """error unless the float array G is a non-empty square matrix."""
    if G.ndim != 2 or G.shape[0] != G.shape[1] or G.size == 0:
        raise error(f"{what} must be a non-empty square matrix, got shape {G.shape}")


def _require_symmetric(G, error, what: str):
    """error unless the finite float array G is a non-empty square matrix within SYM_TOL."""
    _require_square(G, error, what)
    if np.abs(G - G.T).max() > SYM_TOL * max(1.0, np.abs(G).max()):
        raise error(f"{what} is not symmetric")


def metric_cholesky(G):
    """Upper-triangular factor C with G = C^T C; raises NotSPD otherwise."""
    G = _floats(G, "metric", "a square matrix")
    _require_symmetric(G, NotSPD, "metric")
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise NotSPD("metric is not positive definite") from exc
    return L.T
