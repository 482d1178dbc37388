"""Exception types raised by the library.

Every error that signals a geometric or numerical precondition failure
derives from RiemcondError so callers (and the CLI) can distinguish
domain problems (exit 1) from I/O problems (exit 2). The input rules live
here too, so every module raises the same error for the same bad input.
"""

import math
import numbers

import numpy as np


class RiemcondError(Exception):
    """Base class for all library-level errors."""


class RankDeficient(RiemcondError):
    """Jacobian loses full column rank: the point is outside the smooth locus."""


class InvalidGeometry(RiemcondError):
    """Construction parameters do not describe a valid geometric object."""


class NotNormal(RiemcondError):
    """A vector claimed to be normal has a tangential component above tolerance."""


class SingularR(RiemcondError):
    """Triangular change-of-basis factor is numerically singular."""


class ZeroNormal(RiemcondError):
    """Principal curvatures are undefined in the direction of a zero normal."""


class NotSPD(RiemcondError):
    """A metric matrix is not symmetric positive definite."""


class OutsideDomain(RiemcondError):
    """Point lies outside the admissible domain of a parametrization."""


class DegenerateKernel(RiemcondError):
    """Linear triangulation system has an ambiguous (near two-dimensional) kernel."""


class AtInfinity(RiemcondError):
    """Homogeneous solution cannot be dehomogenized (point at infinity)."""


class DomainEscape(RiemcondError):
    """Solver iterates left the admissible domain and damping retries failed."""


class EmptyInput(RiemcondError):
    """An aggregate was requested over an empty collection."""


class NonFinite(RiemcondError):
    """An input holds a NaN or an infinity, or a setting is not a number at all."""


def _finite(v) -> bool:
    # a Python-level scan costs less than np.isfinite(v).all() up to about 35 entries
    if v.size > 32:
        return bool(np.isfinite(v).all())
    return all(map(math.isfinite, v.ravel().tolist()))


def _non_finite(v, what: str) -> NonFinite:
    if v.ndim == 0:
        return NonFinite(f"{what} {v} is not finite")
    bad = np.flatnonzero(~np.isfinite(v)).tolist()
    return NonFinite(f"{what} {v.ravel().tolist()} is not finite (entries {bad})")


def _require_finite(v, what: str):
    if not _finite(v):
        raise _non_finite(v, what)


def _require_finite_setting(value, what: str):
    """NonFinite unless value is one real number, finite as a float. A value that is no
    number (None, a string, a list) is named as given, never as the NaN numpy makes of it."""
    if not isinstance(value, numbers.Real):
        raise NonFinite(f"{what} must be a number, got {value!r}")
    try:  # an integer past the float range does not convert: NonFinite too
        _require_finite(np.array(value, dtype=float), what)
    except OverflowError:
        raise NonFinite(f"{what} is too large for a float") from None


def _require_positive(value, what: str):
    """_require_finite_setting, then InvalidGeometry unless value > 0."""
    _require_finite_setting(value, what)
    if value <= 0:
        raise InvalidGeometry(f"{what} must be positive, got {value!r}")


def _floats(v, what: str, kind: str):
    """np.asarray(v, dtype=float): InvalidGeometry ("<what> must be <kind>: ...") when v is
    ragged or not numbers, NonFinite when it holds an integer past the float range."""
    try:
        return np.asarray(v, dtype=float)
    except OverflowError:
        raise NonFinite(f"{what} holds an integer too large for a float") from None
    except (TypeError, ValueError) as exc:
        raise InvalidGeometry(f"{what} must be {kind}: {exc}") from None


def _vector(v, n: int, what: str):
    """v as a float array of shape (n,), else InvalidGeometry; NonFinite unless finite."""
    v = _floats(v, what, f"{n} numbers")
    if v.shape != (n,):
        raise InvalidGeometry(f"{what} must have shape ({n},), got {v.shape}")
    _require_finite(v, what)
    return v


def _require_integer(value, what: str, least: int):
    """NonFinite unless a finite number, then InvalidGeometry unless an integer >= least."""
    if not isinstance(value, numbers.Integral):  # an int is never made a float: 10**400 passes
        _require_finite_setting(value, what)
    if not isinstance(value, numbers.Integral) or value < least:
        raise InvalidGeometry(f"{what} must be an integer >= {least}, got {value!r}")
