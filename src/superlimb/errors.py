"""Exception types shared across the library.

Validation problems (bad configuration, malformed input files) and numeric
failures (rank loss, blow-up) are kept in separate branches so the CLI can
map them to distinct exit codes.
"""

from __future__ import annotations


class SuperlimbError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SuperlimbError):
    """Bad input: configuration, file contents, or argument domains.  An
    optional ``key`` (a field name or dotted scenario key) prefixes the
    message; ``reason`` is the message without it."""

    def __init__(self, reason: str = "", key: str | None = None):
        self.key = key
        self.reason = reason
        super().__init__(f"{key}: {reason}" if key else reason)


class NumericError(SuperlimbError):
    """Numerical failure: rank loss, singularity, non-finite values."""


# --- numerics ---------------------------------------------------------------

class RankDeficient(NumericError):
    """A matrix that must have full rank does not."""


class SingularWeight(NumericError):
    """Weighting matrix is not symmetric positive definite."""


class NotSymmetric(NumericError):
    """Matrix expected to be symmetric (within tolerance) is not."""


class NonFinite(NumericError):
    """NaN or Inf encountered where finite values are required."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible shapes."""


# --- kinematics -------------------------------------------------------------

class Singular(NumericError):
    """Jacobian condition number exceeded the configured bound."""

    def __init__(self, cond: float, cond_max: float | None = None):
        self.cond = float(cond)
        self.cond_max = cond_max
        msg = f"condition number {self.cond:.3e}"
        if cond_max is not None:
            msg += f" exceeds limit {cond_max:.3e}"
        super().__init__(msg)


# --- dynamics / plant -------------------------------------------------------

class BadModel(ValidationError):
    """Plant description is physically or structurally invalid."""


# --- stiffness control ------------------------------------------------------

class BadLevel(ValidationError):
    """Stiffness level outside the configured 1..4 range."""


class SingularStiffness(NumericError):
    """Stiffness matrix not invertible along the commanded directions."""


# --- EMG pipeline -----------------------------------------------------------

class BadBand(ValidationError):
    """Band-pass corner frequencies are out of order or out of range."""


class BadWindow(ValidationError):
    """Envelope window too short for the sample rate."""


# --- stability --------------------------------------------------------------

class IkFailure(NumericError):
    """Posture map could not be evaluated at the requested pose."""


class Unachievable(NumericError):
    """No servo stiffness within the search bracket meets the margin."""


# --- scenario / harness -----------------------------------------------------

class ParseError(ValidationError):
    """A scenario or config file failed validation at a dotted key."""

    def __init__(self, key: str, reason: str):
        super().__init__(reason, key)


class MissingFile(ValidationError):
    """A file referenced by the scenario does not exist."""


class NumericBlowup(NumericError):
    """Integrator state left the plausible range (|state| > 1e9)."""
