"""Exception types shared across the toolkit."""


class CfcoolError(Exception):
    """Base class for all toolkit-specific errors."""


class InvalidParam(CfcoolError, ValueError):
    """A physical parameter or argument violates its constraints."""


class SingularLoop(CfcoolError, ArithmeticError):
    """The loop is singular at the requested frequency: |det(I - M)|, the
    closed forms' loop denominator, is below ``netalg.DEN_SINGULAR``."""

    def __init__(self, omega: float, message: str | None = None):
        self.omega = omega
        super().__init__(message or f"algebraic loop is singular at omega={omega!r}")


class ClosedFormInapplicable(CfcoolError, ValueError):
    """A closed-form response was requested outside its assumptions."""


class NoNetCooling(CfcoolError, ArithmeticError):
    """Anti-Stokes scattering does not dominate; the occupation is undefined."""


class BracketError(CfcoolError, ValueError):
    """The search bracket does not contain an interior maximum."""


class UnstableModel(CfcoolError, ArithmeticError):
    """The drift matrix is not Hurwitz; no stationary covariance exists."""


class NegativeOccupation(CfcoolError, ArithmeticError):
    """A phonon number came out negative beyond numerical tolerance."""


class UnsupportedDelay(CfcoolError, ValueError):
    """Loop delay has no finite-dimensional state-space realization here."""


class ConfigError(CfcoolError, ValueError):
    """Command-line or config-file input is missing, malformed, or ambiguous."""


class UnitError(ConfigError):
    """Inconsistent unit declarations in the run configuration."""
