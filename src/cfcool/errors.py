"""Exception types shared across the toolkit."""


class CfcoolError(Exception):
    """Base class for all toolkit-specific errors."""


class InvalidParam(CfcoolError, ValueError):
    """A physical parameter or argument violates its constraints."""


class SingularLoop(CfcoolError, ArithmeticError):
    """The loop is singular at the requested frequency: |det(I - M)|, the
    closed forms' loop denominator, fails ``netalg._regular``: below ``DEN_SINGULAR`` or NaN.

    ``omega`` is the frequency of the first such point, and ``singular`` the
    bool mask of every such point: flat in a call with grid axes, 0-d in one
    without (a float omega, no columns); ``design.fill_rows`` broadcasts a mask
    smaller than its block's output against that shape, aligned from the right."""

    def __init__(self, omega: float, singular):
        self.omega = omega
        self.singular = singular
        super().__init__(f"algebraic loop is singular at omega={omega!r}")


class NoNetCooling(CfcoolError, ArithmeticError):
    """Anti-Stokes scattering does not dominate; the occupation is undefined."""


class BracketError(CfcoolError, ValueError):
    """The search bracket does not contain an interior maximum."""


class UnstableModel(CfcoolError, ArithmeticError):
    """The drift matrix is not Hurwitz; no stationary covariance exists."""


class LyapunovResidual(CfcoolError, ArithmeticError):
    """The Lyapunov solve's backward error exceeds ``oracle.LYAPUNOV_RTOL``."""


class NegativeOccupation(CfcoolError, ArithmeticError):
    """A phonon number came out negative beyond numerical tolerance."""


class UnsupportedDelay(CfcoolError, ValueError):
    """Loop delay has no finite-dimensional state-space realization here."""


class ConfigError(CfcoolError, ValueError):
    """Command-line or config-file input is missing, malformed, or ambiguous."""


class UnitError(ConfigError):
    """Inconsistent unit declarations in the run configuration."""
