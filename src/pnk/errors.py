"""Exception types shared across the library.

Every failure mode that callers are expected to catch derives from
:class:`PnkError`; the CLI maps these onto exit codes.
"""


class PnkError(Exception):
    """Base class for all library failures."""


class ConfigError(PnkError):
    """A run configuration is malformed or inconsistent."""


class ZeroClass(PnkError):
    """An all-zero winding vector cannot define a loop field."""


class DegenerateTangent(PnkError):
    """Generator directions are rank deficient where independence is required."""


class StepFailure(PnkError):
    """The adaptive integrator was driven below its minimum step size."""


class NonFinite(PnkError):
    """A trajectory or derivative evaluation produced inf or nan."""


class NoConvergence(PnkError):
    """An iterative solve exhausted its iteration budget.

    The fixed-point Newton corrector sets ``iterations`` (Newton updates
    taken) and ``residual`` (max |u - P(u)| at the last iterate); both
    stay ``None`` where another solver raises.
    """

    iterations = None
    residual = None


class SingularGeometry(PnkError):
    """Section constraints pair singularly with the generator fields."""


class SingularJacobian(PnkError):
    """The corrector jacobian I - L is numerically singular."""


class SingularMonodromy(PnkError):
    """A monodromy matrix is singular beyond tolerance."""


class OpenLoop(PnkError):
    """The time-one loop flow failed to return to its base point."""


class OpenTorus(PnkError):
    """A transported grid fails to close up into a torus.

    Carries the partial reconstruction on ``report`` so callers can inspect
    the offending defect.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class Resonance(PnkError):
    """A unit multiplier prevents the unique periodic forced response."""


class NonCommuting(PnkError):
    """Supplied generator matrices or fields do not commute."""


class NothingFound(PnkError):
    """A post-critical probe found none of the objects it searched for."""


class MatchingAmbiguityWarning(UserWarning):
    """Two multiplier assignments tie within tolerance; the first was taken."""
