"""Domain errors.

Each class carries a stable machine-readable ``code`` (its own name) so
front ends can map failures without parsing messages.
"""


class MuculantError(Exception):
    """Base class for every domain error raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class NegativeMass(MuculantError):
    """A probability entry is more negative than floating-point noise allows."""


class NotNormalized(MuculantError):
    """Total probability mass is too far from one."""


class NotCausal(MuculantError):
    """Operation requires a support contained in the nonnegative integers."""


class GridTooCoarse(MuculantError):
    """Frequency grid too short for the support; phase unwrapping would be unsafe."""


class EmptySample(MuculantError):
    """No observations were supplied."""


class CharFnVanishes(MuculantError):
    """The characteristic function dips below the working threshold somewhere
    on the grid, so its logarithm (and the coefficient sequence) is not
    numerically defined and may not exist at all."""


class NotApplicable(MuculantError):
    """The causal coefficient recursion requires a minimum-phase PMF whose
    support starts at zero with a nonvanishing leading probability."""


class SupportTooSmall(MuculantError):
    """Reconstructed sequence carries non-negligible mass outside the
    requested support window."""


class TruncationUnsafe(MuculantError):
    """Cumulant read-off from a truncated coefficient sequence would be
    dominated by the discarded tail."""


class PreconditionViolated(MuculantError):
    """A guarded accessor was used outside its stated precondition."""


class NegativeSampleValue(MuculantError):
    """The Poissonity test requires nonnegative integer samples."""
