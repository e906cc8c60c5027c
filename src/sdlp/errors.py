"""Exception types shared across the toolkit."""


class SdlpError(Exception):
    """Base class for all toolkit errors."""


class NotApplicableError(SdlpError):
    """A solver or oracle declined the instance (wrong shape, bound exceeded)."""


class NoSolutionError(SdlpError):
    """The instance is well formed but has no solution (e.g. a transcript
    element outside the orbit)."""


class InstanceFormatError(SdlpError):
    """Malformed instance file or element literal."""


class InternalAssertionError(SdlpError):
    """A self-check failed; indicates a bug or violated caller assertion."""
