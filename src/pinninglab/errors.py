"""Exception types shared across the lab."""


class PinningLabError(Exception):
    pass


class InvalidParameter(PinningLabError, ValueError):
    """A parameter lies outside its validity window."""


class HorizonExceeded(PinningLabError, ValueError):
    """A requested horizon exceeds the stored law or table."""


class DimensionMismatch(PinningLabError, ValueError):
    pass


class NotPositiveDefinite(PinningLabError, ArithmeticError):
    """Covariance factorization failed; the tilt is too strong."""


class ResourceGuard(PinningLabError, ValueError):
    """A size parameter exceeds the desk-scale guard."""


class ConfigError(PinningLabError, ValueError):
    """Bad experiment configuration (unknown name, missing key, bad window)."""
