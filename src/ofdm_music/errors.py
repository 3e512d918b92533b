"""Exception types shared across the package."""


class OfdmMusicError(Exception):
    """Base class for all package errors."""


class ConfigError(OfdmMusicError):
    """Invalid or inconsistent configuration values."""


class CsiFormatError(ConfigError):
    """Malformed CSI file. Carries the byte offset where parsing failed."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


class DomainError(OfdmMusicError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class NumericalError(OfdmMusicError):
    """Numerical failure (e.g. eigensolver non-convergence)."""


class AlreadyCanceledError(OfdmMusicError):
    """Steering vector already lies in the noise span; duplicate detection."""
