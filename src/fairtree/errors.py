"""Exception types shared across the package.

Each error carries its CLI exit code: 1 for ConfigError, 2 for DataError.
Everything else is a bug and propagates with a traceback.
"""


class FairtreeError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(FairtreeError):
    """Invalid configuration (bad flag values, malformed config files)."""

    exit_code = 1


class DataError(FairtreeError):
    """Invalid or unreadable input data (CSV contents, missing columns)."""

    exit_code = 2


class ModelFormatError(DataError):
    """Malformed model document. Carries the path to the offending node."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
