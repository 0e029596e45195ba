"""Exceptions shared across the package."""

import json


class ResourceLimitError(RuntimeError):
    """An exhaustive computation would exceed the configured size cap."""


class UnsupportedMapError(ValueError):
    """The operation is only defined for maps between groups of one prime."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; this would contradict a proven bound.

    `instance`, when given, holds the failing call's inputs so the failure
    can be replayed; str(exc) appends it as JSON.
    """

    def __init__(self, message: str, *, instance: dict | None = None):
        super().__init__(message)
        self.instance = instance

    def __str__(self) -> str:
        message = super().__str__()
        if self.instance is None:
            return message
        return f"{message} {json.dumps(self.instance, sort_keys=True)}"
