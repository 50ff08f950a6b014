"""Exception types shared across the package."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .model import ElementRef


class ArchlintError(Exception):
    """Base class for every error raised by this package."""


class AdlParseError(ArchlintError):
    """Architecture description failed to parse or validate."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self) -> str:
        if self.line:
            return f"{self.line}:{self.column}: {self.message}"
        return self.message


class EndpointError(ArchlintError):
    """An endpoint path failed to resolve against its context component.

    `walked` holds the elements the walk reached before it stopped, one per
    leading segment.
    """

    def __init__(
        self, context: str, path: str, reason: str, walked: tuple[ElementRef, ...]
    ) -> None:
        shown = context if context else "<root>"
        super().__init__(f"cannot resolve '{path}' in context {shown}: {reason}")
        self.context = context
        self.path = path
        self.reason = reason
        self.walked = walked


class ConfigError(ArchlintError):
    """A scan or smell configuration file is unusable."""


class PreconditionError(ArchlintError):
    """A refactoring operation refused to run; the input model is unchanged."""

    def __init__(self, op_name: str, reason: str, ref: ElementRef | None = None) -> None:
        super().__init__(f"{op_name}: {reason}")
        self.op_name = op_name
        self.reason = reason
        self.ref = ref


class PlanError(ArchlintError):
    """A plan aborted; carries the 1-based failing step and the cause."""

    def __init__(self, step: int, cause: ArchlintError) -> None:
        super().__init__(f"plan failed at step {step}: {cause}")
        self.step = step
        self.cause = cause


class PlanParseError(ArchlintError):
    """A plan file is syntactically unusable."""

    def __init__(self, message: str, line: int = 0) -> None:
        super().__init__(f"line {line}: {message}" if line else message)
        self.message = message
        self.line = line


class UnknownConnectorError(ArchlintError):
    """connector_usages was asked about a connector the architecture does not declare."""
