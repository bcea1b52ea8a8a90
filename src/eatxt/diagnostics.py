"""Shared diagnostic and error types used across the toolchain."""

from __future__ import annotations

from typing import NamedTuple

ERROR = "error"
WARNING = "warning"


class Span(NamedTuple):
    """1-based position range in a source text. End columns are exclusive.
    Only a diagnostic holds one; parsed elements and cross-references keep
    offsets (:class:`eatxt.textsyntax.LineIndex` turns them into one)."""

    line: int
    col: int
    end_line: int
    end_col: int


# Fallback span for diagnostics that have no source position (e.g. about a
# tree built in memory rather than read from a file).
NO_SPAN = Span(0, 0, 0, 0)


class Diagnostic(NamedTuple):
    """One finding about an input. A named tuple, like ``Span``: diagnostics
    compare by value and are never changed once made."""

    severity: str  # ERROR or WARNING
    message: str
    span: Span = NO_SPAN

    def format(self, path: str) -> str:
        """Render as ``path:line:col: severity: message``."""
        return f"{path}:{self.span.line}:{self.span.col}: {self.severity}: {self.message}"


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity == ERROR for d in diagnostics)


class ToolchainError(Exception):
    """Base class for hard failures (bad inputs rather than bad models)."""


class MetamodelError(ToolchainError):
    """Raised when a metamodel file cannot be loaded or fails validation."""


class GrammarError(ToolchainError):
    """Raised when a grammar cannot be generated or is internally broken."""


class ConfigError(ToolchainError):
    """Raised for malformed or rejected adaptation config files."""


class SerializationError(ToolchainError):
    """Raised when a model cannot be rendered (text or XML)."""
