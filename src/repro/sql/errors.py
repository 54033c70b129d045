"""Errors raised while a plan runs, shared by both SQL engines."""

from __future__ import annotations


class ExecutionError(RuntimeError):
    """Raised when a plan cannot be evaluated over the data."""


class SqlTypeError(ExecutionError, TypeError):
    """Raised when an operator gets operand types it does not accept."""
