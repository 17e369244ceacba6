"""Exact arithmetic for ramification break schedules over local fields of
characteristic p: Newton polygons, Herbrand transition functions, formal
modules, Eisenstein break extraction, and tower break schedules."""

__version__ = "0.1.0"

from .errors import (
    FieldMismatch,
    GuardViolation,
    InsufficientPrecision,
    IntegralityError,
    ParameterError,
    RamtowerError,
)

__all__ = [
    "FieldMismatch",
    "GuardViolation",
    "InsufficientPrecision",
    "IntegralityError",
    "ParameterError",
    "RamtowerError",
    "__version__",
]
