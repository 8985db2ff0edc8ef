"""Exception hierarchy shared across the package.

Each error class maps to one CLI exit code so scripted callers can
distinguish bad configuration from numerical breakdown from a rejected
learning phase.
"""

import numbers
from enum import Enum

import numpy as np


class MlcvqkdError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InvalidParameterError(MlcvqkdError, ValueError):
    """A parameter violates its documented domain (bad V_m, k >= m, ...)."""

    exit_code = 2


def integer(name: str, value) -> int:
    """An integer parameter's value as a Python int; a bool or a
    non-integer is an InvalidParameterError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


def real_number(name: str, value) -> float:
    """A float parameter's value as a Python float; a bool or a non-real is
    an InvalidParameterError, as is a real past the float range."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidParameterError(f"{name} must be finite, got {value!r}") from None


def instance(name: str, value, cls: type) -> None:
    """Check that an object argument is an instance of cls; any other value
    is an InvalidParameterError naming cls."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOUaeiou" else "a"
        raise InvalidParameterError(f"{name} must be {article} {cls.__name__}, got {value!r}")


def member(name: str, value, enum: type[Enum]) -> Enum:
    """An enum argument's value as a member of enum, given as a member or
    its value; any other value is an InvalidParameterError."""
    try:
        return enum(value)
    except ValueError:
        raise InvalidParameterError(f"unknown {name} {value!r}") from None


class InvalidInputError(MlcvqkdError, ValueError):
    """Structurally bad input data (length mismatch, malformed config)."""

    exit_code = 2


def array(name: str, value, shape: tuple, dtype=float) -> np.ndarray:
    """An array argument's value as a numpy array of the given dtype, float
    or bool; shape gives each axis's length, None where any length will do.
    A ragged nesting, a dtype that is not integer or float (or bool, where
    dtype is bool) or another shape is an InvalidInputError. A float64
    array is returned as itself, uncopied."""
    try:
        values = np.asarray(value)
    except ValueError:  # a ragged nesting
        values = None
    if (values is None or values.dtype.kind not in ("biuf" if dtype is bool else "iuf")
            or values.ndim != len(shape) or any(n not in (None, got) for got, n in zip(values.shape, shape))):
        got = "a ragged nesting" if values is None else f"{values.dtype} of shape {values.shape}"
        wanted = f"{str(shape).replace('None', 'any')} and {'flag' if dtype is bool else 'real'} values"
        raise InvalidInputError(f"{name} must have shape {wanted}, got {got}")
    return values.astype(dtype, copy=False)


class NumericalDomainError(MlcvqkdError, ArithmeticError):
    """A computation left its physical domain (negative discriminant,
    symplectic eigenvalue below 1 beyond tolerance).

    Carries the offending intermediate values for diagnosis.
    """

    exit_code = 3

    def __init__(self, message, **values):
        self.values = dict(values)
        if values:
            detail = ", ".join(f"{k}={v!r}" for k, v in values.items())
            message = f"{message} ({detail})"
        super().__init__(message)


class LearningRejectedError(MlcvqkdError):
    """State learning failed its quality gate; carries the evaluation report."""

    exit_code = 4

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
