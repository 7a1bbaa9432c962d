"""Extended non-negative reals in log domain.

Partition functions grow doubly exponentially (26, 677, 458330, ...), so every
extensive quantity is carried as a log value.  A LogReal is one of three
things: exact zero (log = -inf), a finite positive number (finite log), or
infinity (log = +inf), the result type of partition functions and effective
activities.  A fraction with an infinite denominator is zero: log zhat = -inf
when a child's log Xi is +inf (see `analytics.TruncatedSystem`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class LogReal:
    log: float

    @staticmethod
    def infinite() -> "LogReal":
        return LogReal(math.inf)

    @staticmethod
    def from_log(log_value: float) -> "LogReal":
        return LogReal(log_value)

    @property
    def is_zero(self) -> bool:
        return self.log == -math.inf

    @property
    def is_infinite(self) -> bool:
        return self.log == math.inf

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.log)


def logaddexp(a: float, b: float) -> float:
    """log(exp(a) + exp(b)), exact when either is -inf."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def log1p_exp(x: float) -> float:
    """log(1 + exp(x)), stable for any x."""
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def log_expm1(x: float) -> float:
    """log(exp(x) - 1) for x > 0, stable near 0 and for large x."""
    if x <= 0:
        raise ValueError(f"log_expm1 needs x > 0, got {x}")
    if x > 37:
        # exp(-x) below double epsilon
        return x
    if x > 1e-8:
        return math.log(math.expm1(x))
    # expm1(x) = x (1 + x/2 + O(x^2))
    return math.log(x) + math.log1p(x / 2)


def ordered_sum(values) -> float:
    """Sum of floats added left to right from int 0, the bits of `sum` on
    Python 3.10 and 3.11 (from 3.12 on `sum` of floats is compensated), so
    results are the same on every supported Python."""
    return functools.reduce(operator.add, values, 0)


def logsumexp_iter(values) -> float:
    """log(sum(exp(v))) over an iterable of floats (possibly -inf)."""
    vals = [v for v in values if v != -math.inf]
    if not vals:
        return -math.inf
    hi = max(vals)
    if hi == math.inf:
        return math.inf
    return hi + math.log(ordered_sum(map(math.exp, map(operator.sub, vals, itertools.repeat(hi)))))
