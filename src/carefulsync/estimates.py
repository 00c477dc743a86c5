"""Numeric estimates around the race cost: growth roots and bracketing bounds."""

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, log, log1p, log2, ulp

from . import pawnrace


@dataclass(frozen=True)
class PhiRoot:
    """The unique real root > 1 of x^(c+1) - x - 1, with its residual.

    A root is accepted when the Newton step residual / f'(x), with
    f'(x) = (c+1)x^c - 1, is at most one float step of x: the slope grows
    with c, so a converged root's residual does too.  The slope is taken as
    (c+1)(1 + 1/x) - 1, its value at the root, where x^c = 1 + 1/x; unlike
    x^c, that never overflows for a value far from the root.
    """

    c: int
    value: float
    residual: float

    def __post_init__(self):
        if not 1.0 < self.value <= 2.0:
            raise ValueError("root outside (1, 2]")
        slope = (self.c + 1) * (1.0 + 1.0 / self.value) - 1.0
        if self.residual > ulp(self.value) * slope:
            raise ValueError("residual too large")


def _char(c: int, x: float) -> float:
    return x ** (c + 1) - x - 1.0


@lru_cache(maxsize=None)
def phi(c: int) -> PhiRoot:
    """Growth rate of the split sequence: root of x^(c+1) = x + 1 in (1, 2].

    Bisection to 1e-13 followed by a few Newton steps; strictly decreasing
    in c and approaching 1.  The bisection tests x^(c+1) < x + 1 in logs, as
    (c+1)·ln x < ln(1+x), since x^(c+1) overflows a float from c = 1750 on.
    The root lies below 1 + ln(2)/c, and from about c = 10^6 on closer to it
    than the bisection resolves, so the Newton steps start from the smaller
    of the two.  The root is accepted up to about c = 7.5·10^15; past that
    it is no longer a float within one step of the true root, and past
    about 9·10^15 it rounds to 1, and either raises ``ValueError``.
    """
    if c < 1:
        raise ValueError("cost parameter must be >= 1")
    try:
        lo, hi = 1.0, 2.0
        while hi - lo > 1e-13:
            mid = (lo + hi) / 2
            if (c + 1) * log(mid) < log1p(mid):
                lo = mid
            else:
                hi = mid
        x = min((lo + hi) / 2, 1.0 + log(2.0) / c)
        for _ in range(4):
            derivative = (c + 1) * x**c - 1.0
            x -= _char(c, x) / derivative
        return PhiRoot(c=c, value=x, residual=abs(_char(c, x)))
    except (OverflowError, ValueError):  # c or x**c past the float range, or no root within a step
        raise ValueError(f"the root is found for c up to about 7.5*10**15, not c={c}") from None


def f_bounds(n: int, c: int) -> tuple[float, float, float, float]:
    """Two bracketing pairs for the race cost.

    The tight pair is n ln(n)/ln(phi_c) -3cn and +(c+1)n (strict bounds);
    the simple pair is c n log2(n) and (c + 1/2) n ceil(log2 n) (inclusive).
    The bounds are floats, so 3cn, the largest integer they convert, must be
    below 2^1024 - 2^970, the least integer that rounds to 2^1024.
    """
    if n < 1 or c < 1:
        raise ValueError("need n >= 1 and c >= 1")
    if 3 * c * n >= 2**1024 - 2**970:
        raise ValueError(f"need 3*c*n < 2**1024 - 2**970, the float range; got n={n}, c={c}")
    log_phi = log(phi(c).value)
    center = n * log(n) / log_phi
    tight_lower = center - 3 * c * n
    tight_upper = center + (c + 1) * n
    simple_lower = c * n * log2(n)
    simple_upper = (c + 0.5) * n * ceil(log2(n)) if n > 1 else 0.0
    return tight_lower, tight_upper, simple_lower, simple_upper


def f_leading_estimate(k: int, c: int) -> float:
    """Leading-term estimate of the race cost at sequence points n = p_c(k).

    Valid only on the sequence itself (linear interpolation in between is
    biased upward); the error is o(n).
    """
    if c < 1:
        raise ValueError("cost parameter must be >= 1")
    n = pawnrace.sequences(c, k)[0]
    if n < 10:
        raise ValueError(f"estimate needs p_c(k) >= 10, got {n}")
    x = phi(c).value
    log_phi = log(x)
    constant = log((x + 1) * (c * x + c + 1) * (x - 1)) / log_phi
    return (log(n) / log_phi + constant - 2 - 1 / (x - 1)) * n
