"""Staleness-compensation functions for asynchronous FL.

The server weighs a delivered update by ``s(tau)`` where ``tau = t - t_i``
is its staleness (paper eq. 26).  The paper evaluates a constant function
(no compensation) and the polynomial ``s_alpha(tau) = (1 + tau)^-alpha``
(Fig. 7/11); the hinge variant of Xie et al. (2019) is included for
completeness.

For the secure asynchronous protocol the weighting must happen *in the
finite field*, so :class:`QuantizedStaleness` implements eq. (34):
``s_cg(tau) = cg * Q_cg(s(tau))``, a non-negative integer weight that users
and server apply to field vectors.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.exceptions import ReproError
from repro.quantization.stochastic import stochastic_round

StalenessFn = Callable[[int], float]


def constant_staleness(tau: int) -> float:
    """``s(tau) = 1`` — no staleness compensation."""
    if tau < 0:
        raise ReproError("staleness must be non-negative")
    return 1.0


def polynomial_staleness(alpha: float = 1.0) -> StalenessFn:
    """``s_alpha(tau) = (1 + tau)^-alpha`` (paper Sec. F.1)."""
    if alpha < 0:
        raise ReproError("alpha must be non-negative")

    def fn(tau: int) -> float:
        if tau < 0:
            raise ReproError("staleness must be non-negative")
        return float((1.0 + tau) ** (-alpha))

    return fn


def hinge_staleness(a: float = 10.0, b: float = 4.0) -> StalenessFn:
    """Hinge function of Xie et al. (2019): 1 until ``b``, then decaying."""
    if a <= 0 or b < 0:
        raise ReproError("require a > 0 and b >= 0")

    def fn(tau: int) -> float:
        if tau < 0:
            raise ReproError("staleness must be non-negative")
        if tau <= b:
            return 1.0
        return float(1.0 / (a * (tau - b) + 1.0))

    return fn


class QuantizedStaleness:
    """Field-compatible staleness weights ``s_cg(tau) = cg * Q_cg(s(tau))``.

    ``weight(tau, rng)`` returns the integer weight used in-field; the
    overall scale ``cg`` is divided out at dequantization (paper eq. 35).
    The paper uses ``cg = 2**6``, which it reports matches the real-valued
    staleness function's mitigation quality (Sec. F.5).
    """

    def __init__(self, levels: int = 1 << 6, fn: Optional[StalenessFn] = None):
        if levels <= 0:
            raise ReproError("levels must be a positive integer")
        self.levels = levels
        self.fn = fn if fn is not None else constant_staleness

    def weight(self, tau: int, rng: Optional[np.random.Generator] = None) -> int:
        """Integer field weight for staleness ``tau``."""
        value = self.fn(tau)
        if value < 0:
            raise ReproError("staleness function must be non-negative")
        rounded = stochastic_round(np.asarray([value]), self.levels, rng)[0]
        return int(round(rounded * self.levels))
