"""Optimizers for local training (plain SGD and momentum SGD)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ReproError


class SGD:
    """Stochastic gradient descent on flat parameter vectors.

    ``step`` returns the updated parameters; momentum and weight decay are
    optional and match the standard (non-Nesterov) formulation.
    """

    def __init__(
        self,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        if lr <= 0:
            raise ReproError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ReproError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ReproError("weight decay must be non-negative")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Optional[np.ndarray] = None

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if params.shape != grad.shape:
            raise ReproError("params and grad must have equal shapes")
        if self.weight_decay:
            grad = grad + self.weight_decay * params
        if self.momentum:
            if self._velocity is None:
                self._velocity = np.zeros_like(params)
            self._velocity = self.momentum * self._velocity + grad
            grad = self._velocity
        return params - self.lr * grad
