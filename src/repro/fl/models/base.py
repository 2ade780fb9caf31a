"""Trainable-model interface used by the FL loop.

A :class:`Model` wraps a :class:`~repro.fl.models.layers.Sequential` stack
(or behaves like one) and exposes flat-parameter access — the FL layer and
the secure-aggregation protocols only ever see flat ``float64`` vectors of
dimension ``d``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.fl.models.layers import Sequential, softmax_cross_entropy


class Model:
    """A classification model backed by a layer stack."""

    def __init__(self, net: Sequential, name: str = "model"):
        self.net = net
        self.name = name

    @property
    def dim(self) -> int:
        """Number of trainable parameters ``d``."""
        return self.net.num_params

    def get_flat_params(self) -> np.ndarray:
        return self.net.get_flat_params()

    def set_flat_params(self, flat: np.ndarray) -> None:
        self.net.set_flat_params(flat)

    def loss_and_grad(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Mean cross-entropy loss and flat gradient on a batch."""
        logits = self.net.forward(x, train=True)
        loss, dlogits = softmax_cross_entropy(logits, y)
        self.net.backward(dlogits)
        return loss, self.net.get_flat_grads()

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
        """(loss, accuracy) on a dataset, computed in inference mode."""
        logits = self.net.forward(x, train=False)
        loss, _ = softmax_cross_entropy(logits, y)
        accuracy = float(np.mean(np.argmax(logits, axis=1) == y))
        return float(loss), accuracy

    def __repr__(self) -> str:
        return f"Model(name={self.name!r}, dim={self.dim})"
