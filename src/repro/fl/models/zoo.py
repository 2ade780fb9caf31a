"""Model zoo matching the paper's evaluation (Table 2).

Trainable numpy models:

* :func:`logistic_regression` — MNIST task; ``28*28*10 + 10 = 7,850``
  parameters, exactly the paper's model size for task 1.
* :func:`mcmahan_cnn` — the CNN of McMahan et al. (2017) used for FEMNIST.
* :func:`lenet5_variant` — the LeNet-style CNN of Xie et al. (2019) used by
  the asynchronous experiments (Fig. 7).
* :func:`mlp` — a generic baseline.

For the large edge architectures the paper only exercises through their
*parameter count* (MobileNetV3, EfficientNet-B0) we provide
:class:`SyntheticModel`: a parameter-count-faithful stand-in with a
synthetic quadratic objective, sufficient for every systems experiment and
far cheaper than a faithful forward pass.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.fl.models.base import Model
from repro.fl.models.layers import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
)

#: The paper's Table 2 model sizes, by task name.
PAPER_MODEL_SIZES = {
    "logistic_regression": 7_850,
    "cnn_femnist": 1_206_590,
    "mobilenetv3": 3_111_462,
    "efficientnet_b0": 5_288_548,
}


def logistic_regression(
    input_shape: Tuple[int, ...] = (1, 28, 28),
    num_classes: int = 10,
    seed: int = 0,
) -> Model:
    """Multinomial logistic regression (paper task 1: MNIST, d=7850)."""
    rng = np.random.default_rng(seed)
    in_dim = int(np.prod(input_shape))
    net = Sequential([Flatten(), Dense(in_dim, num_classes, rng)])
    return Model(net, name="logistic_regression")


def mlp(
    input_shape: Tuple[int, ...] = (1, 28, 28),
    hidden: int = 200,
    num_classes: int = 10,
    seed: int = 0,
) -> Model:
    """Two-layer MLP baseline."""
    rng = np.random.default_rng(seed)
    in_dim = int(np.prod(input_shape))
    net = Sequential(
        [
            Flatten(),
            Dense(in_dim, hidden, rng),
            ReLU(),
            Dense(hidden, num_classes, rng),
        ]
    )
    return Model(net, name="mlp")


def mcmahan_cnn(
    input_shape: Tuple[int, int, int] = (1, 28, 28),
    num_classes: int = 62,
    seed: int = 0,
) -> Model:
    """The CNN of McMahan et al. (2017): conv32-pool-conv64-pool-fc512-fc.

    With FEMNIST inputs (1x28x28, 62 classes) this is the paper's task-2
    architecture.
    """
    rng = np.random.default_rng(seed)
    c, h, w = input_shape
    # After two 5x5 valid convs + 2x2 pools: ((h-4)/2 - 4)/2.
    h2 = ((h - 4) // 2 - 4) // 2
    w2 = ((w - 4) // 2 - 4) // 2
    if h2 <= 0 or w2 <= 0:
        raise ValueError(
            f"input {h}x{w} too small for two conv5+pool2 stages; need >= 18x18"
        )
    net = Sequential(
        [
            Conv2D(c, 32, 5, rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(32, 64, 5, rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(64 * h2 * w2, 512, rng),
            ReLU(),
            Dense(512, num_classes, rng),
        ]
    )
    return Model(net, name="mcmahan_cnn")


def lenet5_variant(
    input_shape: Tuple[int, int, int] = (3, 32, 32),
    num_classes: int = 10,
    seed: int = 0,
) -> Model:
    """LeNet-5 variant (Xie et al., 2019) used in the async experiments."""
    rng = np.random.default_rng(seed)
    c, h, w = input_shape
    h2 = ((h - 4) // 2 - 4) // 2
    w2 = ((w - 4) // 2 - 4) // 2
    if h2 <= 0 or w2 <= 0:
        raise ValueError(
            f"input {h}x{w} too small for two conv5+pool2 stages; need >= 18x18"
        )
    net = Sequential(
        [
            Conv2D(c, 6, 5, rng),
            ReLU(),
            MaxPool2D(2),
            Conv2D(6, 16, 5, rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            Dense(16 * h2 * w2, 120, rng),
            ReLU(),
            Dense(120, 84, rng),
            ReLU(),
            Dense(84, num_classes, rng),
        ]
    )
    return Model(net, name="lenet5_variant")


class SyntheticModel:
    """Parameter-count-faithful stand-in for large architectures.

    Minimizes ``0.5 * ||theta - theta*||^2`` for a hidden optimum
    ``theta*``; gradients and updates have exactly the dimensionality of
    the real architecture, which is all the protocol and systems
    experiments observe.  Implements the same flat-parameter interface as
    :class:`~repro.fl.models.base.Model`.
    """

    def __init__(self, dim: int, seed: int = 0, name: str = "synthetic"):
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        rng = np.random.default_rng(seed)
        self.name = name
        self._dim = dim
        self._params = np.zeros(dim)
        self._optimum = rng.normal(0.0, 0.1, size=dim)

    @property
    def dim(self) -> int:
        return self._dim

    def get_flat_params(self) -> np.ndarray:
        return self._params.copy()

    def set_flat_params(self, flat: np.ndarray) -> None:
        if flat.shape != (self._dim,):
            raise ValueError(f"expected shape ({self._dim},), got {flat.shape}")
        self._params = np.asarray(flat, dtype=np.float64).copy()

    def loss_and_grad(self, x=None, y=None) -> Tuple[float, np.ndarray]:
        diff = self._params - self._optimum
        return 0.5 * float(diff @ diff), diff.copy()

    def evaluate(self, x=None, y=None) -> Tuple[float, float]:
        loss, _ = self.loss_and_grad()
        return loss, 0.0


def mobilenetv3_sized(seed: int = 0) -> SyntheticModel:
    """d = 3,111,462 — the paper's MobileNetV3 size (Table 2, task 3)."""
    return SyntheticModel(PAPER_MODEL_SIZES["mobilenetv3"], seed, "mobilenetv3")


def efficientnet_b0_sized(seed: int = 0) -> SyntheticModel:
    """d = 5,288,548 — the paper's EfficientNet-B0 size (Table 2, task 4)."""
    return SyntheticModel(
        PAPER_MODEL_SIZES["efficientnet_b0"], seed, "efficientnet_b0"
    )
