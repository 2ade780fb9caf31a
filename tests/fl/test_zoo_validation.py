"""Validation and construction tests for the model zoo."""

import numpy as np
import pytest

from repro.fl.models import (
    lenet5_variant,
    logistic_regression,
    mcmahan_cnn,
    mlp,
)


class TestInputSizeValidation:
    def test_cnn_rejects_tiny_inputs(self):
        with pytest.raises(ValueError, match="too small"):
            mcmahan_cnn(input_shape=(1, 14, 14))
        with pytest.raises(ValueError, match="too small"):
            lenet5_variant(input_shape=(3, 12, 12))

    def test_cnn_accepts_minimum(self):
        model = mcmahan_cnn(input_shape=(1, 18, 18), num_classes=3)
        x = np.zeros((2, 1, 18, 18))
        assert model.net.forward(x, train=False).shape == (2, 3)

    def test_paper_shapes_work(self):
        assert mcmahan_cnn(input_shape=(1, 28, 28), num_classes=62).dim > 0
        assert lenet5_variant(input_shape=(3, 32, 32), num_classes=10).dim > 0


class TestDeterminism:
    @pytest.mark.parametrize("factory", [logistic_regression, mlp])
    def test_same_seed_same_params(self, factory):
        a = factory(seed=7).get_flat_params()
        b = factory(seed=7).get_flat_params()
        assert np.array_equal(a, b)

    def test_different_seed_different_params(self):
        a = logistic_regression(seed=7).get_flat_params()
        b = logistic_regression(seed=8).get_flat_params()
        assert not np.array_equal(a, b)


class TestDimConsistency:
    @pytest.mark.parametrize(
        "factory,kwargs",
        [
            (logistic_regression, {}),
            (mlp, {"hidden": 50}),
            (mcmahan_cnn, {"input_shape": (1, 20, 20), "num_classes": 5}),
            (lenet5_variant, {"input_shape": (1, 20, 20), "num_classes": 5}),
        ],
    )
    def test_flat_params_length_equals_dim(self, factory, kwargs):
        model = factory(**kwargs)
        assert model.get_flat_params().shape == (model.dim,)
