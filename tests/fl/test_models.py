"""Tests for the model zoo and flat-parameter interface."""

import numpy as np
import pytest

from repro.fl.models import (
    PAPER_MODEL_SIZES,
    SyntheticModel,
    efficientnet_b0_sized,
    lenet5_variant,
    logistic_regression,
    mcmahan_cnn,
    mlp,
    mobilenetv3_sized,
)


class TestPaperModelSizes:
    def test_logistic_regression_matches_paper(self):
        """Table 2 task 1: MNIST LR has exactly d = 7,850."""
        model = logistic_regression()
        assert model.dim == PAPER_MODEL_SIZES["logistic_regression"] == 7_850

    def test_synthetic_models_match_paper(self):
        assert mobilenetv3_sized().dim == 3_111_462
        assert efficientnet_b0_sized().dim == 5_288_548

    def test_mcmahan_cnn_magnitude(self):
        """The real CNN should be within 2x of the paper's 1,206,590 (the
        paper's variant differs in head size)."""
        model = mcmahan_cnn()
        assert 0.5 < model.dim / PAPER_MODEL_SIZES["cnn_femnist"] < 2.5


class TestTrainability:
    def _learnable_blob(self, rng, shape, classes, n=120):
        protos = rng.normal(0, 1, size=(classes,) + shape)
        y = rng.integers(0, classes, n)
        x = protos[y] + rng.normal(0, 0.3, size=(n,) + shape)
        return x, y

    @pytest.mark.parametrize(
        "factory,shape,classes",
        [
            (logistic_regression, (1, 28, 28), 10),
            (mlp, (1, 28, 28), 10),
        ],
    )
    def test_loss_decreases_with_sgd(self, rng, factory, shape, classes):
        model = factory(input_shape=shape, num_classes=classes, seed=0)
        x, y = self._learnable_blob(rng, shape, classes)
        params = model.get_flat_params()
        loss0, _ = model.loss_and_grad(x, y)
        for _ in range(30):
            model.set_flat_params(params)
            _, grad = model.loss_and_grad(x, y)
            params = params - 0.2 * grad
        model.set_flat_params(params)
        loss1, acc = model.evaluate(x, y)
        assert loss1 < loss0
        assert acc > 0.8

    def test_cnn_trains(self, rng):
        model = mcmahan_cnn(input_shape=(1, 28, 28), num_classes=5, seed=0)
        x, y = self._learnable_blob(rng, (1, 28, 28), 5, n=40)
        params = model.get_flat_params()
        loss0, _ = model.loss_and_grad(x, y)
        for _ in range(10):
            model.set_flat_params(params)
            _, grad = model.loss_and_grad(x, y)
            params = params - 0.1 * grad
        model.set_flat_params(params)
        loss1, _ = model.evaluate(x, y)
        assert loss1 < loss0

    def test_lenet_trains(self, rng):
        model = lenet5_variant(input_shape=(3, 32, 32), num_classes=4, seed=0)
        x, y = self._learnable_blob(rng, (3, 32, 32), 4, n=32)
        params = model.get_flat_params()
        loss0, _ = model.loss_and_grad(x, y)
        for _ in range(8):
            model.set_flat_params(params)
            _, grad = model.loss_and_grad(x, y)
            params = params - 0.05 * grad
        model.set_flat_params(params)
        loss1, _ = model.evaluate(x, y)
        assert loss1 < loss0


class TestFlatParams:
    def test_round_trip(self):
        model = logistic_regression()
        flat = model.get_flat_params()
        model.set_flat_params(np.arange(flat.size, dtype=np.float64))
        assert model.get_flat_params()[5] == 5.0

    def test_evaluate(self, rng):
        model = logistic_regression(input_shape=(1, 4, 4), num_classes=3)
        x = rng.normal(size=(10, 1, 4, 4))
        loss, acc = model.evaluate(x, rng.integers(0, 3, 10))
        assert 0 <= acc <= 1 and loss > 0

    def test_repr(self):
        assert "7850" in repr(logistic_regression())


class TestSyntheticModel:
    def test_dim_and_interface(self):
        model = SyntheticModel(100, seed=1)
        assert model.dim == 100
        assert model.get_flat_params().shape == (100,)

    def test_gradient_descends(self):
        model = SyntheticModel(50, seed=0)
        loss0, grad = model.loss_and_grad()
        model.set_flat_params(model.get_flat_params() - 0.5 * grad)
        loss1, _ = model.loss_and_grad()
        assert loss1 < loss0

    def test_shape_validation(self):
        model = SyntheticModel(10)
        with pytest.raises(ValueError):
            model.set_flat_params(np.zeros(11))

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            SyntheticModel(0)
