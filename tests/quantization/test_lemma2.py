"""Statistical verification of paper Lemma 2.

Lemma 2 states that for the stochastic rounding estimator ``Q_c`` applied
to an unbiased gradient estimator with variance ``sigma_l^2``:

1. ``E[Q_c(g(x))] = grad F(x)`` (unbiasedness is preserved), and
2. ``E||Q_c(g(x)) - grad F(x)||^2 <= d/(4c^2) + sigma_l^2``.

We verify both empirically on a synthetic quadratic objective where the
exact gradient is known.
"""

import numpy as np
import pytest

from repro.field.arithmetic import FIELD_WORD, FiniteField
from repro.quantization import ModelQuantizer, QuantizationConfig
from repro.quantization.stochastic import (
    rounding_variance_bound,
    stochastic_round,
)
from repro.wire import (
    FrameAssembler,
    ShardRoundRequest,
    decode_message,
    encode_message,
)

DIM = 32
TRUE_GRAD = np.linspace(-1.0, 1.0, DIM)
SIGMA_L = 0.05


def noisy_gradient(rng: np.random.Generator) -> np.ndarray:
    """Unbiased gradient estimator with per-coordinate variance SIGMA_L^2."""
    return TRUE_GRAD + rng.normal(0.0, SIGMA_L, size=DIM)


@pytest.mark.parametrize("levels", [4, 16, 256])
def test_unbiasedness_of_quantized_gradient(levels):
    rng = np.random.default_rng(0)
    trials = 20_000
    acc = np.zeros(DIM)
    for _ in range(trials):
        acc += stochastic_round(noisy_gradient(rng), levels, rng)
    mean = acc / trials
    # Standard error per coordinate ~ sqrt(sigma^2 + 1/4c^2)/sqrt(trials).
    tol = 6 * np.sqrt(SIGMA_L**2 + 1 / (4 * levels**2)) / np.sqrt(trials)
    assert np.max(np.abs(mean - TRUE_GRAD)) < tol


@pytest.mark.parametrize("levels", [4, 16, 256])
def test_variance_bound_of_quantized_gradient(levels):
    rng = np.random.default_rng(1)
    trials = 5_000
    sq_errors = np.empty(trials)
    for k in range(trials):
        q = stochastic_round(noisy_gradient(rng), levels, rng)
        sq_errors[k] = np.sum((q - TRUE_GRAD) ** 2)
    bound = rounding_variance_bound(levels, DIM) + DIM * SIGMA_L**2
    assert sq_errors.mean() <= bound * 1.05


def _request(field_matrix: np.ndarray) -> ShardRoundRequest:
    """The quantized rows as one shard request, each weighted 1."""
    weights = np.ones(field_matrix.shape[0], dtype=np.uint64)
    return ShardRoundRequest(0, 0, weights=weights, updates=field_matrix)


def _through_the_wire(field_matrix: np.ndarray) -> np.ndarray:
    """Field matrix -> ``<u4`` frame -> torn byte stream -> field matrix.

    The full transport pipeline a quantized update rides: narrowed to
    the wire's field word, framed, fed to the reassembler in chunks that
    tear headers and payload alike, and decoded as ``<u4`` words.
    """
    frame = encode_message(_request(field_matrix), 1)
    assembler = FrameAssembler()
    frames = []
    step = 4093  # odd chunk size: every split lands mid-element somewhere
    for i in range(0, len(frame), step):
        frames.extend(assembler.feed(frame[i : i + step]))
    assert frames == [frame]
    _, request = decode_message(frames[0])
    return request.updates


class TestLemma2ThroughTheWire:
    """Lemma 2's statistics survive the full wire pipeline — quantize ->
    narrow to ``<u4`` -> frame -> torn stream -> reassemble -> decode ->
    dequantize — because every field element fits the wire word.  A
    rounding (or truncation) bug anywhere in the codec would bias the
    estimator or inflate the variance, failing these bounds."""

    @pytest.mark.parametrize("levels", [16, 256])
    def test_unbiasedness_and_variance_bound_survive_the_wire(self, levels):
        gf = FiniteField()
        quantizer = ModelQuantizer(gf, QuantizationConfig(levels=levels))
        rng = np.random.default_rng(4)
        trials = 20_000
        gradients = TRUE_GRAD + rng.normal(
            0.0, SIGMA_L, size=(trials, DIM)
        )
        field_matrix = quantizer.quantize(gradients, rng)

        received = _through_the_wire(field_matrix)
        # Losslessness first: what arrives is what was sent, bit for bit,
        # still at the wire's field word.
        assert received.dtype == FIELD_WORD
        np.testing.assert_array_equal(received, field_matrix)

        decoded = quantizer.dequantize(received)
        mean = decoded.mean(axis=0)
        tol = 6 * np.sqrt(SIGMA_L**2 + 1 / (4 * levels**2)) / np.sqrt(trials)
        assert np.max(np.abs(mean - TRUE_GRAD)) < tol

        sq_errors = np.sum((decoded - TRUE_GRAD) ** 2, axis=1)
        bound = rounding_variance_bound(levels, DIM) + DIM * SIGMA_L**2
        assert sq_errors.mean() <= bound * 1.05

    def test_field_elements_ride_in_four_bytes(self):
        """Each quantized field element costs 4 bytes on the wire, half
        its in-memory uint64 word."""
        gf = FiniteField()
        quantizer = ModelQuantizer(gf, QuantizationConfig(levels=1 << 16))
        rng = np.random.default_rng(5)
        field_matrix = quantizer.quantize(
            rng.standard_normal((64, DIM)) * 0.25, rng
        )
        frame = encode_message(_request(field_matrix), 1)
        weights_and_framing = 8 * 64 + 128
        assert len(frame) <= 4 * field_matrix.size + weights_and_framing


def test_variance_shrinks_with_levels():
    """The d/(4c^2) term must vanish as c grows (Remark 6)."""
    rng = np.random.default_rng(2)
    means = []
    for levels in (2, 8, 32):
        errs = [
            np.sum(
                (stochastic_round(TRUE_GRAD, levels, rng) - TRUE_GRAD) ** 2
            )
            for _ in range(2000)
        ]
        means.append(np.mean(errs))
    assert means[0] > means[1] > means[2]
    # Quartering the grid step should cut variance ~16x.
    assert means[0] / means[1] > 8
