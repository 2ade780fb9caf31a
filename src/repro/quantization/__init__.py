"""Quantization substrate: stochastic rounding and field embedding."""

from repro.quantization.quantizer import ModelQuantizer, QuantizationConfig
from repro.quantization.stochastic import (
    rounding_variance_bound,
    stochastic_round,
    stochastic_round_to_int,
)
from repro.quantization.twos_complement import from_field, to_field

__all__ = [
    "ModelQuantizer",
    "QuantizationConfig",
    "stochastic_round",
    "stochastic_round_to_int",
    "rounding_variance_bound",
    "to_field",
    "from_field",
]
