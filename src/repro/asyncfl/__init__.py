"""Asynchronous FL: staleness functions, buffering, FedBuff, async LightSecAgg.

:class:`AsyncSecureAggregator` is the one-shot reference for a buffered
drain.  The service's pooled drain and re-key live on the session every
cohort uses, :class:`~repro.protocols.lightsecagg.session.LightSecAggSession`
(``drain`` / ``rekey``).
"""

from repro.asyncfl.buffer import BufferedUpdate, UpdateBuffer
from repro.asyncfl.convergence import (
    ConvergenceConstants,
    convergence_bound,
    quantization_excess,
)
from repro.asyncfl.incompatibility import (
    AsyncPairwiseOutcome,
    attempt_async_pairwise_aggregation,
    residue_matrix,
)
from repro.asyncfl.secure_aggregator import (
    AsyncDelivery,
    AsyncSecureAggregator,
    PreparedDelivery,
    prepare_deliveries,
)
from repro.asyncfl.staleness import (
    QuantizedStaleness,
    constant_staleness,
    hinge_staleness,
    polynomial_staleness,
)
from repro.asyncfl.trainers import (
    AsyncHistory,
    AsyncLightSecAggTrainer,
    AsyncRoundRecord,
    FedBuffTrainer,
)

__all__ = [
    "ConvergenceConstants",
    "convergence_bound",
    "quantization_excess",
    "AsyncPairwiseOutcome",
    "attempt_async_pairwise_aggregation",
    "residue_matrix",
    "UpdateBuffer",
    "BufferedUpdate",
    "AsyncDelivery",
    "AsyncSecureAggregator",
    "PreparedDelivery",
    "prepare_deliveries",
    "constant_staleness",
    "polynomial_staleness",
    "hinge_staleness",
    "QuantizedStaleness",
    "FedBuffTrainer",
    "AsyncLightSecAggTrainer",
    "AsyncHistory",
    "AsyncRoundRecord",
]
