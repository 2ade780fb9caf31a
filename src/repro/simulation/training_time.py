"""End-to-end training-time projection — the abstract's headline claim.

The paper's per-round results (Fig. 6/8/9/10, Table 4) compose with the
convergence behaviour (identical across protocols up to quantization
noise, Sec. 5.1/7.4) into the claim that matters to a practitioner:
*wall-clock time to reach a target accuracy*.  Because every protocol
computes the same aggregate, they share the accuracy-per-round curve; the
protocols differ only in seconds-per-round.  This module makes that
composition explicit:

    time_to_accuracy = rounds_to_accuracy(curve, target) * round_time

and reports the LightSecAgg end-to-end speedups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.exceptions import SimulationError
from repro.simulation.runtime import PhaseTimes, SimulationConfig, simulate


def rounds_to_accuracy(accuracies: Sequence[float], target: float) -> int:
    """First round index (1-based) whose accuracy reaches ``target``.

    Raises when the curve never reaches the target — callers should lower
    the target or train longer rather than extrapolate.
    """
    if not accuracies:
        raise SimulationError("empty accuracy curve")
    if not 0.0 < target <= 1.0:
        raise SimulationError("target accuracy must be in (0, 1]")
    for k, acc in enumerate(accuracies):
        if acc >= target:
            return k + 1
    raise SimulationError(
        f"curve peaks at {max(accuracies):.3f} < target {target}"
    )


@dataclass(frozen=True)
class TrainingTimeProjection:
    """Wall-clock seconds to a target accuracy, per protocol."""

    target_accuracy: float
    rounds_needed: int
    seconds: Dict[str, float]

    def speedup_over(self, baseline: str) -> float:
        """LightSecAgg end-to-end speedup over ``baseline``."""
        if baseline not in self.seconds or "lightsecagg" not in self.seconds:
            raise SimulationError(f"unknown protocol {baseline!r}")
        return self.seconds[baseline] / self.seconds["lightsecagg"]


def project_training_time(
    accuracies: Sequence[float],
    target: float,
    num_users: int,
    model_dim: int,
    dropout_rate: float,
    training_time: float,
    config: SimulationConfig = SimulationConfig(),
    overlapped: bool = True,
    protocols: Sequence[str] = ("lightsecagg", "secagg", "secagg+"),
) -> TrainingTimeProjection:
    """Compose a convergence curve with per-round systems time.

    ``accuracies`` is any protocol's measured accuracy-per-round curve —
    they are interchangeable across protocols (verified by the FL tests up
    to quantization noise), which is precisely why a single curve suffices.
    """
    rounds = rounds_to_accuracy(accuracies, target)
    seconds: Dict[str, float] = {}
    for proto in protocols:
        per_round: PhaseTimes = simulate(
            proto, num_users, model_dim, dropout_rate, training_time, config
        )
        seconds[proto] = rounds * per_round.total(overlapped)
    return TrainingTimeProjection(
        target_accuracy=target, rounds_needed=rounds, seconds=seconds
    )
