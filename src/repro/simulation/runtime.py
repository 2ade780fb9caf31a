"""Phase-timing simulator — regenerates the paper's running-time results.

The paper's evaluation (Fig. 5/6/8/9/10, Tables 2/3/4) measures one FL
round as four phases: offline (seed/mask setup), local training, masked
upload, and server-side recovery.  This module charges each protocol's
analytic operation counts (Sec. 5.2) against a :class:`MachineProfile` and
a :class:`BandwidthProfile`, reproducing the *shape* of the measurements:

* SecAgg's recovery grows ~``N^2 d`` and linearly in the number of drops;
* SecAgg+ improves it by ``N / log N`` but keeps the dropout slope;
* LightSecAgg's recovery is nearly flat in both (one-shot decoding), with
  the known exception ``U - T = 1`` (``p = 0.5``) where coded symbols stop
  shrinking (Sec. 7.2 "Impact of U").

Overlapped mode implements the paper's pipelining: the offline phase runs
concurrently with local training, so a round costs
``max(offline, training) + upload + recovery``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Optional

from repro.exceptions import SimulationError
from repro.coding.partition import piece_length
from repro.protocols.lightsecagg.params import LSAParams, choose_target_survivors
from repro.simulation.machine import MachineProfile, PAPER_TESTBED
from repro.simulation.network import BandwidthProfile, TESTBED_320

#: Per-task local training times (seconds) used in the paper's tables.
#: The CNN/FEMNIST value (22.8 s) is reported in Table 4; the others are
#: chosen to respect the paper's qualitative description (LR is trivial,
#: GLD-23K/EfficientNet is "the most training-intensive task", where
#: training dominates and the end-to-end gain drops to ~3.4x/1.7x).
TRAINING_TIMES = {
    "logistic_regression": 2.0,
    "cnn_femnist": 22.8,
    "mobilenetv3": 60.0,
    "efficientnet_b0": 650.0,
}

PROTOCOL_NAMES = ("lightsecagg", "secagg", "secagg+")


@dataclass(frozen=True)
class PhaseTimes:
    """Seconds per phase of one FL round."""

    offline: float
    training: float
    upload: float
    recovery: float

    def total(self, overlapped: bool = False) -> float:
        """Round time; overlapping hides offline behind training."""
        if overlapped:
            return max(self.offline, self.training) + self.upload + self.recovery
        return self.offline + self.training + self.upload + self.recovery

    def aggregation_only(self) -> float:
        """Everything except local training (Table 2 'Aggregation-only')."""
        return self.offline + self.upload + self.recovery

    def as_dict(self) -> Dict[str, float]:
        return {
            "offline": self.offline,
            "training": self.training,
            "upload": self.upload,
            "recovery": self.recovery,
        }


@dataclass(frozen=True)
class SimulationConfig:
    """Environment knobs shared by all protocol simulations.

    ``server_bandwidth_factor`` scales the server's aggregate ingress over
    a single user link (the EC2 server is better provisioned than one
    client).  ``per_peer_latency`` charges fixed per-peer RPC/session
    overhead in the offline phase — the measured floor (~60 s at N=200)
    that all three protocols share in Table 4.
    """

    bandwidth: BandwidthProfile = TESTBED_320
    machine: MachineProfile = PAPER_TESTBED
    server_bandwidth_factor: float = 2.2
    per_peer_latency: float = 0.3
    secagg_plus_safety: float = 5.2  # degree ~ safety * log2(N) (Bell et al.)

    def __post_init__(self):
        if self.server_bandwidth_factor <= 0 or self.per_peer_latency < 0:
            raise SimulationError("invalid simulation config")

    def server_seconds(self, num_elements: int) -> float:
        return self.bandwidth.seconds(num_elements) / self.server_bandwidth_factor


# ----------------------------------------------------------------------
# per-protocol phase models
# ----------------------------------------------------------------------
def simulate_lightsecagg(
    num_users: int,
    model_dim: int,
    dropout_rate: float,
    training_time: float,
    config: SimulationConfig = SimulationConfig(),
    privacy: Optional[int] = None,
    target_survivors: Optional[int] = None,
) -> PhaseTimes:
    """LightSecAgg round timing (Sec. 5.2 loads)."""
    n, d = num_users, model_dim
    t = privacy if privacy is not None else n // 2
    # Clamp D as the paper does at p = 0.5 (U = N/2 + 1, so D = N/2 - 1).
    dmax = min(int(dropout_rate * n), n - t - 1)
    u = (
        target_survivors
        if target_survivors is not None
        else choose_target_survivors(n, t, dmax)
    )
    LSAParams(n, t, dmax, u)  # validation
    share_dim = piece_length(d, u - t)
    m = config.machine

    # Offline: per-peer session floor + MDS mask encoding (FFT-style
    # N log N per coded element) + full-duplex shard exchange.
    offline = (
        (n - 1) * config.per_peer_latency
        + m.prg_time(d)  # draw z_i
        + m.field_time(int(n * math.log2(max(n, 2)) * share_dim))
        + config.bandwidth.seconds((n - 1) * share_dim)
    )
    # Upload: server ingests N masked models.
    upload = config.server_seconds(n * d)
    # Recovery: U aggregated shares in, one-shot decode.  Decoding needs
    # the U-T data rows only: (U-T) x U x share_dim MACs = U * d, plus the
    # U^2 Lagrange coefficient build; survivors' share aggregation happens
    # in parallel on-device (U1 x share_dim adds).
    recovery = (
        config.server_seconds(u * share_dim)
        + m.field_time(u * d + u * u)
        + m.field_time(int((n - dmax) * share_dim))  # on-device aggregation
    )
    return PhaseTimes(offline, training_time, upload, recovery)


def simulate_secagg(
    num_users: int,
    model_dim: int,
    dropout_rate: float,
    training_time: float,
    config: SimulationConfig = SimulationConfig(),
    privacy: Optional[int] = None,
) -> PhaseTimes:
    """SecAgg round timing (complete pairwise graph)."""
    n, d = num_users, model_dim
    t = privacy if privacy is not None else n // 2
    drops = int(dropout_rate * n)
    survivors = n - drops
    m = config.machine

    # Offline: per-peer sessions, DH agreements, Shamir shares of b/sk,
    # and the dominant cost — expanding N pairwise masks + the self mask.
    offline = (
        (n - 1) * config.per_peer_latency
        + m.dh_time(n - 1)
        + m.shamir_time(2 * (n - 1))
        + m.prg_time(n * d)
    )
    upload = config.server_seconds(n * d)
    # Recovery: reconstruct b_i of every survivor (PRG of d each) and the
    # pairwise masks of every dropped user with all N-1 peers, plus Shamir
    # reconstruction work.
    recovery = (
        m.prg_time(survivors * d + drops * (n - 1) * d)
        + m.shamir_time(n * (t + 1))
        + config.server_seconds(n * (t + 1))  # share upload, key-sized
    )
    return PhaseTimes(offline, training_time, upload, recovery)


def simulate_secagg_plus(
    num_users: int,
    model_dim: int,
    dropout_rate: float,
    training_time: float,
    config: SimulationConfig = SimulationConfig(),
    degree: Optional[int] = None,
) -> PhaseTimes:
    """SecAgg+ round timing (sparse graph of degree ~ log N)."""
    n, d = num_users, model_dim
    drops = int(dropout_rate * n)
    survivors = n - drops
    if degree is None:
        degree = max(
            6, int(math.ceil(config.secagg_plus_safety * math.log2(max(n, 2))))
        )
        degree = min(degree, n - 1)
    m = config.machine

    offline = (
        (n - 1) * config.per_peer_latency  # graph setup still touches all peers
        + m.dh_time(degree)
        + m.shamir_time(2 * degree)
        + m.prg_time((degree + 1) * d)
    )
    upload = config.server_seconds(n * d)
    recovery = (
        m.prg_time(survivors * d + drops * degree * d)
        + m.shamir_time(n * (degree // 2 + 1))
        + config.server_seconds(n * (degree // 2 + 1))
    )
    return PhaseTimes(offline, training_time, upload, recovery)


# ----------------------------------------------------------------------
# dispatch + comparisons
# ----------------------------------------------------------------------
def simulate(
    protocol: str,
    num_users: int,
    model_dim: int,
    dropout_rate: float,
    training_time: float,
    config: SimulationConfig = SimulationConfig(),
    **kwargs,
) -> PhaseTimes:
    """Dispatch by protocol name (``lightsecagg`` / ``secagg`` / ``secagg+``)."""
    if protocol == "lightsecagg":
        return simulate_lightsecagg(
            num_users, model_dim, dropout_rate, training_time, config, **kwargs
        )
    if protocol == "secagg":
        return simulate_secagg(
            num_users, model_dim, dropout_rate, training_time, config, **kwargs
        )
    if protocol == "secagg+":
        return simulate_secagg_plus(
            num_users, model_dim, dropout_rate, training_time, config, **kwargs
        )
    raise SimulationError(f"unknown protocol {protocol!r}; use {PROTOCOL_NAMES}")


@dataclass
class GainReport:
    """Speedups of LightSecAgg over the two baselines (one Table 2 row)."""

    task: str
    model_dim: int
    non_overlapped: Dict[str, float] = dataclass_field(default_factory=dict)
    overlapped: Dict[str, float] = dataclass_field(default_factory=dict)
    aggregation_only: Dict[str, float] = dataclass_field(default_factory=dict)


def compute_gains(
    task: str,
    num_users: int,
    model_dim: int,
    dropout_rate: float,
    training_time: float,
    config: SimulationConfig = SimulationConfig(),
) -> GainReport:
    """LightSecAgg speedup over SecAgg and SecAgg+ in all three metrics."""
    times = {
        name: simulate(
            name, num_users, model_dim, dropout_rate, training_time, config
        )
        for name in PROTOCOL_NAMES
    }
    lsa = times["lightsecagg"]
    report = GainReport(task=task, model_dim=model_dim)
    for base in ("secagg", "secagg+"):
        report.non_overlapped[base] = times[base].total(False) / lsa.total(False)
        report.overlapped[base] = times[base].total(True) / lsa.total(True)
        report.aggregation_only[base] = (
            times[base].aggregation_only() / lsa.aggregation_only()
        )
    return report
