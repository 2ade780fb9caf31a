"""Message-driven LightSecAgg round over the discrete-event core.

Reproduces the paper's Fig. 4 software architecture in simulation: a
``Server Manager`` with a masked-model cache, ``Client Manager``s that run
*two parallel tracks* — model training and the offline mask phase — and a
network whose links serialize transfers.  Protocol messages carry the
*real* field payloads, so the runtime validates both worlds at once:

* **correctness** — the aggregate the server decodes equals the plain sum;
* **systems behaviour** — overlap savings (Fig. 5), straggler resilience
  via the U-th-response order statistic, and per-phase spans emerge from
  the event schedule rather than from closed-form charging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro.coding.mask_encoding import MaskEncoder
from repro.exceptions import DropoutError, SimulationError
from repro.field.arithmetic import FiniteField
from repro.protocols.lightsecagg.params import LSAParams
from repro.simulation.heterogeneous import UserProfile
from repro.simulation.machine import MachineProfile, PAPER_TESTBED
from repro.simulation.network import BandwidthProfile, TESTBED_320
from repro.system.events import EventSimulator, SerialResource


@dataclass
class PhaseSpans:
    """Start/end of each phase for one client (simulated seconds)."""

    offline_done: float = 0.0
    training_done: float = 0.0
    upload_done: float = 0.0
    recovery_response: Optional[float] = None


@dataclass
class SystemRoundResult:
    """Outcome of one event-driven round."""

    aggregate: np.ndarray
    survivors: List[int]
    finish_time: float
    upload_complete: float
    recovery_complete: float
    spans: Dict[int, PhaseSpans] = field(default_factory=dict)
    responders: List[int] = field(default_factory=list)


class SystemRuntime:
    """One LightSecAgg round as interacting client/server state machines."""

    def __init__(
        self,
        gf: FiniteField,
        params: LSAParams,
        model_dim: int,
        fleet: Optional[List[UserProfile]] = None,
        machine: MachineProfile = PAPER_TESTBED,
        bandwidth: BandwidthProfile = TESTBED_320,
        training_time: float = 0.0,
        overlap: bool = True,
    ):
        self.gf = gf
        self.params = params
        self.model_dim = model_dim
        n = params.num_users
        self.fleet = fleet if fleet is not None else [UserProfile()] * n
        if len(self.fleet) != n:
            raise SimulationError("fleet size must equal N")
        self.machine = machine
        self.bandwidth = bandwidth
        self.training_time = training_time
        self.overlap = overlap
        self.encoder = MaskEncoder(
            gf,
            num_users=n,
            target_survivors=params.target_survivors,
            privacy=params.privacy,
            model_dim=model_dim,
        )

    # ------------------------------------------------------------------
    def _transfer_time(self, elements: int, user: int) -> float:
        return self.bandwidth.seconds(elements) / self.fleet[user].bandwidth_scale

    def _compute_time(self, ops: int, user: int) -> float:
        return self.machine.field_time(ops) / self.fleet[user].compute_scale

    # ------------------------------------------------------------------
    def run_round(
        self,
        updates: Dict[int, np.ndarray],
        dropouts: Optional[Set[int]] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> SystemRoundResult:
        """Run one event-driven round."""
        params = self.params
        n = params.num_users
        u = params.target_survivors
        dropouts = set(dropouts or set())
        rng = rng if rng is not None else np.random.default_rng()
        survivors = sorted(set(range(n)) - dropouts)
        if len(survivors) < u:
            raise DropoutError(f"only {len(survivors)} survivors, need U={u}")
        share_dim = self.encoder.share_dim

        sim = EventSimulator()
        spans = {i: PhaseSpans() for i in range(n)}
        masks: Dict[int, np.ndarray] = {}
        held_shares: Dict[int, Dict[int, np.ndarray]] = {j: {} for j in range(n)}
        masked_updates: Dict[int, np.ndarray] = {}
        agg_share_arrivals: List[tuple] = []  # (time, user, vector)
        state = {
            "uploads_seen": 0,
            "upload_complete": 0.0,
            "recovery_complete": 0.0,
            "aggregate": None,
            "responders": [],
            "announced": False,
            "responding": set(),
        }
        waiting_responders: Set[int] = set()
        cpu = {i: SerialResource(f"cpu{i}") for i in range(n)}
        uplink = {i: SerialResource(f"up{i}") for i in range(n)}

        # ---------------- client side -------------------------------
        def start_client(i: int):
            # Track A: offline phase — draw mask, encode, push shares.
            z = self.encoder.generate_mask(rng)
            masks[i] = z
            encode_ops = int(
                n * np.log2(max(n, 2)) * share_dim
            )  # FFT-style encoding cost (Sec. 5.2)

            def offline_encoded(t_enc: float):
                coded = self.encoder.encode(z, rng)
                send_time = self._transfer_time((n - 1) * share_dim, i)
                arrival = t_enc + send_time  # duplex stream to all peers

                def delivered():
                    for j in range(n):
                        held_shares[j][i] = coded[j]
                    spans[i].offline_done = sim.now
                    maybe_upload(i)
                    # A late share delivery may unblock recovery responders.
                    for j in list(waiting_responders):
                        try_respond(j)

                sim.schedule(arrival, delivered)

            # Track B: local training (a separate process in the paper's
            # design, so it does not contend with Track A's CPU when
            # overlap is on).
            train_dur = self.training_time / self.fleet[i].compute_scale

            if self.overlap:
                cpu[i].acquire(sim, 0.0, self._compute_time(encode_ops, i),
                               offline_encoded)

                def trained(t_done: float):
                    spans[i].training_done = t_done
                    maybe_upload(i)

                sim.schedule(train_dur, lambda: trained(sim.now))
            else:
                # Serial: offline phase first, then training on the same track.
                def offline_then_train(t_enc: float):
                    offline_encoded(t_enc)

                    def trained(t_done: float):
                        spans[i].training_done = t_done
                        maybe_upload(i)

                    cpu[i].acquire(sim, t_enc, train_dur, trained)

                cpu[i].acquire(sim, 0.0, self._compute_time(encode_ops, i),
                               offline_then_train)

        def maybe_upload(i: int):
            # Upload requires local training to be done and the mask z_i to
            # exist; it does NOT wait for share *distribution* (the paper's
            # masking step needs only z_i, and the share exchange continues
            # in the background on the send queue).
            if i in masked_updates:
                return
            if self.training_time > 0 and spans[i].training_done == 0.0:
                return
            if i not in masks:
                return
            masked = self.gf.add(self.gf.array(updates[i]), masks[i])
            masked_updates[i] = masked

            def uploaded(t_up: float):
                spans[i].upload_done = t_up
                server_got_upload(i, t_up)

            uplink[i].acquire(
                sim, sim.now, self._transfer_time(self.model_dim, i), uploaded
            )

        # ---------------- server side -------------------------------
        def server_got_upload(i: int, when: float):
            if i in dropouts:
                return  # dropped after upload: server discards it
            state["uploads_seen"] += 1
            if state["uploads_seen"] == len(survivors):
                state["upload_complete"] = when
                announce_survivors(when)

        def announce_survivors(when: float):
            state["announced"] = True
            for j in survivors:
                sim.schedule(when, lambda j=j: try_respond(j))

        def try_respond(j: int):
            """Respond once this user holds shares from every survivor;
            otherwise wait for the remaining offline deliveries."""
            if not state["announced"] or spans[j].recovery_response is not None:
                return
            if any(i not in held_shares[j] for i in survivors):
                waiting_responders.add(j)
                return
            waiting_responders.discard(j)
            if j in state["responding"]:
                return
            state["responding"].add(j)
            respond(j)

        def respond(j: int):
            agg_ops = len(survivors) * share_dim

            def aggregated(t_agg: float):
                vec = self.encoder.aggregate_shares(
                    {i: held_shares[j][i] for i in survivors}
                )

                def sent(t_sent: float):
                    spans[j].recovery_response = t_sent
                    agg_share_arrivals.append((t_sent, j, vec))
                    if len(agg_share_arrivals) == u:
                        decode(t_sent)

                uplink[j].acquire(
                    sim, t_agg, self._transfer_time(share_dim, j), sent
                )

            cpu[j].acquire(sim, sim.now, self._compute_time(agg_ops, j),
                           aggregated)

        def decode(when: float):
            decode_dur = self.machine.field_time(
                u * self.model_dim + u * u
            )

            def decoded():
                arrivals = sorted(agg_share_arrivals)[:u]
                state["responders"] = [user for _, user, _ in arrivals]
                agg_mask = self.encoder.decode_aggregate(
                    {user: vec for _, user, vec in arrivals}
                )
                total = self.gf.zeros(self.model_dim)
                for i in survivors:
                    total = self.gf.add(total, masked_updates[i])
                state["aggregate"] = self.gf.sub(total, agg_mask)
                state["recovery_complete"] = sim.now

            sim.schedule(when + decode_dur, decoded)

        for i in range(n):
            start_client(i)
        finish = sim.run()

        if state["aggregate"] is None:
            raise SimulationError("round did not complete")
        return SystemRoundResult(
            aggregate=state["aggregate"],
            survivors=survivors,
            finish_time=finish,
            upload_complete=state["upload_complete"],
            recovery_complete=state["recovery_complete"],
            spans=spans,
            responders=state["responders"],
        )
