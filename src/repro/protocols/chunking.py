"""Chunked mask transfer — the paper's Sec. 6 communication optimization.

LightSecAgg's offline phase makes every device a sender and a receiver of
N-1 coded shares simultaneously.  The paper's system splits shares into
chunks and runs dedicated send/receive queues so the two directions
overlap ("improving the speed of concurrent receiving and sending of
chunked masks").

This module provides (a) the chunking/reassembly primitives a transport
would use, with integrity checks, and (b) an analytic model of the
exchange time under serial, duplex, and chunk-pipelined schedules, used by
the ablation benchmark to quantify what the optimization buys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.exceptions import ProtocolError
from repro.simulation.network import BandwidthProfile, ELEMENT_BYTES


@dataclass(frozen=True)
class Chunk:
    """One transmission unit of a coded share."""

    source: int
    dest: int
    index: int
    total: int
    payload: np.ndarray


def chunk_vector(
    vec: np.ndarray, chunk_elems: int, source: int = 0, dest: int = 0
) -> List[Chunk]:
    """Split a share into chunks of at most ``chunk_elems`` elements."""
    if chunk_elems <= 0:
        raise ProtocolError("chunk size must be positive")
    if vec.ndim != 1:
        raise ProtocolError("can only chunk 1-D shares")
    total = max(1, -(-vec.shape[0] // chunk_elems))
    return [
        Chunk(
            source=source,
            dest=dest,
            index=k,
            total=total,
            payload=vec[k * chunk_elems : (k + 1) * chunk_elems].copy(),
        )
        for k in range(total)
    ]


def reassemble(chunks: List[Chunk]) -> np.ndarray:
    """Rebuild a share from chunks, validating completeness and order."""
    if not chunks:
        raise ProtocolError("no chunks to reassemble")
    total = chunks[0].total
    sources = {c.source for c in chunks}
    dests = {c.dest for c in chunks}
    if len(sources) != 1 or len(dests) != 1:
        raise ProtocolError("chunks from mixed transfers")
    if {c.total for c in chunks} != {total}:
        raise ProtocolError("inconsistent chunk counts")
    indices = sorted(c.index for c in chunks)
    if indices != list(range(total)):
        missing = sorted(set(range(total)) - set(indices))
        raise ProtocolError(f"missing or duplicate chunks: {missing}")
    ordered = sorted(chunks, key=lambda c: c.index)
    return np.concatenate([c.payload for c in ordered])


# ----------------------------------------------------------------------
# exchange-time model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExchangeTimes:
    """Offline share-exchange time under the three transfer schedules."""

    serial: float  # send everything, then receive everything
    duplex: float  # concurrent send/receive streams (paper's design)
    chunk_pipelined: float  # duplex + per-chunk overlap of serialization

    @property
    def duplex_speedup(self) -> float:
        return self.serial / self.duplex


def exchange_times(
    num_peers: int,
    share_elems: int,
    bandwidth: BandwidthProfile,
    chunk_elems: int = 8192,
    per_chunk_overhead_s: float = 2e-4,
    serialize_elems_per_sec: float = 5e7,
) -> ExchangeTimes:
    """Model one user exchanging shares with ``num_peers`` peers.

    * ``serial``: the send stream and the receive stream occupy the link
      one after the other; serialization happens inline.
    * ``duplex``: the two directions run concurrently (full-duplex link,
      separate queues) — exchange time is the max of the directions.
    * ``chunk_pipelined``: additionally, per-chunk serialization overlaps
      transmission, so only the first chunk pays serialization latency.
    """
    if num_peers < 0 or share_elems < 0:
        raise ProtocolError("peer and share counts must be non-negative")
    total_elems = num_peers * share_elems
    wire = bandwidth.seconds(total_elems, ELEMENT_BYTES)
    serialize = total_elems / serialize_elems_per_sec
    num_chunks = max(1, -(-total_elems // max(chunk_elems, 1)))
    overhead = num_chunks * per_chunk_overhead_s

    one_direction_serial = wire + serialize + overhead
    serial = 2 * one_direction_serial

    duplex = max(one_direction_serial, one_direction_serial)  # symmetric
    # Pipelined: serialization of chunk k overlaps transmission of k-1, so
    # only one chunk's serialization is on the critical path.
    first_chunk_ser = min(chunk_elems, max(total_elems, 1)) / serialize_elems_per_sec
    pipelined = max(wire + overhead + first_chunk_ser, serialize)

    return ExchangeTimes(
        serial=serial, duplex=duplex, chunk_pipelined=pipelined
    )
