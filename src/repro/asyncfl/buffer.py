"""Server-side update buffer for buffered asynchronous FL (FedBuff-style).

The server stores incoming (possibly masked) local updates together with
the round index ``t_i`` at which each sender downloaded the global model;
once ``K`` updates have accumulated, the buffer is drained and aggregated
(paper Sec. F.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, List, TypeVar

from repro.exceptions import ProtocolError

PayloadT = TypeVar("PayloadT")


@dataclass(frozen=True)
class BufferedUpdate(Generic[PayloadT]):
    """One buffered delivery.

    ``payload`` is a real update vector in the insecure baseline and a
    masked field vector in the secure protocol; ``download_round`` is the
    paper's ``t_i`` timestamp used for staleness weighting and for mask
    bookkeeping.
    """

    user_id: int
    download_round: int
    payload: PayloadT


class UpdateBuffer(Generic[PayloadT]):
    """Fixed-capacity FIFO buffer; drains exactly ``capacity`` items."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ProtocolError(f"buffer capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._items: List[BufferedUpdate[PayloadT]] = []

    def push(self, item: BufferedUpdate[PayloadT]) -> None:
        if self.is_full:
            raise ProtocolError("buffer full; drain before pushing more")
        self._items.append(item)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    def __len__(self) -> int:
        return len(self._items)

    def drain(self) -> List[BufferedUpdate[PayloadT]]:
        """Return and clear the buffered items; requires a full buffer."""
        if not self.is_full:
            raise ProtocolError(
                f"buffer has {len(self._items)}/{self.capacity} items; "
                "not ready to aggregate"
            )
        items, self._items = self._items, []
        return items
