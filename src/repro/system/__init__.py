"""Event-driven system runtime reproducing the paper's Fig. 4 architecture."""

from repro.system.events import EventSimulator, SerialResource
from repro.system.runtime import (
    PhaseSpans,
    SystemRoundResult,
    SystemRuntime,
)

__all__ = [
    "EventSimulator",
    "SerialResource",
    "SystemRuntime",
    "SystemRoundResult",
    "PhaseSpans",
]
