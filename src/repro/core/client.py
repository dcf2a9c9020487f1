"""The client: frame capture and response rendering.

The client "captures frames, gets user input (from auxiliary devices),
and displays responses" (§3.3.1).  In the reproduction it wraps a video
stream and collects the responses the edge node sends back, so tests can
assert what a user would have seen (initial responses, corrections and
apologies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.video.frames import Frame
from repro.video.synthetic import SyntheticVideo


@dataclass(frozen=True)
class ClientResponse:
    """One response rendered on the client."""

    frame_id: int
    stage: str  # "initial" or "final"
    payload: Any
    apologies: tuple[str, ...] = ()
    timestamp: float = 0.0


@dataclass
class Client:
    """Captures frames from a video and records rendered responses."""

    video: SyntheticVideo
    _responses: list[ClientResponse] = field(default_factory=list)

    def frames(self) -> Iterator[Frame]:
        """Stream of captured frames (continuous, non-blocking per §3.3.1)."""
        return self.video.frames()

    def render(self, response: ClientResponse) -> None:
        """Record a response arriving at the client."""
        self._responses.append(response)

    @property
    def responses(self) -> tuple[ClientResponse, ...]:
        return tuple(self._responses)

    @property
    def apologies(self) -> tuple[str, ...]:
        """All apologies the client ever received."""
        collected: list[str] = []
        for response in self._responses:
            collected.extend(response.apologies)
        return tuple(collected)
