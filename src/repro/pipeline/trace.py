"""Structured per-stage trace records for the compilation pipeline.

Every compile stage produces one :class:`StageEvent` — its wall time
and a free-form summary note.  The ordered collection is a
:class:`PipelineTrace`; Table VIII's per-stage times are
``trace.stage_ms(name)``.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Iterator, Tuple


@dataclasses.dataclass(frozen=True)
class StageEvent:
    """One executed pipeline stage.

    Attributes
    ----------
    name:
        Stage name (``"analysis"``, ``"selection"``, ...).
    wall_ms:
        Wall-clock time of the stage.
    note:
        Free-form bottleneck / provenance note.
    """

    name: str
    wall_ms: float
    note: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation of the event."""
        return {
            "name": self.name,
            "wall_ms": self.wall_ms,
            "note": self.note,
        }


@dataclasses.dataclass(frozen=True)
class PipelineTrace:
    """Ordered trace of one pipeline run."""

    events: Tuple[StageEvent, ...]

    def __iter__(self) -> Iterator[StageEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def event(self, name: str) -> StageEvent:
        """The event of the named stage (:class:`KeyError` if absent)."""
        for event in self.events:
            if event.name == name:
                return event
        raise KeyError(f"no stage {name!r} in this trace")

    def has_stage(self, name: str) -> bool:
        """Whether the named stage ran in this trace."""
        return any(event.name == name for event in self.events)

    def stage_ms(self, name: str) -> float:
        """Wall time of the named stage (0.0 when it did not run)."""
        for event in self.events:
            if event.name == name:
                return event.wall_ms
        return 0.0

    @property
    def total_ms(self) -> float:
        """Total wall time across all stages."""
        return sum(event.wall_ms for event in self.events)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation of the whole trace."""
        return {
            "total_ms": self.total_ms,
            "events": [event.to_dict() for event in self.events],
        }

    def to_json(self, indent: int = 2) -> str:
        """The trace as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [f"{'stage':<14s} {'ms':>9s} note"]
        for event in self.events:
            lines.append(
                f"{event.name:<14s} {event.wall_ms:9.2f} "
                f"{event.note}".rstrip()
            )
        lines.append(f"{'total':<14s} {self.total_ms:9.2f}")
        return "\n".join(lines)
