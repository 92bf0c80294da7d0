"""Pass executor: ordering checks and trace recording.

The :class:`PipelineRunner` walks an ordered list of
:class:`~repro.pipeline.passes.CompilerPass` instances, validating that
every declared input artifact exists before a pass runs, and recording
one :class:`~repro.pipeline.trace.StageEvent` per pass (wall time,
artifact sizes, bottleneck note).
"""

from __future__ import annotations

import time
from typing import List, Sequence

from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.passes import CompilerPass, PipelineError
from repro.pipeline.trace import PipelineTrace, StageEvent


class PipelineRunner:
    """Executes compiler passes over an artifact store."""

    def run(self, passes: Sequence[CompilerPass],
            store: ArtifactStore) -> PipelineTrace:
        """Run the passes in order and return the recorded trace."""
        events: List[StageEvent] = []
        for compiler_pass in passes:
            missing = [
                name
                for name in compiler_pass.requires
                if not store.has(name)
            ]
            if missing:
                raise PipelineError(
                    f"pass {compiler_pass.name!r} requires artifacts "
                    f"{missing} that no upstream pass provided; check "
                    "the pass ordering"
                )

            t0 = time.perf_counter()
            inputs = store.summarize(compiler_pass.requires)
            note = compiler_pass.run(store)

            produced_missing = [
                name
                for name in compiler_pass.provides
                if not store.has(name)
                and name not in compiler_pass.optional_provides
            ]
            if produced_missing:
                raise PipelineError(
                    f"pass {compiler_pass.name!r} declared but did not "
                    f"produce artifacts {produced_missing}"
                )

            events.append(
                StageEvent(
                    name=compiler_pass.name,
                    wall_ms=(time.perf_counter() - t0) * 1e3,
                    inputs=inputs,
                    outputs=store.summarize(compiler_pass.provides),
                    note=note,
                )
            )

        return PipelineTrace(events=tuple(events))
