"""Compile-pipeline records (the Figure 6 workflow's observability).

:meth:`repro.core.framework.SpasmCompiler.compile` runs the stages as
direct calls and records them here:

* :mod:`repro.pipeline.trace` — :class:`StageEvent` /
  :class:`PipelineTrace`, one timed event per stage;
* :mod:`repro.pipeline.cache` — :func:`matrix_digest`, the content
  digest of a COO matrix.

See ``docs/PIPELINE.md`` for the stages and the trace format.
"""

from repro.pipeline.cache import matrix_digest
from repro.pipeline.trace import PipelineTrace, StageEvent

__all__ = [
    "matrix_digest",
    "PipelineTrace",
    "StageEvent",
]
