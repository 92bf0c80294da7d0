"""Pass-based compilation pipeline (the Figure 6 workflow, staged).

The monolithic preprocessing flow is decomposed into explicit passes
exchanging typed artifacts, executed by a runner that records
per-stage trace events:

* :mod:`repro.pipeline.artifacts` — the typed :class:`ArtifactStore`;
* :mod:`repro.pipeline.passes` — one :class:`CompilerPass` per paper
  stage (①-⑤ plus encode and the opt-in verifier);
* :mod:`repro.pipeline.runner` — the :class:`PipelineRunner`;
* :mod:`repro.pipeline.trace` — :class:`StageEvent` /
  :class:`PipelineTrace` observability records;
* :mod:`repro.pipeline.cache` — :func:`matrix_digest`, the content
  digest of a COO matrix.

:class:`repro.core.framework.SpasmCompiler` is a thin facade over this
package; see ``docs/PIPELINE.md`` for the architecture.
"""

from repro.pipeline.artifacts import (
    ARTIFACT_SCHEMA,
    ArtifactError,
    ArtifactStore,
)
from repro.pipeline.cache import matrix_digest
from repro.pipeline.passes import (
    AnalysisPass,
    CompilerPass,
    DecompositionPass,
    EncodePass,
    PipelineError,
    PlanPass,
    SchedulePass,
    SelectionPass,
    VerifyPass,
)
from repro.pipeline.runner import PipelineRunner
from repro.pipeline.trace import PipelineTrace, StageEvent

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactError",
    "ArtifactStore",
    "matrix_digest",
    "AnalysisPass",
    "CompilerPass",
    "DecompositionPass",
    "EncodePass",
    "PipelineError",
    "PlanPass",
    "SchedulePass",
    "SelectionPass",
    "VerifyPass",
    "PipelineRunner",
    "PipelineTrace",
    "StageEvent",
]
