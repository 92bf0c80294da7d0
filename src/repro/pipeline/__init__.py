"""Pass-based compilation pipeline (the Figure 6 workflow, staged).

The monolithic preprocessing flow is decomposed into explicit passes
exchanging typed artifacts, executed by a runner that records
per-stage trace events and serves repeat compilations from a
content-addressed cache:

* :mod:`repro.pipeline.artifacts` — the typed :class:`ArtifactStore`;
* :mod:`repro.pipeline.passes` — one :class:`CompilerPass` per paper
  stage (①-⑤ plus encode and the opt-in verifier);
* :mod:`repro.pipeline.runner` — the :class:`PipelineRunner`;
* :mod:`repro.pipeline.trace` — :class:`StageEvent` /
  :class:`PipelineTrace` observability records;
* :mod:`repro.pipeline.cache` — matrix digests, config fingerprints
  and the on-disk :class:`ArtifactCache`.

:class:`repro.core.framework.SpasmCompiler` is a thin facade over this
package; see ``docs/PIPELINE.md`` for the architecture.
"""

from repro.pipeline.artifacts import (
    ARTIFACT_SCHEMA,
    ArtifactError,
    ArtifactStore,
)
from repro.pipeline.cache import (
    ArtifactCache,
    CacheEntry,
    matrix_digest,
    fingerprint,
)
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
from repro.pipeline.trace import (
    CACHE_HIT,
    CACHE_MISS,
    CACHE_OFF,
    PipelineTrace,
    StageEvent,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactError",
    "ArtifactStore",
    "ArtifactCache",
    "CacheEntry",
    "matrix_digest",
    "fingerprint",
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
    "CACHE_HIT",
    "CACHE_MISS",
    "CACHE_OFF",
    "PipelineTrace",
    "StageEvent",
]
