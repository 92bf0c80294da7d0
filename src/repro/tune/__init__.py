"""Per-matrix autotuning over the portfolio/layout/backend knob space.

The execution knobs matter enormously per matrix (BENCH_exec.json:
int32 vs int64 layouts swing 2-7x, the shard crossover is
matrix-dependent, dispatch overhead rivals the kernel on small
matrices) but the pipeline picks them statically.  This package closes
the loop, in the AlphaSparse per-matrix-specialization direction:

* :func:`tune_matrix` searches the knob space — the ten Table V
  candidate portfolios, tile size, index/value dtype layout, kernel
  backend, shard jobs and batch block width — using the paper's step
  ④ analytic model (:mod:`repro.hw.perf_model`) as a cheap first-pass
  pruner before measured best-of-N timing on the survivors;
* :class:`TunedConfig` is the persisted winner, stored in the
  :class:`~repro.pipeline.cache.ArtifactCache` keyed on the matrix
  content digest with a :data:`TUNER_VERSION` invalidation field —
  re-tuning an unchanged matrix is a cache hit, not a re-search.

A record applies as the plain ``backend=``/``jobs=``/``block_size=``
arguments every plan entry point takes (bitwise identical to the
defaults).  Records are reused by
:class:`~repro.core.framework.SpasmCompiler` (``tuned=``), the serving
registry, and the CLI (``python -m repro tune`` /
``python -m repro run --tuned``).  See ``docs/TUNING.md``.
"""

from repro.tune.config import (
    TUNED_STAGE,
    TUNER_VERSION,
    TunedConfig,
    load_tuned,
    store_tuned,
    tuned_cache_key,
)
from repro.tune.search import Trial, TuneResult, tune_matrix

__all__ = [
    "TUNED_STAGE",
    "TUNER_VERSION",
    "Trial",
    "TuneResult",
    "TunedConfig",
    "load_tuned",
    "store_tuned",
    "tune_matrix",
    "tuned_cache_key",
]
