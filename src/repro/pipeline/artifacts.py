"""Typed artifact store threaded through the compilation passes.

Each pass declares the artifact names it ``requires`` and ``provides``;
the :class:`ArtifactStore` is the single place they are exchanged.  The
store is *typed*: every known artifact name carries an expected Python
type (see :data:`ARTIFACT_SCHEMA`) and a short description, and a
``put`` with a mismatched payload fails immediately instead of
surfacing as a confusing downstream error.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.core.decompose import DecompositionTable
from repro.core.patterns import PatternHistogram
from repro.core.schedule import ScheduleResult
from repro.core.selection import SelectionResult
from repro.core.templates import Portfolio
from repro.exec.plan import ExecutionPlan
from repro.matrix.coo import COOMatrix


class ArtifactError(KeyError):
    """Raised on unknown artifact names, type mismatches, or a pass
    reading an artifact no upstream pass produced."""


#: name -> (expected type(s), description).  The pipeline's data model:
#: the Figure 6 stage outputs, made first-class.
ARTIFACT_SCHEMA: Dict[str, Tuple[Any, str]] = {
    "coo": (COOMatrix, "source matrix (deduplicated COO)"),
    "masks": (np.ndarray, "occupancy bitmask per non-empty submatrix"),
    "sub_keys": (np.ndarray, "row-major key per non-empty submatrix"),
    "sub_nnz": (np.ndarray, "stored-entry count per non-empty submatrix"),
    "entry_order": (
        np.ndarray, "entry permutation grouping nonzeros by submatrix"
    ),
    "histogram": (PatternHistogram, "step ① local pattern histogram"),
    "portfolio": (Portfolio, "selected template portfolio"),
    "table": (DecompositionTable, "decomposition table of the portfolio"),
    "selection": (SelectionResult, "step ② scoring detail (optional)"),
    "group_counts": (
        np.ndarray, "step ③ template-group count per submatrix"
    ),
    "schedule": (ScheduleResult, "step ⑤ sweep outcome (optional)"),
    "tile_size": (int, "selected tile edge length"),
    "hw_config": (object, "selected hardware configuration"),
    "spasm": (object, "the encoded SpasmMatrix"),
    "verify_report": (object, "static verifier report (opt-in pass)"),
    "plan": (
        ExecutionPlan, "compiled SpMV execution plan (opt-in pass)"
    ),
}


class ArtifactStore:
    """Mutable, schema-checked mapping of pipeline artifacts."""

    def __init__(self) -> None:
        self._data: Dict[str, Any] = {}

    def put(self, name: str, value: Any) -> None:
        """Store an artifact, validating its name and type."""
        try:
            expected, __ = ARTIFACT_SCHEMA[name]
        except KeyError:
            raise ArtifactError(
                f"unknown artifact {name!r}; declare it in "
                "ARTIFACT_SCHEMA"
            ) from None
        if expected is not object and not isinstance(value, expected):
            raise ArtifactError(
                f"artifact {name!r} expects "
                f"{getattr(expected, '__name__', expected)}, got "
                f"{type(value).__name__}"
            )
        self._data[name] = value

    def get(self, name: str, default: Any = None) -> Any:
        """The artifact, or ``default`` when absent."""
        return self._data.get(name, default)

    def require(self, name: str) -> Any:
        """The artifact; :class:`ArtifactError` when absent."""
        if name not in self._data:
            __, description = ARTIFACT_SCHEMA.get(name, (None, "?"))
            raise ArtifactError(
                f"artifact {name!r} ({description}) has not been "
                "produced by any upstream pass"
            )
        return self._data[name]

    def has(self, name: str) -> bool:
        """Whether the artifact is present."""
        return name in self._data

    def names(self) -> Tuple[str, ...]:
        """Names of the artifacts currently held, insertion-ordered."""
        return tuple(self._data)

    def summarize(self, names: Tuple[str, ...]) -> Dict[str, Any]:
        """Small scalar size summary of the named artifacts.

        Used by the runner to fill :class:`StageEvent` input/output
        records without copying payloads into the trace.
        """
        summary: Dict[str, Any] = {}
        for name in names:
            if name not in self._data:
                continue
            value = self._data[name]
            if isinstance(value, COOMatrix):
                summary[name] = {
                    "shape": list(value.shape), "nnz": int(value.nnz)
                }
            elif isinstance(value, np.ndarray):
                summary[name] = int(value.size)
            elif isinstance(value, PatternHistogram):
                summary[name] = {
                    "distinct": value.n_distinct, "total": value.total
                }
            elif isinstance(value, Portfolio):
                summary[name] = value.name
            elif isinstance(value, ScheduleResult):
                summary[name] = {
                    "points": len(value.points),
                    "best_tile": value.best_tile_size,
                    "best_hw": getattr(
                        value.best_hw_config, "name",
                        str(value.best_hw_config),
                    ),
                }
            elif isinstance(value, (int, float, str)):
                summary[name] = value
            else:
                name_attr = getattr(value, "name", None)
                n_groups = getattr(value, "n_groups", None)
                if n_groups is not None:  # SpasmMatrix-like
                    summary[name] = {"groups": int(n_groups)}
                elif isinstance(name_attr, str):
                    summary[name] = name_attr
                else:
                    summary[name] = type(value).__name__
        return summary
