"""Iterative solvers on top of SPASM SpMV.

The paper's amortization argument (Section V-E4) rests on workloads
that multiply the *same* matrix thousands of times — Krylov solvers in
scientific computing, QP iterations in finance, power iterations in
graph analytics.  This package provides conjugate gradients as library
code so any SpMV backend (a plain matrix, a compiled
:class:`SpasmProgram`, a reordered pipeline) plugs in through one
operator interface.
"""

from repro.solvers.operator import LinearOperator, as_operator
from repro.solvers.iterative import (
    SolveResult,
    conjugate_gradient,
)

__all__ = [
    "LinearOperator",
    "as_operator",
    "SolveResult",
    "conjugate_gradient",
]
