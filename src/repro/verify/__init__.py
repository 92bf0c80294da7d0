"""Static invariant checker for SPASM artifacts (no simulation).

``repro.verify`` inspects encoded artifacts — SPASM streams, VALU
opcode tables, packed HBM memory images and compiled execution plans —
against the invariants the paper's hardware (and the host fast path)
relies on, and reports structured :class:`Diagnostic` records instead
of executing anything.  :mod:`repro.verify.lints` is the AST
determinism/safety lint over the library source itself.

Quick use::

    from repro.verify import verify_spasm
    report = verify_spasm(spasm, source=coo)
    if not report.ok:
        print(report.render())

or from the command line::

    python -m repro verify artifact.npz --json
    python -m repro verify --scale 0.2       # the whole synth suite
    python -m repro verify --self            # lint src/repro
"""

from repro.verify.diagnostics import (
    ERROR,
    INFO,
    WARNING,
    Diagnostic,
    Location,
    Report,
    VerificationError,
)
from repro.verify.rules import (
    KIND_MEMORY,
    KIND_OPCODE,
    KIND_PLAN,
    KIND_SPASM,
    REGISTRY,
    Rule,
    VerifyContext,
    rules_for,
)
from repro.verify.runner import (
    run_rules,
    verify_memory_image,
    verify_plan,
    verify_spasm,
)

__all__ = [
    "ERROR",
    "WARNING",
    "INFO",
    "Diagnostic",
    "Location",
    "Report",
    "VerificationError",
    "KIND_SPASM",
    "KIND_OPCODE",
    "KIND_MEMORY",
    "KIND_PLAN",
    "REGISTRY",
    "Rule",
    "VerifyContext",
    "rules_for",
    "run_rules",
    "verify_memory_image",
    "verify_plan",
    "verify_spasm",
]
