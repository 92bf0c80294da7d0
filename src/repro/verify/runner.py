"""Rule runner: select rules by artifact kind, collect a Report.

The entry points here are what the rest of the code base calls:

* :func:`verify_spasm` — check an encoded :class:`SpasmMatrix` (and,
  when ``k`` permits, the opcode table its portfolio induces).
* :func:`verify_memory_image` — check packed HBM images, optionally
  against the encoding they were packed from.

All of them are static: nothing is executed on the simulator; rules
only inspect the artifacts and cheap derived views.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.verify.diagnostics import Diagnostic, Report
from repro.verify.rules import (
    KIND_MEMORY,
    KIND_OPCODE,
    KIND_SPASM,
    VerifyContext,
    rules_for,
)

# Rule modules register themselves on import.
from repro.verify import format_rules  # noqa: F401
from repro.verify import memory_rules  # noqa: F401
from repro.verify import opcode_rules  # noqa: F401
from repro.verify import position_rules  # noqa: F401


def run_rules(ctx: VerifyContext,
              kinds: Sequence[str]) -> Report:
    """Run every registered rule matching ``kinds`` against ``ctx``.

    Rules whose :attr:`~repro.verify.rules.Rule.requires` attributes
    are absent from the context are skipped (and not counted in
    ``rules_run``).
    """
    diagnostics: List[Diagnostic] = []
    rules_run: List[str] = []
    for rule in rules_for(kinds):
        if any(getattr(ctx, name) is None for name in rule.requires):
            continue
        rules_run.append(rule.rule_id)
        diagnostics.extend(rule.check(ctx))
    return Report(diagnostics=diagnostics, rules_run=rules_run)


def verify_spasm(spasm: Any,
                 source: Optional[Any] = None,
                 config: Optional[Any] = None,
                 with_opcodes: bool = True) -> Report:
    """Statically verify an encoded SPASM stream.

    Parameters
    ----------
    spasm:
        The :class:`~repro.core.format.SpasmMatrix` to check.
    source:
        Optional source :class:`~repro.matrix.coo.COOMatrix`; enables
        the ``fmt.roundtrip`` decode-equivalence rule.
    config:
        Optional hardware configuration (reserved for location
        enrichment; stream rules do not need it).
    with_opcodes:
        Also derive and check the opcode LUT the portfolio induces
        (skipped automatically when the datapath cannot route it,
        e.g. ``k != 4``).
    """
    from repro.hw.opcode import OpcodeError, opcode_table

    kinds = [KIND_SPASM]
    opcodes: Optional[Sequence[int]] = None
    if with_opcodes:
        try:
            opcodes = opcode_table(spasm.portfolio)
        except OpcodeError:
            opcodes = None  # unroutable portfolio: stream rules only
        else:
            kinds.append(KIND_OPCODE)
    ctx = VerifyContext(
        spasm=spasm,
        source=source,
        config=config,
        opcodes=opcodes,
        portfolio=spasm.portfolio,
    )
    return run_rules(ctx, kinds)


def verify_memory_image(image: Any,
                        spasm: Optional[Any] = None) -> Report:
    """Statically verify packed HBM memory images.

    With ``spasm`` supplied, additionally checks the descriptor
    schedule and that unpacking reproduces every PE's stream.
    """
    ctx = VerifyContext(
        image=image,
        spasm=spasm,
        config=image.config,
        portfolio=spasm.portfolio if spasm is not None else None,
    )
    return run_rules(ctx, [KIND_MEMORY])
