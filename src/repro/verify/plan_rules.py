"""Execution-plan rules (the host counterpart of the trusted stream).

The compiled fast path dispatches with no per-slot checks: scipy's
unchecked C CSR routines trust the :class:`~repro.exec.plan.ExecutionPlan` arrays the way the
paper's PEs trust the stream.  These rules check, without executing a
single SpMV, what every dispatch relies on:

``plan.index_width`` / ``plan.coverage``
    Adapters over the plan contract of :mod:`repro.exec.policy`, the
    same rules :meth:`~repro.exec.plan.ExecutionPlan.validate` and the
    resilience guard enforce before dispatch, so this checker and the
    pre-dispatch check cannot disagree.  The certified index bound
    itself is :func:`repro.exec.policy.certify_index_width`.
``plan.shards``
    Shard grids are contiguous row ranges covering ``[0, nrows)``
    exactly once for every worker count of :data:`DEFAULT_JOBS_GRID`
    plus the plan's own auto pick, so shards have disjoint write sets
    and ``spmv(jobs=N)`` is bitwise deterministic by construction.

The one kernel takes every layout the contract admits (int32/int64
indices, float64 values), so no rule checks kernel choice.
"""

from __future__ import annotations

from typing import Iterator

from repro.exec.policy import plan_findings
from repro.verify.diagnostics import Diagnostic
from repro.verify.rules import KIND_PLAN, Rule, VerifyContext, register

#: Worker counts ``plan.shards`` quantifies over (the plan's own auto
#: pick is always added).
DEFAULT_JOBS_GRID = (1, 2, 3, 4, 7, 8, 16)


class _ContractRule(Rule):
    """Report the first finding of one plan-contract invariant."""

    kinds = (KIND_PLAN,)
    requires = ("plan",)
    invariant = ""

    def check(self, ctx: VerifyContext) -> Iterator[Diagnostic]:
        for finding in plan_findings(ctx.plan, (self.invariant,)):
            message = finding.message
            if finding.value is not None:
                message += f" ({finding.witness} = {finding.value})"
            yield self.diag(message, witness=finding.witness,
                            value=finding.value)


@register
class IndexWidth(_ContractRule):
    rule_id = "plan.index_width"
    invariant = "index_width"
    title = ("every gather index and row offset fits the plan's "
             "index dtype and stays in range")
    paper = "host plan (certified int32/int64 layout)"


@register
class Coverage(_ContractRule):
    rule_id = "plan.coverage"
    invariant = "coverage"
    title = ("the row pointer partitions the slot stream into the "
             "matrix's rows: each slot reduced into exactly one row")
    paper = "host plan (write-exactly-once reduction)"


@register
class ShardDisjointness(Rule):
    rule_id = "plan.shards"
    kinds = (KIND_PLAN,)
    title = ("row-range shards are contiguous and cover every row "
             "once, for every worker count")
    paper = "host plan (jobs=N bitwise determinism)"
    requires = ("plan",)

    def check(self, ctx: VerifyContext) -> Iterator[Diagnostic]:
        plan = ctx.plan
        nrows = int(plan.shape[0])
        for jobs in sorted(set(DEFAULT_JOBS_GRID) | {plan._auto_jobs()}):
            bounds = plan.shard_bounds(jobs)
            if bounds[0][0] != 0 or bounds[-1][1] != nrows:
                yield self.diag(
                    f"jobs={jobs}: shard grid {bounds[0][0]}.."
                    f"{bounds[-1][1]} does not cover all {nrows} rows",
                    jobs=jobs,
                )
                return
            for i in range(1, len(bounds)):
                hi_prev = bounds[i - 1][1]
                lo = bounds[i][0]
                if lo < hi_prev:
                    yield self.diag(
                        f"jobs={jobs}: shard {i} starts at row {lo} "
                        f"inside shard {i - 1} (ends at {hi_prev}): "
                        "overlapping write sets race",
                        jobs=jobs, shard=i, rows=[lo, hi_prev],
                    )
                    return
                if lo > hi_prev:
                    yield self.diag(
                        f"jobs={jobs}: rows {hi_prev}..{lo} fall in a "
                        f"gap between shards {i - 1} and {i}",
                        jobs=jobs, shard=i, rows=[hi_prev, lo],
                    )
                    return
