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
    Row-block shard grids have disjoint write sets for every worker
    count of :data:`DEFAULT_JOBS_GRID` plus the plan's own auto pick,
    so ``spmv(jobs=N)`` is bitwise deterministic by construction.

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
    title = ("every gather/scatter index and segment offset fits the "
             "plan's index dtype and stays in range")
    paper = "host plan (certified int32/int64 layout)"


@register
class Coverage(_ContractRule):
    rule_id = "plan.coverage"
    invariant = "coverage"
    title = ("segments partition the slot stream into non-empty runs "
             "over strictly increasing rows: each row written once")
    paper = "host plan (write-exactly-once reduction)"


@register
class ShardDisjointness(Rule):
    rule_id = "plan.shards"
    kinds = (KIND_PLAN,)
    title = ("row-block shards cover every segment once with disjoint "
             "row intervals, for every worker count")
    paper = "host plan (jobs=N bitwise determinism)"
    requires = ("plan",)

    def check(self, ctx: VerifyContext) -> Iterator[Diagnostic]:
        plan = ctx.plan
        n_segments = plan.n_segments
        rows = plan.seg_rows
        for jobs in sorted(set(DEFAULT_JOBS_GRID) | {plan._auto_jobs()}):
            bounds = plan.shard_bounds(jobs)
            if bounds[0][0] != 0 or bounds[-1][1] != n_segments:
                yield self.diag(
                    f"jobs={jobs}: shard grid {bounds[0][0]}.."
                    f"{bounds[-1][1]} does not cover all {n_segments} "
                    "segments",
                    jobs=jobs,
                )
                return
            for i in range(1, len(bounds)):
                lo_prev, hi_prev = bounds[i - 1]
                lo, hi = bounds[i]
                if lo != hi_prev:
                    yield self.diag(
                        f"jobs={jobs}: shard {i} starts at segment {lo} "
                        f"but shard {i - 1} ended at {hi_prev} (gap or "
                        "overlap)",
                        jobs=jobs, shard=i,
                    )
                    return
                if hi_prev == lo_prev or lo == hi:
                    continue  # an empty shard writes nothing
                last_prev = int(rows[hi_prev - 1])
                first = int(rows[lo])
                if first <= last_prev:
                    yield self.diag(
                        f"jobs={jobs}: shard {i - 1} writes rows up to "
                        f"{last_prev} while shard {i} starts at row "
                        f"{first}: overlapping write sets race",
                        jobs=jobs, shard=i, rows=[last_prev, first],
                    )
                    return
