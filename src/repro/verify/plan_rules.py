"""Execution-plan rules (the compiled step-⑥ fast-path artifact).

A compiled :class:`~repro.exec.plan.ExecutionPlan` is dispatched with
no per-slot checks at all — the gather and segmented-accumulation
kernels trust the plan arrays completely.  These rules make that trust
checkable: the plan contract every dispatch relies on
(``plan.integrity``, one diagnostic per finding of
:func:`repro.exec.policy.plan_findings` — the rules the guard's
``validate()`` enforces, checksum included), when the source stream
is in the context, that the plan actually belongs to it
(``plan.digest``), and that a plan does not waste bandwidth on wide
indices where the compact int32 layout suffices (``plan.layout``,
advisory).  The resilience
layer (:mod:`repro.resilience.guard`) runs the same checks before
dispatch; see ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

from typing import Iterator

from repro.verify.diagnostics import WARNING, Diagnostic
from repro.verify.rules import (
    KIND_PLAN,
    Rule,
    VerifyContext,
    register,
)


@register
class PlanIntegrity(Rule):
    rule_id = "plan.integrity"
    kinds = (KIND_PLAN,)
    title = ("plan arrays satisfy every dispatch invariant and match "
             "their build-time checksum")
    paper = "software step ⑥ (compiled execution)"
    requires = ("plan",)

    def check(self, ctx: VerifyContext) -> Iterator[Diagnostic]:
        from repro.exec.policy import plan_findings

        for finding in plan_findings(ctx.plan):
            yield self.diag(finding.message, invariant=finding.invariant,
                            witness=finding.witness)


@register
class PlanDigest(Rule):
    rule_id = "plan.digest"
    kinds = (KIND_PLAN,)
    title = ("the plan was compiled from exactly this stream (stream "
             "digest equality)")
    paper = "software step ⑥ (compiled execution)"
    requires = ("plan", "spasm")

    def check(self, ctx: VerifyContext) -> Iterator[Diagnostic]:
        from repro.exec.plan import stream_digest

        expected = stream_digest(ctx.spasm)
        if ctx.plan.digest != expected:
            yield self.diag(
                "plan digest does not match the stream it is about to "
                "execute (stale plan or corrupted stream)",
                plan_digest=ctx.plan.digest,
                stream_digest=expected,
            )


@register
class PlanLayout(Rule):
    rule_id = "plan.layout"
    kinds = (KIND_PLAN,)
    severity = WARNING
    title = ("the plan uses the compact int32 index layout whenever "
             "shape and slot count permit it")
    paper = "software step ⑥ (compact plan layouts)"
    requires = ("plan",)

    def check(self, ctx: VerifyContext) -> Iterator[Diagnostic]:
        from repro.exec.policy import INDEX_DTYPES, certify_index_width

        plan = ctx.plan
        cert = certify_index_width(
            plan.shape, plan.n_slots, INDEX_DTYPES[0]
        )
        if cert.compact_sufficient and plan.cols.dtype != INDEX_DTYPES[0]:
            yield self.diag(
                f"plan stores {plan.cols.dtype.name} indices but the "
                f"analyzer certifies the compact layout: {cert.bound()}"
                " — rebuild to halve index bandwidth",
                index_dtype=plan.cols.dtype.name,
                compact_dtype="int32",
                n_slots=plan.n_slots,
                certified_extent=cert.extent,
                certified_capacity=cert.capacity,
                certified_headroom=cert.headroom,
            )


@register
class PlanSlotBudget(Rule):
    rule_id = "plan.slots"
    kinds = (KIND_PLAN,)
    title = ("the plan streams no more slots than the stream stores "
             "and no fewer than the source nnz")
    paper = "software step ⑥ (padding elision)"
    requires = ("plan", "spasm")

    def check(self, ctx: VerifyContext) -> Iterator[Diagnostic]:
        plan = ctx.plan
        spasm = ctx.spasm
        stored = int(spasm.values.size)
        if plan.n_slots > stored:
            yield self.diag(
                f"plan streams {plan.n_slots} slots but the stream "
                f"stores only {stored}",
                plan_slots=plan.n_slots,
                stored_slots=stored,
            )
        nonzero = int((spasm.values != 0.0).sum())
        if plan.n_slots != nonzero:
            yield self.diag(
                f"plan streams {plan.n_slots} slots, stream carries "
                f"{nonzero} non-padding values (padding elision must "
                "be exact)",
                plan_slots=plan.n_slots,
                nonzero_slots=nonzero,
            )
