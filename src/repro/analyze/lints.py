"""AST-based determinism/safety lint for the repro code base.

The repository's execution discipline — bitwise-deterministic kernels,
seeded randomness, one shared thread pool, validated dispatch — is
documented in ``docs/EXEC.md`` and ``docs/RESILIENCE.md`` but was only
enforced by review.  This module makes it machine-checked:

==================  ====================================================
lint id             discipline enforced
==================  ====================================================
det.unseeded-rng    no unseeded ``np.random`` / stdlib ``random`` use
                    in library code (reproducibility from seeds alone)
det.kernel-clock    no wall-clock reads inside kernel bodies (timing
                    belongs to callers; kernels stay pure)
det.adhoc-pool      thread/process pools only via the shared-pool
                    helper ``repro.exec.plan._pool`` (bounded threads)
det.bare-except     no bare ``except:`` (swallows KeyboardInterrupt
                    and hides injected faults)
exec.implicit-dtype ``np.asarray``/``np.ascontiguousarray`` in
                    ``repro.exec`` must pin a dtype (no silent value
                    upcasts on hot paths)
exec.raw-kernel     scipy's unchecked C kernels (``csr_matvec`` et
                    al.) are reachable only from the ``csr`` backend
                    (``repro/exec/backends/csr.py``) — everything else
                    goes through ``validate()``/the guard
exec.plan-kernel    ``repro/exec/plan.py`` holds the plan model and
                    dispatch only — numpy kernel math (``np.take``,
                    ``np.bincount``, …) lives in the backends package
api.unused-public   public module-level defs must be referenced
                    somewhere in the library (dead public API drifts)
==================  ====================================================

Existing violations are burned down explicitly against the checked-in
baseline (``self_baseline.json``): ``python -m repro analyze --self``
fails only on *new* findings and reports baseline entries that have
been fixed (so the baseline shrinks monotonically).  A single line can
carry a sanctioned suppression comment ``# lint: allow(<lint-id>)``;
modules may sanction experimental public API via a module-level
``__experimental__ = [...]`` list.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: All lint identifiers, documentation order.
LINT_IDS = (
    "det.unseeded-rng",
    "det.kernel-clock",
    "det.adhoc-pool",
    "det.bare-except",
    "exec.implicit-dtype",
    "exec.raw-kernel",
    "exec.plan-kernel",
    "api.unused-public",
)

#: Function names treated as kernel bodies (per-call hot paths where a
#: clock read would taint determinism and steal cycles).
KERNEL_BODIES = frozenset({
    "spmv", "spmm", "spmv_batch", "spmv_naive", "spmm_naive",
    "_run_shard", "_reduce_block",
})

#: Wall-clock reads banned inside kernel bodies.
CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time",
})

#: Pool constructors that must go through the shared helper.
POOL_CALLS = frozenset({
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.thread.ThreadPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "multiprocessing.Pool",
    "multiprocessing.pool.Pool",
    "multiprocessing.pool.ThreadPool",
    "multiprocessing.dummy.Pool",
})

#: The one sanctioned pool-creation site: (module relpath, function).
SHARED_POOL_HELPER = ("repro/exec/plan.py", "_pool")

#: The one module allowed to touch scipy's unchecked C kernels.
KERNEL_MODULE = "repro/exec/backends/csr.py"

#: Raw compiled-kernel surface (names whose mere reference outside the
#: kernel module bypasses validate()/guard).
RAW_KERNEL_NAMES = frozenset({
    "_sparsetools", "csr_matvec", "csr_matvecs", "coo_tocsr",
})

#: The plan module: data model + dispatch only, zero kernel math.
PLAN_MODULE = "repro/exec/plan.py"

#: numpy kernel-math entry points banned from the plan module (the
#: carve-out's machine-enforced boundary; structural helpers like
#: argsort/searchsorted/diff/zeros stay legal).
PLAN_KERNEL_CALLS = frozenset({
    "numpy.take", "numpy.bincount", "numpy.add.at",
    "numpy.add.reduceat", "numpy.dot", "numpy.matmul", "numpy.einsum",
})

#: numpy.random constructors that are fine *when seeded*.
_SEEDED_RNG_CTORS = frozenset({"default_rng", "RandomState",
                               "SeedSequence"})


@dataclasses.dataclass(frozen=True)
class LintFinding:
    """One violation of the coding discipline.

    ``key`` identifies the finding for baseline matching: it excludes
    the line number (so unrelated edits to a file do not churn the
    baseline) but includes the enclosing symbol and the stable detail.
    """

    lint_id: str
    path: str  # repo-relative posix path, e.g. "repro/exec/plan.py"
    line: int
    symbol: str  # enclosing def/class chain, or "<module>"
    message: str

    @property
    def key(self) -> str:
        return f"{self.lint_id}|{self.path}|{self.symbol}|{self.message}"

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: [{self.lint_id}] "
            f"{self.symbol}: {self.message}"
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "lint": self.lint_id,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
        }


def _dotted(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve an expression to a dotted module path, alias-aware.

    ``np.random.default_rng`` with ``import numpy as np`` resolves to
    ``"numpy.random.default_rng"``; unresolvable shapes return None.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


class _FileLinter(ast.NodeVisitor):
    """Per-file lint pass (everything except ``api.unused-public``)."""

    def __init__(self, relpath: str, source_lines: Sequence[str]):
        self.relpath = relpath
        self.lines = source_lines
        self.aliases: Dict[str, str] = {}
        self.scope: List[str] = []
        self.findings: List[LintFinding] = []
        self.in_exec = relpath.startswith("repro/exec/")

    # -- bookkeeping ---------------------------------------------------

    @property
    def symbol(self) -> str:
        return ".".join(self.scope) if self.scope else "<module>"

    def _suppressed(self, line: int, lint_id: str) -> bool:
        if not 1 <= line <= len(self.lines):
            return False
        text = self.lines[line - 1]
        return (
            f"lint: allow({lint_id})" in text
            or "lint: allow(all)" in text
        )

    def _report(self, lint_id: str, node: ast.AST,
                message: str) -> None:
        line = int(getattr(node, "lineno", 0) or 0)
        if self._suppressed(line, lint_id):
            return
        self.findings.append(LintFinding(
            lint_id=lint_id,
            path=self.relpath,
            line=line,
            symbol=self.symbol,
            message=message,
        ))

    # -- imports -------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    # -- scopes --------------------------------------------------------

    def _visit_scope(self, node: Any) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self,
                               node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_scope(node)

    # -- det.bare-except -----------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                "det.bare-except", node,
                "bare 'except:' swallows KeyboardInterrupt and "
                "injected faults — name the exception types",
            )
        self.generic_visit(node)

    # -- exec.raw-kernel (references, not only calls) -------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            node.attr in RAW_KERNEL_NAMES
            and self.relpath != KERNEL_MODULE
        ):
            self._report(
                "exec.raw-kernel", node,
                f"raw compiled kernel '{node.attr}' referenced "
                f"outside {KERNEL_MODULE} — kernel entry must route "
                "through ExecutionPlan.validate()/the guard",
            )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if (
            isinstance(node.ctx, ast.Load)
            and node.id in RAW_KERNEL_NAMES
            and self.relpath != KERNEL_MODULE
            and self.aliases.get(node.id, "").startswith("scipy")
        ):
            self._report(
                "exec.raw-kernel", node,
                f"raw compiled kernel '{node.id}' imported outside "
                f"{KERNEL_MODULE} — kernel entry must route through "
                "ExecutionPlan.validate()/the guard",
            )
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func, self.aliases)
        if dotted is not None:
            self._check_random(node, dotted)
            self._check_clock(node, dotted)
            self._check_pool(node, dotted)
            self._check_asarray(node, dotted)
            self._check_plan_kernel(node, dotted)
        self.generic_visit(node)

    def _has_args(self, node: ast.Call) -> bool:
        return bool(node.args) or bool(node.keywords)

    def _check_random(self, node: ast.Call, dotted: str) -> None:
        if dotted.startswith("numpy.random."):
            tail = dotted.split(".", 2)[2]
            if tail == "Generator":
                return  # explicit bit generator: seeding is its job
            if tail in _SEEDED_RNG_CTORS:
                if not self._has_args(node):
                    self._report(
                        "det.unseeded-rng", node,
                        f"np.random.{tail}() without a seed — library "
                        "code must be reproducible from seeds alone",
                    )
                return
            self._report(
                "det.unseeded-rng", node,
                f"np.random.{tail} uses numpy's hidden global state — "
                "construct a seeded default_rng(seed) instead",
            )
            return
        if dotted == "random" or dotted.startswith("random."):
            tail = dotted.split(".", 1)[1] if "." in dotted else ""
            if tail == "SystemRandom":
                return  # explicitly non-deterministic by contract
            if tail == "Random" and self._has_args(node):
                return
            self._report(
                "det.unseeded-rng", node,
                f"stdlib random.{tail or 'random'} is unseeded global "
                "state — use a seeded np.random.default_rng(seed)",
            )

    def _check_clock(self, node: ast.Call, dotted: str) -> None:
        if dotted not in CLOCK_CALLS:
            return
        if any(name in KERNEL_BODIES for name in self.scope):
            self._report(
                "det.kernel-clock", node,
                f"{dotted}() inside kernel body "
                f"'{self.scope[-1]}' — timing belongs to callers, "
                "kernels stay pure",
            )

    def _check_pool(self, node: ast.Call, dotted: str) -> None:
        if dotted not in POOL_CALLS:
            return
        helper_path, helper_fn = SHARED_POOL_HELPER
        if self.relpath == helper_path and helper_fn in self.scope:
            return
        self._report(
            "det.adhoc-pool", node,
            f"{dotted.rsplit('.', 1)[-1]} created outside the shared "
            f"pool helper {helper_path}::{helper_fn} — ad-hoc pools "
            "accumulate threads and break the one-pool invariant",
        )

    def _check_asarray(self, node: ast.Call, dotted: str) -> None:
        if not self.in_exec:
            return
        if dotted not in ("numpy.asarray", "numpy.ascontiguousarray"):
            return
        if len(node.args) >= 2:
            return  # dtype passed positionally
        if any(kw.arg == "dtype" for kw in node.keywords):
            return
        self._report(
            "exec.implicit-dtype", node,
            f"{dotted.rsplit('.', 1)[-1]} without an explicit dtype "
            "on an exec hot path — a silent upcast changes layout "
            "and bandwidth",
        )

    def _check_plan_kernel(self, node: ast.Call, dotted: str) -> None:
        if self.relpath != PLAN_MODULE:
            return
        if dotted not in PLAN_KERNEL_CALLS:
            return
        self._report(
            "exec.plan-kernel", node,
            f"kernel math '{dotted}' in the plan module — plan.py is "
            "model + dispatch only; kernels belong to a backend in "
            "repro/exec/backends/",
        )


def lint_source(source: str, relpath: str) -> List[LintFinding]:
    """Run the per-file lints over one module's source text."""
    tree = ast.parse(source, filename=relpath)
    linter = _FileLinter(relpath, source.splitlines())
    linter.visit(tree)
    return linter.findings


# ---------------------------------------------------------------------
# project-level pass: api.unused-public
# ---------------------------------------------------------------------

def _module_experimental(tree: ast.Module) -> Set[str]:
    """Names sanctioned by a module-level ``__experimental__`` list."""
    names: Set[str] = set()
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Name)
                and target.id == "__experimental__"
                and isinstance(node.value, (ast.List, ast.Tuple))
            ):
                for element in node.value.elts:
                    if isinstance(element, ast.Constant) and (
                        isinstance(element.value, str)
                    ):
                        names.add(element.value)
    return names


def _public_defs(tree: ast.Module) -> List[Tuple[str, int]]:
    """Top-level public, undecorated defs of a module: (name, line).

    Decorated defs are exempt — decorators like ``@register`` consume
    the name at import time, so reference counting cannot see the use.
    """
    defs: List[Tuple[str, int]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if node.name.startswith("_") or node.decorator_list:
                continue
            defs.append((node.name, node.lineno))
    return defs


class _UsageCollector(ast.NodeVisitor):
    """Every identifier a module *reads* (names, attributes, imports)."""

    def __init__(self) -> None:
        self.used: Set[str] = set()

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.used.add(node.id)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.used.add(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            self.used.add(alias.name)
        self.generic_visit(node)


def _check_unused_public(
    modules: Dict[str, ast.Module],
    sources: Dict[str, Sequence[str]],
) -> List[LintFinding]:
    """Flag public defs no library module references.

    A symbol counts as used when its name is read in its own module
    (helpers composed internally) or in any *other* non-``__init__``
    module of the scanned set.  ``__init__.py`` re-exports do not
    count — a name that only appears on an export list is exactly the
    dead-API drift this lint exists to catch.
    """
    usage_by_file: Dict[str, Set[str]] = {}
    for relpath, tree in modules.items():
        collector = _UsageCollector()
        collector.visit(tree)
        usage_by_file[relpath] = collector.used

    findings: List[LintFinding] = []
    for relpath, tree in modules.items():
        if os.path.basename(relpath) == "__init__.py":
            continue
        experimental = _module_experimental(tree)
        for name, line in _public_defs(tree):
            if name in experimental:
                continue
            used = name in usage_by_file.get(relpath, set())
            if not used:
                for other, used_names in usage_by_file.items():
                    if other == relpath:
                        continue
                    if os.path.basename(other) == "__init__.py":
                        continue
                    if name in used_names:
                        used = True
                        break
            if used:
                continue
            lines = sources.get(relpath, ())
            if 1 <= line <= len(lines) and (
                "lint: allow(api.unused-public)" in lines[line - 1]
                or "lint: allow(all)" in lines[line - 1]
            ):
                continue
            findings.append(LintFinding(
                lint_id="api.unused-public",
                path=relpath,
                line=line,
                symbol=name,
                message=(
                    f"public '{name}' is referenced by no library "
                    "module — wire it in, mark it __experimental__, "
                    "or drop it"
                ),
            ))
    return findings


# ---------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------

def _relpath_for(path: str, root: str) -> str:
    rel = os.path.relpath(path, os.path.dirname(root))
    return rel.replace(os.sep, "/")


def lint_paths(paths: Sequence[str], root: str) -> List[LintFinding]:
    """Lint a set of files as one project.

    ``root`` is the package directory (e.g. ``.../src/repro``);
    relative paths in findings are anchored at its parent, so they
    read ``repro/exec/plan.py`` regardless of the checkout location.
    Files that fail to parse produce a synthetic finding instead of
    crashing the pass.
    """
    modules: Dict[str, ast.Module] = {}
    sources: Dict[str, Sequence[str]] = {}
    findings: List[LintFinding] = []
    for path in sorted(paths):
        relpath = _relpath_for(path, root)
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            tree = ast.parse(text, filename=relpath)
        except SyntaxError as exc:
            findings.append(LintFinding(
                lint_id="det.bare-except",
                path=relpath,
                line=int(exc.lineno or 0),
                symbol="<module>",
                message=f"file does not parse: {exc.msg}",
            ))
            continue
        modules[relpath] = tree
        sources[relpath] = text.splitlines()
        findings.extend(lint_source(text, relpath))
    findings.extend(_check_unused_public(modules, sources))
    findings.sort(key=lambda f: (f.path, f.line, f.lint_id))
    return findings


def package_root() -> str:
    """The installed ``repro`` package directory (lint target)."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def self_lint(root: Optional[str] = None) -> List[LintFinding]:
    """Lint the ``repro`` library source itself."""
    root = root or package_root()
    paths = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in filenames:
            if filename.endswith(".py"):
                paths.append(os.path.join(dirpath, filename))
    return lint_paths(paths, root)


# ---------------------------------------------------------------------
# baseline burndown
# ---------------------------------------------------------------------

def baseline_path() -> str:
    """Location of the checked-in self-lint baseline."""
    return os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "self_baseline.json",
    )


def load_baseline(path: Optional[str] = None) -> Dict[str, int]:
    """Baseline finding keys -> sanctioned instance counts."""
    path = path or baseline_path()
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return {
        str(key): int(count)
        for key, count in payload.get("findings", {}).items()
    }


def write_baseline(findings: Iterable[LintFinding],
                   path: Optional[str] = None) -> str:
    """Persist the given findings as the new baseline."""
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.key] = counts.get(finding.key, 0) + 1
    payload = {
        "comment": (
            "Sanctioned pre-existing self-lint findings; burn these "
            "down, never add to them.  Regenerate with "
            "'python -m repro analyze --self --write-baseline'."
        ),
        "findings": dict(sorted(counts.items())),
    }
    path = path or baseline_path()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def diff_baseline(
    findings: Sequence[LintFinding],
    baseline: Dict[str, int],
) -> Tuple[List[LintFinding], List[str]]:
    """Split findings into (new vs baseline, burned-down keys).

    Counts matter: a second instance of a baselined finding is new.
    Returns the new findings and the baseline keys whose sanctioned
    instances are no longer present (candidates for removal).
    """
    remaining = dict(baseline)
    new: List[LintFinding] = []
    for finding in findings:
        if remaining.get(finding.key, 0) > 0:
            remaining[finding.key] -= 1
        else:
            new.append(finding)
    fixed = [key for key, count in remaining.items() if count > 0]
    return new, sorted(fixed)
