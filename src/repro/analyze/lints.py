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
lint.parse-error    every scanned file parses (a file that does not
                    is reported, never skipped)
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
api.unused-public   public module-level defs must be referenced by
                    the library or by a script that ships beside it
                    in ``benchmarks/``, ``examples/`` or
                    ``perfbench/`` (dead public API drifts)
==================  ====================================================

There is no baseline: ``python -m repro analyze --self`` fails on any
finding.  The one sanction is a line comment ``# lint: allow(<lint-id>)``
on the offending line (for ``api.unused-public``, the def line).
"""

from __future__ import annotations

import ast
import dataclasses
import os
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

#: All lint identifiers, documentation order.
LINT_IDS = (
    "det.unseeded-rng",
    "det.kernel-clock",
    "det.adhoc-pool",
    "det.bare-except",
    "lint.parse-error",
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

#: Directories beside ``src/`` whose scripts ship with the library and
#: so count as consumers of its public API (read only, never linted).
CONSUMER_DIRS = ("benchmarks", "examples", "perfbench")

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
    """One violation of the coding discipline."""

    lint_id: str
    path: str  # repo-relative posix path, e.g. "repro/exec/plan.py"
    line: int
    symbol: str  # enclosing def/class chain, or "<module>"
    message: str

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


def _allowed(lines: Sequence[str], line: int, lint_id: str) -> bool:
    """Whether ``line`` carries a ``# lint: allow(...)`` for ``lint_id``."""
    if not 1 <= line <= len(lines):
        return False
    text = lines[line - 1]
    return f"lint: allow({lint_id})" in text or "lint: allow(all)" in text


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

    def _report(self, lint_id: str, node: ast.AST,
                message: str) -> None:
        line = int(getattr(node, "lineno", 0) or 0)
        if _allowed(self.lines, line, lint_id):
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

def _decorator_name(node: ast.expr) -> Optional[str]:
    """Last name of a decorator: ``dataclass`` for
    ``@dataclasses.dataclass(frozen=True)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _public_defs(tree: ast.Module) -> List[Tuple[str, int]]:
    """Top-level public defs of a module: (name, line).

    Defs with a decorator other than ``dataclass`` are exempt:
    decorators like ``@register`` consume the name at import time, so
    reference counting cannot see the use.  ``@dataclass`` consumes
    nothing, so a dataclass nobody builds is still flagged.
    """
    defs: List[Tuple[str, int]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if node.name.startswith("_") or any(
                _decorator_name(d) != "dataclass"
                for d in node.decorator_list
            ):
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


def _used_names(tree: ast.Module) -> Set[str]:
    collector = _UsageCollector()
    collector.visit(tree)
    return collector.used


def _check_unused_public(
    modules: Dict[str, ast.Module],
    sources: Dict[str, Sequence[str]],
    consumers: Set[str],
) -> List[LintFinding]:
    """Flag public defs neither the library nor a shipped script reads.

    A symbol counts as used when its name is read in its own module
    (helpers composed internally), in any *other* non-``__init__``
    module of the scanned set, or in ``consumers`` (the names the
    scripts under :data:`CONSUMER_DIRS` read).  ``__init__.py``
    re-exports do not count — a name that only appears on an export
    list is exactly the dead-API drift this lint exists to catch.
    """
    usage_by_file = {
        relpath: _used_names(tree) for relpath, tree in modules.items()
    }
    findings: List[LintFinding] = []
    for relpath, tree in modules.items():
        if os.path.basename(relpath) == "__init__.py":
            continue
        for name, line in _public_defs(tree):
            used = name in consumers or any(
                name in used_names
                for other, used_names in usage_by_file.items()
                if os.path.basename(other) != "__init__.py"
            )
            if used or _allowed(sources[relpath], line,
                                "api.unused-public"):
                continue
            findings.append(LintFinding(
                lint_id="api.unused-public",
                path=relpath,
                line=line,
                symbol=name,
                message=(
                    f"public '{name}' is referenced by no library "
                    "module or shipped script — wire it in or drop it"
                ),
            ))
    return findings


# ---------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------

def _relpath(path: str, anchor: str) -> str:
    return os.path.relpath(path, anchor).replace(os.sep, "/")


def _py_files(root: str) -> List[str]:
    """Every ``.py`` file under ``root`` (none if it does not exist)."""
    paths = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in filenames:
            if filename.endswith(".py"):
                paths.append(os.path.join(dirpath, filename))
    return paths


def _parse(path: str, relpath: str,
           findings: List[LintFinding]) -> Optional[Tuple[ast.Module, str]]:
    """Parse one file; on a syntax error record ``lint.parse-error``."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return ast.parse(text, filename=relpath), text
    except SyntaxError as exc:
        findings.append(LintFinding(
            lint_id="lint.parse-error",
            path=relpath,
            line=int(exc.lineno or 0),
            symbol="<module>",
            message=f"file does not parse: {exc.msg}",
        ))
        return None


def lint_paths(paths: Sequence[str], root: str) -> List[LintFinding]:
    """Lint a set of files as one project.

    ``root`` is the package directory (e.g. ``.../src/repro``);
    relative paths in findings are anchored at its parent, so they
    read ``repro/exec/plan.py`` regardless of the checkout location.
    The :data:`CONSUMER_DIRS` two levels up (the repo root of a
    ``src/`` layout) are read for ``api.unused-public`` usage.  Files
    that fail to parse produce a ``lint.parse-error`` finding instead
    of crashing the pass.
    """
    modules: Dict[str, ast.Module] = {}
    sources: Dict[str, Sequence[str]] = {}
    findings: List[LintFinding] = []
    for path in sorted(paths):
        relpath = _relpath(path, os.path.dirname(root))
        parsed = _parse(path, relpath, findings)
        if parsed is None:
            continue
        tree, text = parsed
        modules[relpath] = tree
        sources[relpath] = text.splitlines()
        findings.extend(lint_source(text, relpath))
    repo_root = os.path.dirname(os.path.dirname(root))
    consumers: Set[str] = set()
    for directory in CONSUMER_DIRS:
        for path in _py_files(os.path.join(repo_root, directory)):
            parsed = _parse(path, _relpath(path, repo_root), findings)
            if parsed is not None:
                consumers |= _used_names(parsed[0])
    findings.extend(_check_unused_public(modules, sources, consumers))
    findings.sort(key=lambda f: (f.path, f.line, f.lint_id))
    return findings


def package_root() -> str:
    """The installed ``repro`` package directory (lint target)."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def self_lint(root: Optional[str] = None) -> List[LintFinding]:
    """Lint the ``repro`` library source itself."""
    root = root or package_root()
    return lint_paths(_py_files(root), root)
