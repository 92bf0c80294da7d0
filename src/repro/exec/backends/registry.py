"""Backend registration and capability negotiation.

The registry is process-global and populated at import time with the
three shipped backends — ``gather`` (the always-available bitwise
reference), ``csr`` (scipy's compiled compact-layout fast path) and
``numba`` (the optional JIT; registered even when numba is missing so
the CLI can name the dependency, but never resolved while
unavailable).

:func:`resolve_backend` is the one dispatch policy: an explicit name
must be registered, available and capable (errors name what failed);
``None``/``"auto"`` picks the highest-priority available backend whose
:meth:`~repro.exec.backends.base.ExecutionBackend.capabilities` cover
the plan's stored layout and the requested op — which reproduces the
historical inline policy exactly (compact int32/float64 plans take the
CSR kernels, everything else the portable gather engine).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from repro.exec.backends.base import (
    BackendCapabilityError,
    BackendUnavailable,
    ExecutionBackend,
)
from repro.exec.backends.csr import CsrBackend
from repro.exec.backends.gather import GatherBackend
from repro.exec.backends.numba_jit import NumbaBackend

#: Name the negotiation modes answer to (``backend=None`` == "auto").
AUTO = "auto"

_REGISTRY: Dict[str, ExecutionBackend] = {}

#: Bumped by every register/unregister, so callers that memoize a
#: negotiation result (the plan's dispatch memo) can tell it is stale.
_GENERATION = 0


def registry_generation() -> int:
    """Counter of registry changes since import (memo invalidation)."""
    return _GENERATION


def register_backend(backend: ExecutionBackend,
                     replace: bool = False) -> ExecutionBackend:
    """Add a backend to the process-global registry.

    Registration is by :attr:`~ExecutionBackend.name`; re-registering
    a taken name raises unless ``replace=True`` (the escape hatch for
    tests and external engines shadowing a shipped backend).
    """
    global _GENERATION
    name = backend.name
    if not name or name == AUTO:
        raise ValueError(f"invalid backend name {name!r}")
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"backend {name!r} already registered "
            "(pass replace=True to shadow it)"
        )
    _REGISTRY[name] = backend
    _GENERATION += 1
    return backend


# Test teardown for fake backends (tests/test_exec_backends.py).
def unregister_backend(name: str) -> None:  # lint: allow(api.unused-public)
    """Remove a registered backend (test/extension cleanup)."""
    global _GENERATION
    _REGISTRY.pop(name, None)
    _GENERATION += 1


def get_backend(name: str) -> ExecutionBackend:
    """Look up one backend by name; ``KeyError`` lists what exists."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(
            f"unknown execution backend {name!r}; registered: {known}"
        ) from None


def registered_backends() -> List[ExecutionBackend]:
    """Every registered backend, negotiation order (priority desc)."""
    return sorted(
        _REGISTRY.values(), key=lambda b: (-b.priority, b.name)
    )


def available_backends() -> List[ExecutionBackend]:
    """The registered backends dispatchable in this process."""
    return [b for b in registered_backends() if b.is_available()]


def resolve_backend(
    backend: Union[None, str, ExecutionBackend] = None,
    plan: Optional[Any] = None,
    op: str = "spmv",
) -> ExecutionBackend:
    """Pick the backend one dispatch will run on.

    ``backend`` may be ``None``/``"auto"`` (negotiate), a registered
    name (strict: :class:`KeyError` when unknown,
    :class:`~repro.exec.backends.base.BackendUnavailable` when its
    dependency is missing,
    :class:`~repro.exec.backends.base.BackendCapabilityError` when the
    plan's layout or ``op`` is outside its declared capabilities), or
    an :class:`~repro.exec.backends.base.ExecutionBackend` instance
    (passed through under the same availability/capability checks —
    how an already-resolved engine threads through nested dispatch).
    """
    if backend is None or backend == AUTO:
        for candidate in registered_backends():
            if not candidate.is_available():
                continue
            if plan is not None and not candidate.supports(plan, op):
                continue
            return candidate
        raise BackendCapabilityError(
            f"no registered backend supports op {op!r} on this plan "
            f"layout (registered: "
            f"{', '.join(b.name for b in registered_backends())})"
        )
    engine = (backend if isinstance(backend, ExecutionBackend)
              else get_backend(backend))
    if not engine.is_available():
        raise BackendUnavailable(
            f"backend {engine.name!r} is not available: requires "
            f"{engine.requires()}"
        )
    if plan is not None and not engine.supports(plan, op):
        caps = engine.capabilities()
        raise BackendCapabilityError(
            f"backend {engine.name!r} cannot execute {op} on a "
            f"{plan.cols.dtype.name}/{plan.vals.dtype.name} plan "
            f"(capabilities: index {'/'.join(caps.index_dtypes)}, "
            f"values {'/'.join(caps.value_dtypes)}, "
            f"ops {'/'.join(caps.ops)})"
        )
    return engine


register_backend(GatherBackend())
register_backend(CsrBackend())
register_backend(NumbaBackend())
