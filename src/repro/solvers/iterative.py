"""Conjugate gradients over the operator interface."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.solvers.operator import as_operator


@dataclasses.dataclass(frozen=True)
class SolveResult:
    """Outcome of an iterative solve.

    Attributes
    ----------
    x:
        The final iterate.
    iterations:
        Iterations actually performed.
    converged:
        Whether the residual tolerance was met.
    residual_norm:
        Final ``||b - A x||`` (2-norm).
    history:
        Residual norm after each iteration.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float
    history: tuple


def _prepare(source, b):
    operator = as_operator(source)
    b = np.asarray(b, dtype=np.float64)
    if operator.shape[0] != operator.shape[1]:
        raise ValueError("iterative solvers need a square operator")
    if b.shape != (operator.shape[0],):
        raise ValueError(
            f"rhs of shape {b.shape} incompatible with {operator.shape}"
        )
    return operator, b


def conjugate_gradient(source, b, tol: float = 1e-10,
                       max_iters: int = 1000,
                       x0: np.ndarray = None,
                       preconditioner=None) -> SolveResult:
    """(Preconditioned) conjugate gradients for SPD systems.

    ``preconditioner`` is either a callable applying ``M^-1 r`` or the
    string ``"jacobi"`` (diagonal scaling via the operator's
    diagonal).
    """
    operator, b = _prepare(source, b)
    if preconditioner == "jacobi":
        diag = operator.diagonal()
        if np.any(diag == 0.0):
            raise ValueError(
                "Jacobi preconditioning needs a zero-free diagonal"
            )
        inv_diag = 1.0 / diag

        def preconditioner(r):
            return inv_diag * r

    x = (
        np.zeros_like(b)
        if x0 is None
        else np.array(x0, dtype=np.float64)
    )
    r = b - operator.matvec(x) if x.any() else b.copy()
    z = preconditioner(r) if preconditioner else r
    p = z.copy()
    rz = float(r @ z)
    history = []
    for iteration in range(1, max_iters + 1):
        ap = operator.matvec(p)
        denom = float(p @ ap)
        if denom == 0.0:
            break
        alpha = rz / denom
        x = x + alpha * p
        r = r - alpha * ap
        history.append(float(np.linalg.norm(r)))
        if history[-1] < tol:
            return SolveResult(x, iteration, True, history[-1],
                               tuple(history))
        z = preconditioner(r) if preconditioner else r
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    residual = float(np.linalg.norm(b - operator.matvec(x)))
    return SolveResult(x, len(history), residual < tol, residual,
                       tuple(history))
