"""Tests for the iterative solvers and the operator interface."""

import numpy as np
import pytest

from repro.core import SpasmCompiler, candidate_portfolios, encode_spasm
from repro.matrix import COOMatrix
from repro.solvers import (
    LinearOperator,
    as_operator,
    conjugate_gradient,
)


def spd_system(n=60, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.random((n, n))
    a = m @ m.T + n * np.eye(n)
    b = rng.random(n)
    return a, b


class TestOperator:
    def test_from_dense(self):
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        op = as_operator(a)
        assert np.allclose(op.matvec([1.0, 1.0]), [3.0, 3.0])
        assert np.allclose(op.diagonal(), [2.0, 3.0])

    def test_from_coo(self):
        coo = COOMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
        op = as_operator(coo)
        assert np.allclose(op.diagonal(), [1.0, 2.0, 3.0])
        assert np.allclose(op @ np.ones(3), [1.0, 2.0, 3.0])

    def test_from_csr(self):
        from repro.matrix import coo_to_csr

        coo = COOMatrix.from_dense(np.diag([1.0, 2.0]))
        op = as_operator(coo_to_csr(coo))
        assert np.allclose(op.matvec([1.0, 1.0]), [1.0, 2.0])

    def test_from_spasm(self, rng):
        dense = np.diag(np.arange(1.0, 17.0))
        coo = COOMatrix.from_dense(dense)
        spasm = encode_spasm(coo, candidate_portfolios()[0], 16)
        op = as_operator(spasm)
        x = rng.random(16)
        assert np.allclose(op.matvec(x), dense @ x)
        assert np.allclose(op.diagonal(), np.arange(1.0, 17.0))

    def test_from_program(self):
        dense = np.diag(np.arange(1.0, 33.0))
        coo = COOMatrix.from_dense(dense)
        program = SpasmCompiler(tile_sizes=(16, 32)).compile(coo)
        op = as_operator(program)
        assert op.shape == (32, 32)

    def test_idempotent(self):
        op = as_operator(np.eye(2))
        assert as_operator(op) is op

    def test_custom_without_diagonal(self):
        op = LinearOperator((2, 2), lambda x: x)
        with pytest.raises(NotImplementedError):
            op.diagonal()

    def test_rejects_bad_source(self):
        with pytest.raises(TypeError):
            as_operator("not a matrix")

    def test_rejects_bad_vector(self):
        op = as_operator(np.eye(3))
        with pytest.raises(ValueError):
            op.matvec(np.ones(2))


class TestConjugateGradient:
    def test_solves_spd(self):
        a, b = spd_system()
        result = conjugate_gradient(a, b, tol=1e-10)
        assert result.converged
        assert np.allclose(a @ result.x, b, atol=1e-7)

    def test_history_decreases_overall(self):
        a, b = spd_system()
        result = conjugate_gradient(a, b)
        assert result.history[-1] < result.history[0]

    def test_warm_start_converges_fast(self):
        a, b = spd_system()
        exact = np.linalg.solve(a, b)
        result = conjugate_gradient(a, b, x0=exact)
        assert result.iterations <= 2

    def test_max_iters_reported(self):
        a, b = spd_system()
        result = conjugate_gradient(a, b, tol=1e-16, max_iters=2)
        assert result.iterations == 2
        assert not result.converged

    def test_through_spasm_backend(self):
        a, b = spd_system(n=64)
        coo = COOMatrix.from_dense(a)
        spasm = encode_spasm(coo, candidate_portfolios()[0], 64)
        result = conjugate_gradient(spasm, b)
        assert result.converged
        assert np.allclose(a @ result.x, b, atol=1e-6)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            conjugate_gradient(np.ones((2, 3)), np.ones(2))

    def test_rejects_bad_rhs(self):
        with pytest.raises(ValueError):
            conjugate_gradient(np.eye(3), np.ones(2))


class TestPreconditionedCG:
    def ill_conditioned_spd(self, n=80, seed=4):
        rng = np.random.default_rng(seed)
        # Widely spread diagonal makes plain CG crawl.
        diag = np.logspace(0, 5, n)
        q, __ = np.linalg.qr(rng.random((n, n)))
        a = q @ np.diag(diag) @ q.T
        # Re-symmetrize against roundoff.
        a = (a + a.T) / 2
        return a, rng.random(n)

    def test_jacobi_preconditioner_accepted(self):
        a, b = spd_system()
        result = conjugate_gradient(a, b, preconditioner="jacobi")
        assert result.converged
        assert np.allclose(a @ result.x, b, atol=1e-6)

    def test_custom_preconditioner(self):
        a, b = spd_system()
        inv_diag = 1.0 / np.diag(a)
        result = conjugate_gradient(
            a, b, preconditioner=lambda r: inv_diag * r
        )
        assert result.converged

    def test_preconditioning_helps_ill_conditioned(self):
        a, b = self.ill_conditioned_spd()
        plain = conjugate_gradient(a, b, tol=1e-6, max_iters=400)
        pcg = conjugate_gradient(
            a, b, tol=1e-6, max_iters=400, preconditioner="jacobi"
        )
        # Diagonal scaling may not fix a rotated spectrum, but on this
        # system it must not be worse.
        assert pcg.iterations <= plain.iterations

    def test_jacobi_precond_rejects_zero_diagonal(self):
        a = np.array([[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            conjugate_gradient(a, np.ones(2), preconditioner="jacobi")
