"""Conjugate-gradient solver on a FEM-style matrix with SPASM SpMV.

Scientific computing is the paper's amortization argument (Section
V-E4): the same matrix is multiplied thousands of times inside an
iterative solver, so a multi-second preprocessing pass pays for itself
after a few hundred iterations.  This example solves ``A z = b`` with CG
where every ``A @ p`` goes through the SPASM-encoded matrix, then prints
the amortization break-even against the modeled Serpens_a24 baseline.

Run with:  python examples/fem_cg_solver.py
"""

import numpy as np

from repro import COOMatrix, SpasmCompiler
from repro.baselines import SERPENS_A24
from repro.solvers import conjugate_gradient
from repro.synth import generators as g


def build_spd_matrix(n_nodes: int = 900, dof: int = 4) -> COOMatrix:
    """A symmetric positive-definite FEM-like matrix."""
    base = g.fem_mesh(n_nodes, dof=dof, neighbors=6, block_fill=0.7,
                      seed=3)
    dense = base.to_dense()
    sym = (dense + dense.T) / 2
    # Diagonal dominance makes it SPD.
    np.fill_diagonal(sym, np.abs(sym).sum(axis=1) + 1.0)
    return COOMatrix.from_dense(sym)


def main():
    coo = build_spd_matrix()
    print(f"FEM system: {coo.shape}, nnz={coo.nnz}")

    compiler = SpasmCompiler(tile_sizes=(128, 256, 512, 1024))
    program = compiler.compile(coo)
    print(f"portfolio={program.portfolio.name}, "
          f"tile={program.tile_size}, hw={program.hw_config.name}")
    print(f"preprocessing: {program.trace.total_ms:.1f} ms")

    rng = np.random.default_rng(0)
    b = rng.random(coo.shape[0])

    # Solve with the SPASM-encoded operator (software execution of the
    # format; numerically identical to the hardware datapath).
    result = conjugate_gradient(program.spasm, b, tol=1e-8)
    iters = result.iterations
    residual = np.linalg.norm(coo.spmv(result.x) - b)
    print(f"CG converged in {iters} iterations, |Az - b| = {residual:.2e}")
    assert result.converged

    # Amortization: modeled per-SpMV time on SPASM vs Serpens_a24.
    spasm_ms = (
        program.estimate().total_cycles
        / program.hw_config.frequency_hz * 1e3
    )
    serpens_ms = SERPENS_A24().time_s(coo) * 1e3
    print(f"modeled SpMV time: SPASM {spasm_ms:.3f} ms, "
          f"Serpens_a24 {serpens_ms:.3f} ms")
    if serpens_ms > spasm_ms:
        breakeven = program.trace.total_ms / (serpens_ms - spasm_ms)
        print(f"preprocessing amortized after {breakeven:.0f} SpMV calls "
              f"({breakeven / iters:.1f} CG solves of this size)")
    else:
        print("SPASM not faster on this instance; no amortization point")


if __name__ == "__main__":
    main()
