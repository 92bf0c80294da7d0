"""Quickstart: encode a sparse matrix in the SPASM format and run it
through the simulated accelerator.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    COOMatrix,
    SpasmAccelerator,
    SpasmCompiler,
    verify_spasm,
)


def build_matrix() -> COOMatrix:
    """A small block-diagonal matrix with some random scatter."""
    rng = np.random.default_rng(7)
    n = 512
    dense = np.zeros((n, n))
    for b in range(0, n, 8):
        dense[b : b + 8, b : b + 8] = rng.uniform(0.5, 1.5, (8, 8))
    scatter = rng.random((n, n)) < 0.002
    dense[scatter] = rng.uniform(0.5, 1.5, size=int(scatter.sum()))
    return COOMatrix.from_dense(dense)


def main():
    coo = build_matrix()
    print(f"matrix: {coo.shape}, nnz={coo.nnz}, density={coo.density:.4f}")

    # Steps 1-5 of the SPASM workflow: pattern analysis, template
    # selection, decomposition, global composition + schedule.
    compiler = SpasmCompiler(tile_sizes=(64, 128, 256, 512))
    program = compiler.compile(coo)

    print(f"selected portfolio:   {program.portfolio.name} "
          f"({program.portfolio.description})")
    print(f"selected tile size:   {program.tile_size}")
    print(f"selected hardware:    {program.hw_config.describe()}")
    print(f"padding rate:         {program.spasm.padding_rate:.2%}")
    print(f"storage cost:         {program.spasm.bytes_per_nnz():.2f} "
          f"bytes/nnz (COO needs 12)")
    print(f"preprocessing time:   {program.trace.total_ms:.1f} ms")

    # Static verification: check the encoding (and its opcode table)
    # against the format invariants before touching the simulator.
    report = verify_spasm(program.spasm, source=coo)
    assert report.ok, report.render()
    print(f"static verification:  {report.summary()}")

    # Step 6: hardware execution on the functional simulator.
    x = np.random.default_rng(1).random(coo.shape[1])
    accelerator = SpasmAccelerator(program.hw_config)
    result = accelerator.run(program.spasm, x)

    reference = coo.spmv(x)
    assert np.allclose(result.y, reference), "simulation mismatch!"
    print("result check:         simulated y == A @ x  (exact)")
    print(f"estimated cycles:     {result.cycles:.0f} "
          f"(bottleneck: {result.bottleneck})")
    print(f"estimated throughput: {result.gflops:.1f} GFLOP/s")


if __name__ == "__main__":
    main()
