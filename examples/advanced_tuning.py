"""Advanced tuning: greedy portfolio + persistent encoding.

Chains the repository's extension features on a mixed input — row
segments over diagonal stripes — and shows each stage at work:

1. a greedy-built custom portfolio is scored against every Table V
   candidate, and the cheaper one is kept;
2. the tuned encoding is persisted and reloaded for reuse;
3. the fast simulation engine verifies the result at full speed.

Run with:  python examples/advanced_tuning.py
"""

import tempfile

import numpy as np

from repro import SpasmAccelerator
from repro.core import (
    GreedyPortfolioBuilder,
    analyze_local_patterns,
    candidate_portfolios,
    encode_spasm,
    load_spasm,
    save_spasm,
    select_portfolio,
)
from repro.core.selection import storage_bytes_estimate
from repro.hw.configs import SPASM_4_1
from repro.synth import generators as g


def main():
    coo = g.overlay(
        g.row_segments(2048, seed=5),
        g.diagonal_stripes(2048, (0, 513), fill=0.95, seed=5),
    )
    print(f"input: {coo.shape}, nnz={coo.nnz}")
    histogram = analyze_local_patterns(coo)

    # 1. Portfolio: Table V candidates vs greedy universe build.
    selection = select_portfolio(histogram)
    candidate_bytes = storage_bytes_estimate(histogram, selection.portfolio)
    greedy = GreedyPortfolioBuilder().build(histogram)
    greedy_bytes = storage_bytes_estimate(histogram, greedy.portfolio)
    print(f"portfolio: best candidate {selection.portfolio.name} = "
          f"{candidate_bytes / coo.nnz:.2f} B/nnz, greedy custom = "
          f"{greedy_bytes / coo.nnz:.2f} B/nnz")
    portfolio = (
        greedy.portfolio
        if greedy_bytes < candidate_bytes
        else selection.portfolio
    )

    # 2. Encode and persist.
    spasm = encode_spasm(coo, portfolio, tile_size=512)
    with tempfile.NamedTemporaryFile(suffix=".npz") as handle:
        save_spasm(handle.name, spasm)
        reloaded = load_spasm(handle.name)
    print(f"persisted encoding: {spasm.storage_bytes()} bytes, "
          f"padding {spasm.padding_rate:.1%}")

    # 3. Verify with the fast engine.
    x = np.random.default_rng(8).random(coo.shape[1])
    result = SpasmAccelerator(SPASM_4_1).run(reloaded, x, engine="fast")
    assert np.allclose(result.y, coo.spmv(x)), "verification failed"
    print(f"fast-engine verification: exact "
          f"({result.gflops:.1f} GFLOP/s modeled, "
          f"bottleneck {result.bottleneck})")

    baseline = encode_spasm(coo, candidate_portfolios()[0], 512)
    print(f"untuned baseline: {baseline.storage_bytes()} bytes, "
          f"padding {baseline.padding_rate:.1%}")
    print(f"tuned pipeline saves "
          f"{1 - spasm.storage_bytes() / baseline.storage_bytes():.1%} "
          "of the encoded size")


if __name__ == "__main__":
    main()
