"""The standalone plan compile decodes only the non-padding slots.

``ExecutionPlan._compile`` drops the padding slots of a stream before
it computes any coordinate (``SpasmMatrix._expand_kept``).  The full
re-expansion it replaced — every slot through ``_expand``, then
``from_slots(compacted=False)`` — is kept below as its oracle: both
must produce bitwise identical plans, and a corrupted stream must
still end in ``validate()`` findings or a raised error.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import SpasmCompiler, candidate_portfolios, encode_spasm
from repro.core.encoding import T_IDX_SHIFT
from repro.exec.plan import ExecutionPlan
from repro.matrix import COOMatrix
from repro.synth import load_workload, workload_names
from tests.conftest import random_structured_coo
from tests.test_compile_parity import COMPILE_SET, SCALE

DIGEST = "x" * 64


def expand_oracle(spasm, index=None):
    rows, cols, vals = spasm._expand()
    return ExecutionPlan.from_slots(
        spasm.shape, rows, cols, vals, digest=DIGEST,
        source_nnz=spasm.source_nnz, index=index,
    )


def assert_bitwise(plan, oracle):
    assert plan.shape == oracle.shape
    assert plan.checksum == oracle.checksum
    for name in ("cols", "vals", "indptr"):
        got, want = getattr(plan, name), getattr(oracle, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("name", workload_names())
def test_synth_suite_matches_full_expansion(name):
    spasm = SpasmCompiler().compile(load_workload(name, 0.2)).spasm
    assert_bitwise(ExecutionPlan._compile(spasm, DIGEST),
                   expand_oracle(spasm))


@pytest.mark.parametrize("name,base", COMPILE_SET)
def test_perfbench_families_match_full_expansion(name, base):
    spasm = SpasmCompiler().compile(
        load_workload(name, base * SCALE)
    ).spasm
    assert_bitwise(ExecutionPlan._compile(spasm, DIGEST),
                   expand_oracle(spasm))
    # The explicit int64 layout takes the same kept slots.
    assert_bitwise(ExecutionPlan._compile(spasm, DIGEST, index="int64"),
                   expand_oracle(spasm, index="int64"))


@pytest.mark.parametrize("k,tile_size", [(2, 16), (3, 24), (4, 32)])
def test_signed_values_and_pattern_sizes_match_full_expansion(
    rng, k, tile_size
):
    """k=3 takes the div/mod branch, k=2 and k=4 shift/mask; negative
    values must be kept like positive ones."""
    coo = random_structured_coo(rng, 96, "mixed")
    signs = rng.choice([-1.0, 1.0], size=coo.nnz)
    coo = COOMatrix(coo.rows, coo.cols, coo.vals * signs, coo.shape)
    for portfolio in candidate_portfolios(k)[:3]:
        spasm = encode_spasm(coo, portfolio, tile_size)
        assert_bitwise(ExecutionPlan._compile(spasm, DIGEST),
                       expand_oracle(spasm))


def _small_stream(rng, k=4, tile_size=32):
    coo = random_structured_coo(rng, 96, "mixed")
    return encode_spasm(coo, candidate_portfolios(k)[0], tile_size)


@pytest.mark.parametrize("shift", [7, -9, 1 << 40])
def test_out_of_range_tile_rows_reach_validate(rng, shift):
    spasm = _small_stream(rng)
    tile_rows = spasm.tile_rows.copy()
    tile_rows[tile_rows.size // 2] += shift
    bad = dataclasses.replace(spasm, tile_rows=tile_rows)
    plan = ExecutionPlan._compile(bad, DIGEST)
    assert plan.validate()
    assert ExecutionPlan.build(bad).validate()


@pytest.mark.parametrize("padding_only", [False, True])
def test_out_of_range_t_idx_raises(rng, padding_only):
    # Every k=4 portfolio fills all 16 t_idx codes; k=3 has 6 templates.
    spasm = _small_stream(rng, k=3, tile_size=24)
    n_templates = len(spasm.portfolio.masks)
    assert n_templates < 16
    words = spasm.words.copy()
    values = spasm.values.copy()
    group = words.size // 2
    words[group] = (
        words[group] & ~np.uint32(0xF << T_IDX_SHIFT)
        | np.uint32(n_templates << T_IDX_SHIFT)
    )
    if padding_only:
        values[group] = 0.0
    bad = dataclasses.replace(spasm, words=words, values=values)
    with pytest.raises(IndexError):
        ExecutionPlan._compile(bad, DIGEST)
    with pytest.raises(IndexError):
        expand_oracle(bad)
