"""Bitwise parity of the compile path (steps ①–⑤ and the encoder).

The pinned values below were computed by the pre-vectorization compile
path (per-tile-size re-sorting composition, generator-based portfolio
scoring, ``np.unique`` on already sorted encoder keys); the array
rewrite of that path must reproduce every SPASM word and every
schedule point exactly.
"""

import hashlib

import numpy as np
import pytest

from repro.core import SpasmCompiler, candidate_portfolios
from repro.core.decompose import cached_table
from repro.core.format import groups_per_submatrix
from repro.core.patterns import submatrix_masks
from repro.core.schedule import DEFAULT_TILE_SIZES
from repro.core.tiling import global_compositions
from repro.exec.plan import stream_digest
from repro.matrix import COOMatrix
from repro.synth import load_workload

#: One matrix per pattern family, as in perfbench's compile workload
#: (``perfbench/workloads.py`` ``COMPILE_SET``), compiled here at a
#: tenth of that scale.
COMPILE_SET = (
    ("tmt_sym", 1.0),
    ("Goodwin_054", 1.0),
    ("mip1", 0.5),
    ("raefsky3", 1.0),
    ("x104", 1.0),
    ("c-73", 1.0),
    ("stormG2_1000", 1.0),
    ("af_shell10", 1.0),
)
SCALE = 0.1

#: family -> (stream digest, sha256 of the repr of every schedule
#: point's (tile size, hw config name, cycles)) under the default
#: ``SpasmCompiler()``; computed at the parent of the vectorized path.
PINNED = {
    "tmt_sym": (
        "1d97caecc201ff012920c0a28a24a2eb2c91d0cf130b402dd2f70df6e9bb47ef",
        "2c2246286c4434829e985f3c40ea6e6fe1e2cca8b51376470ede33b5bac71f0b",
    ),
    "Goodwin_054": (
        "e7ab00548c3215ca1c59e6a1c8656099405ee1d8f426494ebe4a4a6743046f9c",
        "93f30a9f447ae8f98b3144c21b0e3abb17fe3dfeacd4b0abc8659f8712d3bce4",
    ),
    "mip1": (
        "fae028ac7689ef4e89a89941b76a153a3dd072ca862925bf33c87540eaae78a8",
        "af19826ab1574de18c9defe6e2fdb6f88bbcf1cbf124da561bf86fd1b1187faa",
    ),
    "raefsky3": (
        "2e3023d43e4671cc603c5c332a6b41371ee5d0e06b2449693a994301dcf993c8",
        "5f1c2ced7aaad5d51bab4a5d01fa97ba76fc0e1f9464f3d45d03a33065b5bdfe",
    ),
    "x104": (
        "6b03ddabe6cbfd36fae99352df746debfbb310979d118aec54f09bd8f2cb0532",
        "f9adc3ca8f98d2a88382dc00b9a88f73b4193736ec7b56dcd95807cc7567240e",
    ),
    "c-73": (
        "eacf70775cfc52373450d7f479759d4b2942b22f0ad2bf917e0c127f5f41a741",
        "5278ed87cf41e98c4e78af3cbf5c52cf352cd5c10552babf71707e82ecbd343b",
    ),
    "stormG2_1000": (
        "594398e46b90ea1cced13b0719f172870aa62ce9a07a1c7ced16abface5af697",
        "b13f5c4d5e7dfa3589a10b419cbd31591d91e55598cea3c0ccefc382376f7fb7",
    ),
    "af_shell10": (
        "e668db90b6b52bdca3789b7b4b0f974766bbd135c8026dde908de1fae3a1bd3d",
        "191a798a3aba26359053c7d38fb857be96ccfd566e22fdf7a98b7af9bc5da31b",
    ),
}


def _points(program):
    return [
        (p.tile_size, p.hw_config.name, p.cycles)
        for p in program.schedule.points
    ]


@pytest.mark.parametrize("family,base", COMPILE_SET)
def test_compile_set_pinned(family, base):
    program = SpasmCompiler().compile(load_workload(family, base * SCALE))
    digest, points_digest = PINNED[family]
    assert stream_digest(program.spasm) == digest
    points = repr(_points(program)).encode()
    assert hashlib.sha256(points).hexdigest() == points_digest


def _non_square(seed=3):
    rng = np.random.default_rng(seed)
    n = 4000
    rows = rng.integers(0, 7000, n)
    cols = rng.integers(0, 9500, n)
    # A dense band so the finest tiles hold many groups.
    band = np.arange(0, 2000)
    rows = np.concatenate((rows, band, band))
    cols = np.concatenate((cols, band, band + 1))
    return COOMatrix(rows, cols, rng.uniform(0.5, 1.5, rows.size),
                     (7000, 9500))


def _assert_same(nested, single):
    assert nested.shape == single.shape
    assert nested.tile_size == single.tile_size
    for field in ("tile_rows", "tile_cols", "groups_per_tile",
                  "nnz_per_tile"):
        a, b = getattr(nested, field), getattr(single, field)
        assert a.dtype == b.dtype == np.int64, field
        assert np.array_equal(a, b), field


@pytest.mark.parametrize("sweep", [DEFAULT_TILE_SIZES, (256, 768, 1024)])
@pytest.mark.parametrize("make", [
    lambda: load_workload("tmt_sym", 1.0),
    _non_square,
])
def test_nested_compositions_match_one_size(sweep, make):
    coo = make()
    table = cached_table(candidate_portfolios()[0])
    counts, keys = groups_per_submatrix(coo, table)
    sub_nnz = submatrix_masks(coo)[2]
    nested = global_compositions(coo.shape, counts, keys, sub_nnz, sweep)
    assert sorted(nested) == sorted(sweep)
    for tile_size in sweep:
        # The one-size case aggregates straight from the submatrices.
        single = global_compositions(
            coo.shape, counts, keys, sub_nnz, (tile_size,)
        )[tile_size]
        _assert_same(nested[tile_size], single)
        # Independent of both: the tile grid straight from the COO.
        comp = nested[tile_size]
        n_tile_cols = -(-coo.shape[1] // tile_size)
        tiles, nnz = np.unique(
            (coo.rows // tile_size) * n_tile_cols + coo.cols // tile_size,
            return_counts=True,
        )
        assert np.array_equal(
            comp.tile_rows * n_tile_cols + comp.tile_cols, tiles
        )
        assert np.array_equal(comp.nnz_per_tile, nnz)
        assert comp.total_groups == int(counts.sum())


def test_invalid_sizes_left_out():
    coo = load_workload("mip1", 0.05)
    table = cached_table(candidate_portfolios()[0])
    counts, keys = groups_per_submatrix(coo, table)
    sub_nnz = submatrix_masks(coo)[2]
    nested = global_compositions(
        coo.shape, counts, keys, sub_nnz, (30, 64, 2**16)
    )
    assert list(nested) == [64]
