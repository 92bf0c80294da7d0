"""Tests for the SPASM data format encoder/decoder."""

import numpy as np
import pytest

from repro.core import DecompositionTable, candidate_portfolios, encode_spasm
from repro.core.encoding import unpack_position_array
from repro.core.tiling import TilingError
from repro.matrix import COOMatrix
from repro.synth import generators as g
from tests.conftest import random_structured_coo


@pytest.fixture(scope="module")
def portfolio():
    return candidate_portfolios()[0]


@pytest.fixture(scope="module")
def table(portfolio):
    return DecompositionTable(portfolio)


class TestEncodeBasics:
    def test_empty_matrix(self, portfolio, table):
        spasm = encode_spasm(COOMatrix([], [], [], (16, 16)), portfolio,
                             16, table)
        assert spasm.n_tiles == 0
        assert spasm.n_groups == 0
        assert spasm.padding == 0
        assert np.allclose(spasm.spmv(np.ones(16)), np.zeros(16))

    def test_single_entry(self, portfolio, table):
        coo = COOMatrix([5], [9], [2.0], (16, 16))
        spasm = encode_spasm(coo, portfolio, 16, table)
        assert spasm.n_tiles == 1
        assert spasm.n_groups == 1
        assert spasm.padding == 3
        assert spasm.source_nnz == 1

    def test_rejects_duplicate_coordinate(self, portfolio, table):
        coo = COOMatrix([0, 0, 5], [0, 0, 7], [1.0, 2.0, 3.0], (64, 64),
                        dedup=False)
        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            encode_spasm(coo, portfolio, 16, table)

    def test_rejects_artifacts_of_another_matrix(self, rng, portfolio,
                                                 table):
        from repro.core.patterns import submatrix_masks

        coo = random_structured_coo(rng, 96, "mixed")
        other = random_structured_coo(rng, 96, "scatter")
        masks, keys, nnz, order = submatrix_masks(other)
        with pytest.raises(ValueError, match="do not match"):
            encode_spasm(coo, portfolio, 32, table, masks=masks,
                         sub_keys=keys, sub_nnz=nnz, entry_order=order)

    def test_rejects_artifacts_of_another_pattern_size(self, rng,
                                                       portfolio, table):
        from repro.core.patterns import submatrix_masks

        coo = random_structured_coo(rng, 96, "mixed")
        masks, keys, nnz, order = submatrix_masks(coo, k=2)
        with pytest.raises(ValueError, match="do not match"):
            encode_spasm(coo, portfolio, 32, table, masks=masks,
                         sub_keys=keys, sub_nnz=nnz, entry_order=order)

    @pytest.mark.parametrize("family,scale", [
        ("tmt_sym", 0.1), ("raefsky3", 0.1), ("mip1", 0.05),
    ])
    def test_standalone_matches_pipeline(self, family, scale):
        from repro.core import SpasmCompiler
        from repro.synth import load_workload

        coo = load_workload(family, scale)
        piped = SpasmCompiler().compile(coo).spasm
        alone = encode_spasm(coo, piped.portfolio, piped.tile_size)
        for field in ("tile_rows", "tile_cols", "tile_ptr", "words",
                      "values"):
            a, b = getattr(alone, field), getattr(piped, field)
            assert a.dtype == b.dtype, field
            assert a.tobytes() == b.tobytes(), field

    def test_rejects_bad_tile_size(self, portfolio, table, small_coo):
        with pytest.raises(TilingError):
            encode_spasm(small_coo, portfolio, 30, table)
        with pytest.raises(TilingError):
            encode_spasm(small_coo, portfolio, 2**13 * 4 + 4, table)

    def test_padding_accounting(self, small_coo, portfolio, table):
        spasm = encode_spasm(small_coo, portfolio, 16, table)
        assert spasm.stored_values == spasm.n_groups * 4
        assert spasm.padding == spasm.stored_values - small_coo.nnz
        assert 0.0 <= spasm.padding_rate < 1.0

    def test_storage_bytes(self, small_coo, portfolio, table):
        spasm = encode_spasm(small_coo, portfolio, 16, table)
        assert spasm.storage_bytes() == spasm.n_groups * 5 * 4
        assert spasm.storage_bytes(include_global=True) == (
            spasm.n_groups * 5 * 4 + spasm.n_tiles * 8
        )

    def test_padding_matches_table(self, small_coo, portfolio, table):
        from repro.core import analyze_local_patterns

        hist = analyze_local_patterns(small_coo)
        expected = table.total_padding(hist)
        spasm = encode_spasm(small_coo, portfolio, 16, table)
        assert spasm.padding == expected


class TestSubsetTemplates:
    def test_matches_per_subset_loop(self):
        """The grid expansion equals the per-subset loop it replaced,
        over every subset of every Table V portfolio."""
        from repro.core.format import _subset_templates

        for portfolio in candidate_portfolios():
            masks = portfolio.masks
            subsets = np.arange(1 << len(masks), dtype=np.int64)
            counts, tids, owned = _subset_templates(subsets, masks)
            exp_counts, exp_tids, exp_owned = [], [], []
            for subset in range(1 << len(masks)):
                covered = 0
                members = [t for t in range(len(masks)) if subset >> t & 1]
                for t_idx in members:
                    exp_tids.append(t_idx)
                    exp_owned.append(masks[t_idx] & ~covered)
                    covered |= masks[t_idx]
                exp_counts.append(len(members))
            assert counts.tolist() == exp_counts
            assert tids.tolist() == exp_tids
            assert owned.tolist() == exp_owned


class TestRoundtrip:
    @pytest.mark.parametrize("kind", ["mixed", "blocks", "scatter"])
    @pytest.mark.parametrize("tile_size", [16, 32, 64])
    def test_decode_roundtrip(self, rng, kind, tile_size, portfolio, table):
        coo = random_structured_coo(rng, 64, kind)
        spasm = encode_spasm(coo, portfolio, tile_size, table)
        assert np.array_equal(spasm.to_coo().to_dense(), coo.to_dense())

    def test_roundtrip_all_candidates(self, rng):
        coo = random_structured_coo(rng, 48, "mixed")
        for portfolio in candidate_portfolios():
            spasm = encode_spasm(coo, portfolio, 16)
            assert np.array_equal(
                spasm.to_coo().to_dense(), coo.to_dense()
            ), portfolio.name

    def test_non_square(self, portfolio, table, rng):
        dense = np.where(rng.random((20, 52)) < 0.2, 1.0, 0.0)
        coo = COOMatrix.from_dense(dense)
        spasm = encode_spasm(coo, portfolio, 16, table)
        assert np.array_equal(spasm.to_coo().to_dense(), dense)

    def test_unaligned_shape_spmv(self, portfolio, table, rng):
        # Dimensions not multiples of k: template padding cells fall
        # past the matrix edge and must not index out of bounds.
        dense = np.where(rng.random((67, 67)) < 0.15, 1.0, 0.0)
        dense[66, 66] = 1.0
        coo = COOMatrix.from_dense(dense)
        spasm = encode_spasm(coo, portfolio, 16, table)
        x = rng.random(67)
        assert np.allclose(spasm.spmv(x), dense @ x)
        assert np.array_equal(spasm.to_coo().to_dense(), dense)

    def test_spmv_matches_reference(self, rng, portfolio, table):
        coo = random_structured_coo(rng, 64, "mixed")
        spasm = encode_spasm(coo, portfolio, 32, table)
        x = rng.random(64)
        y0 = rng.random(64)
        assert np.allclose(spasm.spmv(x, y0), coo.spmv(x, y0))


class TestStreamSemantics:
    def test_tiles_in_row_major_stream_order(self, portfolio, table, rng):
        coo = random_structured_coo(rng, 96, "mixed")
        spasm = encode_spasm(coo, portfolio, 16, table)
        keys = (
            spasm.tile_rows * (96 // 16 + 1) + spasm.tile_cols
        )
        assert np.all(np.diff(keys) > 0)

    def test_ce_marks_tile_boundaries(self, portfolio, table, rng):
        coo = random_structured_coo(rng, 96, "mixed")
        spasm = encode_spasm(coo, portfolio, 16, table)
        fields = unpack_position_array(spasm.words)
        boundaries = set((spasm.tile_ptr[1:] - 1).tolist())
        for i in range(spasm.n_groups):
            assert fields["ce"][i] == (i in boundaries)

    def test_re_marks_tile_row_boundaries(self, portfolio, table, rng):
        coo = random_structured_coo(rng, 96, "mixed")
        spasm = encode_spasm(coo, portfolio, 16, table)
        fields = unpack_position_array(spasm.words)
        tile_of_group = np.repeat(
            np.arange(spasm.n_tiles), spasm.groups_per_tile()
        )
        group_row = spasm.tile_rows[tile_of_group]
        for i in range(spasm.n_groups):
            is_last_of_row = (
                i == spasm.n_groups - 1
                or group_row[i + 1] != group_row[i]
            )
            assert fields["re"][i] == is_last_of_row

    def test_re_implies_ce_positions_are_consistent(self, portfolio,
                                                    table, rng):
        # An RE group must also be the end of a tile.
        coo = random_structured_coo(rng, 96, "mixed")
        spasm = encode_spasm(coo, portfolio, 16, table)
        fields = unpack_position_array(spasm.words)
        assert np.all(~fields["re"] | fields["ce"])

    def test_group_indices_within_tile(self, portfolio, table, rng):
        coo = random_structured_coo(rng, 96, "mixed")
        spasm = encode_spasm(coo, portfolio, 32, table)
        fields = unpack_position_array(spasm.words)
        spt = 32 // 4
        assert fields["c_idx"].max() < spt
        assert fields["r_idx"].max() < spt


class TestTileViews:
    def test_tiles_partition_groups(self, small_coo, portfolio, table):
        spasm = encode_spasm(small_coo, portfolio, 16, table)
        total = sum(t.n_groups for t in spasm.tiles())
        assert total == spasm.n_groups

    def test_groups_per_tile(self, small_coo, portfolio, table):
        spasm = encode_spasm(small_coo, portfolio, 16, table)
        assert np.array_equal(
            spasm.groups_per_tile(),
            np.array([t.n_groups for t in spasm.tiles()]),
        )

    def test_global_composition_consistent(self, small_coo, portfolio,
                                           table):
        spasm = encode_spasm(small_coo, portfolio, 16, table)
        gc = spasm.global_composition()
        assert gc.total_groups == spasm.n_groups
        assert gc.total_nnz == small_coo.nnz
        assert gc.n_tiles == spasm.n_tiles


class TestValidate:
    def test_fresh_encoding_validates(self, rng, portfolio, table):
        coo = random_structured_coo(rng, 96, "mixed")
        encode_spasm(coo, portfolio, 32, table).validate()

    def test_hazard_reordered_validates(self, rng, portfolio, table):
        from repro.hw.hazards import hazard_aware_reorder

        coo = random_structured_coo(rng, 96, "mixed")
        spasm = hazard_aware_reorder(
            encode_spasm(coo, portfolio, 32, table)
        )
        spasm.validate()

    def test_deserialized_validates(self, rng, portfolio, table,
                                    tmp_path):
        from repro.core.serialize import load_spasm, save_spasm

        coo = random_structured_coo(rng, 64, "mixed")
        spasm = encode_spasm(coo, portfolio, 32, table)
        save_spasm(tmp_path / "m.npz", spasm)
        load_spasm(tmp_path / "m.npz").validate()

    def test_empty_validates(self, portfolio, table):
        encode_spasm(COOMatrix([], [], [], (16, 16)), portfolio, 16,
                     table).validate()

    def test_detects_corrupted_flags(self, rng, portfolio, table):
        from repro.core.format import FormatError

        coo = random_structured_coo(rng, 64, "mixed")
        spasm = encode_spasm(coo, portfolio, 16, table)
        spasm.words[0] ^= np.uint32(1 << 26)  # flip a CE bit
        with pytest.raises(FormatError):
            spasm.validate()

    def test_detects_out_of_range_index(self, rng, portfolio, table):
        from repro.core.format import FormatError

        coo = random_structured_coo(rng, 64, "mixed")
        spasm = encode_spasm(coo, portfolio, 16, table)
        spasm.words[0] |= np.uint32(0x1FFF)  # blow up c_idx
        with pytest.raises(FormatError):
            spasm.validate()

    def test_detects_broken_tile_ptr(self, rng, portfolio, table):
        from repro.core.format import FormatError

        coo = random_structured_coo(rng, 64, "mixed")
        spasm = encode_spasm(coo, portfolio, 16, table)
        spasm.tile_ptr[-1] += 1
        with pytest.raises(FormatError):
            spasm.validate()


class TestStructuredMatrices:
    def test_pure_blocks_zero_padding(self, block_diag_coo, table,
                                      portfolio):
        spasm = encode_spasm(block_diag_coo, portfolio, 16, table)
        assert spasm.padding == 0
        assert spasm.bytes_per_nnz() == pytest.approx(5.0)

    def test_diag_stripes_zero_padding(self, portfolio, table):
        coo = g.diagonal_stripes(64, (0,), fill=1.0, seed=0)
        spasm = encode_spasm(coo, portfolio, 16, table)
        assert spasm.padding == 0

    def test_bytes_per_nnz_formula(self, portfolio, table):
        # Storage of pattern_size elements is (pattern_size+1)*4 bytes
        # (Section V-B): exact when padding is zero.
        coo = g.block_diagonal(10, 4, fill=1.0, seed=1)
        spasm = encode_spasm(coo, portfolio, 16, table)
        assert spasm.bytes_per_nnz() == pytest.approx((4 + 1) / 4 * 4)
