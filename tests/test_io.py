"""Matrix Market I/O tests."""

import numpy as np
import pytest

from repro.matrix import COOMatrix, read_matrix_market
from repro.matrix.io import MatrixMarketError


def write_general(path, coo):
    """Write ``coo`` as a 1-based real general coordinate file."""
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n"
        + "".join(
            f"{r + 1} {c + 1} {float(v)!r}\n"
            for r, c, v in zip(coo.rows, coo.cols, coo.vals)
        )
    )


class TestRoundtrip:
    def test_write_read(self, tmp_path, small_coo):
        path = tmp_path / "m.mtx"
        write_general(path, small_coo)
        back = read_matrix_market(path)
        assert back.shape == small_coo.shape
        assert np.array_equal(back.to_dense(), small_coo.to_dense())

    def test_empty_matrix(self, tmp_path):
        path = tmp_path / "empty.mtx"
        write_general(path, COOMatrix([], [], [], (3, 4)))
        back = read_matrix_market(path)
        assert back.shape == (3, 4)
        assert back.nnz == 0


class TestParsing:
    def test_pattern_field(self, tmp_path):
        path = tmp_path / "p.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 2\n1 1\n2 2\n"
        )
        m = read_matrix_market(path)
        assert np.array_equal(m.to_dense(), np.eye(2))

    def test_integer_field(self, tmp_path):
        path = tmp_path / "i.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate integer general\n"
            "1 1 1\n1 1 7\n"
        )
        assert read_matrix_market(path).vals[0] == 7.0

    def test_symmetric_expansion(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n1 1 1.0\n2 1 5.0\n"
        )
        dense = read_matrix_market(path).to_dense()
        assert dense[0, 1] == 5.0 and dense[1, 0] == 5.0
        assert dense[0, 0] == 1.0

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n% another\n1 1 1\n1 1 2.5\n"
        )
        assert read_matrix_market(path).vals[0] == 2.5


class TestErrors:
    def test_missing_banner(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("1 1 1\n1 1 1.0\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)

    def test_unsupported_layout(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)

    def test_unsupported_field(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate complex general\n"
        )
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)

    def test_truncated_entries(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
        )
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)

    def test_bad_size_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2\n"
        )
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)
