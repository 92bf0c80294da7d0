"""The SPASM sparse data format (paper Section III).

A matrix is encoded at two levels:

* **global**: the COO list of non-empty ``tile_size x tile_size`` tiles
  (``tileRowIdx`` / ``tileColIdx``), streamed row-major so that an entire
  tile row completes — and its partial sums flush — before the next row
  starts;
* **local**: within each tile, every non-empty k-by-k submatrix is
  decomposed into template groups.  Each group carries ``k`` values (zero
  padded) plus one 32-bit position word (see :mod:`repro.core.encoding`),
  i.e. ``(pattern_size + 1) * 4`` bytes per group under the paper's
  32-bit accounting.

Overlap rule: when two templates of a decomposition cover the same
pattern cell, the value is carried by the *first* template (t_idx order)
and the later slots are zero padding, so decoding never double counts.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.bitmask import DEFAULT_K
from repro.core.decompose import DecompositionTable, cached_table
from repro.core.encoding import (
    pack_position_array,
    unpack_position_array,
)
from repro.core.patterns import submatrix_masks
from repro.core.templates import Portfolio
from repro.core.tiling import GlobalComposition, validate_tile_size
from repro.matrix.coo import COOMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exec.plan import ExecutionPlan


class FormatError(ValueError):
    """Raised by :meth:`SpasmMatrix.validate` on a broken encoding.

    Aggregates *every* violation the static verifier found; the
    individual :class:`~repro.verify.diagnostics.Diagnostic` records
    are available on :attr:`diagnostics`.
    """

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


@dataclasses.dataclass(frozen=True)
class SpasmTile:
    """View of one encoded tile.

    Attributes
    ----------
    tile_row, tile_col:
        Tile coordinates (``tileRowIdx`` / ``tileColIdx``).
    words:
        ``uint32`` position words of the tile's groups, in stream order.
    values:
        ``(n_groups, k)`` value payload, zero padded.
    """

    tile_row: int
    tile_col: int
    words: np.ndarray
    values: np.ndarray

    @property
    def n_groups(self) -> int:
        """Number of template groups in the tile."""
        return int(self.words.size)


@dataclasses.dataclass
class SpasmMatrix:
    """A matrix encoded in the SPASM data format.

    Attributes
    ----------
    shape:
        Logical matrix shape.
    k:
        Local pattern size (values per template group).
    tile_size:
        Tile edge length in matrix elements.
    portfolio:
        The template portfolio the encoding used (t_idx order).
    tile_rows, tile_cols:
        Non-empty tile coordinates in stream order.
    tile_ptr:
        ``n_tiles + 1`` offsets into ``words``/``values`` per tile.
    words:
        All position words, concatenated in stream order.
    values:
        ``(n_groups, k)`` value payload, zero padded.
    source_nnz:
        Non-zero count of the source matrix (for padding accounting).
    """

    shape: tuple
    k: int
    tile_size: int
    portfolio: Portfolio
    tile_rows: np.ndarray
    tile_cols: np.ndarray
    tile_ptr: np.ndarray
    words: np.ndarray
    values: np.ndarray
    source_nnz: int

    @property
    def n_tiles(self) -> int:
        """Number of non-empty tiles."""
        return int(self.tile_rows.size)

    @property
    def n_groups(self) -> int:
        """Total number of template groups."""
        return int(self.words.size)

    @property
    def stored_values(self) -> int:
        """Stored value slots, padding included."""
        return self.n_groups * self.k

    @property
    def padding(self) -> int:
        """Total zero paddings introduced by the encoding."""
        return self.stored_values - self.source_nnz

    @property
    def padding_rate(self) -> float:
        """Fraction of stored value slots that are padding."""
        if self.stored_values == 0:
            return 0.0
        return self.padding / self.stored_values

    def storage_bytes(self, value_bytes: int = 4,
                      include_global: bool = False) -> int:
        """Paper accounting: ``(k + 1) * 4`` bytes per group.

        ``include_global`` adds the first-level tile COO (two 32-bit
        indices per non-empty tile), which the paper's comparison ignores
        as negligible.
        """
        local = self.n_groups * (self.k + 1) * value_bytes
        if include_global:
            local += self.n_tiles * 2 * 4
        return local

    def bytes_per_nnz(self) -> float:
        """Average storage cost per source non-zero (Section V-B metric)."""
        if self.source_nnz == 0:
            return 0.0
        return self.storage_bytes() / self.source_nnz

    def validate(self, source: Optional[COOMatrix] = None) -> list:
        """Check the structural invariants of the encoding.

        Delegates to the static verifier (:mod:`repro.verify`), which
        checks array shapes, tile directory monotonicity, index bounds
        against the tile size, CE/RE flag consistency with the tile
        boundaries, overlap/decomposition canonicality and the padding
        arithmetic.  Raises :class:`FormatError` aggregating *every*
        error-severity violation (not just the first) — the integrity
        check to run after deserializing an encoding from untrusted
        storage.  Passing the ``source`` matrix additionally proves
        decode equivalence (``fmt.roundtrip``).

        Returns the full diagnostic list (warnings included) when no
        errors were found.
        """
        from repro.verify.runner import verify_spasm

        report = verify_spasm(self, source=source, with_opcodes=False)
        report.raise_if_errors(FormatError)
        return report.diagnostics

    def tiles(self):
        """Iterate :class:`SpasmTile` views in stream order."""
        for i in range(self.n_tiles):
            lo, hi = self.tile_ptr[i], self.tile_ptr[i + 1]
            yield SpasmTile(
                tile_row=int(self.tile_rows[i]),
                tile_col=int(self.tile_cols[i]),
                words=self.words[lo:hi],
                values=self.values[lo:hi],
            )

    def groups_per_tile(self) -> np.ndarray:
        """Template group count per tile (stream order)."""
        return np.diff(self.tile_ptr)

    def global_composition(self) -> GlobalComposition:
        """The tile-level view of this encoding.

        Vectorized: the per-tile non-zero counts are one
        ``np.add.reduceat`` over the tile directory instead of a Python
        loop over :meth:`tiles` (this runs inside every
        ``perf_breakdown`` call path).
        """
        if self.n_tiles:
            nnz = np.add.reduceat(
                np.count_nonzero(self.values, axis=1),
                self.tile_ptr[:-1],
            ).astype(np.int64)
        else:
            nnz = np.zeros(0, dtype=np.int64)
        return GlobalComposition(
            shape=self.shape,
            k=self.k,
            tile_size=self.tile_size,
            tile_rows=self.tile_rows.copy(),
            tile_cols=self.tile_cols.copy(),
            groups_per_tile=self.groups_per_tile().astype(np.int64),
            nnz_per_tile=nnz,
        )

    def _group_bases(self) -> tuple:
        """Per group: top-left matrix ``(row, col)`` and ``t_idx``."""
        fields = unpack_position_array(self.words)
        tile_of_group = np.repeat(
            np.arange(self.n_tiles), self.groups_per_tile()
        )
        row_base = (
            self.tile_rows[tile_of_group] * self.tile_size
            + fields["r_idx"] * self.k
        )
        col_base = (
            self.tile_cols[tile_of_group] * self.tile_size
            + fields["c_idx"] * self.k
        )
        return row_base, col_base, fields["t_idx"]

    def _expand(self) -> tuple:
        """Expand every stored slot to (row, col, value) coordinates."""
        row_base, col_base, t_idx = self._group_bases()
        cell_r, cell_c = _template_cell_arrays(self.portfolio, self.k)
        rows = row_base[:, None] + cell_r[t_idx]
        cols = col_base[:, None] + cell_c[t_idx]
        return rows.ravel(), cols.ravel(), self.values.ravel()

    def _expand_kept(self) -> tuple:
        """:meth:`_expand` without the padding slots.

        The padding slots (``values == 0``, up to half of a stream) are
        dropped before any coordinate is computed, so no ``(n_groups,
        k)`` coordinate grid is built; the result feeds
        ``ExecutionPlan.from_slots(..., compacted=True)``.  The
        arithmetic is int64, so a corrupted tile directory yields
        out-of-range rows for the plan builder to decline rather than
        wrapped ones.  An out-of-range ``t_idx`` raises ``IndexError``
        on any group, padding or not.
        """
        k = self.k
        row_base, col_base, t_idx = self._group_bases()
        cell_r, cell_c = _template_cell_arrays(self.portfolio, k)
        # Each slot's in-pattern cell id (``r * k + c``); int32 halves
        # the traffic of the (n_groups, k) grid, widened once kept.
        lane_bits = (cell_r * k + cell_c).astype(np.int32)[t_idx]
        vflat = self.values.reshape(-1)
        keep = np.flatnonzero(vflat != 0.0)
        kept_bits = lane_bits.reshape(-1)[keep].astype(np.int64)
        # k is a power of two in the paper's portfolios — shift/mask
        # beat div/mod on the megaslot arrays (exact for non-negative
        # operands).
        if k & (k - 1) == 0:
            shift = k.bit_length() - 1
            group_of = keep >> shift
            cell_r, cell_c = kept_bits >> shift, kept_bits & (k - 1)
        else:
            group_of = keep // k
            cell_r, cell_c = np.divmod(kept_bits, k)
        return (row_base[group_of] + cell_r, col_base[group_of] + cell_c,
                vflat[keep])

    def to_coo(self) -> COOMatrix:
        """Decode back to COO (padding slots drop out as zeros)."""
        rows, cols, vals = self._expand()
        keep = vals != 0.0
        return COOMatrix(rows[keep], cols[keep], vals[keep], self.shape)

    def stream_digest(self) -> str:
        """Content digest of the encoded stream (the plan's label)."""
        from repro.exec.plan import stream_digest

        return stream_digest(self)

    def plan(self) -> "ExecutionPlan":
        """The compiled :class:`~repro.exec.plan.ExecutionPlan`.

        Built lazily and cached on the matrix, keyed on the stream
        content (:meth:`stream_digest`): mutating any stored array
        invalidates the cached plan on the next call.

        Revalidating a cached plan digests the whole stream, so hot
        loops should call ``plan()`` once and hold the result (the
        solvers' operator wrapper and the sharded executor already do).
        A build hashes its own copy of the stream, once.
        """
        from repro.exec.plan import ExecutionPlan, stream_digest

        cached = self.__dict__.get("_plan")
        if cached is not None and cached.digest == stream_digest(self):
            return cached
        built = ExecutionPlan.build(self)
        self._plan = built
        return built

    def spmv(self, x: np.ndarray, y: Optional[np.ndarray] = None,
             jobs: Optional[int] = None) -> np.ndarray:
        """Execution of the format: ``y = A @ x + y``.

        Delegates to the lazily cached :meth:`plan` — one CSR matvec
        over the plan arrays; repeated calls on the same matrix
        never re-expand the stream.  ``jobs=None`` lets the plan's
        slots-per-worker heuristic choose; every shard count is bitwise
        identical.  The un-compiled reference path survives as
        :meth:`spmv_naive`; the hardware functional simulator in
        :mod:`repro.hw` must agree with both (padding slots multiply by
        zero and vanish).
        """
        return self.plan().spmv(x, y=y, jobs=jobs)

    def spmm(self, x_block: np.ndarray,
             y_block: Optional[np.ndarray] = None,
             jobs: Optional[int] = None) -> np.ndarray:
        """Multi-vector execution ``Y = A @ X + Y`` via the plan.

        The sparse stream is gathered once per vector block — the
        A-stream amortization that
        :func:`repro.hw.perf_model.perf_breakdown_spmm` models.  The
        un-compiled reference survives as :meth:`spmm_naive`.
        """
        return self.plan().spmm(x_block, y_block=y_block, jobs=jobs)

    def spmv_batch(self, xs: np.ndarray,
                   jobs: Optional[int] = None) -> np.ndarray:
        """Batched SpMV over query rows via the plan's SpMM kernel.

        ``xs`` is ``(n_queries, ncols)``; row ``i`` of the result is
        bitwise identical to ``spmv(xs[i])``.
        """
        return self.plan().spmv_batch(xs, jobs=jobs)

    def spmv_naive(self, x: np.ndarray,
                   y: Optional[np.ndarray] = None) -> np.ndarray:
        """Reference execution re-expanding the stream on every call.

        Kept as the plan's correctness oracle and the benchmark
        baseline: expand to per-slot coordinates, then scatter-add with
        ``np.add.at``.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ValueError(
                f"x of shape {x.shape} incompatible with {self.shape}"
            )
        if y is None:
            y = np.zeros(self.shape[0], dtype=np.float64)
        else:
            y = np.array(y, dtype=np.float64)
        # Template cells may fall past the matrix edge (they only ever
        # carry zero padding there); compute on tile-aligned buffers and
        # crop, exactly as the hardware's edge tiles do.
        rows, cols, vals = self._expand()
        n_tile_rows = -(-self.shape[0] // self.tile_size)
        n_tile_cols = -(-self.shape[1] // self.tile_size)
        x_pad = np.zeros(n_tile_cols * self.tile_size, dtype=np.float64)
        x_pad[: x.size] = x
        y_pad = np.zeros(n_tile_rows * self.tile_size, dtype=np.float64)
        y_pad[: y.size] = y
        np.add.at(y_pad, rows, vals * x_pad[cols])
        return y_pad[: y.size]

    def spmm_naive(self, x_block: np.ndarray,
                   y_block: Optional[np.ndarray] = None) -> np.ndarray:
        """Reference multi-vector execution (per-call expansion).

        ``x_block`` is ``(ncols, n_vectors)``.  The sparse matrix is
        streamed once while each template group issues one VALU
        operation per vector; kept as the :meth:`spmm` plan's
        correctness oracle and benchmark baseline.
        """
        x_block = np.asarray(x_block, dtype=np.float64)
        if x_block.ndim != 2 or x_block.shape[0] != self.shape[1]:
            raise ValueError(
                f"X of shape {x_block.shape} incompatible with "
                f"{self.shape}"
            )
        n_vectors = x_block.shape[1]
        if y_block is None:
            y_block = np.zeros(
                (self.shape[0], n_vectors), dtype=np.float64
            )
        else:
            y_block = np.array(y_block, dtype=np.float64)
            if y_block.shape != (self.shape[0], n_vectors):
                raise ValueError(
                    f"Y of shape {y_block.shape} incompatible with "
                    f"{(self.shape[0], n_vectors)}"
                )
        rows, cols, vals = self._expand()
        n_tile_rows = -(-self.shape[0] // self.tile_size)
        n_tile_cols = -(-self.shape[1] // self.tile_size)
        x_pad = np.zeros(
            (n_tile_cols * self.tile_size, n_vectors), dtype=np.float64
        )
        x_pad[: self.shape[1]] = x_block
        y_pad = np.zeros(
            (n_tile_rows * self.tile_size, n_vectors), dtype=np.float64
        )
        y_pad[: self.shape[0]] = y_block
        np.add.at(y_pad, rows, vals[:, None] * x_pad[cols])
        return y_pad[: self.shape[0]]


def _template_cell_arrays(portfolio: Portfolio, k: int) -> tuple:
    """(n_templates, k) arrays of the row/col offset of each lane."""
    n = len(portfolio.masks)
    cell_r = np.zeros((n, k), dtype=np.int64)
    cell_c = np.zeros((n, k), dtype=np.int64)
    for t_idx, mask in enumerate(portfolio.masks):
        lane = 0
        for bit in range(k * k):
            if mask >> bit & 1:
                cell_r[t_idx, lane] = bit // k
                cell_c[t_idx, lane] = bit % k
                lane += 1
    return cell_r, cell_c


def _subset_templates(subsets: np.ndarray, tmpl_masks) -> tuple:
    """Member templates and their owned cells for each template subset.

    Returns ``(counts, tids, owned)``, concatenated over ``subsets``:
    subset ``i`` expands to ``counts[i]`` templates in ascending t_idx,
    and a member owns the cells of its mask that no earlier member
    covers (the overlap rule).  Built on one (subsets x templates) grid.
    """
    tmpl_masks = np.asarray(tmpl_masks, dtype=np.int64)
    member = (
        subsets[:, None] >> np.arange(tmpl_masks.size) & 1
    ).astype(bool)
    covered = np.bitwise_or.accumulate(
        np.where(member, tmpl_masks, 0), axis=1
    )
    covered_before = np.zeros_like(covered)
    covered_before[:, 1:] = covered[:, :-1]
    owned = (tmpl_masks & ~covered_before)[member]
    return member.sum(axis=1), np.nonzero(member)[1], owned


def encode_spasm(coo: COOMatrix, portfolio: Portfolio, tile_size: int,
                 table: Optional[DecompositionTable] = None,
                 masks: Optional[np.ndarray] = None,
                 sub_keys: Optional[np.ndarray] = None,
                 sub_nnz: Optional[np.ndarray] = None,
                 entry_order: Optional[np.ndarray] = None) -> SpasmMatrix:
    """Encode a COO matrix into the SPASM data format (steps ③ + ④).

    Parameters
    ----------
    coo:
        Source matrix (deduplicated COO: a coordinate stored twice
        raises ``ValueError`` naming it).
    portfolio:
        Template portfolio; t_idx order is the tuple order.
    tile_size:
        Tile edge length in elements (multiple of ``portfolio.k``).
    table:
        Optional pre-built :class:`DecompositionTable` for the portfolio
        (served from the process-wide :func:`repro.core.decompose.cached_table`
        when omitted).
    masks, sub_keys, sub_nnz, entry_order:
        Optional precomputed :func:`repro.core.patterns.submatrix_masks`
        output for ``coo`` (row-major keys and entry order), computed
        here unless all four are given.  The pipeline's analysis stage
        computes them once and threads them through, so the encoder
        sorts only the submatrices, not the nonzeros; they must belong
        to the same matrix and pattern size or a ``ValueError`` is
        raised.
    """
    k = portfolio.k
    tile_size = validate_tile_size(tile_size, k)
    if table is None:
        table = cached_table(portfolio)
    spt = tile_size // k
    nsubcols = -(-max(coo.shape[1], 1) // k)
    n_tile_cols = -(-max(coo.shape[1], 1) // tile_size)

    if coo.nnz == 0:
        return SpasmMatrix(
            shape=coo.shape,
            k=k,
            tile_size=tile_size,
            portfolio=portfolio,
            tile_rows=np.zeros(0, dtype=np.int64),
            tile_cols=np.zeros(0, dtype=np.int64),
            tile_ptr=np.zeros(1, dtype=np.int64),
            words=np.zeros(0, dtype=np.uint32),
            values=np.zeros((0, k), dtype=np.float64),
            source_nnz=0,
        )

    # --- submatrix grouping (stream order: tile row-major, then submatrix
    # row-major within the tile) ------------------------------------------
    # Step ①'s row-major grouping of the nonzeros (which also rejects a
    # duplicated coordinate) is reused: only the n_sub submatrices are
    # sorted into stream order, never the nonzeros again.
    if (masks is None or sub_keys is None or sub_nnz is None
            or entry_order is None):
        masks, sub_keys, sub_nnz, entry_order = submatrix_masks(coo, k)
    masks = np.asarray(masks, dtype=np.int64)
    sub_keys = np.asarray(sub_keys, dtype=np.int64)
    sub_nnz = np.asarray(sub_nnz, dtype=np.int64)
    entry_order = np.asarray(entry_order, dtype=np.int64)
    n_sub = sub_keys.size
    # Cheap ownership check, at submatrix scale: the sizes agree and the
    # first entry of every run recomputes to that run's key.
    run_ends = np.cumsum(sub_nnz)
    consistent = (
        n_sub > 0
        and masks.shape == sub_keys.shape == sub_nnz.shape
        and entry_order.shape == (coo.nnz,)
        and int(sub_nnz.min()) > 0
        and int(run_ends[-1]) == coo.nnz
    )
    if consistent:
        firsts = entry_order[run_ends - sub_nnz]
        consistent = np.array_equal(
            coo.rows[firsts] // k * nsubcols + coo.cols[firsts] // k,
            sub_keys,
        )
    if not consistent:
        raise ValueError(
            "precomputed analysis artifacts do not match the matrix "
            "being encoded (wrong matrix or pattern size?)"
        )

    sub_r = sub_keys // nsubcols
    sub_c = sub_keys % nsubcols
    tile_r = sub_r // spt
    tile_c = sub_c // spt
    r_idx = sub_r % spt
    c_idx = sub_c % spt
    perm = np.argsort(
        ((tile_r * n_tile_cols + tile_c) * spt + r_idx) * spt + c_idx,
        kind="stable",
    )
    sub_tile_r = tile_r[perm]
    sub_tile_c = tile_c[perm]
    sub_ridx = r_idx[perm]
    sub_cidx = c_idx[perm]
    masks = masks[perm]

    # Dense k*k value view of every non-empty submatrix, in stream
    # order: each row-major run scatters to its stream slot.
    stream_pos = np.empty(n_sub, dtype=np.int64)
    stream_pos[perm] = np.arange(n_sub) * (k * k)
    bit = (coo.rows % k) * k + (coo.cols % k)
    dense_vals = np.zeros((n_sub, k * k), dtype=np.float64)
    dense_vals.reshape(-1)[
        np.repeat(stream_pos, sub_nnz) + bit[entry_order]
    ] = coo.vals[entry_order]

    # --- decomposition (step 3) ------------------------------------------
    subsets = table.subset_array(masks)

    # Expand each submatrix into its template instances.  Precompute the
    # t_idx list and first-cover ownership mask per *distinct* subset.
    unique_subsets = np.unique(subsets)
    tid_counts, tid_flat, owned_flat = _subset_templates(
        unique_subsets, portfolio.masks
    )
    tid_offsets = np.concatenate(([0], np.cumsum(tid_counts)))

    loc = np.searchsorted(unique_subsets, subsets)
    counts_per_sub = tid_counts[loc]
    n_groups = int(counts_per_sub.sum())
    group_sub = np.repeat(np.arange(n_sub), counts_per_sub)
    base = np.repeat(tid_offsets[loc], counts_per_sub)
    pos_in_sub = np.arange(n_groups) - np.repeat(
        np.concatenate(([0], np.cumsum(counts_per_sub)))[:-1],
        counts_per_sub,
    )
    flat_idx = base + pos_in_sub
    group_tid = tid_flat[flat_idx]
    group_owned = owned_flat[flat_idx]

    # --- value payload -----------------------------------------------------
    cell_r, cell_c = _template_cell_arrays(portfolio, k)
    # int32: lane ids fit in a byte; the (n_groups, k) gather grid below
    # is the encoder's largest intermediate, so the narrow dtype halves
    # its traffic.
    cell_bit = (cell_r * k + cell_c).astype(np.int32)  # (n_templates, k)
    lane_bits = cell_bit[group_tid]  # (n_groups, k)
    lane_owned = (group_owned[:, None] >> lane_bits & 1).astype(bool)
    values = dense_vals[group_sub[:, None], lane_bits] * lane_owned

    # --- position words ------------------------------------------------------
    group_tile_key = (
        sub_tile_r[group_sub] * n_tile_cols + sub_tile_c[group_sub]
    )
    # Groups are in stream order, so tile boundaries are where the key
    # changes; CE marks the last group of each tile (x-buffer switch) and
    # RE the last group of each tile row (partial-sum flush).
    is_tile_last = np.empty(n_groups, dtype=bool)
    is_tile_last[:-1] = group_tile_key[1:] != group_tile_key[:-1]
    is_tile_last[-1] = True
    group_tile_r = sub_tile_r[group_sub]
    is_row_last = np.empty(n_groups, dtype=bool)
    is_row_last[:-1] = group_tile_r[1:] != group_tile_r[:-1]
    is_row_last[-1] = True

    words = pack_position_array(
        c_idx=sub_cidx[group_sub],
        r_idx=sub_ridx[group_sub],
        ce=is_tile_last,
        re=is_row_last,
        t_idx=group_tid,
    )

    # --- tile directory ------------------------------------------------------
    # A tile starts right after the previous tile's CE group.
    tile_starts = np.flatnonzero(np.concatenate(([True], is_tile_last[:-1])))
    unique_tiles = group_tile_key[tile_starts]
    tile_ptr = np.concatenate((tile_starts, [n_groups])).astype(np.int64)

    return SpasmMatrix(
        shape=coo.shape,
        k=k,
        tile_size=tile_size,
        portfolio=portfolio,
        tile_rows=(unique_tiles // n_tile_cols).astype(np.int64),
        tile_cols=(unique_tiles % n_tile_cols).astype(np.int64),
        tile_ptr=tile_ptr,
        words=words,
        values=values.astype(np.float64),
        source_nnz=coo.nnz,
    )



def groups_per_submatrix(coo: COOMatrix, table: DecompositionTable,
                         k: int = DEFAULT_K,
                         masks: Optional[np.ndarray] = None,
                         sub_keys: Optional[np.ndarray] = None) -> tuple:
    """Template-group count of every non-empty submatrix.

    Returns ``(counts, sub_keys)`` for
    :func:`repro.core.tiling.global_compositions`; this is the
    tile-size-independent part of the encoding that Algorithm 4 reuses
    across its tile-size sweep.  Passing the precomputed
    :func:`repro.core.patterns.submatrix_masks` output skips the mask
    recomputation (the pipeline's artifact-reuse path).
    """
    if masks is None or sub_keys is None:
        masks, sub_keys = submatrix_masks(coo, k)[:2]
    else:
        masks = np.asarray(masks, dtype=np.int64)
        sub_keys = np.asarray(sub_keys, dtype=np.int64)
    subsets = table.subset_array(masks)
    counts = _subset_sizes(subsets, len(table.masks))
    return counts, sub_keys


def _subset_sizes(subsets: np.ndarray, n_templates: int) -> np.ndarray:
    """Popcount of subset bitmasks (n_templates <= 16)."""
    from repro.core.bitmask import popcount_array

    return popcount_array(np.asarray(subsets, dtype=np.int64))
