"""Format rules (paper Section III).

These rules check the two-level SPASM structure itself: the tile
directory (row-major stream order, bounds, offsets), the decoded value
payload (first-template overlap rule, nnz conservation, matrix
bounds), the portfolio's coverage obligation, and — when the source
matrix is available — exact decode round-trip equality.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.verify.diagnostics import Diagnostic, Location, WARNING
from repro.verify.rules import (
    KIND_OPCODE,
    KIND_SPASM,
    MAX_OCCURRENCES,
    Rule,
    VerifyContext,
    register,
)


@register
class StructuralIntegrity(Rule):
    rule_id = "fmt.structure"
    kinds = (KIND_SPASM,)
    title = ("tile directory offsets, array shapes and the tile size "
             "are mutually consistent")
    paper = "III (two-level encoding)"
    requires = ("spasm",)

    def check(self, ctx: VerifyContext) -> Iterator[Diagnostic]:
        spasm = ctx.spasm
        ptr = np.asarray(spasm.tile_ptr)
        if ptr.size != spasm.n_tiles + 1:
            yield self.diag(
                f"tile_ptr has {ptr.size} entries for "
                f"{spasm.n_tiles} tiles (want n_tiles + 1)",
                tile_ptr_size=int(ptr.size),
                n_tiles=spasm.n_tiles,
            )
        elif ptr.size:
            if ptr[0] != 0 or ptr[-1] != spasm.n_groups:
                yield self.diag(
                    f"tile_ptr spans [{int(ptr[0])}, {int(ptr[-1])}], "
                    f"want [0, {spasm.n_groups}]",
                    first=int(ptr[0]),
                    last=int(ptr[-1]),
                    n_groups=spasm.n_groups,
                )
            steps = np.diff(ptr)
            neg = np.flatnonzero(steps < 0)
            for t in neg[:MAX_OCCURRENCES]:
                yield self.diag(
                    "tile_ptr decreases",
                    location=ctx.tile_location(int(t)),
                    count=int(neg.size),
                )
        if spasm.tile_rows.size != spasm.tile_cols.size:
            yield self.diag(
                f"tile coordinate arrays disagree "
                f"({spasm.tile_rows.size} rows vs "
                f"{spasm.tile_cols.size} cols)",
            )
        if spasm.values.shape != (spasm.n_groups, spasm.k):
            yield self.diag(
                f"values shape {spasm.values.shape} != "
                f"({spasm.n_groups}, {spasm.k})",
            )
        try:
            from repro.core.tiling import validate_tile_size

            validate_tile_size(spasm.tile_size, spasm.k)
        except ValueError as exc:
            yield self.diag(str(exc), tile_size=spasm.tile_size)
        if spasm.words.dtype != np.uint32:
            yield self.diag(
                f"position words stored as {spasm.words.dtype}, not "
                "uint32",
                severity=WARNING,
            )


@register
class TileStreamOrder(Rule):
    rule_id = "fmt.tile_order"
    kinds = (KIND_SPASM,)
    title = ("tile directory is in row-major stream order with no "
             "duplicate or empty tiles")
    paper = "III (row-major tile streaming)"
    requires = ("spasm",)

    def check(self, ctx: VerifyContext) -> Iterator[Diagnostic]:
        spasm = ctx.spasm
        if not ctx.structure_ok or spasm.n_tiles == 0:
            return
        n_tile_cols = -(-max(spasm.shape[1], 1) // spasm.tile_size)
        key = (
            spasm.tile_rows.astype(np.int64) * n_tile_cols
            + spasm.tile_cols.astype(np.int64)
        )
        bad = np.flatnonzero(key[1:] <= key[:-1])
        for i in bad[:MAX_OCCURRENCES]:
            t = int(i) + 1
            kind = "duplicates" if key[t] == key[t - 1] else "precedes"
            yield self.diag(
                f"tile {kind} its predecessor in row-major stream "
                "order (an entire tile row must complete before the "
                "next starts)",
                location=ctx.tile_location(t),
                count=int(bad.size),
            )
        empty = np.flatnonzero(np.diff(spasm.tile_ptr) == 0)
        for t in empty[:MAX_OCCURRENCES]:
            yield self.diag(
                "directory lists a tile with zero groups",
                location=ctx.tile_location(int(t)),
                severity=WARNING,
                count=int(empty.size),
            )


@register
class TileBounds(Rule):
    rule_id = "fmt.tile_bounds"
    kinds = (KIND_SPASM,)
    title = "tile coordinates lie inside the tiled matrix extent"
    paper = "III (global composition)"
    requires = ("spasm",)

    def check(self, ctx: VerifyContext) -> Iterator[Diagnostic]:
        spasm = ctx.spasm
        if spasm.tile_rows.size == 0:
            return
        n_tile_rows = -(-max(spasm.shape[0], 1) // spasm.tile_size)
        n_tile_cols = -(-max(spasm.shape[1], 1) // spasm.tile_size)
        bad = np.flatnonzero(
            (spasm.tile_rows < 0)
            | (spasm.tile_rows >= n_tile_rows)
            | (spasm.tile_cols < 0)
            | (spasm.tile_cols >= n_tile_cols)
        )
        for t in bad[:MAX_OCCURRENCES]:
            yield self.diag(
                f"tile coordinate "
                f"({int(spasm.tile_rows[t])}, {int(spasm.tile_cols[t])})"
                f" outside the {n_tile_rows}x{n_tile_cols} tile grid",
                location=ctx.tile_location(int(t)),
                grid=(n_tile_rows, n_tile_cols),
                count=int(bad.size),
            )


@register
class OverlapRule(Rule):
    rule_id = "fmt.overlap"
    kinds = (KIND_SPASM,)
    title = ("no matrix cell is carried by more than one group "
             "(first-template overlap rule)")
    paper = "III (overlap rule: later slots are zero padding)"
    requires = ("spasm",)

    def check(self, ctx: VerifyContext) -> Iterator[Diagnostic]:
        spasm = ctx.spasm
        if spasm.n_groups == 0 or not ctx.decodable:
            return
        rows, cols, vals = ctx.expanded
        nz = np.flatnonzero(vals != 0.0)
        if nz.size == 0:
            return
        stride = int(cols.max()) + 1
        keys = rows[nz].astype(np.int64) * stride + cols[nz]
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]
        dup = np.flatnonzero(keys_sorted[1:] == keys_sorted[:-1])
        for i in dup[:MAX_OCCURRENCES]:
            slot = int(nz[order[i + 1]])
            first_slot = int(nz[order[i]])
            yield self.diag(
                f"matrix cell ({int(rows[slot])}, {int(cols[slot])}) "
                "is carried non-zero by two groups; overlapping "
                "template cells must be zero padding after the first "
                "template",
                location=ctx.group_location(slot // spasm.k),
                cell=(int(rows[slot]), int(cols[slot])),
                first_group=first_slot // spasm.k,
                count=int(dup.size),
            )


@register
class ValueBounds(Rule):
    rule_id = "fmt.value_bounds"
    kinds = (KIND_SPASM,)
    title = "non-zero values decode to cells inside the matrix shape"
    paper = "III (edge tiles carry only zero padding past the edge)"
    requires = ("spasm",)

    def check(self, ctx: VerifyContext) -> Iterator[Diagnostic]:
        spasm = ctx.spasm
        if spasm.n_groups == 0 or not ctx.decodable:
            return
        rows, cols, vals = ctx.expanded
        bad = np.flatnonzero(
            (vals != 0.0)
            & ((rows >= spasm.shape[0]) | (cols >= spasm.shape[1]))
        )
        for slot in bad[:MAX_OCCURRENCES]:
            yield self.diag(
                f"non-zero value decodes to "
                f"({int(rows[slot])}, {int(cols[slot])}) outside the "
                f"matrix shape {spasm.shape}",
                location=ctx.group_location(int(slot) // spasm.k),
                cell=(int(rows[slot]), int(cols[slot])),
                count=int(bad.size),
            )


@register
class NnzConservation(Rule):
    rule_id = "fmt.nnz"
    kinds = (KIND_SPASM,)
    title = ("stored non-zero count is conserved against the source "
             "matrix's nnz")
    paper = "III / V-B (padding accounting)"
    requires = ("spasm",)

    def check(self, ctx: VerifyContext) -> Iterator[Diagnostic]:
        spasm = ctx.spasm
        stored = int(np.count_nonzero(spasm.values))
        if stored > spasm.source_nnz:
            yield self.diag(
                f"{stored} stored non-zero values exceed the "
                f"{spasm.source_nnz} source non-zeros",
                stored=stored,
                source_nnz=spasm.source_nnz,
            )
        elif stored < spasm.source_nnz:
            yield self.diag(
                f"only {stored} of {spasm.source_nnz} source non-zeros "
                "are stored (explicit zeros in the source, or lost "
                "values)",
                severity=WARNING,
                stored=stored,
                source_nnz=spasm.source_nnz,
            )


@register
class PortfolioCoverage(Rule):
    rule_id = "fmt.portfolio"
    kinds = (KIND_SPASM, KIND_OPCODE)
    title = ("portfolio has <= 16 fixed-length templates whose union "
             "covers the k-by-k grid")
    paper = "II-C / V-C (portfolio constraints)"
    requires = ("portfolio",)

    def check(self, ctx: VerifyContext) -> Iterator[Diagnostic]:
        from repro.core.bitmask import full_mask, popcount
        from repro.core.templates import MAX_TEMPLATES

        portfolio = ctx.portfolio
        k = portfolio.k
        masks = portfolio.masks
        if len(masks) > MAX_TEMPLATES:
            yield self.diag(
                f"{len(masks)} templates exceed the 4-bit t_idx "
                f"address space ({MAX_TEMPLATES})",
                n_templates=len(masks),
            )
        grid = full_mask(k)
        union = 0
        for t, mask in enumerate(masks):
            union |= mask
            if popcount(mask) != k:
                yield self.diag(
                    f"template t_idx={t} has {popcount(mask)} cells; "
                    f"fixed-length templates need exactly {k}",
                    location=Location(t_idx=t),
                    mask=int(mask),
                )
            if mask & ~grid:
                yield self.diag(
                    f"template t_idx={t} leaves the {k}x{k} grid",
                    location=Location(t_idx=t),
                    mask=int(mask),
                )
        if union != grid:
            yield self.diag(
                "portfolio union does not cover the grid; patterns "
                "touching uncovered cells would be undecomposable",
                missing_cells=int(grid & ~union),
            )
        if len(set(masks)) != len(masks):
            yield self.diag("portfolio contains duplicate templates")


@register
class CanonicalDecomposition(Rule):
    rule_id = "fmt.decomposition"
    kinds = (KIND_SPASM,)
    title = ("each submatrix's groups are the canonical minimum-padding"
             " decomposition of its observed pattern")
    paper = "III (Listing 1 decomposition)"
    requires = ("spasm",)

    def check(self, ctx: VerifyContext) -> Iterator[Diagnostic]:
        from repro.core.bitmask import DEFAULT_K, popcount_array
        from repro.core.decompose import cached_table
        from repro.core.format import _template_cell_arrays

        spasm = ctx.spasm
        if spasm.n_groups == 0 or not ctx.decodable:
            return
        if spasm.k > DEFAULT_K:
            # The exhaustive 2^(k*k) table is intractable past k=4.
            return
        fields = ctx.fields
        portfolio = spasm.portfolio
        # The process-wide table cache the compile's decomposition
        # stage filled: no second table, no second subset build.
        table = cached_table(portfolio.masks, spasm.k)
        k = spasm.k
        cell_r, cell_c = _template_cell_arrays(portfolio, k)
        cell_bit = (cell_r * k + cell_c).astype(np.int64)
        lane_bits = cell_bit[fields["t_idx"]]  # (n_groups, k)
        nz = spasm.values != 0.0
        group_mask = (
            (np.int64(1) << lane_bits) * nz
        ).sum(axis=1)

        spt = max(spasm.tile_size // k, 1)
        subkey = (
            (ctx.tile_of_group * spt + fields["r_idx"]) * spt
            + fields["c_idx"]
        )
        order = np.argsort(subkey, kind="stable")
        sk = subkey[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sk[1:] != sk[:-1]))
        )
        counts = np.diff(np.append(starts, sk.size))
        sub_mask = np.bitwise_or.reduceat(group_mask[order], starts)
        actual_bits = np.bitwise_or.reduceat(
            np.int64(1) << fields["t_idx"][order], starts
        )
        expected_bits = table.subset_array(sub_mask)
        expected_counts = popcount_array(
            np.asarray(expected_bits, dtype=np.int64)
        )
        mismatch = np.flatnonzero(
            (actual_bits != expected_bits) | (counts != expected_counts)
        )
        for i in mismatch[:MAX_OCCURRENCES]:
            g = int(order[starts[i]])
            actual = [
                t for t in range(len(portfolio.masks))
                if int(actual_bits[i]) >> t & 1
            ]
            expected = [
                t for t in range(len(portfolio.masks))
                if int(expected_bits[i]) >> t & 1
            ]
            yield self.diag(
                f"submatrix uses templates {actual} but the canonical "
                f"minimum-padding decomposition of its pattern is "
                f"{expected}",
                location=ctx.group_location(
                    g,
                    r_idx=int(fields["r_idx"][g]),
                    c_idx=int(fields["c_idx"][g]),
                ),
                pattern=int(sub_mask[i]),
                actual=actual,
                expected=expected,
                count=int(mismatch.size),
            )


@register
class RoundTrip(Rule):
    rule_id = "fmt.roundtrip"
    kinds = (KIND_SPASM,)
    title = ("decoding the stream reproduces the source matrix exactly "
             "(only with a source matrix supplied)")
    paper = "III (lossless encoding)"
    requires = ("spasm", "source")

    def check(self, ctx: VerifyContext) -> Iterator[Diagnostic]:
        spasm = ctx.spasm
        source = ctx.source
        if not ctx.decodable:
            return
        if source.shape != spasm.shape:
            yield self.diag(
                f"encoded shape {spasm.shape} != source shape "
                f"{source.shape}",
            )
            return
        if spasm.n_groups == 0:
            if np.count_nonzero(source.vals):
                yield self.diag(
                    "stream is empty but the source matrix has "
                    "non-zeros",
                    source_nnz=int(np.count_nonzero(source.vals)),
                )
            return
        rows, cols, vals = ctx.expanded
        nz = np.flatnonzero(vals != 0.0)
        src_nz = np.flatnonzero(source.vals != 0.0)
        stride = max(
            int(cols.max(initial=0)) + 1,
            int(source.cols.max(initial=0)) + 1,
            spasm.shape[1],
            1,
        )
        dkeys = rows[nz].astype(np.int64) * stride + cols[nz]
        skeys = (
            source.rows[src_nz].astype(np.int64) * stride
            + source.cols[src_nz]
        )
        src_order = np.argsort(skeys, kind="stable")
        skeys_s = skeys[src_order]
        svals_s = source.vals[src_nz][src_order]

        pos = np.searchsorted(skeys_s, dkeys)
        safe = np.minimum(pos, max(skeys_s.size - 1, 0))
        found = (
            (pos < skeys_s.size) & (skeys_s[safe] == dkeys)
            if skeys_s.size
            else np.zeros(dkeys.size, dtype=bool)
        )
        spurious = np.flatnonzero(~found)
        for i in spurious[:MAX_OCCURRENCES]:
            slot = int(nz[i])
            yield self.diag(
                f"decoded non-zero at "
                f"({int(rows[slot])}, {int(cols[slot])}) does not "
                "exist in the source matrix",
                location=ctx.group_location(slot // spasm.k),
                cell=(int(rows[slot]), int(cols[slot])),
                count=int(spurious.size),
            )
        wrong = np.flatnonzero(found & (svals_s[safe] != vals[nz]))
        for i in wrong[:MAX_OCCURRENCES]:
            slot = int(nz[i])
            yield self.diag(
                f"decoded value {vals[slot]!r} at "
                f"({int(rows[slot])}, {int(cols[slot])}) differs from "
                f"the source value {float(svals_s[safe[i]])!r}",
                location=ctx.group_location(slot // spasm.k),
                cell=(int(rows[slot]), int(cols[slot])),
                count=int(wrong.size),
            )

        dkeys_s = np.sort(dkeys)
        pos2 = np.searchsorted(dkeys_s, skeys_s)
        safe2 = np.minimum(pos2, max(dkeys_s.size - 1, 0))
        present = (
            (pos2 < dkeys_s.size) & (dkeys_s[safe2] == skeys_s)
            if dkeys_s.size
            else np.zeros(skeys_s.size, dtype=bool)
        )
        missing = np.flatnonzero(~present)
        for i in missing[:MAX_OCCURRENCES]:
            r = int(skeys_s[i]) // stride
            c = int(skeys_s[i]) % stride
            yield self.diag(
                f"source non-zero at ({r}, {c}) is missing from the "
                "decoded stream",
                location=Location(
                    tile_row=r // spasm.tile_size,
                    tile_col=c // spasm.tile_size,
                ),
                cell=(r, c),
                count=int(missing.size),
            )
