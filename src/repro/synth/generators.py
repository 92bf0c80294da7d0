"""Structured sparse matrix generators.

Each generator targets one of the *local pattern* families the paper
identifies (row-wise, column-wise, diagonal, anti-diagonal, block, DBB)
or one of the *global compositions* of Table II (block diagonal, banded,
staircase, imbalanced dense rows, scale-free graphs).  All generators are
deterministic given their ``seed`` and return deduplicated
:class:`~repro.matrix.coo.COOMatrix` instances.
"""

from __future__ import annotations

import numpy as np

from repro.matrix.coo import COOMatrix


def _values(rng, count: int) -> np.ndarray:
    """Non-zero values: uniform in [0.5, 1.5] so nothing cancels."""
    return rng.uniform(0.5, 1.5, size=count)


def _coo(rows, cols, rng, shape) -> COOMatrix:
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    return COOMatrix(rows, cols, _values(rng, rows.size), shape)


def block_diagonal(n_blocks: int, block_size: int, fill: float = 1.0,
                   seed: int = 0) -> COOMatrix:
    """Dense (or DBB) blocks along the diagonal.

    ``fill == 1`` reproduces raefsky3's signature: a single fully dense
    4x4 local pattern accounting for 100% of the occurrences.  ``fill``
    below 1 produces density-bound blocks (DBB).
    """
    rng = np.random.default_rng(seed)
    n = n_blocks * block_size
    rows, cols = [], []
    offs = np.arange(block_size)
    rr = np.repeat(offs, block_size)
    cc = np.tile(offs, block_size)
    for b in range(n_blocks):
        if fill >= 1.0:
            keep = np.ones(rr.size, dtype=bool)
        else:
            keep = rng.random(rr.size) < fill
            if not keep.any():
                keep[rng.integers(rr.size)] = True
        rows.append(b * block_size + rr[keep])
        cols.append(b * block_size + cc[keep])
    return _coo(np.concatenate(rows), np.concatenate(cols), rng, (n, n))


def banded(n: int, bandwidth: int, fill: float = 0.6,
           seed: int = 0) -> COOMatrix:
    """Band matrix: entries within ``bandwidth`` of the diagonal.

    Models the af_shell / ML_Laplace family of structural FEM matrices.
    """
    rng = np.random.default_rng(seed)
    offsets = np.arange(-bandwidth, bandwidth + 1)
    rows, cols = [], []
    ridx = np.arange(n)
    for off in offsets:
        c = ridx + off
        valid = (c >= 0) & (c < n)
        keep = valid & (rng.random(n) < fill)
        rows.append(ridx[keep])
        cols.append(c[keep])
    return _coo(np.concatenate(rows), np.concatenate(cols), rng, (n, n))


def diagonal_stripes(n: int, offsets, fill: float = 1.0,
                     seed: int = 0) -> COOMatrix:
    """A few full (off-)diagonals — the tmt_sym / t2em electromagnetics
    shape whose local patterns are dominated by diagonal vectors."""
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    ridx = np.arange(n)
    for off in offsets:
        c = ridx + int(off)
        valid = (c >= 0) & (c < n)
        keep = valid & (rng.random(n) < fill)
        rows.append(ridx[keep])
        cols.append(c[keep])
    return _coo(np.concatenate(rows), np.concatenate(cols), rng, (n, n))


def anti_diagonal_stripes(n: int, offsets, fill: float = 1.0,
                          seed: int = 0) -> COOMatrix:
    """Anti-diagonal stripes (cells with ``row + col`` constant) — the
    c-73 shape whose 4x4 local patterns are anti-diagonal vectors."""
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    ridx = np.arange(n)
    for off in offsets:
        c = (n - 1 + int(off)) - ridx
        valid = (c >= 0) & (c < n)
        keep = valid & (rng.random(n) < fill)
        rows.append(ridx[keep])
        cols.append(c[keep])
    return _coo(np.concatenate(rows), np.concatenate(cols), rng, (n, n))


def fem_mesh(n_nodes: int, dof: int = 4, neighbors: int = 6,
             block_fill: float = 0.9, seed: int = 0) -> COOMatrix:
    """FEM-style matrix: a random near-diagonal node graph expanded into
    ``dof x dof`` blocks.

    This is the CFD family (ex11, rim, cfd2, Goodwin_054, 3dtube):
    block-sparse matrices whose local patterns mix blocks, rows and
    columns, with a banded global composition.  Each coupling block is a
    *structured* variant — fully dense with probability ``block_fill``,
    otherwise one of {first column, first row, block diagonal} — which
    reproduces the concentrated local-pattern histograms of real FEM
    matrices (a handful of block/vector patterns dominating).
    """
    rng = np.random.default_rng(seed)
    # Node adjacency: each node connects to itself and ~neighbors nearby
    # nodes (1-D mesh locality with jitter, giving a banded composition).
    src = np.repeat(np.arange(n_nodes), neighbors)
    jitter = rng.integers(-3 * neighbors, 3 * neighbors + 1, src.size)
    dst = np.clip(src + jitter, 0, n_nodes - 1)
    src = np.concatenate([src, np.arange(n_nodes)])
    dst = np.concatenate([dst, np.arange(n_nodes)])
    pairs = np.unique(src * n_nodes + dst)
    bsrc = pairs // n_nodes
    bdst = pairs % n_nodes
    nblocks = pairs.size

    offs = np.arange(dof)
    # Cell templates of the four block variants, as (dof*dof) bool rows.
    full = np.ones((dof, dof), dtype=bool)
    first_col = np.zeros((dof, dof), dtype=bool)
    first_col[:, 0] = True
    first_row = np.zeros((dof, dof), dtype=bool)
    first_row[0, :] = True
    diag = np.eye(dof, dtype=bool)
    variants = np.stack(
        [full.ravel(), first_col.ravel(), first_row.ravel(), diag.ravel()]
    )

    # Diagonal blocks are always fully dense (the mass/stiffness block);
    # couplings draw a structured variant.
    choice = np.where(
        bsrc == bdst,
        0,
        np.where(
            rng.random(nblocks) < block_fill,
            0,
            rng.integers(1, 4, nblocks),
        ),
    )
    cell_keep = variants[choice]  # (nblocks, dof*dof)

    rr = np.repeat(offs, dof)
    cc = np.tile(offs, dof)
    rows = (bsrc[:, None] * dof + rr[None, :])[cell_keep]
    cols = (bdst[:, None] * dof + cc[None, :])[cell_keep]
    n = n_nodes * dof
    return _coo(rows, cols, rng, (n, n))


def mycielskian_graph(order: int, seed: int = 0) -> COOMatrix:
    """Adjacency matrix of the Mycielskian graph M_order.

    The paper's mycielskian14 workload is the genuine SuiteSparse matrix
    of M14; the construction is exact and cheap, so we build the real
    graph at a reduced order (M_k has ``3 * 2**(k-2) - 1`` vertices and
    roughly 3.4x the edges of M_{k-1}).
    """
    if order < 2:
        raise ValueError("Mycielskian order must be >= 2")
    # M2 = K2.
    edges = {(0, 1)}
    n = 2
    for __ in range(order - 2):
        # Mycielskian step: vertices 0..n-1 (u), n..2n-1 (v copies), 2n (w).
        new_edges = set(edges)
        for (a, b) in edges:
            new_edges.add((a, n + b))
            new_edges.add((b, n + a))
        w = 2 * n
        for i in range(n):
            new_edges.add((n + i, w))
        edges = new_edges
        n = 2 * n + 1
    e = np.array(sorted(edges), dtype=np.int64)
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    rng = np.random.default_rng(seed)
    return _coo(rows, cols, rng, (n, n))


# The input of the symmetric_degree_sort tests (tests/test_reorder.py).
def power_law_graph(n: int,  # lint: allow(api.unused-public)
                    avg_degree: int = 8, exponent: float = 2.1,
                    seed: int = 0) -> COOMatrix:
    """Scale-free graph adjacency (preferential-attachment flavour)."""
    rng = np.random.default_rng(seed)
    # Degree-proportional endpoint sampling via a Zipf-like weight.
    weights = 1.0 / np.power(np.arange(1, n + 1), exponent - 1.0)
    weights /= weights.sum()
    m = n * avg_degree // 2
    src = rng.choice(n, size=m, p=weights)
    dst = rng.choice(n, size=m, p=weights)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    rows = np.concatenate([src, dst])
    cols = np.concatenate([dst, src])
    return _coo(rows, cols, rng, (n, n))


def random_uniform(n: int, density: float, seed: int = 0,
                   ncols: int = None) -> COOMatrix:
    """Uniformly scattered non-zeros (the pattern-less worst case)."""
    rng = np.random.default_rng(seed)
    ncols = n if ncols is None else ncols
    m = int(round(n * ncols * density))
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, ncols, m)
    return _coo(rows, cols, rng, (n, ncols))


def row_segments(n: int, segments_per_row_block: int = 2,
                 segment_len: int = 8, seed: int = 0) -> COOMatrix:
    """Horizontal runs of consecutive non-zeros.

    Yields row-wise (RW) dominated local patterns — the x104 signature
    (48.7% full-row pattern).
    """
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for r in range(n):
        starts = rng.integers(
            0, max(n - segment_len, 1), segments_per_row_block
        )
        for s in starts:
            rows.append(np.full(segment_len, r, dtype=np.int64))
            cols.append(np.arange(s, s + segment_len, dtype=np.int64))
    return _coo(np.concatenate(rows), np.concatenate(cols), rng, (n, n))


def staircase(n_steps: int, step_rows: int, step_cols: int,
              coupling_cols: int = 4, fill: float = 0.8,
              seed: int = 0) -> COOMatrix:
    """Staircase/block-angular structure of multistage stochastic LPs
    (the stormG2_1000 shape): diagonal stages plus coupling columns."""
    rng = np.random.default_rng(seed)
    nrows = n_steps * step_rows
    ncols = n_steps * step_cols + coupling_cols
    rows, cols = [], []
    for s in range(n_steps):
        r0, c0 = s * step_rows, s * step_cols
        rr = np.repeat(np.arange(step_rows), step_cols)
        cc = np.tile(np.arange(step_cols), step_rows)
        keep = rng.random(rr.size) < fill
        rows.append(r0 + rr[keep])
        cols.append(c0 + cc[keep])
        # Coupling columns at the far right of every stage.
        link_r = np.repeat(np.arange(step_rows), coupling_cols)
        link_c = np.tile(np.arange(coupling_cols), step_rows)
        keep = rng.random(link_r.size) < fill * 0.5
        rows.append(r0 + link_r[keep])
        cols.append(n_steps * step_cols + link_c[keep])
    return _coo(
        np.concatenate(rows), np.concatenate(cols), rng, (nrows, ncols)
    )


def dense_rows(n: int, n_dense: int, row_fill: float = 0.8,
               seed: int = 0) -> COOMatrix:
    """A few nearly dense rows at the bottom of an otherwise empty
    matrix — the classic source of workload imbalance (mip1)."""
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for i in range(n_dense):
        r = n - 1 - i
        keep = rng.random(n) < row_fill
        rows.append(np.full(int(keep.sum()), r, dtype=np.int64))
        cols.append(np.nonzero(keep)[0])
    return _coo(np.concatenate(rows), np.concatenate(cols), rng, (n, n))


def overlay(*matrices: COOMatrix) -> COOMatrix:
    """Union of several generators over a common bounding shape.

    Entries colliding at the same coordinate are summed (COO dedup).
    """
    if not matrices:
        raise ValueError("overlay needs at least one matrix")
    nrows = max(m.shape[0] for m in matrices)
    ncols = max(m.shape[1] for m in matrices)
    rows = np.concatenate([m.rows for m in matrices])
    cols = np.concatenate([m.cols for m in matrices])
    vals = np.concatenate([m.vals for m in matrices])
    return COOMatrix(rows, cols, vals, (nrows, ncols))
