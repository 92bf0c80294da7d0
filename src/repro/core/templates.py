"""Template patterns and portfolios (paper Sections II-C and V-C).

A *template pattern* is a fixed-length local pattern: exactly ``k`` cells
of the k-by-k grid (4 cells for the paper's 4-by-4 submatrices, matching
the VALU's 4 multipliers).  A *portfolio* is an ordered set of at most 16
templates — the 4-bit ``t_idx`` field of the position encoding addresses
them — whose union must cover the whole grid so that every local pattern
is decomposable.

Table V's ten candidate portfolios are built from row-wise (RW),
column-wise (CW), block-wise (BW, 2x2 sampling windows), diagonal and
anti-diagonal families.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools

from repro.core.bitmask import (
    DEFAULT_K,
    antidiag_mask,
    block_mask,
    col_mask,
    diag_mask,
    full_mask,
    popcount,
    render_mask,
    row_mask,
)

#: Maximum number of templates addressable by the 4-bit t_idx field.
MAX_TEMPLATES = 16


class PortfolioError(ValueError):
    """Raised when a portfolio violates the format constraints."""


@dataclasses.dataclass(frozen=True)
class Template:
    """One template pattern.

    Attributes
    ----------
    mask:
        Cell bitmask (bit ``r * k + c``).
    name:
        Short human-readable label, e.g. ``"RW0"`` or ``"BW(1,1)"``.
    kind:
        Family tag: ``"RW"``, ``"CW"``, ``"BW"``, ``"DIAG"``, ``"ADIAG"``
        or ``"CUSTOM"``.
    """

    mask: int
    name: str
    kind: str = "CUSTOM"

    def cells(self, k: int = DEFAULT_K) -> list:
        """The (row, col) cells of this template in bit order."""
        from repro.core.bitmask import coords_from_mask

        return coords_from_mask(self.mask, k)

    def render(self, k: int = DEFAULT_K) -> str:
        """ASCII-art rendering."""
        return render_mask(self.mask, k)


@dataclasses.dataclass(frozen=True)
class Portfolio:
    """An ordered template portfolio.

    Attributes
    ----------
    templates:
        Tuple of :class:`Template`; position in the tuple is the
        ``t_idx`` the position encoding stores.
    k:
        Local pattern size.
    name:
        Label used in reports (``"portfolio-0"`` .. ``"portfolio-9"`` for
        the Table V candidates, or ``"dynamic"`` for per-matrix builds).
    description:
        Table V style description of the composition.
    """

    templates: tuple
    k: int = DEFAULT_K
    name: str = "custom"
    description: str = ""

    def __post_init__(self):
        if not self.templates:
            raise PortfolioError("portfolio must contain templates")
        if len(self.templates) > MAX_TEMPLATES:
            raise PortfolioError(
                f"portfolio holds {len(self.templates)} templates; the "
                f"4-bit t_idx field addresses at most {MAX_TEMPLATES}"
            )
        grid = full_mask(self.k)
        union = 0
        for tmpl in self.templates:
            if popcount(tmpl.mask) != self.k:
                raise PortfolioError(
                    f"template {tmpl.name} has {popcount(tmpl.mask)} cells; "
                    f"templates must have fixed length k={self.k}"
                )
            if tmpl.mask & ~grid:
                raise PortfolioError(
                    f"template {tmpl.name} leaves the {self.k}x{self.k} grid"
                )
            union |= tmpl.mask
        if union != grid:
            raise PortfolioError(
                f"portfolio {self.name} does not cover the grid; patterns "
                "touching uncovered cells would be undecomposable"
            )
        masks = [t.mask for t in self.templates]
        if len(set(masks)) != len(masks):
            raise PortfolioError("portfolio contains duplicate templates")

    @property
    def masks(self) -> tuple:
        """Template masks in t_idx order."""
        return tuple(t.mask for t in self.templates)

    def __len__(self) -> int:
        return len(self.templates)

    def __iter__(self):
        return iter(self.templates)

    def describe(self) -> str:
        """Multi-line report of the portfolio contents."""
        lines = [f"{self.name}: {self.description}".rstrip(": ")]
        for t_idx, tmpl in enumerate(self.templates):
            lines.append(f"  t_idx={t_idx:2d} {tmpl.kind:5s} {tmpl.name}")
        return "\n".join(lines)


def row_templates(k: int = DEFAULT_K) -> list:
    """The k row-wise templates."""
    return [Template(row_mask(r, k), f"RW{r}", "RW") for r in range(k)]


def col_templates(k: int = DEFAULT_K) -> list:
    """The k column-wise templates."""
    return [Template(col_mask(c, k), f"CW{c}", "CW") for c in range(k)]


def diag_templates(k: int = DEFAULT_K) -> list:
    """The k cyclic diagonal templates."""
    return [Template(diag_mask(s, k), f"DIAG{s}", "DIAG") for s in range(k)]


def antidiag_templates(k: int = DEFAULT_K) -> list:
    """The k cyclic anti-diagonal templates."""
    return [
        Template(antidiag_mask(s, k), f"ADIAG{s}", "ADIAG") for s in range(k)
    ]


def block_templates_aligned(k: int = DEFAULT_K) -> list:
    """2x2 blocks on the aligned (even) grid: 4 templates for k=4."""
    if k % 2:
        raise PortfolioError(f"aligned 2x2 blocks need even k, got {k}")
    out = []
    for r0 in range(0, k, 2):
        for c0 in range(0, k, 2):
            out.append(
                Template(block_mask(r0, c0, 2, 2, k), f"BW({r0},{c0})", "BW")
            )
    return out


def block_templates_shifted(k: int = DEFAULT_K) -> list:
    """2x2 blocks shifted by one cell (cross arrangement): 4 for k=4.

    Together with the aligned placements these form the "8 BW patterns"
    of portfolios 3 and 5-9 in Table V.
    """
    if k != 4:
        raise PortfolioError("shifted 2x2 blocks are defined for k=4")
    anchors = [(0, 1), (1, 0), (1, 2), (2, 1)]
    return [
        Template(block_mask(r0, c0, 2, 2, k), f"BW({r0},{c0})", "BW")
        for r0, c0 in anchors
    ]


def block_templates_torus(k: int = DEFAULT_K) -> list:
    """All k*k wrap-around 2x2 sampling-window placements.

    This is our reading of Table V's "16 BW patterns with different
    sampling window placement" for portfolio 2: a 2x2 window anchored at
    every cell of the grid, wrapping torus-style, gives exactly 16
    distinct 4-cell templates for k=4.
    """
    out = []
    for r0 in range(k):
        for c0 in range(k):
            out.append(
                Template(
                    block_mask(r0, c0, 2, 2, k, wrap=True),
                    f"BW({r0},{c0})w",
                    "BW",
                )
            )
    return out


def block_templates_8(k: int = DEFAULT_K) -> list:
    """The 8 BW templates (aligned + shifted) used by portfolios 3, 5-9."""
    return block_templates_aligned(k) + block_templates_shifted(k)


def build_portfolio(spec: str, k: int = DEFAULT_K, name: str = "custom",
                    description: str = "") -> Portfolio:
    """Build a portfolio from a ``+``-separated family spec.

    Recognized family tokens: ``rw``, ``cw``, ``diag``, ``adiag``,
    ``bw4`` (aligned), ``bw8`` (aligned + shifted), ``bw16`` (torus).
    Example: ``build_portfolio("rw+cw+bw4+diag")`` reproduces Table V's
    portfolio 0.
    """
    families = {
        "rw": row_templates,
        "cw": col_templates,
        "diag": diag_templates,
        "adiag": antidiag_templates,
        "bw4": block_templates_aligned,
        "bw8": block_templates_8,
        "bw16": block_templates_torus,
    }
    templates = []
    for token in spec.split("+"):
        token = token.strip().lower()
        if token not in families:
            raise PortfolioError(
                f"unknown family {token!r}; choose from {sorted(families)}"
            )
        templates.extend(families[token](k))
    return Portfolio(
        tuple(templates), k=k, name=name, description=description or spec
    )


#: Table V candidate portfolio specs, indexed by portfolio ID.
CANDIDATE_SPECS = (
    ("rw+cw+bw4+diag", "4 RW, 4 CW, 4 BW, 4 diagonal"),
    ("rw+cw+bw4+adiag", "4 RW, 4 CW, 4 BW, 4 anti-diagonal"),
    ("bw16", "16 BW with different sampling window placement"),
    ("rw+cw+bw8", "4 RW, 4 CW, 8 BW"),
    ("rw+cw+diag+adiag", "4 RW, 4 CW, 4 diagonal, 4 anti-diagonal"),
    ("bw8+diag+adiag", "8 BW, 4 diagonal, 4 anti-diagonal"),
    ("rw+bw8+diag", "4 RW, 8 BW, 4 diagonal"),
    ("cw+bw8+diag", "4 CW, 8 BW, 4 diagonal"),
    ("rw+bw8+adiag", "4 RW, 8 BW, 4 anti-diagonal"),
    ("cw+bw8+adiag", "4 CW, 8 BW, 4 anti-diagonal"),
)


def candidate_portfolios(k: int = DEFAULT_K) -> list:
    """The ten Table V candidate portfolios (k=4 only for the BW specs).

    For other pattern sizes (the Figure 9 sweep) the block families do not
    produce length-k templates, so the candidates degrade to the vector
    families that remain well defined: RW/CW/diag/adiag combinations.
    The frozen portfolios are built once per ``k``; every call returns a
    fresh list of them.
    """
    return list(_candidate_portfolios(k))


@functools.lru_cache(maxsize=None)
def _candidate_portfolios(k: int) -> tuple:
    if k == DEFAULT_K:
        return tuple(
            build_portfolio(spec, k, name=f"portfolio-{i}", description=desc)
            for i, (spec, desc) in enumerate(CANDIDATE_SPECS)
        )
    vector_specs = (
        ("rw+cw", "RW + CW"),
        ("rw+diag", "RW + diagonal"),
        ("cw+diag", "CW + diagonal"),
        ("rw+cw+diag+adiag", "RW + CW + diagonal + anti-diagonal"),
    )
    out = []
    for i, (spec, desc) in enumerate(vector_specs):
        try:
            out.append(
                build_portfolio(
                    spec, k, name=f"portfolio-{i}", description=desc
                )
            )
        except PortfolioError:
            continue
    return tuple(out)


def template_universe(k: int = DEFAULT_K):
    """Yield every possible fixed-length template as a raw mask.

    For k=4 this enumerates the C(16, 4) = 1820 possible template
    patterns the paper mentions in Section V-C.
    """
    for cells in itertools.combinations(range(k * k), k):
        mask = 0
        for bit in cells:
            mask |= 1 << bit
        yield mask
