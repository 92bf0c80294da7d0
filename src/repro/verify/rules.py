"""Rule base class, registry and the shared verification context.

A rule is a small, pure check over one artifact kind.  Rules register
themselves with :func:`register` at import time; the runner selects
them by artifact kind and feeds each a :class:`VerifyContext` with the
artifact plus lazily-computed derived views (decoded position fields,
group-to-tile mapping, cached decomposition tables), so individual
rules stay cheap and declarative.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.verify.diagnostics import (
    ERROR,
    Diagnostic,
    Location,
)

#: Artifact kinds a rule can apply to.
KIND_SPASM = "spasm"
KIND_OPCODE = "opcode"
KIND_MEMORY = "memory"

#: Cap on per-rule occurrence diagnostics (each carries the full count).
MAX_OCCURRENCES = 8


@dataclasses.dataclass
class VerifyContext:
    """Everything a rule may inspect, with cached derived views.

    Only the fields relevant to the artifact kind are populated; rules
    declare their needs via :attr:`Rule.requires` and are skipped when
    a required field is absent.
    """

    spasm: Optional[Any] = None  # repro.core.format.SpasmMatrix
    source: Optional[Any] = None  # repro.matrix.coo.COOMatrix
    config: Optional[Any] = None  # repro.hw.configs.HwConfig
    image: Optional[Any] = None  # repro.hw.memory_image.MemoryImage
    opcodes: Optional[Sequence[int]] = None
    portfolio: Optional[Any] = None  # repro.core.templates.Portfolio

    _fields: Optional[Dict[str, np.ndarray]] = dataclasses.field(
        default=None, repr=False
    )
    _tile_of_group: Optional[np.ndarray] = dataclasses.field(
        default=None, repr=False
    )
    _structure_ok: Optional[bool] = dataclasses.field(
        default=None, repr=False
    )
    _expanded: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = (
        dataclasses.field(default=None, repr=False)
    )

    # -- derived views -------------------------------------------------
    @property
    def fields(self) -> Dict[str, np.ndarray]:
        """Decoded position-word field arrays of the SPASM stream."""
        if self._fields is None:
            from repro.core.encoding import unpack_position_array

            assert self.spasm is not None
            self._fields = unpack_position_array(self.spasm.words)
        return self._fields

    @property
    def structure_ok(self) -> bool:
        """Whether the tile directory arrays are structurally sane.

        Rules that index through ``tile_ptr`` (boundary flags, group
        locations) must check this first; when it is false the
        ``fmt.structure`` rule has already reported errors and the
        dependent rules skip instead of crashing on malformed offsets.
        """
        if self._structure_ok is None:
            s = self.spasm
            assert s is not None
            ptr = np.asarray(s.tile_ptr)
            self._structure_ok = bool(
                ptr.size == s.n_tiles + 1
                and ptr.size >= 1
                and ptr[0] == 0
                and ptr[-1] == s.n_groups
                and not np.any(np.diff(ptr) < 0)
                and s.tile_rows.size == s.tile_cols.size
                and s.values.shape == (s.n_groups, s.k)
            )
        return self._structure_ok

    @property
    def tile_of_group(self) -> np.ndarray:
        """Tile index of every group (requires :attr:`structure_ok`)."""
        if self._tile_of_group is None:
            s = self.spasm
            assert s is not None
            self._tile_of_group = np.repeat(
                np.arange(s.n_tiles), np.diff(s.tile_ptr)
            )
        return self._tile_of_group

    @property
    def decodable(self) -> bool:
        """Whether the stream can be decoded to coordinates safely.

        Rules that expand groups to matrix cells need a sane tile
        directory and in-range ``t_idx`` fields; when either fails,
        ``fmt.structure`` / ``pos.t_range`` have already reported.
        """
        if not self.structure_ok:
            return False
        s = self.spasm
        if s.n_groups == 0:
            return True
        return bool(
            self.fields["t_idx"].max() < len(s.portfolio.masks)
        )

    @property
    def expanded(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decoded (rows, cols, values) of every stored slot.

        Only valid when :attr:`decodable`; slot ``i`` belongs to group
        ``i // k``.
        """
        if self._expanded is None:
            assert self.spasm is not None
            self._expanded = self.spasm._expand()
        return self._expanded

    def group_location(self, group: int, **extra: Any) -> Location:
        """Build a :class:`Location` for a global group index."""
        s = self.spasm
        assert s is not None
        tile: Optional[int] = None
        tile_row: Optional[int] = None
        tile_col: Optional[int] = None
        if self.structure_ok and s.n_tiles:
            tile = int(
                np.searchsorted(s.tile_ptr, group, side="right") - 1
            )
            tile = min(max(tile, 0), s.n_tiles - 1)
            tile_row = int(s.tile_rows[tile])
            tile_col = int(s.tile_cols[tile])
        return Location(
            tile=tile, tile_row=tile_row, tile_col=tile_col,
            group=int(group), **extra,
        )

    def tile_location(self, tile: int, **extra: Any) -> Location:
        """Build a :class:`Location` for a tile directory index."""
        s = self.spasm
        assert s is not None
        tile_row: Optional[int] = None
        tile_col: Optional[int] = None
        if 0 <= tile < s.tile_rows.size and tile < s.tile_cols.size:
            tile_row = int(s.tile_rows[tile])
            tile_col = int(s.tile_cols[tile])
        return Location(
            tile=int(tile), tile_row=tile_row, tile_col=tile_col, **extra
        )


class Rule:
    """Base class for one static invariant check.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding :class:`Diagnostic` records (none for a clean artifact).
    """

    #: Stable identifier, ``family.name`` (e.g. ``"pos.ce_boundary"``).
    rule_id: str = ""
    #: Artifact kinds the rule applies to.
    kinds: Tuple[str, ...] = (KIND_SPASM,)
    #: Default severity of this rule's diagnostics.
    severity: str = ERROR
    #: One-line description (surfaced in docs and ``--json`` output).
    title: str = ""
    #: Paper section whose invariant the rule enforces.
    paper: str = ""
    #: Context attributes that must be non-None for the rule to run.
    requires: Tuple[str, ...] = ()

    def check(self, ctx: VerifyContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diag(self, message: str, location: Optional[Location] = None,
             severity: Optional[str] = None,
             **details: Any) -> Diagnostic:
        """Build a diagnostic attributed to this rule."""
        return Diagnostic(
            rule_id=self.rule_id,
            severity=severity or self.severity,
            message=message,
            location=location or Location(),
            details=details,
        )


#: Global registry: rule_id -> rule instance.
REGISTRY: Dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding one instance of ``cls`` to the registry."""
    rule = cls()
    if not rule.rule_id:
        raise ValueError(f"{cls.__name__} does not define rule_id")
    if rule.rule_id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id!r}")
    REGISTRY[rule.rule_id] = rule
    return cls


def rules_for(kinds: Sequence[str]) -> List[Rule]:
    """All registered rules applicable to any of ``kinds``, id order."""
    wanted = set(kinds)
    return [
        rule
        for __, rule in sorted(REGISTRY.items())
        if wanted.intersection(rule.kinds)
    ]
