"""Tests for the static invariant checker (repro.verify)."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import candidate_portfolios, encode_spasm, load_spasm, save_spasm
from repro.core.format import FormatError
from repro.hw import SPASM_4_1, SpasmAccelerator
from repro.hw.hazards import hazard_aware_reorder
from repro.hw.memory_image import pack_images
from repro.hw.opcode import opcode_table
from repro.matrix import COOMatrix
from repro.verify import (
    KIND_OPCODE,
    REGISTRY,
    Report,
    VerificationError,
    VerifyContext,
    run_rules,
    verify_memory_image,
    verify_spasm,
)

TILE = 32


def random_coo(seed=0, n=64, nnz=300):
    rng = np.random.default_rng(seed)
    idx = rng.choice(n * n, size=nnz, replace=False)
    vals = rng.uniform(1.0, 2.0, size=nnz)  # nonzero values only
    return COOMatrix(idx // n, idx % n, vals, shape=(n, n))


@pytest.fixture(scope="module")
def portfolio():
    return candidate_portfolios()[0]


@pytest.fixture(scope="module")
def coo():
    return random_coo()


@pytest.fixture()
def spasm(coo, portfolio):
    return encode_spasm(coo, portfolio, TILE)


def error_rules(report):
    return {d.rule_id for d in report.errors}


def verify_opcodes(opcodes, portfolio):
    """Run the opcode rules alone (verify_spasm runs them per stream)."""
    ctx = VerifyContext(opcodes=list(opcodes), portfolio=portfolio)
    return run_rules(ctx, [KIND_OPCODE])


class TestCleanArtifacts:
    def test_fresh_stream_is_clean(self, spasm, coo):
        report = verify_spasm(spasm, source=coo)
        assert report.ok
        assert not report.diagnostics
        assert len(report.rules_run) >= 12

    def test_empty_stream_is_clean(self, portfolio):
        empty = encode_spasm(
            COOMatrix([], [], [], (TILE, TILE)), portfolio, TILE
        )
        assert verify_spasm(empty).ok

    def test_hazard_reordered_has_no_errors(self, spasm, coo):
        reordered = hazard_aware_reorder(spasm)
        report = verify_spasm(reordered, source=coo)
        assert report.ok  # warnings (stream order) are acceptable

    def test_memory_image_is_clean(self, spasm):
        image = pack_images(spasm, SPASM_4_1)
        report = verify_memory_image(image, spasm=spasm)
        assert report.ok
        assert not report.diagnostics

    def test_opcode_table_is_clean(self, portfolio):
        report = verify_opcodes(opcode_table(portfolio), portfolio)
        assert report.ok

    def test_deserialized_is_clean(self, spasm, tmp_path):
        path = tmp_path / "t.npz"
        save_spasm(path, spasm)
        assert verify_spasm(load_spasm(path, verify=True)).ok


class TestPositionRules:
    def test_c_range(self, spasm):
        spasm.words[0] |= np.uint32(0x1FFF)
        assert "pos.c_range" in error_rules(verify_spasm(spasm))

    def test_r_range(self, spasm):
        spasm.words[0] |= np.uint32(0x1FFF) << np.uint32(13)
        assert "pos.r_range" in error_rules(verify_spasm(spasm))

    def test_t_range(self, coo):
        from repro.core import build_portfolio

        small = build_portfolio("rw+cw")  # 8 templates
        spasm = encode_spasm(coo, small, TILE)
        spasm.words[0] |= np.uint32(0xF) << np.uint32(28)
        assert "pos.t_range" in error_rules(verify_spasm(spasm))

    def test_ce_boundary(self, spasm):
        spasm.words[0] ^= np.uint32(1) << np.uint32(26)
        report = verify_spasm(spasm)
        assert "pos.ce_boundary" in error_rules(report)
        # the diagnostic points at the exact group
        diag = next(
            d for d in report.errors if d.rule_id == "pos.ce_boundary"
        )
        assert diag.location.group == 0
        assert diag.location.tile == 0

    def test_re_boundary(self, spasm):
        spasm.words[0] ^= np.uint32(1) << np.uint32(27)
        assert "pos.re_boundary" in error_rules(verify_spasm(spasm))

    def test_duplicate_group(self, spasm):
        tile0 = slice(spasm.tile_ptr[0], spasm.tile_ptr[1])
        if spasm.words[tile0].size < 2:
            pytest.skip("first tile has a single group")
        # copy group 0's word onto group 1 (drop only the CE/RE flags)
        spasm.words[1] = spasm.words[0] & ~np.uint32(0x3 << 26)
        report = verify_spasm(spasm)
        assert "pos.duplicate_group" in error_rules(report)

    def test_stream_order_is_warning(self, spasm, coo):
        reordered = hazard_aware_reorder(spasm)
        report = verify_spasm(reordered, source=coo)
        assert report.ok
        if report.warnings:  # reorder actually permuted something
            assert {d.rule_id for d in report.warnings} == {
                "pos.stream_order"
            }


class TestFormatRules:
    def test_structure_tile_ptr(self, spasm):
        spasm.tile_ptr[-1] += 1
        assert "fmt.structure" in error_rules(verify_spasm(spasm))

    def test_tile_order(self, spasm):
        assert spasm.n_tiles >= 2
        for arr in (spasm.tile_rows, spasm.tile_cols):
            arr[[0, 1]] = arr[[1, 0]]
        assert "fmt.tile_order" in error_rules(verify_spasm(spasm))

    def test_tile_bounds(self, spasm):
        spasm.tile_cols[0] = 1000
        assert "fmt.tile_bounds" in error_rules(verify_spasm(spasm))

    def test_value_bounds(self, spasm):
        # a high r_idx decodes past the matrix edge
        spasm.words[0] |= np.uint32(0x1FFF) << np.uint32(13)
        assert "fmt.value_bounds" in error_rules(verify_spasm(spasm))

    def test_nnz_excess(self, spasm):
        pad = np.flatnonzero(spasm.values == 0.0)
        if pad.size == 0:
            pytest.skip("no padding slot to corrupt")
        spasm.values.flat[pad[0]] = 7.0
        report = verify_spasm(spasm)
        assert error_rules(report) & {"fmt.nnz", "fmt.overlap"}

    def test_decomposition_canonical(self, coo, portfolio, spasm):
        # Re-labeling a group's template (keeping its stored cells
        # plausible) breaks the canonical decomposition.
        spasm.words[2] ^= np.uint32(1) << np.uint32(28)
        report = verify_spasm(spasm, source=coo)
        assert error_rules(report) & {
            "fmt.decomposition", "fmt.roundtrip", "pos.t_range"
        }

    def test_roundtrip_requires_source(self, spasm, coo):
        without = verify_spasm(spasm)
        with_src = verify_spasm(spasm, source=coo)
        assert "fmt.roundtrip" not in without.rules_run
        assert "fmt.roundtrip" in with_src.rules_run

    def test_roundtrip_catches_moved_cell(self, spasm, coo):
        # moving a group within the tile keeps every field in range but
        # decodes to different coordinates than the source
        fields_c = spasm.words[0] & np.uint32(0x1FFF)
        spt = TILE // spasm.k
        new_c = (int(fields_c) + 1) % spt
        spasm.words[0] = (
            (spasm.words[0] & ~np.uint32(0x1FFF)) | np.uint32(new_c)
        )
        report = verify_spasm(spasm, source=coo)
        assert not report.ok


class TestOpcodeRules:
    def test_table_size(self, portfolio):
        lut = opcode_table(portfolio)[:-1]
        report = verify_opcodes(lut, portfolio)
        assert "opc.table_size" in error_rules(report)

    def test_width(self, portfolio):
        lut = opcode_table(portfolio)
        lut[0] |= 1 << 30
        assert "opc.width" in error_rules(
            verify_opcodes(lut, portfolio)
        )

    def test_operands(self, portfolio):
        lut = opcode_table(portfolio)
        # force a1 operand select to an out-of-range node (7)
        lut[0] |= 0x7 << 12
        report = verify_opcodes(lut, portfolio)
        assert "opc.operands" in error_rules(report)

    def test_out_rows(self, portfolio):
        lut = opcode_table(portfolio)
        lut[0] ^= 0x7 << 18  # clobber output lane 0 routing
        report = verify_opcodes(lut, portfolio)
        assert error_rules(report) & {"opc.out_rows", "opc.semantics"}

    def test_mul_lanes(self, portfolio):
        lut = opcode_table(portfolio)
        lut[0] ^= 0x3  # clobber multiplier lane 0 select
        report = verify_opcodes(lut, portfolio)
        assert error_rules(report) & {"opc.mul_lanes", "opc.semantics"}

    def test_semantics_catches_swapped_opcodes(self, portfolio):
        lut = opcode_table(portfolio)
        distinct = lut[0] != lut[4]
        lut[0], lut[4] = lut[4], lut[0]
        report = verify_opcodes(lut, portfolio)
        assert not distinct or not report.ok


class TestMemoryRules:
    def test_missing_channel(self, spasm):
        image = pack_images(spasm, SPASM_4_1)
        values = dict(image.value_images)
        name = sorted(values)[0]
        del values[name]
        tampered = dataclasses.replace(image, value_images=values)
        report = verify_memory_image(tampered)
        assert "mem.channels" in error_rules(report)
        assert any(
            d.location.channel == name for d in report.errors
        )

    def test_value_bytes(self, spasm):
        image = pack_images(spasm, SPASM_4_1)
        values = dict(image.value_images)
        name = next(n for n in sorted(values) if len(values[n]))
        values[name] = values[name][:-16]
        tampered = dataclasses.replace(image, value_images=values)
        assert "mem.value_bytes" in error_rules(
            verify_memory_image(tampered)
        )

    def test_pos_bytes(self, spasm):
        image = pack_images(spasm, SPASM_4_1)
        pos = dict(image.position_images)
        name = next(n for n in sorted(pos) if len(pos[n]))
        pos[name] = pos[name] + b"\x00\x00\x00\x00"
        tampered = dataclasses.replace(image, position_images=pos)
        assert "mem.pos_bytes" in error_rules(
            verify_memory_image(tampered)
        )

    def test_descriptors(self, spasm):
        image = pack_images(spasm, SPASM_4_1)
        descriptors = [list(d) for d in image.descriptors]
        pe = next(
            i for i, d in enumerate(descriptors) if d
        )
        row, col, n = descriptors[pe][0]
        descriptors[pe][0] = (row, col + 1, n)
        tampered = dataclasses.replace(image, descriptors=descriptors)
        report = verify_memory_image(tampered, spasm=spasm)
        assert "mem.descriptors" in error_rules(report)

    def test_image_roundtrip(self, spasm):
        image = pack_images(spasm, SPASM_4_1)
        pos = dict(image.position_images)
        name = next(n for n in sorted(pos) if len(pos[n]) >= 4)
        corrupted = bytes([pos[name][0] ^ 1]) + pos[name][1:]
        pos[name] = corrupted
        tampered = dataclasses.replace(image, position_images=pos)
        report = verify_memory_image(tampered, spasm=spasm)
        assert "mem.roundtrip" in error_rules(report)

    def test_pack_images_verify_flag(self, spasm):
        assert pack_images(spasm, SPASM_4_1, verify=True) is not None


class TestValidateIntegration:
    def test_validate_clean_returns_diagnostics(self, spasm):
        assert spasm.validate() == []

    def test_validate_aggregates_all_errors(self, spasm):
        spasm.words[0] ^= np.uint32(1) << np.uint32(26)  # CE flip
        spasm.words[1] |= np.uint32(0x1FFF)  # c_idx out of range
        with pytest.raises(FormatError) as exc_info:
            spasm.validate()
        diagnostics = exc_info.value.diagnostics
        assert len(diagnostics) >= 2
        rules = {d.rule_id for d in diagnostics}
        assert "pos.ce_boundary" in rules
        assert "pos.c_range" in rules
        # the message enumerates every violation
        assert str(exc_info.value).count("ERROR") >= 2

    def test_validate_is_value_error(self, spasm):
        spasm.tile_ptr[-1] += 1
        with pytest.raises(ValueError):
            spasm.validate()

    def test_accelerator_verify_flag(self, spasm, coo):
        x = np.random.default_rng(1).random(spasm.shape[1])
        acc = SpasmAccelerator(SPASM_4_1)
        result = acc.run(spasm, x, engine="fast", verify=True)
        assert np.allclose(result.y, spasm.spmv(x))
        spasm.words[0] ^= np.uint32(1) << np.uint32(26)
        with pytest.raises(VerificationError):
            acc.run(spasm, x, engine="fast", verify=True)

    def test_load_spasm_verify_flag(self, spasm, tmp_path):
        spasm.words[0] ^= np.uint32(1) << np.uint32(26)
        path = tmp_path / "bad.npz"
        save_spasm(path, spasm)
        assert load_spasm(path) is not None  # default stays lenient
        with pytest.raises(FormatError):
            load_spasm(path, verify=True)


class TestTableCache:
    def test_compile_verify_shares_table(self, coo, monkeypatch):
        """``fmt.decomposition`` reads the table the compile's
        decomposition stage used: one table, one subset build."""
        import repro.core.decompose as decompose
        from repro.core import SpasmCompiler

        real = decompose.cached_table
        seen = []

        def spy(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(decompose, "cached_table", spy)
        program = SpasmCompiler(tile_sizes=(16, 32), verify=True).compile(coo)
        assert "0 errors" in program.trace.event("verify").note
        assert seen and seen[-1] is program.selection.table


class TestReportAPI:
    def test_json_roundtrip(self, spasm):
        spasm.words[0] ^= np.uint32(1) << np.uint32(26)
        report = verify_spasm(spasm)
        payload = json.loads(report.to_json())
        assert payload["ok"] is False
        assert payload["errors"] == len(report.errors)
        diag = payload["diagnostics"][0]
        assert diag["rule"] == "pos.ce_boundary"
        assert diag["location"]["group"] == 0
        assert isinstance(diag["details"], dict)

    def test_render_mentions_rule_and_location(self, spasm):
        spasm.words[0] ^= np.uint32(1) << np.uint32(26)
        text = verify_spasm(spasm).render()
        assert "pos.ce_boundary" in text
        assert "tile 0" in text
        assert "1 errors" in text

    def test_raise_if_errors_preserves_type(self, spasm):
        spasm.words[0] ^= np.uint32(1) << np.uint32(26)
        report = verify_spasm(spasm)
        with pytest.raises(FormatError):
            report.raise_if_errors(FormatError)
        clean = Report()
        clean.raise_if_errors()  # no-op

    def test_rule_catalogue_metadata(self):
        rules = list(REGISTRY.values())
        assert len(rules) >= 12
        families = {r.rule_id.split(".")[0] for r in rules}
        assert {"pos", "fmt", "opc", "mem"} <= families
        for rule in rules:
            assert rule.title, rule.rule_id
            assert rule.paper, rule.rule_id


class TestCLI:
    def test_verify_workload_exit_zero(self, capsys):
        from repro.cli import main

        assert main(["verify", "tmt_sym", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out

    def test_verify_npz_and_json(self, tmp_path, spasm, capsys):
        from repro.cli import main

        path = tmp_path / "t.npz"
        save_spasm(path, spasm)
        assert main(["verify", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_verify_corrupt_exits_nonzero(self, tmp_path, spasm,
                                          capsys):
        from repro.cli import main

        spasm.words[0] ^= np.uint32(1) << np.uint32(26)
        path = tmp_path / "bad.npz"
        save_spasm(path, spasm)
        assert main(["verify", str(path)]) == 1
        assert "pos.ce_boundary" in capsys.readouterr().out

    def test_verify_corrupt_runs_no_plan_rules(self, tmp_path, spasm,
                                               capsys):
        """A stream with errors is never handed to the plan builder."""
        from repro.cli import main

        spasm.words[0] ^= np.uint32(1) << np.uint32(26)
        path = tmp_path / "bad.npz"
        save_spasm(path, spasm)
        assert main(["verify", str(path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        [report] = payload["reports"]
        assert "pos.ce_boundary" in {
            d["rule"] for d in report["diagnostics"]
        }
        assert not any(r.startswith("plan.") for r in report["rules_run"])
        assert payload["ok"] is False and payload["errors"] >= 1

    def test_verify_hardware_includes_memory_rules(self, tmp_path,
                                                   spasm, capsys):
        from repro.cli import main

        path = tmp_path / "t.npz"
        save_spasm(path, spasm)
        assert main(["verify", str(path), "--json"]) == 0
        [plain] = json.loads(capsys.readouterr().out)["reports"]
        assert not any(r.startswith("mem.") for r in plain["rules_run"])
        assert main([
            "verify", str(path), "--hardware", "SPASM_4_1", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        [report] = payload["reports"]
        assert report["matrix"] == str(path)
        assert any(r.startswith("mem.") for r in report["rules_run"])
        assert any(r.startswith("plan.") for r in report["rules_run"])

    def test_missing_file_exits_nonzero(self, capsys):
        from repro.cli import main

        assert main(["verify", "/nonexistent/file.npz"]) == 1
        assert "error:" in capsys.readouterr().err


# -- property-based fuzzing ----------------------------------------------

_FUZZ_COO = random_coo(seed=7, n=32, nnz=40)
_FUZZ_PORTFOLIO = candidate_portfolios()[0]
_FUZZ_SPASM = encode_spasm(_FUZZ_COO, _FUZZ_PORTFOLIO, 16)


@settings(max_examples=20, deadline=None)
@given(
    group=st.integers(0, _FUZZ_SPASM.n_groups - 1),
    bit=st.integers(0, 31),
)
def test_any_single_bit_flip_is_detected(group, bit):
    """Every single-bit corruption of any position word is caught."""
    mutated = dataclasses.replace(
        _FUZZ_SPASM, words=_FUZZ_SPASM.words.copy()
    )
    mutated.words[group] ^= np.uint32(1) << np.uint32(bit)
    report = verify_spasm(mutated, source=_FUZZ_COO)
    assert not report.ok, (
        f"flip of bit {bit} in group {group} went undetected"
    )
    # every error diagnostic is attributed and locatable
    for diag in report.errors:
        assert diag.rule_id
        assert diag.message


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_fresh_encodings_never_false_positive(seed):
    """verify_spasm reports nothing on arbitrary fresh encodings."""
    coo = random_coo(seed=seed, n=32, nnz=30)
    spasm = encode_spasm(coo, _FUZZ_PORTFOLIO, 16)
    report = verify_spasm(spasm, source=coo)
    assert report.ok
    assert not report.diagnostics
