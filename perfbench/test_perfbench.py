"""Tiny-size self-tests of the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.05

host, timing, workloads = run._import_program()


def _names(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_matches_emitted_units():
    assert _names("end_to_end") == run.END_TO_END
    assert _names("per_layer") == run.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} <= set(
        workloads.WORKLOADS)


def test_spec_within_contract_limits():
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(name_re.match(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit_re.match(m["unit"]) and m["better"] in (
            "higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_end_to_end_metric_emitted(workload):
    tally, metrics, report = run.measure(workload, 3, 0.2, False, TINY)
    result = run.result_line(tally, metrics, False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for name, unit in run.END_TO_END.items():
        item = result["metrics"][name]
        assert item["unit"] == unit and item["value"] > 0
    assert {"nproc", "l2_bytes", "l3_bytes", "copy_gbps", "python",
            "numpy", "scipy"} <= set(report["host"])


def test_every_per_layer_metric_emitted():
    tally, metrics, _ = run.measure("compile", 3, 0.6, True, TINY)
    result = run.result_line(tally, metrics, True)
    assert result["correct"], tally.notes
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert all(item["unit"] == run.PER_LAYER[name]
               for name, item in result["metrics"].items())
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["registry.warms"] == 2 * len(workloads.COMPILE_SET)
    assert values["registry.evictions"] == len(workloads.COMPILE_SET)
    assert values["serve.failed"] == values["serve.shed"] == 0


def _wrong(fn):
    """Wrap a program method so its answer is off in one element."""
    def wrapped(*args, **kwargs):
        out = np.array(fn(*args, **kwargs), dtype=np.float64)
        out.reshape(-1)[0] += 1.0
        return out
    return wrapped


@pytest.mark.parametrize("workload,target", [
    ("solve", ("repro.exec.plan", "ExecutionPlan", "spmv")),
    ("serve", ("repro.resilience.guard", "ExecutionGuard", "spmv")),
    ("serve", ("repro.resilience.guard", "ExecutionGuard", "spmv_batch")),
    ("compile", ("repro.resilience.guard", "ExecutionGuard", "spmv")),
])
def test_wrong_answer_counted_as_failed(monkeypatch, workload, target):
    module, cls_name, method = target
    cls = getattr(sys.modules[module], cls_name)
    monkeypatch.setattr(cls, method, _wrong(getattr(cls, method)))
    tally, metrics, _ = run.measure(workload, 3, 0.2, False, TINY)
    result = run.result_line(tally, metrics, False)
    assert result["failed"] > 0 and not result["correct"]


@pytest.mark.parametrize("workload", ["serve", "compile"])
def test_wrong_encoding_counted_as_failed(monkeypatch, workload):
    """One corrupted encoded value: plan and ``spmv_naive`` agree on the
    bad stream, so only the check against the generated COO sees it."""
    compiler = sys.modules["repro.core.framework"].SpasmCompiler
    compile_ = compiler.compile

    def corrupted(self, coo, *args, **kwargs):
        prog = compile_(self, coo, *args, **kwargs)
        values = prog.spasm.values
        values[np.unravel_index(np.flatnonzero(values)[0],
                                values.shape)] += 1.0
        return prog

    monkeypatch.setattr(compiler, "compile", corrupted)
    tally, metrics, _ = run.measure(workload, 3, 0.2, False, TINY)
    result = run.result_line(tally, metrics, False)
    assert result["failed"] > 0 and not result["correct"]
    assert all("scipy" in note for note in tally.notes)


def test_spans_and_blocks():
    spans = timing.Spans()
    root = spans.open("root")
    spans.call("child", sum, [1, 2], parent=root)
    spans.close(root)
    assert 0 <= spans.children_ms(root, "child") <= spans.ms(root)
    us = timing.interleave({"a": lambda: None, "b": lambda: None}, 3, 4)
    assert [len(v) for v in us.values()] == [4, 4]
    assert timing.block_calls(1e-3, 0.0105, multiple=4) == 12


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
