"""API-surface stability tests: every advertised export must resolve.

Guards the public interface against refactoring accidents: anything in
an ``__all__`` must be importable from that module, and the top-level
convenience API must expose the documented entry points.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.pipeline",
    "repro.exec",
    "repro.matrix",
    "repro.hw",
    "repro.baselines",
    "repro.synth",
    "repro.analysis",
    "repro.solvers",
    "repro.analyze",
    "repro.verify",
    "repro.resilience",
    "repro.serve",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} lacks __all__"
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"
        assert getattr(module, symbol) is not None


@pytest.mark.parametrize("name", PACKAGES)
def test_module_docstrings(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


def test_top_level_quickstart_api():
    import repro

    for symbol in (
        "COOMatrix", "SpasmCompiler", "SpasmAccelerator",
        "encode_spasm", "analyze_local_patterns",
        "candidate_portfolios", "DEFAULT_CONFIGS",
    ):
        assert symbol in repro.__all__

    assert repro.__version__


def test_plan_contract_has_one_home():
    """The certificate lives in ``repro.exec.policy`` alone: the
    analyzer proves with it but no longer re-exports it."""
    import repro.analyze
    import repro.exec.policy

    for symbol in ("certify_index_width", "IndexWidthCertificate"):
        assert hasattr(repro.exec.policy, symbol)
        assert symbol not in repro.analyze.__all__


def test_public_callables_documented():
    """Every public function/class reachable from __all__ carries a
    docstring (the documentation deliverable, enforced)."""
    import inspect

    undocumented = []
    for name in PACKAGES:
        module = importlib.import_module(name)
        for symbol in module.__all__:
            obj = getattr(module, symbol)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(f"{name}.{symbol}")
    assert not undocumented, f"undocumented: {undocumented}"


def test_submodule_functions_documented():
    """Module-level public functions of core implementation modules are
    documented even when not re-exported."""
    import inspect

    modules = [
        "repro.core.bitmask", "repro.core.patterns",
        "repro.core.templates", "repro.core.decompose",
        "repro.core.encoding", "repro.core.format",
        "repro.core.tiling", "repro.core.schedule",
        "repro.core.selection", "repro.core.framework",
        "repro.core.dynamic", "repro.core.reorder",
        "repro.core.serialize",
        "repro.pipeline.artifacts", "repro.pipeline.cache",
        "repro.pipeline.passes", "repro.pipeline.runner",
        "repro.pipeline.trace",
        "repro.hw.opcode", "repro.hw.valu", "repro.hw.pe",
        "repro.hw.perf_model", "repro.hw.hazards",
        "repro.hw.fast_sim", "repro.hw.memory_image",
        "repro.baselines.base", "repro.baselines.serpens_sim",
        "repro.baselines.hisparse_sim",
        "repro.analysis.charts", "repro.analysis.spy",
        "repro.solvers.iterative", "repro.solvers.operator",
        "repro.analyze.symbolic", "repro.analyze.lints",
        "repro.exec.policy",
    ]
    undocumented = []
    for name in modules:
        module = importlib.import_module(name)
        for attr, obj in vars(module).items():
            if attr.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != name:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(f"{name}.{attr}")
    assert not undocumented, f"undocumented: {undocumented}"
