"""Tests for the AST determinism/safety lint (``repro.analyze.lints``).

Each lint rule is exercised through :func:`lint_source` on small
fixture modules — including the acceptance case of a deliberately
unseeded ``np.random`` call being detected — plus the repository's own
self-lint reporting no finding at all.
"""

import textwrap

from repro.analyze import (
    LINT_IDS,
    lint_paths,
    lint_source,
    self_lint,
)


def lint(source, relpath="repro/core/fake.py"):
    return lint_source(textwrap.dedent(source), relpath)


def ids(findings):
    return [f.lint_id for f in findings]


class TestUnseededRng:
    def test_unseeded_default_rng_detected(self):
        findings = lint("""
            import numpy as np

            def sample():
                return np.random.default_rng().random(4)
        """)
        assert ids(findings) == ["det.unseeded-rng"]
        assert "without a seed" in findings[0].message
        assert findings[0].symbol == "sample"

    def test_seeded_default_rng_clean(self):
        assert lint("""
            import numpy as np

            def sample(seed):
                return np.random.default_rng(seed).random(4)
        """) == []

    def test_global_state_functions_always_flagged(self):
        findings = lint("""
            import numpy as np

            def noisy():
                np.random.seed(0)
                return np.random.rand(3)
        """)
        assert ids(findings) == ["det.unseeded-rng"] * 2
        assert "hidden global state" in findings[0].message

    def test_stdlib_random_flagged_seeded_instance_ok(self):
        findings = lint("""
            import random

            def roll():
                private = random.Random(7)
                entropy = random.SystemRandom()
                return random.randint(0, 6)
        """)
        assert ids(findings) == ["det.unseeded-rng"]
        assert "random.randint" in findings[0].message

    def test_import_alias_resolved(self):
        findings = lint("""
            from numpy.random import default_rng as mk

            def sample():
                return mk()
        """)
        assert ids(findings) == ["det.unseeded-rng"]


class TestKernelClock:
    def test_clock_inside_kernel_body(self):
        findings = lint("""
            import time

            class Plan:
                def spmv(self, x):
                    t0 = time.perf_counter()
                    return x, t0
        """)
        assert ids(findings) == ["det.kernel-clock"]
        assert "'spmv'" in findings[0].message

    def test_clock_outside_kernel_is_fine(self):
        assert lint("""
            import time

            def bench(step):
                t0 = time.perf_counter()
                step()
                return time.perf_counter() - t0
        """) == []


class TestAdhocPool:
    def test_pool_outside_helper_flagged(self):
        findings = lint("""
            from concurrent.futures import ThreadPoolExecutor

            def fan_out(tasks):
                with ThreadPoolExecutor(4) as pool:
                    return list(pool.map(str, tasks))
        """)
        assert ids(findings) == ["det.adhoc-pool"]
        assert "one-pool invariant" in findings[0].message

    def test_shared_helper_site_sanctioned(self):
        assert lint("""
            from concurrent.futures import ThreadPoolExecutor

            def _pool(jobs):
                return ThreadPoolExecutor(jobs)
        """, relpath="repro/exec/plan.py") == []


class TestBareExcept:
    def test_bare_except_flagged(self):
        findings = lint("""
            def risky():
                try:
                    return 1
                except:
                    return 0
        """)
        assert ids(findings) == ["det.bare-except"]

    def test_typed_except_clean(self):
        assert lint("""
            def risky():
                try:
                    return 1
                except (ValueError, KeyError):
                    return 0
        """) == []


class TestImplicitDtype:
    EXEC = "repro/exec/fake.py"

    def test_asarray_without_dtype_in_exec(self):
        findings = lint("""
            import numpy as np

            def ingest(x):
                return np.asarray(x)
        """, relpath=self.EXEC)
        assert ids(findings) == ["exec.implicit-dtype"]

    def test_dtype_kwarg_clean(self):
        assert lint("""
            import numpy as np

            def ingest(x):
                return np.asarray(x, dtype=np.float64)
        """, relpath=self.EXEC) == []

    def test_outside_exec_not_checked(self):
        assert lint("""
            import numpy as np

            def ingest(x):
                return np.asarray(x)
        """, relpath="repro/core/fake.py") == []


class TestRawKernel:
    def test_sparsetools_reference_outside_plan_module(self):
        findings = lint("""
            from scipy.sparse import _sparsetools

            def fast(args):
                return _sparsetools.csr_matvec(*args)
        """)
        assert set(ids(findings)) == {"exec.raw-kernel"}
        assert any("validate()" in f.message for f in findings)

    def test_kernel_module_itself_sanctioned(self):
        assert lint("""
            from scipy.sparse import _sparsetools

            def dispatch(args):
                return _sparsetools.csr_matvec(*args)
        """, relpath="repro/exec/backends/csr.py") == []

    def test_plan_module_no_longer_sanctioned(self):
        """The backend split moved the kernel sanction off plan.py."""
        findings = lint("""
            from scipy.sparse import _sparsetools

            def dispatch(args):
                return _sparsetools.csr_matvec(*args)
        """, relpath="repro/exec/plan.py")
        assert "exec.raw-kernel" in ids(findings)


class TestPlanKernel:
    PLAN = "repro/exec/plan.py"

    def test_kernel_math_in_plan_module_flagged(self):
        findings = lint("""
            import numpy as np

            def dispatch(plan, x):
                gathered = np.take(x, plan.cols)
                return np.bincount(plan.rows, weights=gathered)
        """, relpath=self.PLAN)
        assert ids(findings) == ["exec.plan-kernel"] * 2
        assert "belong to a backend" in findings[0].message

    def test_model_numpy_in_plan_module_clean(self):
        assert lint("""
            import numpy as np

            def shard_bounds(n, jobs):
                return np.zeros(jobs + 1, dtype=np.int64), n
        """, relpath=self.PLAN) == []

    def test_backend_modules_not_checked(self):
        assert lint("""
            import numpy as np

            def spmv(plan, x):
                gathered = np.take(x, plan.cols)
                return np.bincount(plan.rows, weights=gathered)
        """, relpath="repro/exec/backends/gather.py") == []


class TestSuppression:
    def test_inline_allow_silences_one_rule(self):
        findings = lint("""
            import numpy as np

            def sample():
                return np.random.default_rng().random(4)  # lint: allow(det.unseeded-rng)
        """)
        assert findings == []

    def test_allow_all(self):
        assert lint("""
            def risky():
                try:
                    return 1
                except:  # lint: allow(all)
                    return 0
        """) == []

    def test_allow_for_other_rule_does_not_silence(self):
        findings = lint("""
            import numpy as np

            def sample():
                return np.random.default_rng().random(4)  # lint: allow(det.bare-except)
        """)
        assert ids(findings) == ["det.unseeded-rng"]


class TestUnusedPublic:
    def write_tree(self, tmp_path, files):
        """Write ``files`` (paths relative to ``tmp_path``); return the
        library's paths and its package root ``src/repro``."""
        root = tmp_path / "src" / "repro"
        paths = []
        for name, body in files.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(body))
            if path.is_relative_to(root):
                paths.append(str(path))
        return paths, str(root)

    def write_project(self, tmp_path, files):
        return self.write_tree(
            tmp_path, {f"src/repro/{name}": body
                       for name, body in files.items()}
        )

    def test_dead_public_def_flagged(self, tmp_path):
        paths, root = self.write_project(tmp_path, {
            "a.py": """
                def used():
                    return 1

                def dead():
                    return 2
            """,
            "b.py": """
                from repro.a import used
            """,
        })
        findings = lint_paths(paths, root)
        assert [
            (f.lint_id, f.symbol) for f in findings
        ] == [("api.unused-public", "dead")]
        assert findings[0].path == "repro/a.py"

    def test_init_reexport_does_not_count(self, tmp_path):
        paths, root = self.write_project(tmp_path, {
            "a.py": """
                def exported_only():
                    return 1
            """,
            "__init__.py": """
                from repro.a import exported_only
            """,
        })
        findings = lint_paths(paths, root)
        assert [f.symbol for f in findings] == ["exported_only"]

    def test_shipped_script_counts_as_consumer(self, tmp_path):
        paths, root = self.write_tree(tmp_path, {
            "src/repro/a.py": """
                def bench_only():
                    return 1

                def uncalled():
                    return 2
            """,
            "benchmarks/b.py": """
                from repro.a import bench_only

                bench_only()
            """,
        })
        findings = lint_paths(paths, root)
        assert [(f.lint_id, f.symbol) for f in findings] == [
            ("api.unused-public", "uncalled")
        ]

    def test_unparsable_script_is_finding(self, tmp_path):
        paths, root = self.write_tree(tmp_path, {
            "src/repro/a.py": """
                def helper():
                    return 1

                helper()
            """,
            "examples/broken.py": "def broken(:\n",
        })
        findings = lint_paths(paths, root)
        assert [(f.lint_id, f.path) for f in findings] == [
            ("lint.parse-error", "examples/broken.py")
        ]

    def test_allow_comment_sanctions(self, tmp_path):
        paths, root = self.write_project(tmp_path, {
            "a.py": """
                def oracle():  # lint: allow(api.unused-public)
                    return 1
            """,
        })
        assert lint_paths(paths, root) == []

    def test_dataclass_flagged_register_exempt(self, tmp_path):
        paths, root = self.write_project(tmp_path, {
            "a.py": """
                import dataclasses

                def register(cls):
                    return cls

                @dataclasses.dataclass(frozen=True)
                class Unbuilt:
                    x: int

                @register
                class Registered:
                    pass
            """,
        })
        findings = lint_paths(paths, root)
        assert [(f.lint_id, f.symbol) for f in findings] == [
            ("api.unused-public", "Unbuilt")
        ]

    def test_syntax_error_becomes_finding(self, tmp_path):
        paths, root = self.write_project(tmp_path, {
            "a.py": "def broken(:\n",
        })
        findings = lint_paths(paths, root)
        assert len(findings) == 1
        assert findings[0].lint_id == "lint.parse-error"
        assert "does not parse" in findings[0].message


class TestSelfLint:
    def test_repo_is_clean(self):
        """The acceptance gate: the library carries no lint finding."""
        findings = self_lint()
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_lint_ids_cover_all_findings(self):
        assert all(
            f.lint_id in LINT_IDS for f in self_lint()
        )
