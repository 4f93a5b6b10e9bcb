"""Guardrails keeping documentation and examples in sync with the code."""

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


class TestExamples:
    """Examples must at least parse and follow the runnable-script shape."""

    EXAMPLES = sorted((REPO / "examples").glob("*.py"))

    def test_at_least_five_examples(self):
        assert len(self.EXAMPLES) >= 5

    @pytest.mark.parametrize("path", EXAMPLES, ids=[p.name for p in EXAMPLES])
    def test_example_parses(self, path):
        tree = ast.parse(path.read_text())
        # every example is a script with a main() and a __main__ guard
        names = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert "main" in names, path.name
        assert "__main__" in path.read_text(), path.name

    @pytest.mark.parametrize("path", EXAMPLES, ids=[p.name for p in EXAMPLES])
    def test_example_has_docstring(self, path):
        doc = ast.get_docstring(ast.parse(path.read_text()))
        assert doc and len(doc) > 40, path.name


class TestServingConstructorCalls:
    """Examples and benchmarks are not imported by tier-1, so a removed
    serving-constructor keyword would only surface when they run.  Check
    every ``SpMMServer(`` / ``Scheduler(`` / ``ClusterFrontend(`` call in
    them against the live signature instead."""

    SCRIPTS = sorted(
        [*(REPO / "examples").glob("*.py"), *(REPO / "benchmarks").glob("*.py")]
    )

    @staticmethod
    def _calls(tree):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("SpMMServer", "Scheduler", "ClusterFrontend"):
                yield name, node

    def test_scripts_construct_serving_objects(self):
        names = {
            name
            for path in self.SCRIPTS
            for name, _ in self._calls(ast.parse(path.read_text()))
        }
        assert names == {"SpMMServer", "Scheduler", "ClusterFrontend"}

    @pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
    def test_keywords_match_signatures(self, path):
        import inspect

        import repro.serve as serve

        for name, call in self._calls(ast.parse(path.read_text())):
            signature = inspect.signature(getattr(serve, name))
            positional = [None] * sum(not isinstance(a, ast.Starred) for a in call.args)
            keywords = {kw.arg: None for kw in call.keywords if kw.arg is not None}
            try:
                signature.bind_partial(*positional, **keywords)
            except TypeError as err:
                pytest.fail(f"{path.name}:{call.lineno}: {name}(...): {err}")


class TestModuleInventory:
    """Every module DESIGN.md's inventory references must import."""

    MODULES = [
        "repro",
        "repro.gpu.device",
        "repro.gpu.memory",
        "repro.gpu.executor",
        "repro.gpu.timing",
        "repro.gpu.stats",
        "repro.gpu.profiler",
        "repro.gpu.multi",
        "repro.gpu.microsim",
        "repro.formats.base",
        "repro.formats.coo",
        "repro.formats.csr",
        "repro.formats.ell",
        "repro.formats.sliced_ell",
        "repro.formats.bcsr",
        "repro.formats.blocked_ell",
        "repro.formats.cell",
        "repro.kernels.base",
        "repro.kernels.csr_spmm",
        "repro.kernels.ell_spmm",
        "repro.kernels.bcsr_spmm",
        "repro.kernels.cell_spmm",
        "repro.kernels.taco_spmm",
        "repro.kernels.spmv",
        "repro.kernels.sddmm",
        "repro.matrices.generators",
        "repro.matrices.gnn",
        "repro.matrices.collection",
        "repro.matrices.features",
        "repro.matrices.io",
        "repro.ml.base",
        "repro.ml.metrics",
        "repro.ml.preprocessing",
        "repro.ml.model_selection",
        "repro.ml.tree",
        "repro.ml.forest",
        "repro.ml.knn",
        "repro.ml.svm",
        "repro.ml.naive_bayes",
        "repro.ml.qda",
        "repro.ml.neural_net",
        "repro.ml.adaboost",
        "repro.ml.gaussian_process",
        "repro.ml.zoo",
        "repro.core.cost_model",
        "repro.core.bucket_search",
        "repro.core.selector",
        "repro.core.partition_model",
        "repro.core.training",
        "repro.core.pipeline",
        "repro.core.persistence",
        "repro.core.transfer",
        "repro.baselines.base",
        "repro.baselines.fixed",
        "repro.baselines.taco",
        "repro.baselines.sparsetir",
        "repro.baselines.stile",
        "repro.baselines.liteform",
        "repro.baselines.registry",
        "repro.baselines.taxonomy",
        "repro.baselines.autoselect",
        "repro.obs",
        "repro.obs.trace",
        "repro.obs.registry",
        "repro.obs.merge",
        "repro.obs.slo",
        "repro.obs.attribution",
        "repro.serve.fingerprint",
        "repro.serve.plan_cache",
        "repro.serve.metrics",
        "repro.serve.server",
        "repro.serve.scheduler",
        "repro.serve.workload",
        "repro.serve.cluster",
        "repro.serve.cluster.ring",
        "repro.serve.cluster.hotkeys",
        "repro.serve.cluster.metrics",
        "repro.serve.cluster.frontend",
        "repro.kernels.registry",
        "repro.bench.harness",
        "repro.bench.reporting",
        "repro.bench.ascii_plot",
        "repro.tuning.search",
        "repro.cli",
    ]

    @pytest.mark.parametrize("module", MODULES)
    def test_module_imports(self, module):
        importlib.import_module(module)

    @pytest.mark.parametrize("module", MODULES)
    def test_module_has_docstring(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 20, module


class TestDocs:
    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert (REPO / name).exists(), name
        for name in ("API.md", "SIMULATOR.md", "REPRODUCING.md"):
            assert (REPO / "docs" / name).exists(), name

    def test_design_lists_every_figure_and_table(self):
        text = (REPO / "DESIGN.md").read_text()
        for item in ("Table 1", "Table 4", "Table 5", "Table 6",
                     "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10", "Fig. 11"):
            assert item in text, item

    def test_every_bench_target_in_design_exists(self):
        text = (REPO / "DESIGN.md").read_text()
        for target in re.findall(r"benchmarks/(test_\w+\.py)", text):
            assert (REPO / "benchmarks" / target).exists(), target

    def test_experiments_covers_all_benchmark_files(self):
        """Every figure/table bench file appears in EXPERIMENTS.md."""
        text = (REPO / "EXPERIMENTS.md").read_text()
        for path in (REPO / "benchmarks").glob("test_fig*.py"):
            assert path.name in text, path.name
        for path in (REPO / "benchmarks").glob("test_table*.py"):
            if path.name == "test_table1_taxonomy.py":
                continue  # qualitative table, covered by DESIGN
            assert path.name in text, path.name

    def test_readme_mentions_paper_identity(self):
        text = (REPO / "README.md").read_text()
        assert "LiteForm" in text and "HPDC" in text
        assert "10.1145/3731545.3731574" in text
