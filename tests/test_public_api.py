"""Tests on the public API surface: exports resolve and carry documentation."""

import ast
import importlib
import inspect
import re
from collections import Counter
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.cluster",
    "repro.core",
    "repro.core.apps",
    "repro.transactions",
    "repro.detection",
    "repro.video",
    "repro.storage",
    "repro.network",
    "repro.workloads",
    "repro.analysis",
    "repro.sim",
    "repro.experiments",
    "repro.geo",
    "repro.traffic",
]


class TestPublicApi:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_package_imports_and_is_documented(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__, f"{package_name} has no module docstring"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_exports_resolve(self, package_name):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package_name}.{name} missing"

    def test_cluster_exports_come_from_their_owning_modules(self):
        """The pure-data half of the cluster package lives in its own
        modules, exported through ``repro.cluster`` only."""
        import repro.cluster as cluster

        assert cluster.ClusterConfig.__module__ == "repro.cluster.config"
        for name in ("ClusterRunResult", "EdgeMetrics", "MigrationRecord"):
            assert getattr(cluster, name).__module__ == "repro.cluster.results", name
        assert cluster.ClusterSystem.__module__ == "repro.cluster.system"
        assert "empty_bank_factory" in cluster.__all__
        # The eager interleaver's arrival record went with it.
        assert "FrameArrival" not in cluster.__all__
        assert not hasattr(cluster, "FrameArrival")

    def test_top_level_exports_are_documented(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            member = getattr(repro, name)
            if inspect.isclass(member) or inspect.isfunction(member):
                assert member.__doc__, f"repro.{name} has no docstring"

    def test_version_matches_pyproject(self):
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert f'version = "{repro.__version__}"' in pyproject.read_text()

    def test_core_public_classes_have_documented_public_methods(self):
        from repro.core.system import CroesusSystem
        from repro.transactions.ms_ia import MSIAController
        from repro.transactions.ms_sr import TwoStage2PL

        for cls in (CroesusSystem, MSIAController, TwoStage2PL):
            for name, member in inspect.getmembers(cls, predicate=inspect.isfunction):
                if name.startswith("_"):
                    continue
                assert member.__doc__, f"{cls.__name__}.{name} has no docstring"


#: Where a name counts as reached: the program, the paper-figure benchmarks,
#: the examples and the host-time harness (tests do not count).
REACHING_DIRS = ("src", "benchmarks", "examples", "bench")

#: Defined in ``src/`` and named nowhere else, on purpose: lock-table probes
#: the telemetry hooks are to call, and MS-IA's invariant registration and
#: cascading retraction, which are the paper's mechanisms.
KEPT_UNREACHED = {
    "LockManager.is_quiescent",
    "LockManager.held_keys",
    "MSIAController.register_invariant",
    "MSIAController.cascade_retract",
}


def _registry_builder(node: ast.AST) -> bool:
    """A builder its ``@register_scenario(...)`` / ``@register_sweep(...)``
    decorator reaches (the registry calls it, never by name)."""
    return any(
        isinstance(decorator, ast.Call)
        and isinstance(decorator.func, ast.Name)
        and decorator.func.id.startswith("register_")
        for decorator in node.decorator_list
    )


def test_every_definition_in_src_is_named_outside_its_definition():
    """Every function, class and method under ``src/repro/`` is named in
    ``src/``, ``benchmarks/``, ``examples/`` or ``bench/`` at least once
    besides its own ``def`` / ``class`` line (a package ``__init__``'s
    re-export does not count).  A name only tests call belongs in
    ``tests/helpers.py`` or nowhere.  The scan is by word, so a dead
    definition whose name is reused elsewhere still passes."""
    root = Path(__file__).resolve().parents[1]
    words: Counter[str] = Counter()
    for directory in REACHING_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            if path.name != "__init__.py":  # a package's re-export is no use
                words.update(re.findall(r"\w+", path.read_text()))
    unreached = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner_of = {
            id(member): node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for member in node.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or _registry_builder(node):
                continue
            qualified = f"{owner_of[id(node)]}.{name}" if id(node) in owner_of else name
            if words[name] <= 1 and qualified not in KEPT_UNREACHED:
                unreached.append(f"{path.relative_to(root)}:{node.lineno} {qualified}")
    assert not unreached, "named only where defined:\n" + "\n".join(unreached)
