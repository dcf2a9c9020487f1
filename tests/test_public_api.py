"""Tests on the public API surface: exports resolve and carry documentation."""

import importlib
import inspect

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
