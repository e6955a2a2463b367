"""Tests for the top-level public API (the README quickstart contract)."""

import importlib
import os
import re

import numpy as np
import pytest

import repro

SUBPACKAGES = (
    "algorithms", "analysis", "checks", "core", "experiments", "faults",
    "memory", "obs", "sim", "stats", "sweep", "viz",
)


class TestExports:
    def test_version(self):
        assert repro.__version__

    def test_version_has_a_single_source(self):
        # pyproject reads the package version from repro.__version__
        # instead of keeping its own.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml")) as handle:
            text = handle.read()
        assert 'dynamic = ["version"]' in text
        assert 'version = { attr = "repro.__version__" }' in text
        assert not re.search(r'^version\s*=\s*"', text, re.MULTILINE)

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("package", SUBPACKAGES)
    def test_subpackage_all_names_resolve(self, package):
        module = importlib.import_module(f"repro.{package}")
        assert module.__all__
        for name in module.__all__:
            assert hasattr(module, name), f"repro.{package}.{name}"

    def test_algorithm_classes_exported(self):
        for name in (
            "NonUniformSearch",
            "UniformSearch",
            "HarmonicSearch",
            "RhoApproxSearch",
            "HedgedApproxSearch",
            "SingleSpiralSearch",
            "KnownDSearch",
            "RandomWalkSearch",
        ):
            assert hasattr(repro, name)


class TestQuickstartContract:
    def test_readme_quickstart(self):
        """The exact flow the README promises must work."""
        world = repro.place_treasure(distance=64, placement="offaxis")
        times = repro.simulate_find_times(
            repro.NonUniformSearch(k=16), world, k=16, trials=50, seed=0
        )
        assert times.shape == (50,)
        assert np.all(np.isfinite(times))
        ratio = times.mean() / repro.optimal_time(64, 16)
        assert ratio < 40

    def test_step_engine_entry_point(self):
        world = repro.place_treasure(distance=8)
        run = repro.run_search(
            repro.SingleSpiralSearch(), world, 1, seed=0, horizon=1000
        )
        assert run.result.found

    def test_describe_everywhere(self):
        algorithms = [
            repro.NonUniformSearch(4),
            repro.UniformSearch(0.5),
            repro.HarmonicSearch(0.5),
            repro.RestartingHarmonicSearch(0.5),
            repro.RhoApproxSearch(8, 2),
            repro.HedgedApproxSearch(64, 0.5),
            repro.NaiveTrustSearch(64),
            repro.SingleSpiralSearch(),
            repro.KnownDSearch(8),
            repro.RandomWalkSearch(),
            repro.BiasedWalkSearch(),
            repro.LevyFlightSearch(),
        ]
        for alg in algorithms:
            assert isinstance(alg.describe(), str) and alg.describe()
            assert isinstance(alg.name, str) and alg.name

    def test_uses_k_flags(self):
        assert repro.NonUniformSearch(4).uses_k
        assert not repro.UniformSearch(0.5).uses_k
        assert not repro.HarmonicSearch(0.5).uses_k
        assert not repro.RandomWalkSearch().uses_k
