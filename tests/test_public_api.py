"""Public API surface checks: every module imports, exports resolve."""

import importlib
import pkgutil

import pytest

import repro

SUBPACKAGES = [
    "repro.graph", "repro.models", "repro.lowering", "repro.pim",
    "repro.gpu", "repro.dram", "repro.memsys", "repro.transform",
    "repro.search", "repro.codegen", "repro.runtime", "repro.energy",
    "repro.analysis",
]


class TestImports:
    @pytest.mark.parametrize("package", SUBPACKAGES)
    def test_subpackage_imports(self, package):
        importlib.import_module(package)

    @pytest.mark.parametrize("package", SUBPACKAGES + ["repro"])
    def test_all_exports_resolve(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name} missing"

    def test_every_module_imports(self):
        """Walk the whole package: no module may fail to import."""
        failures = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            try:
                importlib.import_module(info.name)
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append((info.name, exc))
        assert not failures

    def test_top_level_api(self):
        assert callable(repro.build_model)
        assert callable(repro.PimFlow)
        assert repro.__version__


class TestConfigVariants:
    def test_fuse_disabled_still_runs(self):
        from repro.pimflow import PimFlow, PimFlowConfig

        toy = repro.build_model("toy")
        result = PimFlow(PimFlowConfig(mechanism="gpu", fuse=False)).run(toy)
        assert result.makespan_us > 0

    def test_two_buffer_variant(self):
        """GWRITE_2 (two global buffers) sits between one and four."""
        from repro.lowering.im2col import LoweredGemv
        from repro.pim.config import PimConfig, PimOptimizations
        from repro.pim.cost import gemv_cost

        gemv = LoweredGemv(rows=256, k=192, n=64, contiguous_k=192,
                           strided=False)
        cfg = PimConfig()
        times = {
            nb: gemv_cost(gemv, cfg, PimOptimizations(
                num_gwrite_buffers=nb)).cycles
            for nb in (1, 2, 4)
        }
        assert times[4] <= times[2] <= times[1]
