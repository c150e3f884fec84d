"""Public-API surface checks and full-catalog closure tests."""

import importlib
import pkgutil

import pytest

import repro
from repro import (
    ViTALStack,
    custom_kernel,
    make_cluster,
)
from repro.compiler.flow import CompilationFlow
from repro.hls.kernels import REPRESENTATIVE_APPS, benchmark


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        major, *_ = repro.__version__.split(".")
        assert int(major) >= 1

    def test_subpackage_alls_resolve(self):
        """Every package's lazy exports: each ``__all__`` name
        resolves, shows in ``dir()`` and binds under ``import *``; an
        unknown name is an ``AttributeError`` naming the package."""
        packages = ["repro"] + sorted(
            info.name for info in pkgutil.walk_packages(
                repro.__path__, "repro.") if info.ispkg)
        assert len(packages) == 15
        for package in packages:
            module = importlib.import_module(package)
            assert module.__all__, package
            # dir() first: it must list names not yet resolved
            assert set(module.__all__) <= set(dir(module)), package
            for name in module.__all__:
                assert hasattr(module, name), (package, name)
            namespace: dict = {}
            exec(f"from {package} import *", namespace)
            assert set(module.__all__) <= set(namespace), package
            with pytest.raises(AttributeError,
                               match=f"module '{package}' has no "
                                     "attribute 'no_such_name'"):
                module.no_such_name

    def test_one_production_path_no_oracle_switches(self, monkeypatch,
                                                    compiled_apps,
                                                    capsys):
        """The differential references live in ``tests/reference_*.py``;
        nothing under ``src/`` selects between implementations, and the
        untraced default controller never leaves ``allocate_fast``."""
        import inspect

        import repro.runtime.resource_db
        import repro.sim
        from repro.cli import main
        from repro.runtime.controller import SystemController
        from repro.runtime.policy import CommunicationAwarePolicy, \
            split_virtual_blocks
        from repro.sim.experiment import run_experiment
        from repro.sim.workload import Request

        def params(fn):
            return list(inspect.signature(fn).parameters)

        assert not {"engine", "backfill"} & set(params(run_experiment))
        assert params(CommunicationAwarePolicy.__init__) \
            == ["self", "max_boards"]
        assert params(split_virtual_blocks) == ["app", "quotas"]
        exported = set(repro.runtime.resource_db.__all__) \
            | set(repro.sim.__all__)
        assert not {"RescanResourceDB", "EventQueue"} & exported

        with pytest.raises(SystemExit) as usage:
            main(["simulate", "--engine", "heapq"])
        assert usage.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

        def traced_only(*args, **kwargs):
            raise AssertionError("untraced search left allocate_fast")
        monkeypatch.setattr(CommunicationAwarePolicy, "allocate",
                            traced_only)
        specs = [app.spec for app in compiled_apps.values()]
        requests = [Request(request_id=i, spec=specs[i % 3],
                            arrival_s=0.2 * i) for i in range(60)]
        result = run_experiment(
            SystemController(make_cluster(num_boards=8)), requests,
            compiled_apps)
        assert result.summary.multi_fpga_fraction > 0  # rounds >= 2 too


class TestRepresentativeAppsRunEndToEnd:
    """The Fig. 1a motivation apps actually run through the stack."""

    def test_every_fig1a_app_deploys(self, cluster):
        stack = ViTALStack(cluster=cluster)
        for app_desc in REPRESENTATIVE_APPS:
            r = app_desc.resources
            spec = custom_kernel(app_desc.name, lut=r.lut, dff=r.dff,
                                 dsp=r.dsp, bram_mb=r.bram_mb,
                                 service_time_s=15.0)
            deployment = stack.deploy(spec)
            assert deployment is not None, app_desc.name
            stack.check_isolation()
            stack.release(deployment)


class TestDetailedPnRSignoff:
    def test_signoff_flow_compiles(self, cluster):
        flow = CompilationFlow(fabric=cluster.partition,
                               verify_with_detailed_pnr=True)
        app = flow.compile(benchmark("cifar10", "M"))
        app.validate()

    def test_signoff_matches_fast_flow_structure(self, cluster):
        fast = CompilationFlow(fabric=cluster.partition)
        slow = CompilationFlow(fabric=cluster.partition,
                               verify_with_detailed_pnr=True)
        spec = benchmark("vgg16", "S")
        a = fast.compile(spec)
        b = slow.compile(spec)
        assert a.num_blocks == b.num_blocks
        assert a.cut_bandwidth_bits == b.cut_bandwidth_bits
