"""Batched multi-config replay: bit-identity and fallback contract.

The contract pinned here is what lets every multi-configuration sweep
site hand a group of systems to :func:`repro.cpu.batched.run_batch`
instead of looping over ``System.run``:

- every lane's ``RunResult`` is **equal as a whole object** to a serial
  replay of the same trace on the same configuration — across every
  PolyBench kernel, every front-end of the evaluation, and every
  optimization level;
- lanes the stepper cannot specialise (fault injection, prefetchers)
  still batch, at the generic tier, and stay bit-identical;
- lanes that cannot batch at all (probes, sanitizer checkers, i-fetch
  modelling) fall back to solo ``System.run`` inside the same call;
- the engine's serial path groups same-trace points through
  :func:`repro.exec.point.execute_point_batch` without changing a
  single result bit, and the sanitizer's audit drives the batched leg
  to a clean verdict;
- a runner's prefetched figure still batches one lane per
  configuration, and a lone ``runner.run`` still replays solo (where
  hit-run elimination amortises).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.cpu.batched as batched_module
from repro.check.audit import audit_point
from repro.cpu.batched import batch_eligible, run_batch
from repro.cpu.model import CPUConfig
from repro.cpu.system import System, SystemConfig, warm_regions_of
from repro.exec import ExecutionEngine, RunPoint, TraceMemo, execute_point
from repro.exec.point import execute_point_batch
from repro.experiments import ExperimentRunner, ablations, penalties
from repro.obs import RecordingProbe
from repro.reliability.faults import ReliabilityConfig
from repro.transforms.pipeline import OptLevel, optimize
from repro.workloads import build_kernel, elim, kernel_names
from repro.workloads.encode import encode_trace

CONFIG_NAMES = ("sram", "dropin", "vwb", "l0", "emshr", "hybrid")

SYSTEMS = {
    "sram": lambda: SystemConfig(technology="sram", frontend="plain"),
    "dropin": lambda: SystemConfig(technology="stt-mram", frontend="plain"),
    "vwb": lambda: SystemConfig(technology="stt-mram", frontend="vwb"),
    "l0": lambda: SystemConfig(technology="stt-mram", frontend="l0"),
    "emshr": lambda: SystemConfig(technology="stt-mram", frontend="emshr"),
    "hybrid": lambda: SystemConfig(technology="stt-mram", frontend="hybrid"),
}

#: Per-module memo so the 12-kernel sweep encodes each trace once.
_MATERIAL = {}


def _material(kernel: str, level: OptLevel = OptLevel.NONE):
    key = (kernel, level)
    if key not in _MATERIAL:
        program = build_kernel(kernel)
        if level is not OptLevel.NONE:
            program = optimize(program, level)
        _MATERIAL[key] = (encode_trace(program), warm_regions_of(program))
    return _MATERIAL[key]


def _serial(trace, config, regions, reset=True):
    return System(config).run(trace, reset=reset, warm_regions=regions)


class TestBitIdentity:
    """Batched replay equals serial replay, whole ``RunResult``."""

    @pytest.mark.parametrize("kernel", kernel_names())
    def test_every_kernel_all_frontends(self, kernel):
        trace, regions = _material(kernel)
        configs = [SYSTEMS[name]() for name in CONFIG_NAMES]
        batched = run_batch(trace, [System(c) for c in configs], warm_regions=regions)
        for name, config, got in zip(CONFIG_NAMES, configs, batched):
            assert got == _serial(trace, config, regions), f"{kernel}/{name}"

    @pytest.mark.parametrize(
        "level", [l for l in OptLevel if l is not OptLevel.NONE], ids=lambda l: l.name
    )
    def test_optimized_code_all_frontends(self, level):
        trace, regions = _material("atax", level)
        configs = [SYSTEMS[name]() for name in CONFIG_NAMES]
        batched = run_batch(trace, [System(c) for c in configs], warm_regions=regions)
        for name, config, got in zip(CONFIG_NAMES, configs, batched):
            assert got == _serial(trace, config, regions), f"atax/{name}/{level.name}"

    def test_warm_rerun_stays_exact(self):
        trace, regions = _material("mvt")
        configs = [SYSTEMS[name]() for name in ("vwb", "emshr", "hybrid")]
        systems = [System(c) for c in configs]
        run_batch(trace, systems, warm_regions=regions)
        warm = run_batch(trace, systems, reset=False)
        refs = []
        for config in configs:
            ref = System(config)
            ref.run(trace, warm_regions=regions)
            refs.append(ref.run(trace, reset=False))
        assert warm == refs


class TestDivergenceAndFallback:
    """Diverging lanes batch at the generic tier or drop to serial."""

    def test_fault_injected_lane_batches_bit_exact(self):
        trace, regions = _material("atax")
        base = SYSTEMS["vwb"]()
        faulty = replace(
            base, reliability=ReliabilityConfig(seed=7, write_error_rate=1e-4)
        )
        configs = [SYSTEMS["sram"](), faulty, SYSTEMS["emshr"]()]
        systems = [System(c) for c in configs]
        assert all(batch_eligible(s) for s in systems)
        batched = run_batch(trace, systems, warm_regions=regions)
        for config, got in zip(configs, batched):
            assert got == _serial(trace, config, regions)
        assert batched[1].reliability_stats is not None

    def test_ifetch_lane_falls_back_to_serial(self):
        trace, regions = _material("bicg")
        base = SYSTEMS["dropin"]()
        ifetch = replace(base, cpu=CPUConfig(model_ifetch=True))
        configs = [SYSTEMS["sram"](), ifetch, SYSTEMS["vwb"]()]
        systems = [System(c) for c in configs]
        assert not batch_eligible(systems[1])
        batched = run_batch(trace, systems, warm_regions=regions)
        for config, got in zip(configs, batched):
            assert got == _serial(trace, config, regions)

    def test_probed_lane_is_not_eligible(self):
        system = System(SYSTEMS["vwb"]())
        assert batch_eligible(system)
        system.cpu.probe = RecordingProbe()
        assert not batch_eligible(system)

    def test_single_lane_uses_serial_path(self):
        trace, regions = _material("atax")
        config = SYSTEMS["l0"]()
        (got,) = run_batch(trace, [System(config)], warm_regions=regions)
        assert got == _serial(trace, config, regions)

    def test_empty_batch(self):
        trace, _ = _material("atax")
        assert run_batch(trace, []) == []


class TestExecutePointBatch:
    """The engine-facing group entry point."""

    def _points(self, kernel="atax"):
        return [
            RunPoint(kernel=kernel, config=SYSTEMS[name]()) for name in CONFIG_NAMES
        ]

    def test_group_matches_execute_point(self):
        points = self._points()
        memo = TraceMemo()
        batched = execute_point_batch(points, memo)
        assert batched == [execute_point(p, TraceMemo()) for p in points]

    def test_mixed_traces_rejected(self):
        points = self._points("atax") + self._points("bicg")
        with pytest.raises(ValueError, match="mixes traces"):
            execute_point_batch(points, TraceMemo())

    def test_empty_group(self):
        assert execute_point_batch([], TraceMemo()) == []

    def test_engine_serial_path_batches_groups(self, tmp_path):
        points = self._points("mvt")
        engine = ExecutionEngine(jobs=1, cache_dir=str(tmp_path / "c"), progress=None)
        results = engine.run_points(points)
        assert results == [execute_point(p, engine.memo) for p in points]
        assert engine.stats.executed == len(points)
        assert engine.metrics.counters.get("exec.batched_groups", 0) >= 1


class TestAuditLeg:
    """The sanitizer's differential audit covers the batched path."""

    def test_audit_batched_leg_clean(self):
        report = audit_point("atax", "vwb", memo=TraceMemo())
        assert report.ok, report.summary() if hasattr(report, "summary") else report
        assert not any(leg.startswith("batched") for leg, *_ in report.divergences)


class TestExecutionShapes:
    """The runner hands points to the engine without changing how they replay."""

    @pytest.fixture
    def batch_lanes(self, monkeypatch):
        lanes = []
        real_run_batch = batched_module.run_batch

        def counting_run_batch(trace, systems, *args, **kwargs):
            lanes.append(len(systems))
            return real_run_batch(trace, systems, *args, **kwargs)

        monkeypatch.setattr(batched_module, "run_batch", counting_run_batch)
        return lanes

    def test_serial_penalties_batch_six_lanes_per_kernel(self, batch_lanes):
        penalties.run(ExperimentRunner(kernels=["gemm", "atax"]))
        assert batch_lanes == [6, 6]

    def test_latency_ablation_replays_solo_and_eliminates(self, batch_lanes, monkeypatch):
        monkeypatch.delenv("REPRO_ELIM", raising=False)
        solo = []
        real_run = System.run

        def counting_run(self, *args, **kwargs):
            solo.append(1)
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(System, "run", counting_run)
        before = elim.counters()["events_eliminated"]
        ablations.run_latency_sensitivity(ExperimentRunner(kernels=["gemm", "atax"]))
        assert batch_lanes == []
        assert len(solo) == 2 * 7  # per kernel: SRAM baseline + 3 write + 3 read variants
        assert elim.counters()["events_eliminated"] > before
