"""Bench: observability overhead guard — the NullProbe path is free.

Every instrumentation site in the CPU/memory substrate is guarded by a
local ``_probing`` boolean, so an un-probed run pays one attribute load
and a predictable branch per site.  This bench pins that cost: running
the fig1 kernel subset with the default :data:`~repro.obs.NULL_PROBE`
must be within 5% of a run with no probe handling at all (``probe=None``
skips even the attach/detach), best-of-N wall clock.

It also guards the semantics the tier-1 suite relies on: cycle counts
are bit-identical with and without the null probe.

The same contract extends to engine telemetry: running points through an
:class:`~repro.exec.engine.ExecutionEngine` holding the default
:data:`~repro.telemetry.NULL_TELEMETRY` must stay within the 5% budget
of the bare ``execute_point`` loop, with ``RunResult``-equal output.
"""

from __future__ import annotations

import time

from repro.experiments.runner import CONFIGURATIONS, ExperimentRunner, make_system
from repro.cpu.system import warm_regions_of
from repro.obs import NULL_PROBE, NullProbe

#: Kernels of the Figure 1 comparison used for the timing run.
KERNELS = ("gemm", "atax", "mvt")
CONFIGS = ("vwb", "dropin")
REPEATS = 6
MAX_OVERHEAD = 1.05


def _material(runner):
    return [
        (config, runner.trace(kernel), warm_regions_of(runner.program(kernel)))
        for config in CONFIGS
        for kernel in KERNELS
    ]


def _timed_pass(material, probe):
    start = time.perf_counter()
    cycles = []
    for config, trace, regions in material:
        system = make_system(config)
        result = system.run(trace, warm_regions=regions, probe=probe)
        cycles.append(result.cycles)
    return time.perf_counter() - start, cycles


def test_null_probe_overhead_within_budget(bench_metrics):
    runner = ExperimentRunner(kernels=list(KERNELS))
    material = _material(runner)
    _timed_pass(material, None)  # warm caches, imports, allocator

    bare_times, null_times = [], []
    bare_cycles = null_cycles = None
    for _ in range(REPEATS):
        elapsed, bare_cycles = _timed_pass(material, None)
        bare_times.append(elapsed)
        elapsed, null_cycles = _timed_pass(material, NullProbe())
        null_times.append(elapsed)

    # Bit-identical simulation either way.
    assert null_cycles == bare_cycles

    ratio = min(null_times) / min(bare_times)
    from repro.telemetry import metric

    bench_metrics.setdefault("profile", {})["null_probe_overhead"] = metric(
        ratio, unit="x", higher_is_better=False
    )
    print(
        f"\nnull-probe overhead: best bare {min(bare_times):.3f}s, "
        f"best nulled {min(null_times):.3f}s, ratio {ratio:.3f}"
    )
    assert ratio <= MAX_OVERHEAD, (
        f"NullProbe run is {ratio:.3f}x the bare run (budget {MAX_OVERHEAD}x)"
    )


def test_disabled_telemetry_engine_overhead(bench_metrics):
    """An engine holding NULL_TELEMETRY is within budget and bit-identical.

    The execution engine is instrumented for spans, metrics and point
    provenance, all guarded on ``telemetry.enabled`` — so routing points
    through an uncached, untelemetered engine must cost no more than 5%
    over the bare ``execute_point`` loop, and the results must compare
    equal (``RunResult ==``), the same contract the null probe pins for
    the simulation core.
    """
    from repro.exec import ExecutionEngine, RunPoint, TraceMemo, execute_point
    from repro.telemetry import NULL_TELEMETRY, metric

    points = [
        RunPoint(kernel=kernel, config=CONFIGURATIONS[config])
        for config in CONFIGS
        for kernel in KERNELS
    ]
    memo = TraceMemo()  # both passes replay from one warm memo
    for point in points:
        execute_point(point, memo)

    def _bare_pass():
        start = time.perf_counter()
        results = [execute_point(point, memo) for point in points]
        return time.perf_counter() - start, results

    def _engine_pass():
        engine = ExecutionEngine(jobs=1, telemetry=NULL_TELEMETRY)
        engine.memo = memo
        start = time.perf_counter()
        results = engine.run_points(points)
        return time.perf_counter() - start, results

    bare_times, engine_times = [], []
    bare_results = engine_results = None
    for _ in range(REPEATS):
        elapsed, bare_results = _bare_pass()
        bare_times.append(elapsed)
        elapsed, engine_results = _engine_pass()
        engine_times.append(elapsed)

    # Bit-identical output through the instrumented engine path.
    assert engine_results == bare_results

    ratio = min(engine_times) / min(bare_times)
    bench_metrics.setdefault("profile", {})["telemetry_off_overhead"] = metric(
        ratio, unit="x", higher_is_better=False
    )
    print(
        f"\ndisabled-telemetry engine overhead: best bare {min(bare_times):.3f}s, "
        f"best engine {min(engine_times):.3f}s, ratio {ratio:.3f}"
    )
    assert ratio <= MAX_OVERHEAD, (
        f"NULL_TELEMETRY engine run is {ratio:.3f}x the bare loop (budget {MAX_OVERHEAD}x)"
    )


def test_null_probe_is_inert():
    assert NULL_PROBE.enabled is False
    assert NullProbe().enabled is False
    # Probe hooks are no-ops returning None — nothing to accumulate.
    assert NULL_PROBE.begin_op("load", 0, 0.0) is None
    assert NULL_PROBE.end_op(1.0, 1.0) is None
    assert NULL_PROBE.cache_access("dl1", False, True, 0, 1.0, 1.0, 0.0) is None


def test_detached_sanitizer_is_inert():
    """A sanitizer that was attached and detached leaves zero residue.

    The sanitizer's overhead contract (docs/ARCHITECTURE.md section
    2.10): off by default and free when off.  After ``detach()`` the
    system must produce bit-identical results through the exact same
    code paths as a system that never saw a sanitizer.
    """
    from repro.check import Sanitizer

    runner = ExperimentRunner(kernels=list(KERNELS))
    for config, trace, regions in _material(runner):
        plain = make_system(config).run(trace, warm_regions=regions)
        system = make_system(config)
        sanitizer = Sanitizer(system, stride=1)
        sanitizer.attach()
        sanitizer.detach()
        assert system.cpu.checker is None
        detached = system.run(trace, warm_regions=regions)
        assert detached.cycles == plain.cycles
        assert detached.breakdown == plain.breakdown
        assert detached.counts == plain.counts


def test_disabled_sanitizer_overhead_within_budget():
    """Runs with no sanitizer attached pay nothing for its existence.

    ``InOrderCPU.run`` tests ``self.checker is None`` once per run (not
    per event) and the encoded fast path is untouched, so a
    detached-sanitizer system must match the bare wall clock within the
    same budget as the null probe.
    """
    from repro.check import Sanitizer

    runner = ExperimentRunner(kernels=list(KERNELS))
    material = _material(runner)
    _timed_pass(material, None)  # warm caches, imports, allocator

    def _detached_pass():
        start = time.perf_counter()
        cycles = []
        for config, trace, regions in material:
            system = make_system(config)
            sanitizer = Sanitizer(system, stride=1)
            sanitizer.attach()
            sanitizer.detach()
            result = system.run(trace, warm_regions=regions)
            cycles.append(result.cycles)
        return time.perf_counter() - start, cycles

    bare_times, detached_times = [], []
    bare_cycles = detached_cycles = None
    for _ in range(REPEATS):
        elapsed, bare_cycles = _timed_pass(material, None)
        bare_times.append(elapsed)
        elapsed, detached_cycles = _detached_pass()
        detached_times.append(elapsed)

    assert detached_cycles == bare_cycles

    ratio = min(detached_times) / min(bare_times)
    print(
        f"\ndisabled-sanitizer overhead: best bare {min(bare_times):.3f}s, "
        f"best detached {min(detached_times):.3f}s, ratio {ratio:.3f}"
    )
    assert ratio <= MAX_OVERHEAD, (
        f"detached-sanitizer run is {ratio:.3f}x the bare run (budget {MAX_OVERHEAD}x)"
    )
