"""Bench: columnar traces — lowering speed, replay throughput, e2e speedup.

Guards around :mod:`repro.workloads.encode` and the opcode-dispatch
replay loop in :meth:`repro.cpu.model.InOrderCPU.run_encoded`:

- lowering a program straight to an
  :class:`~repro.workloads.encode.EncodedTrace` must be at least
  :data:`MIN_LOWERING_SPEEDUP` times faster than the event-at-a-time
  tree walk it replaced plus :func:`~repro.workloads.encode.encode_events`,
  recorded as ``lowering_speedup``;
- replaying the encoded form through every named configuration must be
  at least :data:`MIN_REPLAY_SPEEDUP` times faster than object replay
  (the margin the ``trace-fastpath`` CI job enforces — locally the
  pooled ratio lands well above it), with bit-identical cycle counts;
- the end-to-end ``penalties`` shape (trace construction plus one replay
  per system, all twelve kernels against all six configurations, null
  probe) must beat the pre-PR object path by the same enforced margin;
  the measured ratio is printed against the 3x design target;
- the batched multi-lane pass (:func:`repro.cpu.batched.run_batch`,
  one trace walk driving all six configurations) must be bit-exact
  with the serial encoded pass and at least
  :data:`MIN_BATCHED_SPEEDUP` times its throughput on the same grid.
  The measured ratio (~1.1-1.3x here — trace-side dispatch is a small
  share of a replay; ``docs/INTERNALS.md`` §3 has the composition) is
  recorded in the bench trajectory; the floor only guards against the
  batched path ever becoming a pessimization;
- hit-run elimination (:mod:`repro.workloads.elim`) on the batched
  penalties grid must be bit-exact with the per-event pass and never a
  pessimization (:data:`MIN_ELIM_SPEEDUP`); the whole-grid and
  high-locality ratios are recorded as ``elim_speedup`` and
  ``elim_speedup_high_locality``.  On the *serial* replay path (one
  lane per pass — the engine's per-point and pooled-worker shape,
  where cursor jumps skip whole runs instead of guarding a shared
  walk), elimination of the eligible configurations on the
  high-locality kernels must reach :data:`MIN_ELIM_SERIAL_SPEEDUP`,
  recorded as ``elim_speedup_serial``.

Timings are best-of-N wall clock after a warm-up pass, matching
``bench_profile.py``.
"""

from __future__ import annotations

import pathlib
import sys
import time

from repro.cpu.batched import run_batch
from repro.cpu.system import warm_regions_of
from repro.experiments.penalties import NVM_CONFIGS
from repro.experiments.runner import make_system
from repro.telemetry import metric
from repro.workloads import build_kernel, kernel_names, materialize_trace
from repro.workloads.encode import encode_events, encode_trace

# The reference tree walk lives with the tests, under the repository root.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests.trace_oracle import oracle_trace  # noqa: E402

#: Every system of the penalties grid: the SRAM baseline plus the NVM organisations.
ALL_CONFIGS = ("sram",) + NVM_CONFIGS
#: Kernel subset for the replay-throughput guard (full list for the e2e pass).
THROUGHPUT_KERNELS = ("gemm", "atax", "bicg", "mvt")
REPEATS = 5
E2E_REPEATS = 2
#: Hard floor enforced in CI; see E2E_TARGET for the design goal.
MIN_REPLAY_SPEEDUP = 2.0
#: Headline end-to-end goal of the columnar-trace work (reported, not asserted).
E2E_TARGET = 3.0
#: Floor for the IR lowering (:func:`encode_trace`) against the reference
#: tree walk it replaced, re-encoded (``tests/trace_oracle.py``).
MIN_LOWERING_SPEEDUP = 2.5
#: Floor for batched vs serial-encoded throughput on the full grid.
#: Set below the measured ~1.1-1.3x so noisy CI boxes never flake; it
#: exists to catch the batched path regressing into a pessimization.
MIN_BATCHED_SPEEDUP = 0.95
#: Floor for hit-run elimination on the batched penalties grid: never a
#: pessimization.  The design goal is >=1.5x on the high-locality
#: kernels (reported separately as ``elim_speedup_high_locality``).
MIN_ELIM_SPEEDUP = 1.0
#: Kernels whose working sets live in the arrays' LRU stacks almost
#: entirely — where elimination covers >95% of the trace.
HIGH_LOCALITY = ("gemm", "doitgen")
#: The elimination-eligible configurations (plain set-associative LRU
#: hit paths: the SRAM baseline, the NVM drop-in, and the hybrid
#: partition; VWB/L0/EMSHR intercept hits and stay per-event).
ELIM_CONFIGS = ("sram", "dropin", "hybrid")
#: Floor for serial-lane elimination on the high-locality kernels: the
#: >=1.5x design goal of the elimination work, enforced.  Measured
#: ~2.2x, so the floor has headroom against noisy CI boxes.
MIN_ELIM_SERIAL_SPEEDUP = 1.5


def _programs(kernels):
    return {name: build_kernel(name) for name in kernels}


def test_lowering_speedup(bench_metrics):
    programs = _programs(THROUGHPUT_KERNELS)
    for program in programs.values():  # warm imports and layouts
        encode_events(oracle_trace(program))
        encode_trace(program)

    walk_times, lower_times = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for program in programs.values():
            encode_events(oracle_trace(program))
        walk_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        for program in programs.values():
            encode_trace(program)
        lower_times.append(time.perf_counter() - start)

    ratio = min(walk_times) / min(lower_times)
    bench_metrics.setdefault("trace", {})["lowering_speedup"] = metric(ratio, unit="x")
    print(
        f"\ntrace build: best tree walk + encode_events {min(walk_times):.3f}s, "
        f"best encode_trace {min(lower_times):.3f}s, speedup x{ratio:.2f}"
    )
    assert ratio >= MIN_LOWERING_SPEEDUP, (
        f"encode_trace is only x{ratio:.2f} the reference tree walk "
        f"(floor x{MIN_LOWERING_SPEEDUP})"
    )


def _replay_pass(material, encoded):
    start = time.perf_counter()
    cycles = []
    for config, events, trace, regions in material:
        system = make_system(config)
        result = system.run(trace if encoded else events, warm_regions=regions)
        cycles.append(result.cycles)
    return time.perf_counter() - start, cycles


def test_encoded_replay_throughput(bench_metrics):
    programs = _programs(THROUGHPUT_KERNELS)
    material = [
        (config, materialize_trace(program), encode_trace(program), warm_regions_of(program))
        for config in ALL_CONFIGS
        for program in programs.values()
    ]
    _replay_pass(material, encoded=True)  # warm caches, imports, allocator

    obj_times, enc_times = [], []
    obj_cycles = enc_cycles = None
    for _ in range(REPEATS):
        elapsed, obj_cycles = _replay_pass(material, encoded=False)
        obj_times.append(elapsed)
        elapsed, enc_cycles = _replay_pass(material, encoded=True)
        enc_times.append(elapsed)

    # The fast path is only admissible because it is bit-exact.
    assert enc_cycles == obj_cycles

    ratio = min(obj_times) / min(enc_times)
    bench_metrics.setdefault("trace", {})["replay_speedup"] = metric(ratio, unit="x")
    print(
        f"\nreplay throughput: best object {min(obj_times):.3f}s, "
        f"best encoded {min(enc_times):.3f}s, speedup x{ratio:.2f}"
    )
    assert ratio >= MIN_REPLAY_SPEEDUP, (
        f"encoded replay is only x{ratio:.2f} the object path "
        f"(CI floor x{MIN_REPLAY_SPEEDUP})"
    )


def _penalties_pass(programs, regions, encoded):
    """One full penalties-shaped pass: trace construction + 6 replays each."""
    start = time.perf_counter()
    cycles = []
    for name, program in programs.items():
        trace = encode_trace(program) if encoded else materialize_trace(program)
        for config in ALL_CONFIGS:
            system = make_system(config)
            result = system.run(trace, warm_regions=regions[name])
            cycles.append(result.cycles)
    return time.perf_counter() - start, cycles


def test_penalties_end_to_end_speedup(bench_metrics):
    programs = _programs(kernel_names())
    regions = {name: warm_regions_of(p) for name, p in programs.items()}
    _penalties_pass(programs, regions, encoded=True)  # warm-up

    obj_times, enc_times = [], []
    obj_cycles = enc_cycles = None
    for _ in range(E2E_REPEATS):
        elapsed, obj_cycles = _penalties_pass(programs, regions, encoded=False)
        obj_times.append(elapsed)
        elapsed, enc_cycles = _penalties_pass(programs, regions, encoded=True)
        enc_times.append(elapsed)

    assert enc_cycles == obj_cycles

    ratio = min(obj_times) / min(enc_times)
    bench_metrics.setdefault("trace", {})["e2e_speedup"] = metric(ratio, unit="x")
    met = "meets" if ratio >= E2E_TARGET else "below"
    print(
        f"\npenalties end-to-end: best object {min(obj_times):.3f}s, "
        f"best encoded {min(enc_times):.3f}s, speedup x{ratio:.2f} "
        f"({met} the x{E2E_TARGET:.0f} design target)"
    )
    assert ratio >= MIN_REPLAY_SPEEDUP, (
        f"end-to-end penalties speedup is only x{ratio:.2f} "
        f"(CI floor x{MIN_REPLAY_SPEEDUP})"
    )


def _batched_pass(material):
    """One batched penalties pass: per kernel, one 6-lane run_batch."""
    start = time.perf_counter()
    cycles = []
    for trace, regions in material:
        systems = [make_system(config) for config in ALL_CONFIGS]
        for result in run_batch(trace, systems, warm_regions=regions):
            cycles.append(result.cycles)
    return time.perf_counter() - start, cycles


def test_batched_penalties_speedup(bench_metrics):
    programs = _programs(kernel_names())
    material = [
        (encode_trace(program), warm_regions_of(program))
        for program in programs.values()
    ]
    _batched_pass(material)  # warm-up: compiles the 6-lane stepper

    serial_times, batched_times = [], []
    serial_cycles = batched_cycles = None
    for _ in range(E2E_REPEATS):
        start = time.perf_counter()
        serial_cycles = []
        for trace, regions in material:
            for config in ALL_CONFIGS:
                system = make_system(config)
                result = system.run(trace, warm_regions=regions)
                serial_cycles.append(result.cycles)
        serial_times.append(time.perf_counter() - start)
        elapsed, batched_cycles = _batched_pass(material)
        batched_times.append(elapsed)

    # The batched path is only admissible because it is bit-exact.
    assert batched_cycles == serial_cycles

    ratio = min(serial_times) / min(batched_times)
    bench_metrics.setdefault("trace", {})["batched_speedup"] = metric(ratio, unit="x")
    print(
        f"\nbatched penalties: best serial-encoded {min(serial_times):.3f}s, "
        f"best batched {min(batched_times):.3f}s, speedup x{ratio:.2f} "
        f"(floor x{MIN_BATCHED_SPEEDUP})"
    )
    assert ratio >= MIN_BATCHED_SPEEDUP, (
        f"batched replay is only x{ratio:.2f} the serial encoded pass "
        f"(floor x{MIN_BATCHED_SPEEDUP})"
    )


def _timed_elim(material, on, repeats):
    """Best-of-N batched pass with elimination forced on or off."""
    from repro.workloads.elim import forced

    times, cycles = [], None
    for _ in range(repeats):
        with forced(on):
            elapsed, cycles = _batched_pass(material)
        times.append(elapsed)
    return min(times), cycles


def test_elim_penalties_speedup(bench_metrics):
    """Hit-run elimination on the batched penalties grid: exact + faster.

    Times the full 12-kernel x 6-config batched pass with elimination
    forced on against forced off (the PR-8 baseline path), asserts the
    cycle outputs are bit-identical, and records both the whole-grid
    ratio and the high-locality-kernel ratio (the >=1.5x design goal of
    the elimination work) in the bench trajectory.
    """
    programs = _programs(kernel_names())
    material = {
        name: (encode_trace(program), warm_regions_of(program))
        for name, program in programs.items()
    }
    full = list(material.values())
    # Warm-up: compiles both stepper variants and profiles every trace
    # (annotations are memoized on the traces, as in a real sweep).
    _timed_elim(full, True, 1)
    _timed_elim(full, False, 1)

    on_time, on_cycles = _timed_elim(full, True, E2E_REPEATS)
    off_time, off_cycles = _timed_elim(full, False, E2E_REPEATS)

    # Elimination is only admissible because it is bit-exact.
    assert on_cycles == off_cycles

    ratio = off_time / on_time
    bench_metrics.setdefault("trace", {})["elim_speedup"] = metric(ratio, unit="x")

    high = [material[name] for name in HIGH_LOCALITY]
    high_on, _ = _timed_elim(high, True, E2E_REPEATS)
    high_off, _ = _timed_elim(high, False, E2E_REPEATS)
    high_ratio = high_off / high_on
    bench_metrics.setdefault("trace", {})["elim_speedup_high_locality"] = metric(
        high_ratio, unit="x"
    )
    print(
        f"\nelimination penalties: best off {off_time:.3f}s, best on "
        f"{on_time:.3f}s, speedup x{ratio:.2f} (floor x{MIN_ELIM_SPEEDUP}); "
        f"high-locality ({', '.join(HIGH_LOCALITY)}) x{high_ratio:.2f}"
    )
    assert ratio >= MIN_ELIM_SPEEDUP, (
        f"eliminated replay is only x{ratio:.2f} the per-event batched "
        f"pass (floor x{MIN_ELIM_SPEEDUP})"
    )


def test_elim_serial_speedup(bench_metrics):
    """Serial-lane elimination hits the >=1.5x goal where it applies.

    The batched grid dilutes elimination behind the non-eliminating
    VWB/L0/EMSHR lanes and the shared trace walk; the serial encoded
    path (the engine's per-point and pooled-worker shape) instead jumps
    its cursors over whole runs.  Times the eligible configurations
    (:data:`ELIM_CONFIGS`) on the high-locality kernels, forced on vs
    forced off, asserts bit-identical cycles and the
    :data:`MIN_ELIM_SERIAL_SPEEDUP` floor.
    """
    from repro.workloads.elim import forced

    programs = _programs(HIGH_LOCALITY)
    material = [
        (encode_trace(program), warm_regions_of(program))
        for program in programs.values()
    ]

    def serial_pass(on):
        cycles = []
        with forced(on):
            start = time.perf_counter()
            for trace, regions in material:
                for config in ELIM_CONFIGS:
                    system = make_system(config)
                    result = system.run(trace, warm_regions=regions)
                    cycles.append(result.cycles)
            elapsed = time.perf_counter() - start
        return elapsed, cycles

    serial_pass(True)  # warm-up: profiles the traces, warms the arrays
    serial_pass(False)
    on_time = min(serial_pass(True)[0] for _ in range(REPEATS))
    off_time = min(serial_pass(False)[0] for _ in range(REPEATS))
    assert serial_pass(True)[1] == serial_pass(False)[1]

    ratio = off_time / on_time
    bench_metrics.setdefault("trace", {})["elim_speedup_serial"] = metric(
        ratio, unit="x"
    )
    print(
        f"\nelimination serial lanes ({', '.join(ELIM_CONFIGS)} on "
        f"{', '.join(HIGH_LOCALITY)}): best off {off_time:.3f}s, best on "
        f"{on_time:.3f}s, speedup x{ratio:.2f} "
        f"(floor x{MIN_ELIM_SERIAL_SPEEDUP})"
    )
    assert ratio >= MIN_ELIM_SERIAL_SPEEDUP, (
        f"serial eliminated replay is only x{ratio:.2f} the per-event "
        f"path (floor x{MIN_ELIM_SERIAL_SPEEDUP})"
    )
