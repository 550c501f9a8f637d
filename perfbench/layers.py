"""Per-layer spans for the traced benchmark run.

The simulator carries no tracing of its own at these boundaries, so the
benchmark wraps the public functions of each ``repro`` package from
here.  Many callers bind a function by name at import time (``from
..workloads.encode import encode_trace``), so a wrapper replaces *every*
module attribute that holds the target object, plus the class attribute
for methods: each caller then reads the wrapper.

Spans stay in memory as ``(layer, start, end, self_s, parent, attrs)``
tuples.  A span's self time is its duration minus the time its child
spans cover.  Pool workers are forked from the traced process, so they
inherit the wrappers; each worker writes its spans to a file when its
loop ends, and :func:`load_worker_spans` merges them after the pass.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import sys
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

class LayerError(Exception):
    """A wrapper cannot be installed, or a predicted layer recorded nothing."""


Span = Tuple[str, float, float, float, Optional[str], Optional[Dict[str, Any]]]


class Recorder:
    """In-memory span log of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[list] = []
        self.enabled = True

    def clear(self) -> None:
        """Forget every span, open ones included (a forked worker's start)."""
        self.spans = []
        self._stack = []

    def wrap(
        self,
        layer: str,
        fn: Callable,
        attrs_of: Optional[Callable[..., Optional[Dict[str, Any]]]] = None,
    ) -> Callable:
        """``fn`` recording one ``layer`` span per call.

        ``attrs_of(result, *args, **kwargs)`` returns the span's counts
        (events, lanes, ...); it runs after the span closed.
        """
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, start, clock(), None)
                raise
            end = clock()
            attrs = attrs_of(result, *args, **kwargs) if attrs_of is not None else None
            self._close(frame, start, end, attrs)
            return result

        return wrapper

    def _close(self, frame: list, start: float, end: float, attrs) -> None:
        stack = self._stack
        if stack and stack[-1] is frame:
            stack.pop()
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        self.spans.append(
            (frame[0], start, end, duration - frame[1], parent[0] if parent else None, attrs)
        )


RECORDER = Recorder()


def _repro_modules() -> List[Any]:
    return [m for name, m in list(sys.modules.items()) if name.startswith("repro") and m]


def patch_function(target: Callable, wrapper: Callable, registry: Dict = None) -> int:
    """Replace every ``repro`` module attribute bound to ``target``.

    Returns the number of attributes replaced (0 means no caller reads
    the function through a module attribute).
    """
    replaced = 0
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if value is target:
                setattr(module, attr, wrapper)
                replaced += 1
    if registry is not None:
        for key, value in list(registry.items()):
            if value is target:
                registry[key] = wrapper
                replaced += 1
    return replaced


def patch_method(cls: type, name: str, layer: str, attrs_of=None) -> None:
    """Wrap ``cls.name`` in place (every caller reads it through the class)."""
    setattr(cls, name, RECORDER.wrap(layer, vars(cls)[name], attrs_of))


def config_label(config) -> str:
    """Named-configuration family of a ``SystemConfig``.

    Latency or capacity variants of a named configuration count as the
    named one: a plain SRAM front-end is ``sram``, a plain NVM one
    ``dropin``, and every other front-end is named by itself.
    """
    frontend = str(config.frontend)
    if frontend == "plain":
        return "sram" if config.resolved_technology().name.lower().startswith("sram") else "dropin"
    return frontend


def install(spans_dir: pathlib.Path) -> None:
    """Wrap every traced boundary of the loaded ``repro`` packages."""
    import repro.cpu.batched as batched
    import repro.exec.engine as engine_mod
    import repro.exec.point as point_mod
    import repro.exec.resilience as resilience
    import repro.experiments as experiments
    import repro.experiments.report as report
    import repro.transforms.pipeline as pipeline
    import repro.workloads.elim as elim
    import repro.workloads.encode as encode
    import repro.workloads.polybench as polybench
    from repro.cpu.system import System
    from repro.exec.cache import RunCache
    from repro.experiments.runner import ExperimentRunner

    wrap = RECORDER.wrap

    def encode_attrs(trace, program, *args, **kwargs):
        return {
            "events": len(trace),
            "key": f"{program.name}:{len(trace)}:{hash(bytes(trace.opcodes))}",
        }

    def replay_attrs(result, system, events, *args, **kwargs):
        return {"events": len(events), "config": config_label(system.config)}

    def batch_attrs(results, trace, systems, *args, **kwargs):
        return {"events": len(trace), "lanes": len(systems)}

    def put_attrs(result, cache, key, *args, **kwargs):
        return {"bytes": cache.path_for(key).stat().st_size}

    def lookup_attrs(found, cache, key, *args, **kwargs):
        if found.result is None:
            return None
        return {"bytes": cache.path_for(key).stat().st_size}

    functions = [
        ("workloads.build", polybench.build_kernel, None),
        ("transforms.optimize", pipeline.optimize, None),
        ("workloads.encode", encode.encode_trace, encode_attrs),
        ("workloads.elim.annotate", elim.annotate_trace, None),
        ("cpu.batch", batched.run_batch, batch_attrs),
        ("cpu.eligible", batched.batch_eligible, None),
        ("exec.point", point_mod.execute_point, None),
        ("experiments.render", report.render_figure, None),
    ]
    for layer, target, attrs_of in functions:
        if not patch_function(target, wrap(layer, target, attrs_of)):
            raise LayerError(f"no module reads {target.__module__}.{target.__name__}")
    for name, fn in list(experiments.EXPERIMENTS.items()):
        patch_function(fn, wrap("experiments.run", fn), experiments.EXPERIMENTS)

    patch_method(System, "__init__", "cpu.build")
    patch_method(System, "warm_l2", "cpu.warm")
    patch_method(System, "run", "cpu.replay", replay_attrs)
    patch_method(RunCache, "lookup", "exec.cache.lookup", lookup_attrs)
    patch_method(RunCache, "put", "exec.cache.put", put_attrs)
    for name in ("run", "penalty", "penalties", "prefetch", "program", "trace"):
        if name in vars(ExperimentRunner):
            patch_method(ExperimentRunner, name, "experiments.runner")

    # Per-batch engine counters: the delta of ExecStats across one call.
    previous: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def batch_attrs_of(outcome, engine, *args, **kwargs):
        stats = engine.stats
        now = (stats.elapsed, stats.busy, stats.executed)
        before = previous.get(engine, (0.0, 0.0, 0))
        previous[engine] = now
        return {
            "elapsed": now[0] - before[0],
            "busy": now[1] - before[1],
            "executed": now[2] - before[2],
            "jobs": engine.jobs,
        }

    patch_method(
        engine_mod.ExecutionEngine, "run_points_detailed", "exec.batch", batch_attrs_of
    )

    worker_main = resilience._worker_main

    def traced_worker_main(*args, **kwargs):
        # Runs in a forked worker: drop the parent's spans, keep ours.
        RECORDER.clear()
        elim_before = elim.counters()
        try:
            worker_main(*args, **kwargs)
        finally:
            elim_after = elim.counters()
            dump = {
                "spans": RECORDER.spans,
                "elim": {k: elim_after[k] - elim_before[k] for k in elim_after},
            }
            path = spans_dir / f"worker-{os.getpid()}-{time.monotonic_ns()}.json"
            path.write_text(json.dumps(dump))

    if not patch_function(worker_main, traced_worker_main):
        raise LayerError("no module reads repro.exec.resilience._worker_main")


def load_worker_spans(spans_dir: pathlib.Path) -> Tuple[List[Span], Dict[str, int]]:
    """Collect (and delete) the span files pool workers left behind."""
    spans: List[Span] = []
    elim = {"events_eliminated": 0, "runs_applied": 0}
    for path in sorted(spans_dir.glob("worker-*.json")):
        dump = json.loads(path.read_text())
        spans.extend(tuple(s) for s in dump["spans"])
        for key in elim:
            elim[key] += dump["elim"].get(key, 0)
        path.unlink()
    return spans, elim


#: Configuration families that get their own solo-replay cost.
CONFIGS = ("sram", "dropin", "vwb", "l0", "emshr", "hybrid")

#: Layers each workload must reach; a missing one means a wrapper sits
#: on a boundary the program no longer crosses.
PREDICTED = {
    "grid-cold": (
        "workloads.build", "workloads.encode", "cpu.build", "cpu.warm", "cpu.batch",
        "experiments.run", "experiments.render",
    ),
    "latency-repeat": (
        "workloads.build", "workloads.encode", "workloads.elim.annotate", "cpu.build",
        "cpu.warm", "cpu.replay", "experiments.run", "experiments.render",
    ),
    "figures-jobs2": (
        "workloads.build", "transforms.optimize", "workloads.encode", "cpu.build",
        "cpu.warm", "cpu.replay", "exec.batch", "exec.point", "exec.cache.lookup",
        "exec.cache.put", "experiments.run", "experiments.render",
    ),
    "figures-warm": (
        "exec.batch", "exec.cache.lookup", "experiments.run", "experiments.render",
    ),
}

#: Layers that must also show up in the spans of forked pool workers.
PREDICTED_IN_WORKERS = {
    "figures-jobs2": ("exec.point", "workloads.encode", "cpu.build", "cpu.replay"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pass_metrics(record: dict) -> Dict[str, float]:
    """Per-layer numbers of one traced pass (all processes)."""
    spans = [tuple(s) for s in record["spans"]] + [tuple(s) for s in record["worker_spans"]]
    total: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    replay_events = 0
    config_self = {c: 0.0 for c in CONFIGS}
    config_events = {c: 0 for c in CONFIGS}
    batch_lane_events = 0
    batch_lanes = 0
    solo_in_batch = 0
    solo_in_batch_events = 0
    encode_events = 0
    encode_keys = set()
    entry_bytes: List[int] = []
    overhead_s = 0.0
    overhead_points = 0
    for layer, _start, _end, self_s, parent, attrs in spans:
        total[layer] = total.get(layer, 0.0) + self_s
        calls[layer] = calls.get(layer, 0) + 1
        attrs = attrs or {}
        if layer == "workloads.encode":
            encode_events += attrs["events"]
            encode_keys.add(attrs["key"])
        elif layer == "cpu.replay":
            replay_events += attrs["events"]
            config_self[attrs["config"]] += self_s
            config_events[attrs["config"]] += attrs["events"]
            if parent == "cpu.batch":
                solo_in_batch += 1
                solo_in_batch_events += attrs["events"]
        elif layer == "cpu.batch":
            batch_lane_events += attrs["events"] * attrs["lanes"]
            batch_lanes += attrs["lanes"]
        elif layer in ("exec.cache.put", "exec.cache.lookup") and "bytes" in attrs:
            entry_bytes.append(attrs["bytes"])
        elif layer == "exec.batch" and attrs.get("executed"):
            workers = max(1, min(attrs["jobs"], attrs["executed"]))
            overhead_s += max(0.0, attrs["elapsed"] - attrs["busy"] / workers)
            overhead_points += attrs["executed"]
    batched_events = batch_lane_events - solo_in_batch_events
    lane_events = replay_events + batched_events
    main_self = sum(s[3] for s in record["spans"])
    execs = record.get("exec") or {}
    batches = calls.get("exec.batch", 0)
    elim = record["elim"]
    out = {
        "workloads.build_ms": total.get("workloads.build", 0.0) * 1e3,
        "transforms.optimize_ms": total.get("transforms.optimize", 0.0) * 1e3,
        "workloads.encode_ms": total.get("workloads.encode", 0.0) * 1e3,
        "workloads.encode_ns_per_event": _ratio(total.get("workloads.encode", 0.0) * 1e9, encode_events),
        "workloads.encode_calls": calls.get("workloads.encode", 0),
        "workloads.encode_distinct": len(encode_keys),
        "workloads.elim.annotate_ms": total.get("workloads.elim.annotate", 0.0) * 1e3,
        "workloads.elim.events_eliminated": elim["events_eliminated"],
        "workloads.elim.runs_applied": elim["runs_applied"],
        "workloads.elim.eliminated_frac": _ratio(elim["events_eliminated"], lane_events),
        "cpu.systems_built": calls.get("cpu.build", 0),
        "cpu.system_build_us": _ratio(total.get("cpu.build", 0.0) * 1e6, calls.get("cpu.build", 0)),
        "cpu.warm_ms": total.get("cpu.warm", 0.0) * 1e3,
        "cpu.replay_ns_per_lane_event": _ratio(total.get("cpu.replay", 0.0) * 1e9, replay_events),
        "cpu.batch_ns_per_lane_event": _ratio(total.get("cpu.batch", 0.0) * 1e9, batched_events),
        "cpu.batch_calls": calls.get("cpu.batch", 0),
        "cpu.batch_lanes_mean": _ratio(batch_lanes, calls.get("cpu.batch", 0)),
        "cpu.batch_solo_lanes": solo_in_batch,
        "cpu.lane_events": lane_events,
        "exec.batches": batches,
        "exec.points_per_batch": _ratio(execs.get("points", 0), batches),
        "exec.utilisation": _ratio(execs.get("busy", 0.0), execs.get("elapsed", 0.0) * execs.get("jobs", 1)),
        "exec.busy_s": execs.get("busy", 0.0),
        "exec.point_overhead_ms": _ratio(overhead_s * 1e3, overhead_points),
        "exec.executed": execs.get("executed", 0),
        "exec.cache_hits": execs.get("cache_hits", 0),
        "exec.deduplicated": execs.get("deduplicated", 0),
        "exec.journal_hits": execs.get("journal_hits", 0),
        "exec.retries": execs.get("retries", 0),
        "exec.failed": execs.get("failed", 0),
        "exec.cache.lookup_us": _ratio(total.get("exec.cache.lookup", 0.0) * 1e6, calls.get("exec.cache.lookup", 0)),
        "exec.cache.put_us": _ratio(total.get("exec.cache.put", 0.0) * 1e6, calls.get("exec.cache.put", 0)),
        "exec.cache.entry_bytes": _ratio(sum(entry_bytes), len(entry_bytes)),
        "experiments.reduce_ms": (total.get("experiments.run", 0.0) + total.get("experiments.runner", 0.0)) * 1e3,
        "experiments.render_ms": total.get("experiments.render", 0.0) * 1e3,
        "trace.coverage_frac": _ratio(main_self, sum(u["wall"] for u in record["units"].values())),
    }
    for config in CONFIGS:
        out[f"cpu.replay_ns_per_lane_event.{config}"] = _ratio(
            config_self[config] * 1e9, config_events[config]
        )
    out["_layers"] = sorted(calls)
    out["_worker_layers"] = sorted({s[0] for s in record["worker_spans"]})
    return out


def layer_metrics(workload: str, traced: List[dict], import_s: List[float]) -> Dict[str, float]:
    """Per-layer metrics of a traced run: the mean over its traced passes.

    Raises :class:`LayerError` when a layer the workload is predicted to
    reach recorded no span.
    """
    import statistics

    per_pass = [_pass_metrics(r) for r in traced]
    seen = set().union(*(set(p.pop("_layers")) for p in per_pass))
    in_workers = set().union(*(set(p.pop("_worker_layers")) for p in per_pass))
    missing = [layer for layer in PREDICTED[workload] if layer not in seen]
    missing += [f"{layer} (in a worker)" for layer in PREDICTED_IN_WORKERS.get(workload, ())
                if layer not in in_workers]
    if missing:
        raise LayerError(f"{workload}: no span recorded for {', '.join(missing)}")
    out = {key: statistics.fmean(p[key] for p in per_pass) for key in per_pass[0]}
    out["cli.import_s"] = statistics.median(import_s)
    return out
