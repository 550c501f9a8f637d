"""One benchmark process: import ``repro``, run workload passes, check them.

``run.py`` starts this script in a fresh interpreter, with the working
directory in a scratch directory, and reads the JSON object it prints
as its last line.  Modes:

``setup``  import and construct only (one ``setup_s`` sample);
``pass``   one cold pass of the workload's plan;
``fill``   run the plan into a run cache (untimed, for ``figures-warm``);
``warm``   repeat warm passes against the filled cache for ``seconds``.

A pass is a sequence of timed *units*.  For ``grid-cold`` and
``latency-repeat`` a unit is the experiment on one kernel (``repro
penalties --kernels K``), submitted in the seed's kernel order; the
rows are then merged into the full table.  For the figure workloads a
unit is one experiment of the plan, all on one runner and engine, as in
``repro all``; the seed orders the runner's kernels and the rows are put
back in registry order.  Either way the rendered table is compared with
the committed artefact.
"""

from __future__ import annotations

import json
import pathlib
import random
import resource
import shutil
import sys
import time
import traceback
from dataclasses import replace
from typing import Dict, List, Optional

SPEC = json.loads(sys.argv[1])
IMPORT_START = time.perf_counter()
import repro  # noqa: E402,F401
import repro.cli  # noqa: E402,F401
from repro.exec import make_engine  # noqa: E402
from repro.experiments import EXPERIMENTS, ExperimentRunner  # noqa: E402
from repro.experiments import report  # noqa: E402
from repro.workloads import kernel_names  # noqa: E402

IMPORT_S = time.perf_counter() - IMPORT_START
CHECKOUT = pathlib.Path(SPEC["checkout"])

#: Experiments of each workload, and whether its artefact carries bars.
PLANS = {
    "grid-cold": (["penalties"], False),
    "latency-repeat": (["ablation-latency"], True),
    "figures-jobs2": (["table1", "fig1", "fig3", "fig9"], True),
}
PLANS["figures-warm"] = PLANS["figures-jobs2"]
#: Workloads whose units are kernels (the others' units are experiments).
PER_KERNEL = ("grid-cold", "latency-repeat")
JOBS = {"figures-jobs2": 2, "figures-warm": 2}


def golden(name: str) -> str:
    if name == "penalties":
        return (CHECKOUT / "benchmarks" / "golden_penalties.txt").read_text()
    return (CHECKOUT / "results" / f"{name}.txt").read_text()


def table_lines(text: str) -> List[str]:
    """A rendered figure without its ``note:`` lines."""
    return [line for line in text.splitlines() if not line.startswith("note: ")]


def kernel_order(seed: int) -> List[str]:
    kernels = kernel_names()
    random.Random(seed).shuffle(kernels)
    return kernels


def canonical(result, canon: List[str]):
    """``result`` with its kernel rows in registry order."""
    labels = list(result.labels)
    if labels == canon or sorted(labels) != sorted(canon):
        return result
    index = [labels.index(k) for k in canon]
    series = {key: [values[i] for i in index] for key, values in result.series.items()}
    return replace(result, labels=list(canon), series=series)


def merged(results: Dict[str, object], canon: List[str]):
    """One table from single-kernel results, rows in registry order.

    Notes summarise the whole table, so the merged result has none; the
    check compares every other line.
    """
    first = results[canon[0]]
    series = {key: [results[k].series[key][0] for k in canon] for key in first.series}
    return replace(first, labels=list(canon), series=series, notes=[])


class Delivered:
    """Simulated instructions of every distinct result handed to an experiment.

    ``ExperimentRunner.run`` is where every simulation point reaches an
    experiment, from a replay, a worker or the run cache alike; each
    distinct result counts once, with one lane per point.
    """

    def __init__(self) -> None:
        self.results: Dict[int, int] = {}
        self._keep: list = []
        run = ExperimentRunner.run

        def counted(runner, *args, **kwargs):
            result = run(runner, *args, **kwargs)
            if id(result) not in self.results:
                self.results[id(result)] = result.instructions
                self._keep.append(result)
            return result

        ExperimentRunner.run = counted

    def take(self) -> int:
        total = sum(self.results.values())
        self.results, self._keep = {}, []
        return total


def make_runner(workload: str, kernels: List[str], cache_dir: Optional[str]):
    engine = None
    if workload in JOBS:
        engine = make_engine(jobs=JOBS[workload], cache_dir=cache_dir)
    return ExperimentRunner(kernels=kernels, engine=engine), engine


def cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process (pool workers are forks of it)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Working set of the host-speed probe (about 1 MiB).
_PROBE_DATA = list(range(1 << 15))


def probe() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now.

    The simulator is interpreter-bound, and so is this loop; both slow
    down together when other tenants load the machine.  The fastest of
    two short runs ignores a single interruption.
    """
    data, mask, best = _PROBE_DATA, (1 << 15) - 1, float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        total = 0
        for i in range(50000):
            total += data[(i * 7919) & mask]
        best = min(best, time.perf_counter() - t0)
    return best


class Pass:
    """Timed units of one pass, and what the check found."""

    def __init__(self) -> None:
        self.units: Dict[str, Dict[str, float]] = {}
        self.errors: List[str] = []
        self.started = time.perf_counter()

    def unit(self, name: str, fn):
        """Run ``fn()`` as one timed unit, probed before and after.

        Returns ``None`` if it raised.
        """
        before = probe()
        cpu0, t0 = cpu_now(), time.perf_counter()
        try:
            return fn()
        except Exception:  # any failure counts against the artefact
            self.errors.append(f"{name}: {traceback.format_exc(limit=3)}")
            return None
        finally:
            wall, cpu = time.perf_counter() - t0, cpu_now() - cpu0
            self.units[name] = {"wall": wall, "cpu": cpu, "probe": (before + probe()) / 2}

    def record(self, seed: int, attempted: int, failed: int, delivered: Delivered) -> dict:
        return {
            "seed": seed,
            "order": kernel_order(seed),
            "wall_s": time.perf_counter() - self.started,
            "units": self.units,
            "instructions": delivered.take(),
            "attempted": attempted,
            "failed": failed,
            "errors": self.errors,
        }


def kernel_pass(workload: str, seed: int, delivered: Delivered) -> dict:
    """One experiment per kernel, in the seed's order; check the merged table."""
    (name,), bars = PLANS[workload]
    canon = kernel_names()
    run = Pass()
    results = {}
    for kernel in kernel_order(seed):
        def unit(kernel=kernel):
            return EXPERIMENTS[name](runner=ExperimentRunner(kernels=[kernel]))

        results[kernel] = run.unit(kernel, unit)
    text = None
    if all(r is not None for r in results.values()):
        text = report.render_figure(merged(results, canon), bars=bars)
    record = run.record(seed, 1, 0, delivered)
    if text is None or table_lines(text) != table_lines(golden(name)):
        record["failed"] = 1
        record["errors"].append(f"{name}: merged table differs from the committed artefact")
    return record


def plan_pass(workload: str, seed: int, cache_dir: Optional[str], delivered: Delivered) -> dict:
    """The plan's experiments on one runner; check every artefact."""
    names, bars = PLANS[workload]
    canon = kernel_names()
    runner, engine = make_runner(workload, kernel_order(seed), cache_dir)
    run = Pass()
    texts = {}
    for name in names:
        def unit(name=name):
            result = EXPERIMENTS[name](runner=runner)
            return report.render_figure(canonical(result, canon), bars=bars) + "\n"

        texts[name] = run.unit(name, unit)
    if engine is not None:
        engine.finish()
    failed = [n for n in names if texts[n] != golden(n)]
    record = run.record(seed, len(names), len(failed), delivered)
    record["errors"] += [f"{n}: rendered output differs from the committed artefact"
                         for n in failed if texts[n] is not None]
    if engine is not None:
        stats = engine.stats
        record["exec"] = {
            "points": stats.points,
            "executed": stats.executed,
            "cache_hits": stats.hits,
            "deduplicated": stats.deduplicated,
            "journal_hits": stats.journal_hits,
            "retries": stats.retries,
            "failed": stats.failed,
            "elapsed": stats.elapsed,
            "busy": stats.busy,
            "jobs": engine.jobs,
        }
    return record


def one_pass(workload, seed, cache_dir, delivered, traced, spans_dir) -> dict:
    if not traced:
        if workload in PER_KERNEL:
            return kernel_pass(workload, seed, delivered)
        return plan_pass(workload, seed, cache_dir, delivered)
    import layers
    import repro.workloads.elim as elim

    layers.RECORDER.clear()
    layers.RECORDER.enabled = True
    elim_before = elim.counters()
    record = one_pass(workload, seed, cache_dir, delivered, False, spans_dir)
    elim_after = elim.counters()
    layers.RECORDER.enabled = False
    worker_spans, worker_elim = layers.load_worker_spans(spans_dir)
    record["spans"] = layers.RECORDER.spans
    record["worker_spans"] = worker_spans
    record["elim"] = {k: elim_after[k] - elim_before[k] + worker_elim[k] for k in elim_after}
    layers.RECORDER.clear()
    return record


def main() -> None:
    mode, workload, seed = SPEC["mode"], SPEC["workload"], SPEC["seed"]
    cache_dir = SPEC.get("cache_dir")
    trace = bool(SPEC.get("trace"))
    delivered = Delivered()
    # What a user's process builds before its sweep starts.
    make_runner(workload, kernel_names(), cache_dir)
    out = {"setup_s": time.time() - SPEC["spawned"], "import_s": IMPORT_S, "passes": []}
    out["probe"] = probe()
    spans_dir = pathlib.Path.cwd() / "spans"
    if trace:
        import layers

        spans_dir.mkdir(exist_ok=True)
        layers.install(spans_dir)
        layers.RECORDER.enabled = False
    if mode in ("pass", "fill"):
        out["passes"].append(one_pass(workload, seed, cache_dir, delivered, trace, spans_dir))
    elif mode == "warm":
        # Fresh runner per pass (no in-memory results) over the filled
        # cache; in a traced run every other pass is traced.
        started = time.perf_counter()
        index = 0
        while index < 2 or time.perf_counter() - started < SPEC["seconds"]:
            traced = trace and index % 2 == 1
            record = one_pass(workload, seed * 1000 + index, cache_dir, delivered, traced, spans_dir)
            record["traced"] = traced
            out["passes"].append(record)
            index += 1
    out["peak_rss_mb"] = peak_rss_mb()
    if spans_dir.exists():
        shutil.rmtree(spans_dir)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
