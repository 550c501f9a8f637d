"""Host-time benchmark of the simulator's sweeps.

Run from the root of a checkout::

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 25 --trace 0

Every pass runs in a fresh interpreter (``child.py``) whose working
directory is a scratch directory under ``.perfbench-tmp/``, removed on
exit.  The seed sets the order in which kernels are submitted; every
rendered table is compared with the committed artefact.  Times are
scaled to a reference host speed by a probe taken around each timed
unit.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see ``perfbench/README.md``).  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

from layers import LayerError, layer_metrics

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

WORKLOADS = ("grid-cold", "figures-jobs2", "figures-warm", "latency-repeat")

#: Files the benchmark reads from the checkout.
REQUIRED = [
    "src/repro/__init__.py",
    "benchmarks/golden_penalties.txt",
    "results/ablation-latency.txt",
] + [f"results/{name}.txt" for name in ("table1", "fig1", "fig3", "fig9")]

#: Interpreters that only import and construct, started before each
#: cold pass (and all up front for ``figures-warm``), so that ``setup_s``
#: is a median of samples spread over the whole run.
SETUP_PER_PASS = 2
SETUP_WARM = 6

#: A pass child that runs longer than this is killed (with its workers).
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """A child failed to produce a result."""


def spawn(spec: Dict, cwd: pathlib.Path) -> Dict:
    """Run ``child.py`` in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env.pop("REPRO_ELIM", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    spec = dict(spec, checkout=str(ROOT), spawned=time.time())
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(spec)],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None or proc.returncode != 0:
            # Take the child's pool workers down with it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
    if proc.returncode != 0:
        tail = "\n".join(err.strip().splitlines()[-15:])
        raise BenchError(f"{spec['mode']} child exited with {proc.returncode}:\n{tail}")
    return json.loads(out.strip().splitlines()[-1])


def run_passes(args, tmp: pathlib.Path) -> Dict:
    """Set up, then run timed passes until ``--seconds`` is used up."""
    base = {"workload": args.workload, "seed": args.seed}
    children: List[Dict] = []
    passes: List[Dict] = []

    def setup_samples(count: int) -> None:
        children.extend(spawn(dict(base, mode="setup"), tmp) for _ in range(count))

    if args.workload == "figures-warm":
        setup_samples(SETUP_WARM)
        cache = str(tmp / "cache")
        fill = spawn(dict(base, mode="fill", cache_dir=cache), tmp)
        warm = spawn(
            dict(base, mode="warm", cache_dir=cache, seconds=args.seconds, trace=args.trace),
            tmp,
        )
        children.append(warm)
        passes = warm["passes"]
        checked = fill["passes"] + passes
        peak = warm["peak_rss_mb"]
    else:
        # Cold passes: one interpreter each, so no memo, stepper or
        # elimination state carries over from one pass to the next.
        started = time.perf_counter()
        index = 0
        while True:
            begun = time.perf_counter()
            traced = bool(args.trace) and index % 2 == 1
            spec = dict(base, mode="pass", seed=args.seed * 1000 + index, trace=traced)
            if args.workload == "figures-jobs2":
                spec["cache_dir"] = str(tmp / f"cache-{index}")
            setup_samples(SETUP_PER_PASS)
            child = spawn(spec, tmp)
            if "cache_dir" in spec:
                shutil.rmtree(spec["cache_dir"], ignore_errors=True)
            children.append(child)
            record = child["passes"][0]
            record["traced"] = traced
            record["peak_rss_mb"] = child["peak_rss_mb"]
            passes.append(record)
            index += 1
            now = time.perf_counter()
            # Go on while one more iteration is expected to end no later
            # than half an iteration past --seconds; a traced run needs
            # at least one untraced and one traced pass.
            if now - started + (now - begun) / 2 > args.seconds and (not args.trace or index >= 2):
                break
        checked = passes
        peak = max(r["peak_rss_mb"] for r in passes if not r["traced"])
    return {
        "children": children,
        "passes": passes,
        "attempted": sum(r["attempted"] for r in checked),
        "failed": sum(r["failed"] for r in checked),
        "errors": [e for r in checked for e in r["errors"]],
        "peak_rss_mb": peak,
    }


#: Seconds the host-speed probe of ``child.py`` takes on the reference
#: host (a 2-vCPU container running CPython 3.11, in a quiet moment).
#: Every time is reported at that speed: scaled by this constant over
#: the probe measured around it.
PROBE_REF_S = 0.005


def scaled(seconds: float, probe_s: float) -> float:
    """``seconds`` at the reference host speed."""
    return seconds * PROBE_REF_S / probe_s


def unit_median(passes: List[Dict], key: str) -> float:
    """Sum over a pass's units of each unit's median scaled time in the run.

    Host speed on a shared machine drifts by tens of percent within
    seconds.  Each unit is probed just before and after it runs, and
    scaling by that probe removes most of the drift; the median over
    the run's passes then removes what is left of single outliers.
    """
    return sum(
        statistics.median(scaled(p["units"][name][key], p["units"][name]["probe"]) for p in passes)
        for name in passes[0]["units"]
    )


def end_to_end(run: Dict) -> Dict[str, float]:
    timed = [r for r in run["passes"] if not r["traced"]]
    wall = unit_median(timed, "wall")
    return {
        "setup_s": statistics.median(scaled(c["setup_s"], c["probe"]) for c in run["children"]),
        "wall_s": wall,
        "cpu_s": unit_median(timed, "cpu"),
        "lane_instructions_per_s": statistics.median(r["instructions"] for r in timed) / wall,
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(workload: str, run: Dict) -> Dict[str, float]:
    traced = [r for r in run["passes"] if r["traced"]]
    untraced = [r for r in run["passes"] if not r["traced"]]
    metrics = layer_metrics(workload, traced, [c["import_s"] for c in run["children"]])
    metrics["trace.overhead_frac"] = (
        unit_median(traced, "wall") / unit_median(untraced, "wall") - 1.0
    )
    return metrics


def declared_units(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a checkout of the simulator (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        run = run_passes(args, tmp)
        metrics = per_layer(args.workload, run) if args.trace else end_to_end(run)
    except (BenchError, LayerError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    units = declared_units(args.trace)
    if set(units) != set(metrics):
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}",
              file=sys.stderr)
        return 1
    timed = [r for r in run["passes"] if not r["traced"]]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(run['passes'])} passes, {len(run['children'])} interpreters")
    seeds = [r["seed"] for r in run["passes"]]
    print(f"pass seeds {seeds[0]}..{seeds[-1]} (seed * 1000 + pass index); each pass "
          "shuffles the kernel registry with random.Random(pass seed)")
    print("first pass kernel order: " + " ".join(run["passes"][0]["order"]))
    walls = sorted(r["wall_s"] for r in timed)
    print(f"untraced pass walls, unscaled: min {walls[0]:.3f} s, "
          f"median {statistics.median(walls):.3f} s, max {walls[-1]:.3f} s")
    for error in run["errors"]:
        print(f"FAILED {error}", file=sys.stderr)
    for name in sorted(metrics):
        print(f"  {name:<42} {metrics[name]:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
