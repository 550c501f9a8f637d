"""Simulation points: the unit of work the execution engine schedules.

A :class:`RunPoint` is one fully-specified, independent simulation —
``(kernel, system configuration, optimization level, dataset size)``,
with any fault-injection seed carried inside the configuration's
:class:`~repro.reliability.faults.ReliabilityConfig`.  Points are plain
frozen dataclasses so they pickle cheaply across worker-process
boundaries, and :func:`execute_point` is a module-level function so
pool workers can call it by name.

Programs and encoded traces live in a :class:`TraceMemo` owned by
whoever executes points: an
:class:`~repro.exec.engine.ExecutionEngine` in process (which an
:class:`~repro.experiments.runner.ExperimentRunner` reads for its
``program``/``trace``), or the worker loop inside a pool worker.  There
is no module-level memo, so programs and traces are freed with their
owner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from ..cpu.model import RunResult
from ..cpu.system import System, SystemConfig, warm_regions_of
from ..transforms.pipeline import OptLevel, optimize
from ..workloads import build_kernel
from ..workloads.datasets import DatasetSize
from ..workloads.encode import EncodedTrace, encode_trace


@dataclass(frozen=True)
class RunPoint:
    """One independent simulation of the evaluation grid.

    Parameters
    ----------
    kernel : str
        Kernel name from the PolyBench registry.
    config : SystemConfig
        The complete platform configuration.  Reliability seeds live in
        ``config.reliability``; the DL1 replacement seed in
        ``config.dl1_replacement_seed``.
    level : OptLevel
        Code optimization level applied before tracing.
    size : DatasetSize
        Dataset size class of the kernel.
    label : str
        Display name for progress reporting and probe events (defaults
        to ``kernel/frontend/level``).
    """

    kernel: str
    config: SystemConfig
    level: OptLevel = OptLevel.NONE
    size: DatasetSize = DatasetSize.MINI
    label: str = field(default="", compare=False)

    def display(self) -> str:
        """Progress label — ``label`` or ``kernel/frontend/level``.

        Returns
        -------
        str
            The human-readable identity of this point.
        """
        if self.label:
            return self.label
        return f"{self.kernel}/{self.config.frontend}/{self.level.name}"


class TraceMemo:
    """Programs, their IR fingerprints and encoded traces, built once per owner.

    Keyed by ``(kernel, size, level)``.  Sharing one program or trace
    across points is safe because ``System.run`` never mutates events
    and ``optimize`` clones before annotating.  A memo lives exactly as
    long as its owner — the :class:`~repro.exec.engine.ExecutionEngine`
    that executes in process, or one pool worker's loop — so a runner
    dropped after its sweep frees its traces with it.
    """

    def __init__(self) -> None:
        self._programs: Dict[Tuple[str, DatasetSize, OptLevel], object] = {}
        self._traces: Dict[Tuple[str, DatasetSize, OptLevel], EncodedTrace] = {}
        self._fingerprints: Dict[Tuple[str, DatasetSize, OptLevel], List[Any]] = {}

    def program(self, kernel: str, size: DatasetSize, level: OptLevel):
        """The kernel at ``size`` with ``level`` transforms applied.

        Parameters
        ----------
        kernel : str
            Kernel name.
        size : DatasetSize
            Dataset size class.
        level : OptLevel
            Optimization level.

        Returns
        -------
        repro.workloads.ir.Program
            The program points of this identity simulate, and the IR
            their cache key fingerprints.
        """
        key = (kernel, size, level)
        program = self._programs.get(key)
        if program is None:
            program = build_kernel(kernel, size)
            if level is not OptLevel.NONE:
                program = optimize(program, level)
            self._programs[key] = program
        return program

    def trace(self, kernel: str, size: DatasetSize, level: OptLevel) -> EncodedTrace:
        """The encoded event trace of :meth:`program`.

        Parameters
        ----------
        kernel : str
            Kernel name.
        size : DatasetSize
            Dataset size class.
        level : OptLevel
            Optimization level.

        Returns
        -------
        EncodedTrace
            The columnar event stream ``System.run`` replays.
        """
        key = (kernel, size, level)
        trace = self._traces.get(key)
        if trace is None:
            trace = self._traces[key] = encode_trace(self.program(kernel, size, level))
        return trace

    def fingerprint(self, kernel: str, size: DatasetSize, level: OptLevel) -> List[Any]:
        """The :func:`~repro.exec.cache.ir_fingerprint` of :meth:`program`.

        Computed once per identity: every configuration of a kernel
        shares it, so keying a figure's points walks each IR once.

        Parameters
        ----------
        kernel : str
            Kernel name.
        size : DatasetSize
            Dataset size class.
        level : OptLevel
            Optimization level.

        Returns
        -------
        list
            The JSON-ready IR structure hashed into cache keys (shared;
            treat as read-only).
        """
        key = (kernel, size, level)
        found = self._fingerprints.get(key)
        if found is None:
            from .cache import ir_fingerprint  # cache.py imports this module

            found = self._fingerprints[key] = ir_fingerprint(self.program(kernel, size, level))
        return found


def execute_point(point: RunPoint, memo: TraceMemo) -> RunResult:
    """Simulate one point: L2 pre-warmed, DL1 cold.

    The L2 is pre-warmed with the program's arrays (PolyBench
    initialisation) before the trace replays.  All simulator state is
    built locally, so any number of processes may call this at once.

    Parameters
    ----------
    point : RunPoint
        The simulation point.
    memo : TraceMemo
        The executor's memo of programs and traces.

    Returns
    -------
    RunResult
        The timing result.
    """
    identity = (point.kernel, point.size, point.level)
    program = memo.program(*identity)
    system = System(point.config)
    return system.run(memo.trace(*identity), warm_regions=warm_regions_of(program))


def execute_point_batch(points: Sequence[RunPoint], memo: TraceMemo) -> List[RunResult]:
    """Simulate a group of same-trace points in one batched pass.

    All points must share ``(kernel, size, level)`` — they replay the
    same encoded trace, so the group runs through
    :func:`repro.cpu.batched.run_batch`: one pass over the opcode
    columns drives every configuration lane simultaneously.  Lanes that
    cannot batch fall back to solo ``System.run`` inside ``run_batch``;
    either way each result is bit-identical to :func:`execute_point` of
    the same point (pinned by ``tests/test_batched.py``).

    Parameters
    ----------
    points : sequence of RunPoint
        The group, sharing one ``(kernel, size, level)``.
    memo : TraceMemo
        The executor's memo of programs and traces.

    Returns
    -------
    list of RunResult
        One result per point, in input order.

    Raises
    ------
    ValueError
        When the points do not share a single trace identity.
    """
    if not points:
        return []
    first = points[0]
    identity = (first.kernel, first.size, first.level)
    for point in points:
        if (point.kernel, point.size, point.level) != identity:
            raise ValueError(
                f"batched group mixes traces: {point.display()} vs {first.display()}"
            )
    from ..cpu.batched import run_batch

    program = memo.program(*identity)
    systems = [System(point.config) for point in points]
    return run_batch(memo.trace(*identity), systems, warm_regions=warm_regions_of(program))
