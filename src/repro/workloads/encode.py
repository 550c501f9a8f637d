"""Columnar trace encoding: the memory- and replay-friendly trace form.

A materialised trace is a Python list with one heap object per event —
hundreds of thousands of allocations per kernel, megabytes of pointers,
and a ``type()`` dispatch per event on every replay.  An
:class:`EncodedTrace` stores the same event sequence as parallel columns:

- ``opcodes`` — one byte per event (:data:`OP_LOAD` ... :data:`OP_MARK`),
  in program order;
- per-kind integer operand columns (``array('q')``/``array('b')``):
  ``load_addrs``/``load_sizes``, ``store_addrs``/``store_sizes``,
  ``pf_addrs``, ``ops`` (compute) and ``taken`` (branches);
- a string table ``labels`` plus an index column ``marks`` for
  :class:`~repro.workloads.trace.IRMark` annotations.

The i-th event of kind K takes its operands from position i-of-kind-K in
K's columns, so every column is dense and a consumer that ignores a kind
(e.g. the replay fast path skipping ``IRMark``) never touches its
columns.  Encoding consumes the :func:`~repro.workloads.interp
.generate_trace` generator directly — the object list is never built —
and :meth:`EncodedTrace.decode` round-trips to the exact event sequence.

``EncodedTrace`` is iterable (iteration decodes lazily), so it can be
passed anywhere a trace is expected; :meth:`repro.cpu.model.InOrderCPU
.run` additionally recognises it and takes the opcode-dispatch fast
path, which is bit-exact with object replay (pinned by
``tests/test_encode.py``).
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Tuple

from .interp import TraceConfig, generate_trace
from .ir import Program
from .trace import (
    Branch,
    Compute,
    IRMark,
    Load,
    Prefetch,
    Store,
    TraceEvent,
    branch_event,
    compute_event,
)

#: Event opcodes, ordered roughly by dynamic frequency.
OP_LOAD = 0
OP_COMPUTE = 1
OP_STORE = 2
OP_BRANCH = 3
OP_PREFETCH = 4
OP_MARK = 5


class EncodedTrace:
    """One trace as parallel columnar arrays (see module docstring).

    Instances are built by :func:`encode_events`/:func:`encode_trace`;
    the columns are exposed as attributes for the replay fast path but
    must be treated as immutable — traces are shared across runs.
    """

    __slots__ = (
        "opcodes",
        "load_addrs",
        "load_sizes",
        "store_addrs",
        "store_sizes",
        "pf_addrs",
        "ops",
        "taken",
        "marks",
        "labels",
        "_analysis",
        "__weakref__",
    )

    def __init__(
        self,
        opcodes: bytes,
        load_addrs: "array",
        load_sizes: "array",
        store_addrs: "array",
        store_sizes: "array",
        pf_addrs: "array",
        ops: "array",
        taken: "array",
        marks: "array",
        labels: Tuple[str, ...],
    ) -> None:
        self.opcodes = opcodes
        self.load_addrs = load_addrs
        self.load_sizes = load_sizes
        self.store_addrs = store_addrs
        self.store_sizes = store_sizes
        self.pf_addrs = pf_addrs
        self.ops = ops
        self.taken = taken
        self.marks = marks
        self.labels = labels
        # Lazy per-trace analysis memo: reuse profiles keyed by
        # ("reuse", line_bytes) and hit-run annotations keyed by
        # ("elim", line_bytes, sets, ways, banks).  Derived data only —
        # never part of equality, round-tripping or nbytes accounting.
        self._analysis: Dict[tuple, object] = {}

    def __len__(self) -> int:
        return len(self.opcodes)

    def __iter__(self) -> Iterator[TraceEvent]:
        return self.decode_iter()

    def __repr__(self) -> str:
        return (
            f"EncodedTrace({len(self.opcodes)} events, "
            f"{self.nbytes / 1024:.1f} KiB)"
        )

    def decode_iter(self) -> Iterator[TraceEvent]:
        """Yield the exact original event sequence, lazily.

        Loads/stores/prefetches/marks decode to fresh objects; branches
        and computes decode to the interned singletons the interpreter
        itself emits (events are immutable in practice, so sharing is
        safe — see :func:`~repro.workloads.trace.branch_event`).
        """
        la, ls = self.load_addrs, self.load_sizes
        sa, ss = self.store_addrs, self.store_sizes
        pa, ops, tk = self.pf_addrs, self.ops, self.taken
        marks, labels = self.marks, self.labels
        li = sti = pi = ci = ti = mi = 0
        for op in self.opcodes:
            if op == OP_LOAD:
                yield Load(la[li], ls[li])
                li += 1
            elif op == OP_COMPUTE:
                yield compute_event(ops[ci])
                ci += 1
            elif op == OP_STORE:
                yield Store(sa[sti], ss[sti])
                sti += 1
            elif op == OP_BRANCH:
                yield branch_event(bool(tk[ti]))
                ti += 1
            elif op == OP_PREFETCH:
                yield Prefetch(pa[pi])
                pi += 1
            else:
                yield IRMark(labels[marks[mi]])
                mi += 1

    def decode(self) -> List[TraceEvent]:
        """The whole trace as an object list (see :meth:`decode_iter`)."""
        return list(self.decode_iter())

    def summary(self) -> Dict[str, int]:
        """Event counts without decoding — same dict as ``trace_summary``.

        Per-kind totals come straight from the column lengths and
        C-speed ``sum()`` over the operand arrays, so summarising an
        encoded trace costs microseconds regardless of length.
        """
        return {
            "loads": len(self.load_addrs),
            "stores": len(self.store_addrs),
            "prefetches": len(self.pf_addrs),
            "branches": len(self.taken),
            "compute_events": len(self.ops),
            "compute_ops": sum(self.ops),
            "load_bytes": sum(self.load_sizes),
            "store_bytes": sum(self.store_sizes),
            "ir_marks": len(self.marks),
        }

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the column data in bytes."""
        total = len(self.opcodes)
        for column in (
            self.load_addrs,
            self.load_sizes,
            self.store_addrs,
            self.store_sizes,
            self.pf_addrs,
            self.ops,
            self.taken,
            self.marks,
        ):
            total += len(column) * column.itemsize
        total += sum(len(label) for label in self.labels)
        return total


def encode_events(events: Iterable[TraceEvent]) -> EncodedTrace:
    """Encode any event iterable into columns, without materialising it.

    Args:
        events: Trace events in program order (typically the live
            :func:`~repro.workloads.interp.generate_trace` generator).

    Returns:
        The equivalent :class:`EncodedTrace`.
    """
    opcodes = bytearray()
    load_addrs, load_sizes = array("q"), array("q")
    store_addrs, store_sizes = array("q"), array("q")
    pf_addrs = array("q")
    ops = array("q")
    taken = array("b")
    marks = array("i")
    labels: List[str] = []
    label_index: Dict[str, int] = {}

    op_append = opcodes.append
    for ev in events:
        kind = type(ev)
        if kind is Load:
            op_append(OP_LOAD)
            load_addrs.append(ev.addr)
            load_sizes.append(ev.size)
        elif kind is Compute:
            op_append(OP_COMPUTE)
            ops.append(ev.ops)
        elif kind is Store:
            op_append(OP_STORE)
            store_addrs.append(ev.addr)
            store_sizes.append(ev.size)
        elif kind is Branch:
            op_append(OP_BRANCH)
            taken.append(1 if ev.taken else 0)
        elif kind is Prefetch:
            op_append(OP_PREFETCH)
            pf_addrs.append(ev.addr)
        elif kind is IRMark:
            op_append(OP_MARK)
            index = label_index.get(ev.label)
            if index is None:
                index = label_index[ev.label] = len(labels)
                labels.append(ev.label)
            marks.append(index)
        else:
            raise TypeError(f"cannot encode trace event {ev!r}")

    return EncodedTrace(
        opcodes=bytes(opcodes),
        load_addrs=load_addrs,
        load_sizes=load_sizes,
        store_addrs=store_addrs,
        store_sizes=store_sizes,
        pf_addrs=pf_addrs,
        ops=ops,
        taken=taken,
        marks=marks,
        labels=tuple(labels),
    )


def encode_trace(program: Program, config: TraceConfig = TraceConfig()) -> EncodedTrace:
    """Generate and encode a program's trace in one streaming pass.

    The columnar equivalent of :func:`~repro.workloads.interp
    .materialize_trace`: the generator feeds the column builders
    directly, so peak memory is the columns themselves (roughly an
    order of magnitude below the object list).
    """
    return encode_events(generate_trace(program, config))
