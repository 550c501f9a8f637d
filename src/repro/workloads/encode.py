"""Columnar traces: the affine IR lowered straight to trace columns.

This is the stand-in for the compiler+ISA layer of the paper's gem5
setup.  :func:`encode_trace` lowers a :class:`~repro.workloads.ir.Program`
to the event stream an ARM compiler would emit for the kernel at ``-O2``:

- one load/store per array reference execution, with exact byte
  addresses from the row-major layout;
- *scalar replacement* of loop-invariant references in innermost loops
  (an accumulator like ``C[i][j]`` in a ``k``-loop is loaded once before
  the loop and stored once after, like a register-allocated temporary);
- one compute event per statement execution (arithmetic and addressing);
- one branch per loop back-edge, taken except on the loop's last.

Transformation annotations change the emission:

- ``vector_width = W`` processes the loop in chunks of W iterations:
  stride-1 references become single W-element vector accesses, arithmetic
  and back-edges are charged once per chunk (SIMD), and references with
  other strides fall back to per-lane accesses (a gather/scatter);
- ``unroll = U`` charges one back-edge per U iterations/chunks;
- ``prefetch = [(ref, distance)]`` emits a software prefetch for the
  reference's address ``distance`` iterations ahead, de-duplicated at
  :attr:`TraceConfig.prefetch_block_bytes` granularity so one hint is
  issued per new buffer window, like hand-placed prefetch intrinsics.

An :class:`EncodedTrace` holds the events as parallel columns, not one
heap object each: ``opcodes`` (one byte per event, :data:`OP_LOAD` ...
:data:`OP_MARK`, in program order), the per-kind operand columns
``load_addrs``/``load_sizes``, ``store_addrs``/``store_sizes``,
``pf_addrs``, ``ops`` and ``taken``, and ``marks`` indexing the string
table ``labels`` for :class:`~repro.workloads.trace.IRMark` annotations.
The i-th event of kind K takes its operands from position i of K's
columns, so a consumer that ignores a kind never touches its columns.

No event object is built.  Outer loops are walked in Python; each
innermost-loop entry evaluates every reference's address once and fills
the columns in bulk: repeated opcode patterns, and strided
``array('q', range(...))`` address runs interleaved by extended-slice
assignment.  Only prefetching loops step per chunk, to de-duplicate.
:func:`encode_events` encodes any other event iterable.

``EncodedTrace`` is iterable (iteration decodes lazily, as
:mod:`repro.workloads.interp` serves it), so it can be passed anywhere a
trace is expected; :meth:`repro.cpu.model.InOrderCPU.run` recognises it
and takes the opcode-dispatch fast path, which is bit-exact with object
replay (pinned by ``tests/test_encode.py``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from ..errors import ConfigurationError
from .ir import Loop, Node, Program, Statement
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


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of the IR-to-trace lowering.

    Attributes:
        prefetch_block_bytes: De-duplication granularity for emitted
            prefetches — one hint per new block a stream enters.  The
            default (64 B, one cache line) serves every front-end: the
            VWB de-duplicates redundant hints internally at window
            granularity, while plain caches need one hint per line.
            Must be positive.
        scalar_replacement: Hoist loop-invariant references out of
            innermost loops (on, like any optimising compiler).
        layout_base: Base address for array layout when the program has
            not been laid out yet.
        annotate_ir: Emit a zero-cost :class:`~repro.workloads.trace.IRMark`
            each time a loop (level) is entered, labelled with the dotted
            loop-variable path (e.g. ``"i.k.j"``).  Off by default so the
            figures' traces are byte-identical to the seed; the profiler
            turns it on to get per-IR-loop cycle subtotals.

    Raises:
        ConfigurationError: If ``prefetch_block_bytes`` is not positive.
    """

    prefetch_block_bytes: int = 64
    scalar_replacement: bool = True
    layout_base: int = 0x10_0000
    annotate_ir: bool = False

    def __post_init__(self) -> None:
        if self.prefetch_block_bytes <= 0:
            raise ConfigurationError(
                f"prefetch_block_bytes must be positive, got {self.prefetch_block_bytes}"
            )


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

    Programs are lowered by :func:`encode_trace`; this serves traces that
    exist only as events, such as hand-built lists and the audit's
    trace prefixes.

    Args:
        events: Trace events in program order.

    Returns:
        The equivalent :class:`EncodedTrace`.
    """
    out = _Columns(TraceConfig())
    op_append = out.opcodes.append
    for ev in events:
        kind = type(ev)
        if kind is Load:
            op_append(OP_LOAD)
            out.load_addrs.append(ev.addr)
            out.load_sizes.append(ev.size)
        elif kind is Compute:
            op_append(OP_COMPUTE)
            out.ops.append(ev.ops)
        elif kind is Store:
            op_append(OP_STORE)
            out.store_addrs.append(ev.addr)
            out.store_sizes.append(ev.size)
        elif kind is Branch:
            op_append(OP_BRANCH)
            out.taken.append(1 if ev.taken else 0)
        elif kind is Prefetch:
            op_append(OP_PREFETCH)
            out.pf_addrs.append(ev.addr)
        elif kind is IRMark:
            out.mark(ev.label)
        else:
            raise TypeError(f"cannot encode trace event {ev!r}")
    return out.trace()


def encode_trace(program: Program, config: TraceConfig = TraceConfig()) -> EncodedTrace:
    """Lower ``program`` to its :class:`EncodedTrace` (see the module docstring).

    Arrays without an address are laid out from ``config.layout_base``
    first.  Peak memory is the columns themselves; no event object is
    created.
    """
    if any(a.base_addr is None for a in program.arrays):
        program.layout(base_addr=config.layout_base)
    lowering = _Columns(config)
    env: Dict[str, int] = {}
    for node in program.body:
        lowering.node(node, env, "")
    return lowering.trace()


class _Plan:
    """One innermost loop's references, split and shaped once per lowering.

    ``preloads``/``poststores`` are the hoisted loop-invariant references
    (scalar replacement), de-duplicated by (array, subscripts); ``refs``
    are the per-iteration references in emission order, and ``stmts``
    holds ``(reads, ops, writes)`` per statement.
    """

    __slots__ = ("var", "preloads", "poststores", "refs", "stmts", "width", "every", "shapes")

    def __init__(self, node: Loop, cfg: TraceConfig) -> None:
        self.var = node.var
        self.preloads, self.poststores, self.refs = [], [], []
        self.stmts: List[tuple] = []
        self.width = max(1, node.vector_width)
        self.every = max(1, node.unroll)
        self.shapes: Dict[int, tuple] = {}
        seen_loads: set = set()
        seen_stores: set = set()

        def kept(refs, hoisted, seen):
            inner = []
            for ref in refs:
                if cfg.scalar_replacement and ref.stride_elements(node.var) == 0:
                    key = (id(ref.array), ref.indices)
                    if key not in seen:
                        seen.add(key)
                        hoisted.append(ref)
                else:
                    inner.append(ref)
            return inner

        for statement in node.statements():
            reads = kept(statement.reads, self.preloads, seen_loads)
            writes = kept(statement.writes, self.poststores, seen_stores)
            self.stmts.append((reads, statement.flops + statement.overhead_ops, writes))
            self.refs += reads + writes

    def shape(self, width: int) -> tuple:
        """The events of one chunk of ``width`` iterations.

        Returns ``(opcodes, load_streams, load_sizes, store_streams,
        store_sizes, ops)``.  A stream ``(slot, lane, step)`` puts its
        access at ``base[slot] + step * (first + lane)`` for a chunk
        starting ``first`` iterations into the loop, ``base[slot]`` being
        ``refs[slot]``'s address at the first iteration.  Stride-1
        references are one wide access, stride-0 ones one scalar access,
        any other stride one access per lane (gather/scatter).
        """
        shape = self.shapes.get(width)
        if shape is not None:
            return shape
        opcodes, ops = bytearray(), array("q")
        streams = {OP_LOAD: [], OP_STORE: []}
        sizes = {OP_LOAD: array("q"), OP_STORE: array("q")}
        slots = iter(range(len(self.refs)))

        def access(opcode: int, ref) -> None:
            slot, elem = next(slots), ref.array.elem_bytes
            stride = ref.stride_elements(self.var)
            if stride == 1:
                lanes, size = [(slot, 0, elem)], width * elem
            elif stride == 0:
                lanes, size = [(slot, 0, 0)], elem
            else:
                lanes, size = [(slot, lane, stride * elem) for lane in range(width)], elem
            streams[opcode] += lanes
            sizes[opcode] += array("q", (size,)) * len(lanes)
            opcodes.extend(bytes((opcode,)) * len(lanes))

        for reads, count, writes in self.stmts:
            for ref in reads:
                access(OP_LOAD, ref)
            opcodes.append(OP_COMPUTE)
            ops.append(count)
            for ref in writes:
                access(OP_STORE, ref)
        shape = self.shapes[width] = (bytes(opcodes), streams[OP_LOAD], sizes[OP_LOAD],
                                      streams[OP_STORE], sizes[OP_STORE], ops)
        return shape


def _interleave(streams: list, bases: List[int], count: int, width: int, first: int) -> "array":
    """The addresses of ``streams`` over ``count`` chunks, in program order."""
    column = array("q", (0,)) * (len(streams) * count)
    for index, (slot, lane, step) in enumerate(streams):
        start, stride = bases[slot] + step * (first + lane), step * width
        column[index :: len(streams)] = (
            array("q", range(start, start + stride * count, stride))
            if stride
            else array("q", (start,)) * count
        )
    return column


class _Columns:
    """Trace columns being filled, and the loop-tree walk that fills them."""

    def __init__(self, cfg: TraceConfig) -> None:
        self.cfg = cfg
        self.opcodes = bytearray()
        self.load_addrs, self.load_sizes = array("q"), array("q")
        self.store_addrs, self.store_sizes = array("q"), array("q")
        self.pf_addrs = array("q")
        self.ops = array("q")
        self.taken = array("b")
        self.marks = array("i")
        self.labels: Dict[str, int] = {}
        self.plans: Dict[int, _Plan] = {}

    def trace(self) -> EncodedTrace:
        return EncodedTrace(
            bytes(self.opcodes), self.load_addrs, self.load_sizes, self.store_addrs,
            self.store_sizes, self.pf_addrs, self.ops, self.taken, self.marks,
            tuple(self.labels),
        )

    def mark(self, label: str) -> None:
        self.opcodes.append(OP_MARK)
        self.marks.append(self.labels.setdefault(label, len(self.labels)))

    def access(self, opcode: int, ref, env: Dict[str, int]) -> None:
        if opcode == OP_LOAD:
            addrs, sizes = self.load_addrs, self.load_sizes
        else:
            addrs, sizes = self.store_addrs, self.store_sizes
        addrs.append(ref.addr(env))
        sizes.append(ref.array.elem_bytes)
        self.opcodes.append(opcode)

    def node(self, node: Node, env: Dict[str, int], path: str) -> None:
        if isinstance(node, Statement):
            for ref in node.reads:
                self.access(OP_LOAD, ref, env)
            self.opcodes.append(OP_COMPUTE)
            self.ops.append(node.flops + node.overhead_ops)
            for ref in node.writes:
                self.access(OP_STORE, ref, env)
            return
        label = f"{path}.{node.var.name}" if path else node.var.name
        if node.is_innermost:
            self.innermost(node, env, label)
            return
        lo = node.lower.evaluate(env)
        hi = node.upper.evaluate(env)
        every = max(1, node.unroll)
        for i, v in enumerate(range(lo, hi)):
            env[node.var.name] = v
            if self.cfg.annotate_ir:
                # Re-marked each iteration so the region pops back correctly
                # after a nested loop overrode it.
                self.mark(label)
            for child in node.body:
                self.node(child, env, label)
            if (i + 1) % every == 0 or v == hi - 1:
                self.opcodes.append(OP_BRANCH)
                self.taken.append(v != hi - 1)
        env.pop(node.var.name, None)

    def innermost(self, node: Loop, env: Dict[str, int], label: str) -> None:
        lo = node.lower.evaluate(env)
        hi = node.upper.evaluate(env)
        if hi <= lo:
            return
        if self.cfg.annotate_ir:
            self.mark(label)
        plan = self.plans.get(id(node))
        if plan is None:
            plan = self.plans[id(node)] = _Plan(node, self.cfg)
        env[node.var.name] = lo
        for ref in plan.preloads:
            self.access(OP_LOAD, ref, env)

        # Every subscript is affine in the loop variable, so a reference
        # advances by a fixed byte stride: its address at the first
        # iteration is all the walk has to evaluate.
        bases = [ref.addr(env) for ref in plan.refs]
        width, every = plan.width, plan.every
        full_chunks, tail = divmod(hi - lo, width)
        full = last = plan.shape(width)
        runs = [(full, full_chunks, width, 0)]
        if tail:
            last = plan.shape(tail)
            runs.append((last, 1, tail, full_chunks * width))
        for shape, count, size, first in runs:
            _, loads, load_sizes, stores, store_sizes, ops = shape
            self.load_addrs += _interleave(loads, bases, count, size, first)
            self.load_sizes += load_sizes * count
            self.store_addrs += _interleave(stores, bases, count, size, first)
            self.store_sizes += store_sizes * count
            self.ops += ops * count
        branches = -(-(full_chunks + (tail > 0)) // every)
        self.taken += array("b", (1,)) * (branches - 1)
        self.taken.append(0)

        body = full[0]
        if node.prefetch:
            self.prefetching(node, plan, env, lo, hi, body, last[0])
        else:
            self.opcodes += (body * every + bytes((OP_BRANCH,))) * (full_chunks // every)
            self.opcodes += body * (full_chunks % every)
            if tail:
                self.opcodes += last[0]
            if full_chunks % every or tail:
                self.opcodes.append(OP_BRANCH)

        for ref in plan.poststores:
            self.access(OP_STORE, ref, env)
        env.pop(node.var.name, None)

    def prefetching(
        self, node: Loop, plan: _Plan, env: Dict[str, int], lo: int, hi: int,
        body: bytes, last: bytes,
    ) -> None:
        """The opcodes of a prefetching loop, one chunk at a time.

        Prefetches run ahead of the demand stream.  The first chunk also
        prefetches its *own* data — the paper's "cutting initial delay
        time to fetch critical data to the VWB" — which keeps the
        fill-buffer pipeline in phase from the start.
        """
        block_bytes = self.cfg.prefetch_block_bytes
        width, every = plan.width, plan.every
        streams = [
            (ref.addr(env), ref.stride_bytes(node.var), distance)
            for ref, distance in node.prefetch
        ]
        blocks: List = [None] * len(streams)
        opcodes, pf_append = self.opcodes, self.pf_addrs.append
        for index, v in enumerate(range(lo, hi, width), 1):
            for p, (base, step, distance) in enumerate(streams):
                ahead = min(v + distance, hi - 1)
                for target in (v, ahead) if v == lo else (ahead,):
                    addr = base + step * (target - lo)
                    if addr // block_bytes != blocks[p]:
                        blocks[p] = addr // block_bytes
                        pf_append(addr)
                        opcodes.append(OP_PREFETCH)
            opcodes += body if v + width <= hi else last
            if index % every == 0 or v + width >= hi:
                opcodes.append(OP_BRANCH)
