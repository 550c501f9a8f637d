"""The reference tree walk: affine IR -> trace event objects.

This is the interpreter the simulator used before traces were lowered
straight to columns (:func:`repro.workloads.encode.encode_trace`).  It
walks the loop tree with an explicit variable environment, evaluates
every subscript with :meth:`~repro.workloads.ir.Ref.addr` and yields one
event object per access.  It is kept here, unchanged, as the oracle the
lowering is diffed against: ``encode_events(oracle_trace(p, cfg))`` must
equal ``encode_trace(p, cfg)`` column for column (``tests/test_lowering.py``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.workloads.interp import TraceConfig
from repro.workloads.ir import Loop, Node, Program, Ref, Statement
from repro.workloads.trace import (
    IRMark,
    Load,
    Prefetch,
    Store,
    TraceEvent,
    branch_event,
    compute_event,
)


def oracle_trace(program: Program, config: TraceConfig = TraceConfig()) -> Iterator[TraceEvent]:
    """Yield the architectural events of one execution of ``program``."""
    if any(a.base_addr is None for a in program.arrays):
        program.layout(base_addr=config.layout_base)
    env: Dict[str, int] = {}
    split_memo: Dict[int, tuple] = {}
    for node in program.body:
        yield from _run_node(node, env, config, "", split_memo)


# ----------------------------------------------------------------------
# Tree walk
# ----------------------------------------------------------------------


def _run_node(
    node: Node,
    env: Dict[str, int],
    cfg: TraceConfig,
    path: str = "",
    split_memo: Optional[Dict[int, tuple]] = None,
) -> Iterator[TraceEvent]:
    if isinstance(node, Statement):
        yield from _run_statement(node, env)
        return
    if node.is_innermost:
        yield from _run_innermost(node, env, cfg, path, split_memo)
        return
    lo = node.lower.evaluate(env)
    hi = node.upper.evaluate(env)
    branch_every = max(1, node.unroll)
    label = f"{path}.{node.var.name}" if path else node.var.name
    for i, v in enumerate(range(lo, hi)):
        env[node.var.name] = v
        if cfg.annotate_ir:
            # Re-marked each iteration so the region pops back correctly
            # after a nested loop overrode it.
            yield IRMark(label)
        for child in node.body:
            yield from _run_node(child, env, cfg, label, split_memo)
        if (i + 1) % branch_every == 0 or v == hi - 1:
            yield branch_event(v != hi - 1)
    env.pop(node.var.name, None)


def _run_statement(node: Statement, env: Dict[str, int]) -> Iterator[TraceEvent]:
    """Execute one statement outside any innermost-loop specialisation."""
    for ref in node.reads:
        yield Load(ref.addr(env), ref.array.elem_bytes)
    yield compute_event(node.flops + node.overhead_ops)
    for ref in node.writes:
        yield Store(ref.addr(env), ref.array.elem_bytes)


# ----------------------------------------------------------------------
# Innermost-loop specialisation
# ----------------------------------------------------------------------


def _split_refs(
    node: Loop, cfg: TraceConfig
) -> Tuple[List[Ref], List[Ref], List[Tuple[Statement, List[Ref], List[Ref]]]]:
    """Partition references into hoisted (loop-invariant) and per-iteration.

    Returns:
        ``(preloads, poststores, per_stmt)`` where ``per_stmt`` holds, for
        each statement, the read and write refs that remain inside the
        loop.  Hoisted refs are de-duplicated across statements by
        (array, subscripts).
    """
    preloads: List[Ref] = []
    poststores: List[Ref] = []
    seen_loads: set = set()
    seen_stores: set = set()
    per_stmt: List[Tuple[Statement, List[Ref], List[Ref]]] = []
    for statement in node.statements():
        inner_reads: List[Ref] = []
        inner_writes: List[Ref] = []
        for ref in statement.reads:
            if cfg.scalar_replacement and ref.stride_elements(node.var) == 0:
                key = (id(ref.array), ref.indices)
                if key not in seen_loads:
                    seen_loads.add(key)
                    preloads.append(ref)
            else:
                inner_reads.append(ref)
        for ref in statement.writes:
            if cfg.scalar_replacement and ref.stride_elements(node.var) == 0:
                key = (id(ref.array), ref.indices)
                if key not in seen_stores:
                    seen_stores.add(key)
                    poststores.append(ref)
            else:
                inner_writes.append(ref)
        per_stmt.append((statement, inner_reads, inner_writes))
    return preloads, poststores, per_stmt


def _run_innermost(
    node: Loop,
    env: Dict[str, int],
    cfg: TraceConfig,
    path: str = "",
    split_memo: Optional[Dict[int, tuple]] = None,
) -> Iterator[TraceEvent]:
    lo = node.lower.evaluate(env)
    hi = node.upper.evaluate(env)
    if hi <= lo:
        return
    if cfg.annotate_ir:
        yield IRMark(f"{path}.{node.var.name}" if path else node.var.name)
    if split_memo is None:
        preloads, poststores, per_stmt = _split_refs(node, cfg)
    else:
        split = split_memo.get(id(node))
        if split is None:
            split = split_memo[id(node)] = _split_refs(node, cfg)
        preloads, poststores, per_stmt = split

    # Hoisted loads execute once, before the loop (scalar replacement).
    env[node.var.name] = lo
    for ref in preloads:
        yield Load(ref.addr(env), ref.array.elem_bytes)

    width = max(1, node.vector_width)
    branch_every = max(1, node.unroll)

    if width == 1 and not node.prefetch:
        # Scalar fast path.  Every subscript is affine in the loop
        # variable, so each reference advances by a fixed byte stride
        # per iteration: addr(v) = addr(lo) + stride * (v - lo), exact
        # integer arithmetic.  Precomputing (base, stride) per reference
        # replaces the per-iteration env writes and affine evaluation of
        # the generic loop with one multiply-add per access.
        var, trips = node.var, hi - lo
        plans = [
            (
                [(ref.addr(env), ref.stride_bytes(var), ref.array.elem_bytes) for ref in reads],
                statement.flops + statement.overhead_ops,
                [(ref.addr(env), ref.stride_bytes(var), ref.array.elem_bytes) for ref in writes],
            )
            for statement, reads, writes in per_stmt
        ]
        for off in range(trips):
            for read_plan, ops_count, write_plan in plans:
                for base, step, elem in read_plan:
                    yield Load(base + step * off, elem)
                yield compute_event(ops_count)
                for base, step, elem in write_plan:
                    yield Store(base + step * off, elem)
            done = off + 1
            if done % branch_every == 0 or done == trips:
                yield branch_event(done != trips)
        # Hoisted stores execute once, after the loop.
        env[node.var.name] = lo
        for ref in poststores:
            yield Store(ref.addr(env), ref.array.elem_bytes)
        env.pop(node.var.name, None)
        return

    last_prefetch_block: Dict[int, int] = {}

    chunk_index = 0
    v = lo
    while v < hi:
        chunk = min(width, hi - v)
        env[node.var.name] = v

        # Software prefetches run ahead of the demand stream.  The first
        # iteration also prefetches its *own* data — the paper's "cutting
        # initial delay time to fetch critical data to the VWB" — which
        # keeps the fill-buffer pipeline in phase from the start.
        for pf_index, (ref, distance) in enumerate(node.prefetch):
            saved = env[node.var.name]
            targets = (v, min(v + distance, hi - 1)) if v == lo else (min(v + distance, hi - 1),)
            for target in targets:
                env[node.var.name] = target
                addr = ref.addr(env)
                block = addr // cfg.prefetch_block_bytes
                if last_prefetch_block.get(pf_index) != block:
                    last_prefetch_block[pf_index] = block
                    yield Prefetch(addr)
            env[node.var.name] = saved

        for statement, reads, writes in per_stmt:
            for ref in reads:
                yield from _emit_access(ref, node, env, v, chunk, Load)
            yield compute_event(statement.flops + statement.overhead_ops)
            for ref in writes:
                yield from _emit_access(ref, node, env, v, chunk, Store)

        chunk_index += 1
        last = v + chunk >= hi
        if chunk_index % branch_every == 0 or last:
            yield branch_event(not last)
        v += chunk

    # Hoisted stores execute once, after the loop.
    env[node.var.name] = lo
    for ref in poststores:
        yield Store(ref.addr(env), ref.array.elem_bytes)
    env.pop(node.var.name, None)


def _emit_access(
    ref: Ref, node: Loop, env: Dict[str, int], v: int, chunk: int, factory
) -> Iterator[TraceEvent]:
    """Emit the access(es) for one reference over one chunk of iterations.

    A chunk of one iteration is the scalar case; wider chunks model SIMD:
    stride-1 refs become a single wide access, other strides become
    per-lane accesses (gather/scatter).
    """
    elem = ref.array.elem_bytes
    if chunk == 1:
        yield factory(ref.addr(env), elem)
        return
    stride = ref.stride_elements(node.var)
    if stride == 0:
        yield factory(ref.addr(env), elem)
        return
    if stride == 1:
        yield factory(ref.addr(env), chunk * elem)
        return
    saved = env[node.var.name]
    for lane in range(chunk):
        env[node.var.name] = v + lane
        yield factory(ref.addr(env), elem)
    env[node.var.name] = saved
