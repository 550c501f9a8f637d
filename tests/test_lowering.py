"""The IR lowering against the reference tree walk, column for column.

:func:`repro.workloads.encode.encode_trace` builds trace columns straight
from the loop IR.  ``tests/trace_oracle.py`` keeps the event-at-a-time
tree walk it replaced; every column of the lowering (opcodes, each
operand column, marks and the label table) must equal
``encode_events(oracle_trace(program, config))`` exactly:

- for every kernel at every optimisation level, IR annotations on and
  off, at the MINI size, plus a SMALL subset;
- for random loop nests exercising every lowering case: vector chunk
  tails, unrolling, prefetch de-duplication, stride-0/1/other
  references, triangular, empty and one-trip bounds, and statements
  outside innermost loops.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transforms.pipeline import OptLevel, optimize
from repro.workloads import build_kernel, kernel_names
from repro.workloads.affine import Var
from repro.workloads.datasets import DatasetSize
from repro.workloads.encode import encode_events, encode_trace
from repro.workloads.interp import TraceConfig
from repro.workloads.ir import Array, Loop, Program, Statement

from .trace_oracle import oracle_trace

COLUMNS = (
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
)


def assert_same_columns(program, config):
    expected = encode_events(oracle_trace(program, config))
    lowered = encode_trace(program, config)
    for column in COLUMNS:
        assert getattr(lowered, column) == getattr(expected, column), column


def _program(kernel, level, size=DatasetSize.MINI):
    base = build_kernel(kernel, size)
    return optimize(base, level) if level is not OptLevel.NONE else base


class TestKernels:
    @pytest.mark.parametrize("annotate", [False, True])
    @pytest.mark.parametrize("level", list(OptLevel))
    @pytest.mark.parametrize("kernel", kernel_names())
    def test_mini(self, kernel, level, annotate):
        assert_same_columns(_program(kernel, level), TraceConfig(annotate_ir=annotate))

    @pytest.mark.parametrize("level", [OptLevel.NONE, OptLevel.FULL])
    @pytest.mark.parametrize("kernel", ["atax", "trmm", "syr2k"])
    def test_small(self, kernel, level):
        program = _program(kernel, level, DatasetSize.SMALL)
        assert_same_columns(program, TraceConfig(annotate_ir=level is OptLevel.FULL))


I, J, K = Var("i"), Var("j"), Var("k")


@st.composite
def nests(draw):
    """A random loop nest, one to three deep, with random annotations."""
    a = Array("A", (8, 12))
    b = Array("B", (64,), elem_bytes=8)
    # Laid out by hand so prefetch directives may name either array even
    # when no statement does.
    a.base_addr, b.base_addr = 0x1000, 0x2000

    def subscript(variables):
        expr = draw(st.integers(0, 5))
        for var in variables:
            expr = expr + draw(st.sampled_from((-1, 0, 0, 1, 1, 2, 3))) * var
        return expr

    def ref(variables):
        array = draw(st.sampled_from((a, b)))
        return array[tuple(subscript(variables) for _ in array.shape)]

    def statement(variables):
        return Statement(
            reads=[ref(variables) for _ in range(draw(st.integers(0, 3)))],
            writes=[ref(variables) for _ in range(draw(st.integers(0, 2)))],
            flops=draw(st.integers(0, 3)),
            overhead_ops=draw(st.integers(0, 2)),
        )

    def nest(depth, outer):
        var = (I, J, K)[len(outer)]
        lower = draw(st.sampled_from([0, 1] + outer))
        upper = draw(
            st.one_of(
                st.integers(0, 7),
                st.builds(lambda v, c: v + c, st.sampled_from(outer or [0]), st.integers(-1, 3)),
            )
        )
        variables = outer + [var]
        if depth == 1:
            body = [statement(variables) for _ in range(draw(st.integers(1, 2)))]
        else:
            body = [nest(depth - 1, variables)]
            if draw(st.booleans()):
                body.insert(0, statement(variables))
            if draw(st.booleans()):
                body.append(statement(variables))
        node = Loop(var, lower, upper, body)
        node.vector_width = draw(st.sampled_from((1, 2, 3, 4, 8)))
        node.unroll = draw(st.integers(1, 4))
        if depth == 1 and draw(st.booleans()):
            node.prefetch = [
                (ref(variables), draw(st.integers(0, 6)))
                for _ in range(draw(st.integers(1, 2)))
            ]
        return node

    body = [nest(draw(st.integers(1, 3)), [])]
    if draw(st.booleans()):
        body.append(statement([]))
    return Program("rand", body)


configs = st.builds(
    TraceConfig,
    prefetch_block_bytes=st.sampled_from((4, 16, 64)),
    scalar_replacement=st.booleans(),
    annotate_ir=st.booleans(),
)


class TestRandomNests:
    @given(nests(), configs)
    @settings(max_examples=300, deadline=None)
    def test_columns_match_oracle(self, program, config):
        assert_same_columns(program, config)
