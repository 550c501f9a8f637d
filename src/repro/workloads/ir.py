"""Affine loop-nest intermediate representation for PolyBench-style kernels.

A :class:`Program` is a list of top-level :class:`Loop`/:class:`Statement`
nodes.  Loops carry optional *transformation annotations* (vector width,
unroll factor, prefetch directives) that the passes in
:mod:`repro.transforms` set and the lowering in
:mod:`repro.workloads.encode` honours — the IR analogue of the paper's
compile-time intrinsic flags.

Example (the heart of ``gemm``)::

    i, j, k = Var("i"), Var("j"), Var("k")
    A, B, C = Array("A", (NI, NK)), Array("B", (NK, NJ)), Array("C", (NI, NJ))
    body = loop(i, NI, [
        loop(j, NJ, [stmt(reads=[C[i, j]], writes=[C[i, j]], flops=1)]),
        loop(k, NK, [
            loop(j, NJ, [
                stmt(reads=[C[i, j], A[i, k], B[k, j]], writes=[C[i, j]], flops=2),
            ]),
        ]),
    ])
    prog = Program("gemm", [body])
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import WorkloadError
from .affine import Affine, AffineLike, Var

#: Default element size: PolyBench's DATA_TYPE is float (4 bytes) by
#: default; kernels may override per array.
DEFAULT_ELEM_BYTES = 4


class Array:
    """A dense, row-major array living in the simulated address space.

    Attributes:
        name: Identifier used in reports.
        shape: Extent of each dimension, in elements.
        elem_bytes: Bytes per element.
        base_addr: Byte address assigned by :meth:`Program.layout`
            (``None`` until layout runs).
    """

    __slots__ = ("name", "shape", "elem_bytes", "base_addr", "_row_strides")

    def __init__(
        self, name: str, shape: Sequence[int], elem_bytes: int = DEFAULT_ELEM_BYTES
    ) -> None:
        if not name:
            raise WorkloadError("array needs a non-empty name")
        if not shape or any(d <= 0 for d in shape):
            raise WorkloadError(f"array {name!r} needs positive dimensions, got {shape}")
        if elem_bytes <= 0:
            raise WorkloadError(f"array {name!r} needs a positive element size")
        self.name = name
        self.shape: Tuple[int, ...] = tuple(int(d) for d in shape)
        self.elem_bytes = elem_bytes
        self.base_addr: Optional[int] = None
        self._row_strides: Optional[Tuple[int, ...]] = None

    @property
    def elements(self) -> int:
        """Total element count."""
        n = 1
        for d in self.shape:
            n *= d
        return n

    @property
    def size_bytes(self) -> int:
        """Total footprint in bytes."""
        return self.elements * self.elem_bytes

    @property
    def row_strides(self) -> Tuple[int, ...]:
        """Element stride of each dimension under row-major layout."""
        cached = self._row_strides
        if cached is None:
            strides = [1] * len(self.shape)
            for d in range(len(self.shape) - 2, -1, -1):
                strides[d] = strides[d + 1] * self.shape[d + 1]
            cached = self._row_strides = tuple(strides)
        return cached

    def __getitem__(self, indices: Union[AffineLike, Tuple[AffineLike, ...]]) -> "Ref":
        if not isinstance(indices, tuple):
            indices = (indices,)
        return Ref(self, tuple(Affine.of(ix) for ix in indices))

    def __repr__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        return f"Array({self.name}[{dims}])"


class Ref:
    """A subscripted reference to an :class:`Array` (e.g. ``A[i, k]``)."""

    __slots__ = ("array", "indices")

    def __init__(self, array: Array, indices: Tuple[Affine, ...]) -> None:
        if len(indices) != len(array.shape):
            raise WorkloadError(
                f"{array.name} has {len(array.shape)} dimensions but was "
                f"subscripted with {len(indices)} indices"
            )
        self.array = array
        self.indices = indices

    def flat_index(self, env: Dict[str, int]) -> int:
        """Row-major element index under ``env``."""
        strides = self.array.row_strides
        flat = 0
        for expr, stride in zip(self.indices, strides):
            flat += expr.evaluate(env) * stride
        return flat

    def addr(self, env: Dict[str, int]) -> int:
        """Byte address under ``env``; requires layout to have run."""
        base = self.array.base_addr
        if base is None:
            raise WorkloadError(f"array {self.array.name!r} has no layout address yet")
        return base + self.flat_index(env) * self.array.elem_bytes

    def stride_elements(self, var: Var) -> int:
        """Element stride of this reference per unit step of ``var``."""
        strides = self.array.row_strides
        total = 0
        for expr, stride in zip(self.indices, strides):
            total += expr.coefficient(var) * stride
        return total

    def stride_bytes(self, var: Var) -> int:
        """Byte stride of this reference per unit step of ``var``."""
        return self.stride_elements(var) * self.array.elem_bytes

    def depends_on(self, var: Var) -> bool:
        """True if any subscript mentions ``var``."""
        return any(expr.coefficient(var) != 0 for expr in self.indices)

    def __repr__(self) -> str:
        subs = ", ".join(repr(ix) for ix in self.indices)
        return f"{self.array.name}[{subs}]"


class Statement:
    """One loop-body statement: reads, writes and arithmetic work.

    ``flops`` counts the statement's arithmetic operations;
    ``overhead_ops`` models addressing/bookkeeping instructions that a
    compiler would emit per execution (defaults to 1).
    """

    __slots__ = ("reads", "writes", "flops", "overhead_ops", "label")

    def __init__(
        self,
        reads: Sequence[Ref],
        writes: Sequence[Ref],
        flops: int,
        overhead_ops: int = 1,
        label: str = "",
    ) -> None:
        if flops < 0 or overhead_ops < 0:
            raise WorkloadError("flops and overhead must be non-negative")
        self.reads: Tuple[Ref, ...] = tuple(reads)
        self.writes: Tuple[Ref, ...] = tuple(writes)
        self.flops = flops
        self.overhead_ops = overhead_ops
        self.label = label

    @property
    def refs(self) -> Tuple[Ref, ...]:
        """All references (reads then writes)."""
        return self.reads + self.writes

    def __repr__(self) -> str:
        return f"Statement({self.label or 'stmt'}: {len(self.reads)}R {len(self.writes)}W)"


Node = Union["Loop", Statement]


class Loop:
    """A counted loop ``for var in [lower, upper)`` over a body of nodes.

    Transformation annotations (all default to the untransformed state):

    - ``vector_width``: >1 after :class:`repro.transforms.Vectorize`; the
      interpreter then processes the loop in SIMD chunks.
    - ``unroll``: >1 after :class:`repro.transforms.BranchOptimize`; the
      interpreter charges one back-edge per ``unroll`` iterations.
    - ``prefetch``: list of ``(ref, distance_iterations)`` directives set
      by :class:`repro.transforms.InsertPrefetch`.
    - ``permutable``: kernel author's promise that this loop may be
      freely interchanged with its perfectly nested child.
    """

    __slots__ = ("var", "lower", "upper", "body", "vector_width", "unroll", "prefetch", "permutable")

    def __init__(
        self,
        var: Var,
        lower: AffineLike,
        upper: AffineLike,
        body: Sequence[Node],
        permutable: bool = False,
    ) -> None:
        if not body:
            raise WorkloadError(f"loop over {var.name} has an empty body")
        self.var = var
        self.lower = Affine.of(lower)
        self.upper = Affine.of(upper)
        self.body: List[Node] = list(body)
        self.vector_width = 1
        self.unroll = 1
        self.prefetch: List[Tuple[Ref, int]] = []
        self.permutable = permutable

    @property
    def is_innermost(self) -> bool:
        """True when the body contains no nested loops."""
        return all(not isinstance(node, Loop) for node in self.body)

    def statements(self) -> List[Statement]:
        """Direct child statements (not descending into nested loops)."""
        return [node for node in self.body if isinstance(node, Statement)]

    def trip_count(self, env: Dict[str, int]) -> int:
        """Iterations executed under ``env`` (0 when bounds are empty)."""
        return max(0, self.upper.evaluate(env) - self.lower.evaluate(env))

    def clone(self) -> "Loop":
        """Deep copy of the loop tree; statements/refs are shared
        (immutable), annotations are copied so passes never mutate the
        original program."""
        copy = Loop(
            self.var,
            self.lower,
            self.upper,
            [node.clone() if isinstance(node, Loop) else node for node in self.body],
            permutable=self.permutable,
        )
        copy.vector_width = self.vector_width
        copy.unroll = self.unroll
        copy.prefetch = list(self.prefetch)
        return copy

    def __repr__(self) -> str:
        return f"Loop({self.var.name} in [{self.lower!r}, {self.upper!r}))"


class Program:
    """A named kernel: top-level nodes plus the arrays they reference.

    Arrays are discovered by walking the references; :meth:`layout`
    assigns row-major base addresses in discovery order.
    """

    def __init__(self, name: str, body: Sequence[Node]) -> None:
        if not body:
            raise WorkloadError(f"program {name!r} has an empty body")
        self.name = name
        self.body: List[Node] = list(body)
        self.arrays: List[Array] = self._collect_arrays()
        self._validate()

    def _collect_arrays(self) -> List[Array]:
        seen: List[Array] = []

        def visit(node: Node) -> None:
            if isinstance(node, Loop):
                for child in node.body:
                    visit(child)
            else:
                for ref in node.refs:
                    if ref.array not in seen:
                        seen.append(ref.array)

        for node in self.body:
            visit(node)
        return seen

    def _validate(self) -> None:
        names = [a.name for a in self.arrays]
        if len(set(names)) != len(names):
            raise WorkloadError(f"program {self.name!r} has duplicate array names: {names}")

    def layout(self, base_addr: int = 0x10_0000, align: int = 64) -> None:
        """Assign base addresses to all arrays.

        Arrays are placed consecutively in discovery order, each aligned
        to ``align`` bytes — the natural contiguous layout a C program
        with global arrays would get, so conflict misses arise naturally.
        """
        if align <= 0 or base_addr < 0:
            raise WorkloadError("layout needs a positive alignment and non-negative base")
        addr = base_addr
        for array in self.arrays:
            addr = (addr + align - 1) // align * align
            array.base_addr = addr
            addr += array.size_bytes

    @property
    def footprint_bytes(self) -> int:
        """Total bytes of all arrays."""
        return sum(a.size_bytes for a in self.arrays)

    def loops(self) -> List[Loop]:
        """All loops in the program, outermost first (preorder)."""
        found: List[Loop] = []

        def visit(node: Node) -> None:
            if isinstance(node, Loop):
                found.append(node)
                for child in node.body:
                    visit(child)

        for node in self.body:
            visit(node)
        return found

    def clone(self) -> "Program":
        """Copy the program tree so transformation passes stay pure."""
        copied = Program(
            self.name,
            [node.clone() if isinstance(node, Loop) else node for node in self.body],
        )
        return copied

    def __repr__(self) -> str:
        return f"Program({self.name!r}, arrays={[a.name for a in self.arrays]})"


def loop(
    var: Var,
    upper: AffineLike,
    body: Sequence[Node],
    lower: AffineLike = 0,
    permutable: bool = False,
) -> Loop:
    """Convenience constructor: ``loop(i, N, [...])`` = ``for i in [0, N)``."""
    return Loop(var, lower, upper, body, permutable=permutable)


def stmt(
    reads: Iterable[Ref] = (),
    writes: Iterable[Ref] = (),
    flops: int = 1,
    overhead_ops: int = 1,
    label: str = "",
) -> Statement:
    """Convenience constructor for :class:`Statement`."""
    return Statement(tuple(reads), tuple(writes), flops, overhead_ops, label)
