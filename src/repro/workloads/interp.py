"""Trace event objects for a program: lazy decodes of its lowering.

:func:`repro.workloads.encode.encode_trace` is the one IR-to-trace
lowering; its module docstring states the emission rules.  The
functions here serve the same trace as event objects
(:mod:`repro.workloads.trace`) for callers that want objects:
:func:`generate_trace` decodes lazily, :func:`materialize_trace` into a
list.  :class:`~repro.workloads.encode.TraceConfig` is re-exported here.
"""

from __future__ import annotations

from typing import Iterator, List

from .encode import TraceConfig, encode_trace
from .ir import Program
from .trace import TraceEvent

__all__ = ["TraceConfig", "generate_trace", "materialize_trace"]


def generate_trace(program: Program, config: TraceConfig = TraceConfig()) -> Iterator[TraceEvent]:
    """Yield the architectural events of one execution of ``program``."""
    yield from encode_trace(program, config)


def materialize_trace(program: Program, config: TraceConfig = TraceConfig()) -> List[TraceEvent]:
    """Generate the whole trace as a list (reused across configurations)."""
    return encode_trace(program, config).decode()
