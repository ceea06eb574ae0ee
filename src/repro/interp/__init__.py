"""Concrete execution substrate: memory model, interpreter and checksum testing."""

from repro.interp.memory import ArrayRegion, Memory, UBEvent
from repro.interp.interpreter import ExecutionResult, run_function
from repro.interp.checksum import ChecksumReport, checksum_testing

__all__ = [
    "ArrayRegion",
    "Memory",
    "UBEvent",
    "ExecutionResult",
    "run_function",
    "ChecksumReport",
    "checksum_testing",
]
