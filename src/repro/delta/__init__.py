"""Concrete differencing mechanisms that populate the Δ/Φ matrices.

Every encoder implements :class:`~repro.delta.base.DeltaEncoder`:
``diff(source, target)`` returns a :class:`~repro.delta.base.Delta` carrying
both a storage cost (Δ entry) and a recreation cost (Φ entry), and
``apply(source, delta)`` reconstructs the target payload.
"""

from .base import Delta, DeltaEncoder, MaterializedPayload, payload_size
from .cell_diff import CellDiffEncoder
from .command_delta import CommandDeltaEncoder, EditCommand, apply_commands
from .compression import CompressedEncoder, compression_ratio, gzip_size
from .line_diff import LineDiffEncoder, TwoWayLineDiffEncoder, line_operations
from .xor_diff import XorDeltaEncoder, run_length_decode, run_length_encode

__all__ = [
    "Delta",
    "DeltaEncoder",
    "MaterializedPayload",
    "payload_size",
    "CellDiffEncoder",
    "CommandDeltaEncoder",
    "EditCommand",
    "apply_commands",
    "CompressedEncoder",
    "compression_ratio",
    "gzip_size",
    "LineDiffEncoder",
    "TwoWayLineDiffEncoder",
    "line_operations",
    "XorDeltaEncoder",
    "run_length_decode",
    "run_length_encode",
]
