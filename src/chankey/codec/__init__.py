"""Sparse-code syndrome reconciliation: matrices, keys, and decoders."""

from .decode import (
    DecodeResult,
    decode_binary,
    decode_quaternary,
    decode_with_phase_offset,
    evidence_to_llr,
)
from .matrix import (
    SparseParityCheck,
    construct_irregular,
    construct_regular,
    coset_index,
)

__all__ = [
    "DecodeResult",
    "SparseParityCheck",
    "construct_irregular",
    "construct_regular",
    "coset_index",
    "decode_binary",
    "decode_quaternary",
    "decode_with_phase_offset",
    "evidence_to_llr",
]
