"""Index hash functions for direct-indexed hardware tables.

The paper's history table is "directly indexed" by either the prefetch line
address (PA scheme) or the triggering PC (PC scheme), through "a hash
function".  Real hardware uses cheap bit-mixing; we provide the three common
choices and a dispatcher so experiments can compare them:

* ``modulo``         — low bits only (what a naive direct index does),
* ``fold_xor``       — XOR-fold the upper bits into the index bits, the usual
                       hardware fix for power-of-two stride aliasing,
* ``multiplicative`` — Knuth's fixed-point golden-ratio multiply, strongest
                       mixing that is still a single multiply in hardware.
"""

from __future__ import annotations

from typing import Callable

_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def fold_xor(value: int, index_bits: int) -> int:
    """XOR-fold a 64-bit value down to ``index_bits`` bits."""
    value &= _MASK64
    folded = 0
    while value:
        folded ^= value
        value >>= index_bits
    return folded & ((1 << index_bits) - 1)


def multiplicative_hash(value: int, index_bits: int) -> int:
    """Fibonacci hashing: multiply by the 64-bit golden ratio, take top bits."""
    return (((value & _MASK64) * _GOLDEN64) & _MASK64) >> (64 - index_bits)


def modulo_hash(value: int, index_bits: int) -> int:
    return value & ((1 << index_bits) - 1)


_HASHES: dict[str, Callable[[int, int], int]] = {
    "modulo": modulo_hash,
    "fold_xor": fold_xor,
    "multiplicative": multiplicative_hash,
}


def table_index(value: int, table_entries: int, scheme: str = "fold_xor") -> int:
    """Map ``value`` to an index in ``[0, table_entries)``.

    ``table_entries`` must be a power of two (checked by the caller's config).
    """
    bits = table_entries.bit_length() - 1
    if bits == 0:
        return 0
    try:
        fn = _HASHES[scheme]
    except KeyError:
        raise ValueError(f"unknown hash scheme {scheme!r}; choose from {sorted(_HASHES)}") from None
    return fn(value, bits)


def available_schemes() -> tuple[str, ...]:
    return tuple(sorted(_HASHES))
