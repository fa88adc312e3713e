"""Vertex sets as dense bitmasks.

A ``VertexSet`` is a plain Python int used as a bitset over the d^n vertex
ids: bit v is set iff vertex v belongs to the set.  Intersection, union,
symmetric difference, and equality are then single int operations, which is
what the ball comparisons and the hitting-set solver spend their time on.
"""

from __future__ import annotations

from typing import Iterable, Iterator

VertexSet = int

# `bits` scans the bytes of masks wider than this.  Per call, loop against
# scan: 8.2 and 13.8 us on 4,096 bits with 10 ids, 815 and 192 with 1,000;
# 8.9 and 27.6 us on 65,536 bits with 1 id, 693 and 134 with 100.
_SCAN_BITS = 4096
_BYTE_BITS = [tuple(k for k in range(8) if b >> k & 1) for b in range(256)]
_NONZERO = bytes([0] + [1] * 255)


def mask_of(ids: Iterable[int]) -> VertexSet:
    """Build a bitmask from an iterable of vertex ids.

    The bits go into one little-endian ``bytearray``, read as an int once:
    one byte update per id, where ``mask |= 1 << v`` would copy the whole
    mask per id.  A negative id raises ``ValueError``."""
    ids = list(ids)
    if not ids:
        return 0
    if min(ids) < 0:
        raise ValueError(f"negative vertex id {min(ids)}")
    buf = bytearray((max(ids) >> 3) + 1)
    for v in ids:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def bits(mask: VertexSet) -> Iterator[int]:
    """The ids in `mask`, ascending; a negative mask raises ``ValueError``.
    Taking the lowest bit negates and XORs the whole int once per id, so
    masks wider than `_SCAN_BITS` are read from their bytes instead, a run
    of nonzero bytes at a time."""
    if mask < 0:
        raise ValueError("negative vertex set mask")
    return (_scan if mask.bit_length() > _SCAN_BITS else _lowest_first)(mask)


def _lowest_first(mask: VertexSet) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _scan(mask: VertexSet) -> Iterator[int]:
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    nonzero = data.translate(_NONZERO)  # 1 per nonzero byte, for `find`
    start = nonzero.find(1)
    while start >= 0:
        end = nonzero.find(0, start)
        if end < 0:
            end = len(data)
        base = 8 * start
        for byte in data[start:end]:
            for k in _BYTE_BITS[byte]:
                yield base + k
            base += 8
        start = nonzero.find(1, end)


def to_ids(mask: VertexSet) -> list[int]:
    return list(bits(mask))


def popcount(mask: VertexSet) -> int:
    return mask.bit_count()
