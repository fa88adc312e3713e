"""Vertex sets as dense bitmasks.

A ``VertexSet`` is a plain Python int used as a bitset over the d^n vertex
ids: bit v is set iff vertex v belongs to the set.  Intersection, union,
symmetric difference, and equality are then single int operations, which is
what the ball comparisons and the hitting-set solver spend their time on.
"""

from __future__ import annotations

from typing import Iterable, Iterator

VertexSet = int


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
    """Yield the vertex ids in `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def to_ids(mask: VertexSet) -> list[int]:
    return list(bits(mask))


def popcount(mask: VertexSet) -> int:
    return mask.bit_count()
