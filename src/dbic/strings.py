"""Strings over the alphabet [d] = {0, ..., d-1}, their encoding and parser.

A vertex of the de Bruijn graph is a length-n word x1 x2 ... xn.  Indexing is
1-based in documentation and error messages; internally digits live in a
tuple.  Every string packs into one 64-bit word (see PACKED_BITS), which caps
n but keeps encode/decode and all downstream bitset work cheap.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InvalidParameters, VertexParseError

# A DBString must fit in one machine word: n * bits_per_symbol(d) <= 64.
PACKED_BITS = 64

# A symbol of a comma-separated literal; a sign is let through so that a
# negative symbol is reported as out of range, not as unparsable.
_INTEGER = re.compile(r"-?[0-9]+")


def bits_per_symbol(d: int) -> int:
    return max(1, (d - 1).bit_length())


def max_length(d: int) -> int:
    """Largest n for which a length-n string over [d] packs into one word."""
    return PACKED_BITS // bits_per_symbol(d)


@dataclass(frozen=True)
class DBString:
    """An immutable word over [d].

    The empty word (n = 0) is permitted so that pattern middles are
    representable; graph vertices always have n >= 1.
    """

    d: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if self.d < 2:
            raise InvalidParameters("alphabet size must satisfy d >= 2", d=self.d)
        n = len(self.digits)
        if n * bits_per_symbol(self.d) > PACKED_BITS:
            raise InvalidParameters(
                f"string length exceeds the packed-word cap (max n={max_length(self.d)})",
                d=self.d, n=n,
            )
        for i, digit in enumerate(self.digits):
            if not 0 <= digit < self.d:
                raise InvalidParameters(
                    f"digit x{i + 1}={digit} outside [0, {self.d})", d=self.d,
                )

    @property
    def n(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        if self.d <= 10:
            return "".join(str(x) for x in self.digits)
        return ",".join(str(x) for x in self.digits)

    @classmethod
    def parse(cls, text: str, d: int) -> "DBString":
        """Parse a vertex literal.

        For d <= 10 the form is a contiguous digit string ("0112"); for
        d > 10 it is comma-separated integers ("10,0,12").  Only the ASCII
        digits 0-9 count as digits.  Errors name the offending 1-based
        position.
        """
        if d < 2:
            raise InvalidParameters("alphabet size must satisfy d >= 2", d=d)
        if not text:
            raise VertexParseError(text, 1, "empty vertex string")
        if d <= 10:
            digits = []
            for i, ch in enumerate(text):
                if not "0" <= ch <= "9":
                    raise VertexParseError(text, i + 1, f"{ch!r} is not a digit")
                value = int(ch)
                if value >= d:
                    raise VertexParseError(text, i + 1, f"digit {value} >= d={d}")
                digits.append(value)
            return cls(d, tuple(digits))
        digits = []
        for i, part in enumerate(text.split(",")):
            part = part.strip()
            if not _INTEGER.fullmatch(part):
                raise VertexParseError(text, i + 1, f"{part!r} is not an integer")
            value = int(part)
            if not 0 <= value < d:
                raise VertexParseError(text, i + 1, f"symbol {value} outside [0, {d})")
            digits.append(value)
        return cls(d, tuple(digits))


def encode(x: DBString) -> int:
    """Big-endian base-d value of x; strictly monotone in lexicographic order."""
    value = 0
    for digit in x.digits:
        value = value * x.d + digit
    return value


def decode(v: int, d: int, n: int) -> DBString:
    """Inverse of encode for ids in [0, d^n)."""
    if not 0 <= v < d ** n:
        raise InvalidParameters("vertex id outside [0, d^n)", id=v, d=d, n=n)
    digits = [0] * n
    for i in range(n - 1, -1, -1):
        v, digits[i] = divmod(v, d)
    return DBString(d, tuple(digits))
