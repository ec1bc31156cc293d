"""Character classes over the byte alphabet.

A character class is a predicate over the 256-symbol byte alphabet
(paper §2: ``sigma`` is a subset of the alphabet).  We represent a class as
an immutable 256-bit integer mask: bit ``b`` is set iff byte ``b`` belongs to
the class.  Integer masks make the set algebra (union, intersection,
complement) single machine operations and hashing/equality exact.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from .._bits import popcount

ALPHABET_SIZE = 256
_FULL_MASK = (1 << ALPHABET_SIZE) - 1


class CharClass:
    """An immutable set of byte values, used as a transition predicate.

    Instances are hashable and support the usual set operators::

        >>> digits = CharClass.from_range(ord("0"), ord("9"))
        >>> ord("5") in digits
        True
        >>> (digits | CharClass.from_char(ord("a"))).size()
        11
    """

    __slots__ = ("mask",)

    def __init__(self, mask: int) -> None:
        if not 0 <= mask <= _FULL_MASK:
            raise ValueError(f"mask out of range: {mask:#x}")
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CharClass is immutable")

    def __reduce__(self):
        # The immutability guard breaks the default slots-state pickling;
        # reconstructing from the mask keeps instances picklable (shard
        # workers receive whole automata over process boundaries).
        return (CharClass, (self.mask,))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "CharClass":
        """The class matching no symbol."""
        return _EMPTY

    @classmethod
    def any(cls) -> "CharClass":
        """The class matching every byte (the paper's capital-sigma / ``.``)."""
        return _ANY

    @classmethod
    def from_char(cls, byte: int) -> "CharClass":
        """Singleton class for one byte value."""
        if not 0 <= byte < ALPHABET_SIZE:
            raise ValueError(f"byte out of range: {byte}")
        return cls(1 << byte)

    @classmethod
    def from_chars(cls, bytes_: Iterable[int]) -> "CharClass":
        """Class containing exactly the given byte values."""
        mask = 0
        for byte in bytes_:
            if not 0 <= byte < ALPHABET_SIZE:
                raise ValueError(f"byte out of range: {byte}")
            mask |= 1 << byte
        return cls(mask)

    @classmethod
    def from_range(cls, lo: int, hi: int) -> "CharClass":
        """Class for the inclusive byte range ``[lo, hi]``."""
        if not (0 <= lo <= hi < ALPHABET_SIZE):
            raise ValueError(f"bad range: [{lo}, {hi}]")
        return cls(((1 << (hi - lo + 1)) - 1) << lo)

    @classmethod
    def from_string(cls, text: str) -> "CharClass":
        """Class containing the bytes of an ASCII/Latin-1 string."""
        return cls.from_chars(text.encode("latin-1"))

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------

    def __or__(self, other: "CharClass") -> "CharClass":
        return CharClass(self.mask | other.mask)

    def __and__(self, other: "CharClass") -> "CharClass":
        return CharClass(self.mask & other.mask)

    def __sub__(self, other: "CharClass") -> "CharClass":
        return CharClass(self.mask & ~other.mask & _FULL_MASK)

    def __invert__(self) -> "CharClass":
        return CharClass(~self.mask & _FULL_MASK)

    def __contains__(self, byte: int) -> bool:
        return 0 <= byte < ALPHABET_SIZE and bool(self.mask >> byte & 1)

    def matches(self, byte: int) -> bool:
        """True iff the byte satisfies this predicate."""
        return byte in self

    def is_empty(self) -> bool:
        return self.mask == 0

    def is_any(self) -> bool:
        return self.mask == _FULL_MASK

    def size(self) -> int:
        """Number of bytes in the class."""
        return popcount(self.mask)

    def overlaps(self, other: "CharClass") -> bool:
        return bool(self.mask & other.mask)

    def issubset(self, other: "CharClass") -> bool:
        return self.mask & ~other.mask == 0

    def __iter__(self) -> Iterator[int]:
        """The member bytes, ascending, one step per member."""
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CharClass) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def ranges(self) -> List[Tuple[int, int]]:
        """Maximal inclusive byte ranges covered by the class."""
        out: List[Tuple[int, int]] = []
        start = None
        prev = None
        for byte in self:
            if start is None:
                start = prev = byte
            elif byte == prev + 1:
                prev = byte
            else:
                out.append((start, prev))
                start = prev = byte
        if start is not None:
            out.append((start, prev))
        return out

    def __repr__(self) -> str:
        if self.is_any():
            return "CharClass.any()"
        if self.is_empty():
            return "CharClass.empty()"
        return f"CharClass({pretty(self)!r})"


def _fmt_byte(byte: int) -> str:
    char = chr(byte)
    # Escape every regex metacharacter so printed forms re-parse, both
    # standalone and inside bracket classes (extra escapes are harmless).
    if char in "[]^-\\.$|()?*+{}":
        return "\\" + char
    if 0x20 <= byte < 0x7F:
        return char
    return f"\\x{byte:02x}"


def pretty(cc: CharClass) -> str:
    """Human-readable rendering, e.g. ``[a-z0-9]`` or ``a``."""
    if cc.is_any():
        return "."
    if cc.is_empty():
        return "[]"
    ranges = cc.ranges()
    if len(ranges) == 1 and ranges[0][0] == ranges[0][1]:
        return _fmt_byte(ranges[0][0])
    negated = ~cc
    if negated.size() < cc.size() // 2:
        return "[^" + _render_ranges(negated.ranges()) + "]"
    return "[" + _render_ranges(ranges) + "]"


def _render_ranges(ranges: List[Tuple[int, int]]) -> str:
    parts = []
    for lo, hi in ranges:
        if lo == hi:
            parts.append(_fmt_byte(lo))
        elif hi == lo + 1:
            parts.append(_fmt_byte(lo) + _fmt_byte(hi))
        else:
            parts.append(f"{_fmt_byte(lo)}-{_fmt_byte(hi)}")
    return "".join(parts)


_EMPTY = CharClass(0)
_ANY = CharClass(_FULL_MASK)

# Common PCRE shorthand classes.
DIGIT = CharClass.from_range(ord("0"), ord("9"))
WORD = (
    CharClass.from_range(ord("a"), ord("z"))
    | CharClass.from_range(ord("A"), ord("Z"))
    | DIGIT
    | CharClass.from_char(ord("_"))
)
SPACE = CharClass.from_chars(b" \t\n\r\f\v")
