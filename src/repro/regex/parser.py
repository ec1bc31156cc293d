"""A PCRE-subset regex parser.

Supports the constructs used by the paper's benchmark rule sets:

* literal bytes, ``\\xHH`` escapes, control escapes (``\\n``, ``\\t``, ...)
* shorthand classes ``\\d \\D \\w \\W \\s \\S``
* bracket classes ``[a-z0-9]`` and negated classes ``[^...]``
* the dot ``.`` (any byte — the paper's capital sigma)
* grouping ``( )`` / ``(?: )``, alternation ``|``
* quantifiers ``* + ?`` and bounded repetition ``{n}``, ``{m,}``, ``{m,n}``
* optional lazy-quantifier suffix ``?`` (ignored: for the *match-detection*
  semantics of automata processors, greedy and lazy are equivalent);
  stacking a second quantifier directly on a quantified atom (``a**``,
  ``a+*``, ``a{2,3}*``, possessive-looking ``a*+``) raises the same
  "multiple repeat" syntax error PCRE and Python's ``re`` produce
* the case-insensitive flag, inline (``(?i)``, ``(?i:...)``) or via
  ``parse(..., ignorecase=True)``: letters in literals and classes match
  both cases
* anchors ``^``/``$``/``\\b``, parsed as first-class
  :class:`~repro.regex.ast.Anchor` nodes and compiled into real
  positional constraints by :mod:`repro.regex.anchors` (start-of-stream
  gate, end-of-input finalisation, word-boundary variants); pass
  ``allow_anchors=False`` to make them a syntax error instead.
  Quantifying a bare anchor (``^*``) raises the same "nothing to
  repeat" error Python's ``re`` produces.

Unsupported PCRE features (backreferences, lookaround, ``\\B``, capture
semantics, the multiline flag combined with anchors) raise
:class:`RegexSyntaxError` / :class:`UnsupportedFeatureError`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from . import ast
from ..resilience.errors import RegexSyntaxError, UnsupportedFeatureError
from .charclass import ALPHABET_SIZE, DIGIT, SPACE, WORD, CharClass

_CONTROL_ESCAPES = {
    "n": ord("\n"),
    "t": ord("\t"),
    "r": ord("\r"),
    "f": ord("\f"),
    "v": ord("\v"),
    "a": 0x07,
    "e": 0x1B,
    "0": 0x00,
}

_CLASS_ESCAPES = {
    "d": DIGIT,
    "D": ~DIGIT,
    "w": WORD,
    "W": ~WORD,
    "s": SPACE,
    "S": ~SPACE,
}

_UPPER = CharClass.from_range(ord("A"), ord("Z"))
_LOWER = CharClass.from_range(ord("a"), ord("z"))
_ALPHA = _UPPER | _LOWER

#: POSIX bracket classes ([[:name:]]), as used by Snort/Suricata rules.
_POSIX_CLASSES = {
    "alpha": _ALPHA,
    "digit": DIGIT,
    "alnum": _ALPHA | DIGIT,
    "upper": _UPPER,
    "lower": _LOWER,
    "space": SPACE,
    "xdigit": DIGIT
    | CharClass.from_range(ord("a"), ord("f"))
    | CharClass.from_range(ord("A"), ord("F")),
    "punct": CharClass.from_chars(
        bytes(b for b in range(0x21, 0x7F))
    )
    - (_ALPHA | DIGIT),
    "print": CharClass.from_range(0x20, 0x7E),
    "graph": CharClass.from_range(0x21, 0x7E),
    "cntrl": CharClass.from_range(0x00, 0x1F) | CharClass.from_char(0x7F),
    "blank": CharClass.from_chars(b" \t"),
}

_SPECIAL = set("\\^$.[|()?*+{")


# The error classes live in the resilience layer (structured taxonomy
# with caret diagnostics); re-exported here for backwards compatibility.
__all__ = ["RegexSyntaxError", "UnsupportedFeatureError", "parse"]


def _case_fold(cc: CharClass) -> CharClass:
    """Extend a class so ASCII letters match either case."""
    lower = CharClass.from_range(ord("a"), ord("z"))
    upper = CharClass.from_range(ord("A"), ord("Z"))
    mask = cc.mask
    mask |= (cc & lower).mask >> 32  # a-z -> A-Z
    mask |= (cc & upper).mask << 32  # A-Z -> a-z
    return CharClass(mask)


class _Parser:
    """Recursive-descent parser over a pattern string."""

    def __init__(
        self, pattern: str, allow_anchors: bool, ignorecase: bool
    ) -> None:
        self.pattern = pattern
        self.pos = 0
        self.allow_anchors = allow_anchors
        self.ignorecase = ignorecase
        self.multiline = False
        # Set by _atom for a bare ^/$/\b token (not one wrapped in a
        # group), so _quantified can reproduce re's "nothing to repeat".
        self._bare_anchor = False

    # -- character stream ------------------------------------------------

    def _peek(self) -> Optional[str]:
        if self.pos < len(self.pattern):
            return self.pattern[self.pos]
        return None

    def _next(self) -> str:
        char = self._peek()
        if char is None:
            raise self._error("unexpected end of pattern")
        if ord(char) > 255:
            raise self._error(
                f"non-byte character {char!r}; patterns are byte regexes"
            )
        self.pos += 1
        return char

    def _eat(self, char: str) -> bool:
        if self._peek() == char:
            self.pos += 1
            return True
        return False

    def _expect(self, char: str) -> None:
        if not self._eat(char):
            raise self._error(f"expected {char!r}")

    def _error(self, message: str) -> RegexSyntaxError:
        return RegexSyntaxError(message, self.pattern, self.pos)

    def _unsupported(self, message: str) -> UnsupportedFeatureError:
        return UnsupportedFeatureError(message, self.pattern, self.pos)

    # -- grammar -----------------------------------------------------------

    def parse(self) -> ast.Regex:
        node = self._alternation()
        if self._peek() is not None:
            raise self._error(f"unexpected {self._peek()!r}")
        if self.multiline and ast.has_anchors(node):
            # (?m) changes ^/$ to line anchors; this engine only
            # implements stream anchors, so the combination must not
            # silently mis-anchor — quarantine it instead.
            raise UnsupportedFeatureError(
                "multiline flag with anchors is not supported", self.pattern, 0
            )
        return node

    def _alternation(self) -> ast.Regex:
        node = self._concat()
        while self._eat("|"):
            node = ast.alternation(node, self._concat())
        return node

    def _concat(self) -> ast.Regex:
        parts: list = []
        while True:
            char = self._peek()
            if char is None or char in "|)":
                return ast.balanced_concat(parts)
            parts.append(self._quantified())

    def _quantified(self) -> ast.Regex:
        atom = self._atom()
        if self._bare_anchor:
            self._bare_anchor = False
            self._reject_quantified_anchor()
            return atom
        char = self._peek()
        if char == "*":
            self.pos += 1
            atom = ast.star(atom)
        elif char == "+":
            self.pos += 1
            atom = ast.plus(atom)
        elif char == "?":
            self.pos += 1
            atom = ast.optional(atom)
        elif char == "{":
            bounds = self._try_bounds()
            if bounds is None:
                return atom
            low, high = bounds
            atom = ast.repeat(atom, low, high)
        else:
            return atom
        # A trailing '?' marks a lazy quantifier; match-detection
        # semantics is unaffected, so it is consumed and ignored.
        self._eat("?")
        self._reject_stacked_quantifier()
        return atom

    def _reject_quantified_anchor(self) -> None:
        """A quantifier directly on a bare anchor token is "nothing to
        repeat", exactly as Python's ``re`` judges ``^*`` / ``$?`` /
        ``\\b{2}``.  A grouped anchor (``(?:^)*``) still parses — the
        lowering pass quarantines it later."""
        char = self._peek()
        if char in ("*", "+", "?"):
            raise self._error("nothing to repeat")
        if char == "{":
            start = self.pos
            if self._try_bounds() is not None:
                self.pos = start
                raise self._error("nothing to repeat")

    def _reject_stacked_quantifier(self) -> None:
        """Reject a second quantifier applied directly to a quantifier.

        PCRE and Python's ``re`` raise "multiple repeat" for ``a**``,
        ``a+*``, ``a{2,3}*`` and friends; silently collapsing them (the
        old behaviour) masks pattern bugs.  The possessive-looking
        ``a*+`` is rejected too: possessive quantifiers change the
        matched language (``a*+a`` never matches), so treating ``+`` as
        noise would be wrong.  Quantify a group instead: ``(a*)*``.
        """
        char = self._peek()
        if char in ("*", "+", "?"):
            raise self._error("multiple repeat")
        if char == "{":
            start = self.pos
            if self._try_bounds() is not None:
                self.pos = start
                raise self._error("multiple repeat")

    def _try_bounds(self) -> Optional[Tuple[int, Optional[int]]]:
        """Parse ``{m}``, ``{m,}`` or ``{m,n}``; ``None`` on a literal brace."""
        start = self.pos
        self._expect("{")
        low = self._number()
        if low is None:
            self.pos = start
            return None
        high: Optional[int] = low
        if self._eat(","):
            high = self._number()  # None for "{m,}"
        if not self._eat("}"):
            self.pos = start
            return None
        if high is not None and high < low:
            raise self._error(f"repetition bounds out of order {{{low},{high}}}")
        return low, high

    def _number(self) -> Optional[int]:
        digits = ""
        # ASCII digits only: str.isdigit() also accepts '¹', which int() rejects.
        while (char := self._peek()) is not None and char in "0123456789":
            digits += self._next()
        return int(digits) if digits else None

    def _emit(self, cc: CharClass) -> ast.Regex:
        if self.ignorecase:
            cc = _case_fold(cc)
        return ast.symbol(cc)

    def _atom(self) -> ast.Regex:
        char = self._next()
        if char == "(":
            saved_ignorecase = self.ignorecase
            scoped = False
            if self._eat("?"):
                scoped = self._group_modifier()
            node = self._alternation()
            self._expect(")")
            if scoped:
                self.ignorecase = saved_ignorecase
            return node
        if char == "[":
            return self._emit(self._bracket_class())
        if char == ".":
            return ast.symbol(CharClass.any())
        if char == "\\":
            nxt = self._peek()
            if nxt == "b":
                self.pos += 1
                return self._anchor(ast.Anchor.WORD, "\\b")
            if nxt == "B":
                raise self._unsupported(
                    "negated word boundary \\B is not supported"
                )
            return self._emit(self._escape())
        if char in "^$":
            kind = ast.Anchor.START if char == "^" else ast.Anchor.END
            return self._anchor(kind, char)
        if char in "*+?{":
            if char == "{":
                # A brace that does not open a quantifier is a literal.
                return ast.symbol(CharClass.from_char(ord(char)))
            raise self._error(f"quantifier {char!r} with nothing to repeat")
        if char in ")":
            raise self._error("unbalanced ')'")
        return self._emit(CharClass.from_char(ord(char)))

    def _anchor(self, kind: str, token: str) -> ast.Regex:
        if not self.allow_anchors:
            raise self._error(f"anchor {token!r} not allowed")
        self._bare_anchor = True
        return ast.anchor(kind)

    def _group_modifier(self) -> bool:
        """Consume a ``(?...`` modifier.

        Returns True when the modifier scopes to this group (the ``:``
        forms), so the caller restores flags at the closing paren.
        Supported: ``(?:`` and inline flags ``i`` (case-insensitive),
        ``s``/``x`` (no-ops here: ``.`` is already any-byte), and ``m``
        (recorded; rejected at the end of the parse if the pattern also
        uses anchors, since line anchors are not implemented).
        """
        char = self._next()
        if char == ":":
            return True
        if char in "=!<":
            raise self._unsupported("lookaround assertions are not supported")
        flags = ""
        while char.isalpha():
            flags += char
            nxt = self._peek()
            if nxt is None or nxt in ":)":
                break
            char = self._next()
        if not flags:
            raise self._unsupported(f"unsupported group modifier {char!r}")
        for flag in flags:
            if flag == "i":
                self.ignorecase = True
            elif flag == "m":
                self.multiline = True
            elif flag not in "sx":
                raise self._unsupported(f"unsupported inline flag {flag!r}")
        return self._eat(":")

    def _escape(self) -> CharClass:
        char = self._next()
        if char == "x":
            return CharClass.from_char(self._hex_byte())
        if char == "b":
            # Only reachable from bracket classes (atom-level \b is the
            # word-boundary anchor): PCRE reads [\b] as backspace.
            return CharClass.from_char(0x08)
        if char == "B":
            raise self._unsupported("\\B is not supported")
        if char in _CONTROL_ESCAPES:
            return CharClass.from_char(_CONTROL_ESCAPES[char])
        if char in _CLASS_ESCAPES:
            return _CLASS_ESCAPES[char]
        if char.isdigit():
            raise self._unsupported("backreferences are not supported")
        return CharClass.from_char(ord(char))

    def _hex_byte(self) -> int:
        digits = ""
        for _ in range(2):
            char = self._peek()
            if char is None or char not in "0123456789abcdefABCDEF":
                break
            digits += self._next()
        if not digits:
            raise self._error("\\x requires hex digits")
        return int(digits, 16)

    def _bracket_class(self) -> CharClass:
        negate = self._eat("^")
        cc = CharClass.empty()
        first = True
        while True:
            char = self._peek()
            if char is None:
                raise self._error("unterminated character class")
            if char == "]" and not first:
                self.pos += 1
                break
            first = False
            cc = cc | self._class_item()
        if cc.is_empty():
            raise self._error("empty character class")
        return ~cc if negate else cc

    def _class_item(self) -> CharClass:
        if self.pattern.startswith("[:", self.pos):
            return self._posix_class()
        lo_cc = self._class_atom()
        if self._peek() == "-" and self.pos + 1 < len(self.pattern) and self.pattern[self.pos + 1] != "]":
            if lo_cc.size() != 1:
                # e.g. [\d-x] — treat '-' literally per PCRE.
                return lo_cc
            self.pos += 1
            hi_cc = self._class_atom()
            if hi_cc.size() != 1:
                raise self._error("invalid range endpoint")
            (lo,) = tuple(lo_cc)
            (hi,) = tuple(hi_cc)
            if hi < lo:
                raise self._error(f"reversed range {chr(lo)}-{chr(hi)}")
            return CharClass.from_range(lo, hi)
        return lo_cc

    def _posix_class(self) -> CharClass:
        """``[:name:]`` inside a bracket class (POSIX notation)."""
        end = self.pattern.find(":]", self.pos + 2)
        if end < 0:
            raise self._error("unterminated POSIX class")
        name = self.pattern[self.pos + 2 : end]
        if name not in _POSIX_CLASSES:
            raise self._error(f"unknown POSIX class [:{name}:]")
        self.pos = end + 2
        return _POSIX_CLASSES[name]

    def _class_atom(self) -> CharClass:
        char = self._next()
        if char == "\\":
            return self._escape()
        return CharClass.from_char(ord(char))


def parse(
    pattern: str, allow_anchors: bool = True, ignorecase: bool = False
) -> ast.Regex:
    """Parse a PCRE-subset pattern into a regex AST.

    >>> from repro.regex import parser
    >>> str(parser.parse("a{3,5}"))
    'a{3,5}'
    """
    return _Parser(pattern, allow_anchors, ignorecase).parse()
