"""Parser robustness fuzzing: arbitrary input never crashes unexpectedly."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.regex import ast
from repro.regex.parser import RegexSyntaxError, parse

PATTERN_ALPHABET = string.ascii_letters + string.digits + "\\[](){}|*+?.^$-,:!=<> \t"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=PATTERN_ALPHABET, max_size=30))
def test_parse_never_crashes_unexpectedly(text):
    """Any input either parses to a Regex or raises RegexSyntaxError."""
    try:
        node = parse(text)
    except RegexSyntaxError:
        return
    assert isinstance(node, ast.Regex)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=PATTERN_ALPHABET, max_size=20))
def test_successful_parses_reprint_and_reparse(text):
    """str(parse(p)) must itself parse, to an equivalent tree."""
    try:
        node = parse(text)
    except RegexSyntaxError:
        return
    printed = str(node)
    reparsed = parse(printed)
    # Printing is canonical: a second round trip is a fixed point.
    assert str(reparsed) == printed


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=12))
def test_parse_of_random_bytes_as_latin1(data):
    try:
        parse(data.decode("latin-1"))
    except (RegexSyntaxError, UnicodeEncodeError):
        pass


def test_non_ascii_digits_are_literal_braces():
    """``str.isdigit`` holds for ``¹`` and ``²``, which ``int`` rejects:
    a brace around them is literal, as ``{x}`` is (the latin-1 fuzz above
    found ``b'\\x00{\\xb9'``)."""
    assert str(parse("a{\xb9}")) == str(parse("a\\{\xb9\\}"))
    assert str(parse("a{1\xb2}")) == str(parse("a\\{1\xb2\\}"))
    parse("\x00{\xb9")
