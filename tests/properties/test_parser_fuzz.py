"""Fuzz properties: arbitrary input never crashes the parser unexpectedly.

Whatever bytes arrive, the parser must either produce clauses or raise one
of its declared error types — never an AttributeError, RecursionError, or
other accidental exception.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.parser import parse_clause, parse_program, parse_query, tokenize
from repro.errors import ArityError, ParseError

# Bias towards Datalog-looking garbage: real tokens shuffled with noise.
fragments = st.sampled_from(
    [
        "p", "q(", "X", ",", ")", ":-", ".", "?-", "not", "'a",
        "p(X)", "q(a, b)", "p(X, Y) :-", "42", "-", "%comment", "\n",
        " ", '"str"', "\\+", "_V", "p(X).",
    ]
)
garbage = st.lists(fragments, min_size=0, max_size=12).map(" ".join)
raw_text = st.text(max_size=60)
# Fragments glued without separators, plus characters where ``not`` stops
# (or does not stop) being a whole word: a Unicode digit is an INT token.
glued = st.lists(
    st.one_of(fragments, st.sampled_from(["not", "nota", "1", "٣", "_", "é", "@"])),
    max_size=12,
).map("".join)

# The reference tokenizer: one anchored match per position, ``not`` as its
# own regex branch.  The shipped one must produce exactly its tokens.
_REFERENCE_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>%[^\n]*)
  | (?P<IMPLIES>:-|<-)
  | (?P<QUERY>\?-)
  | (?P<NOT>\\\+|\bnot\b)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<PERIOD>\.)
  | (?P<INT>-?\d+)
  | (?P<QUOTED>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def reference_tokens(text):
    """``(kind, value, position)`` triples, or the error position."""
    tokens = []
    position = 0
    while position < len(text):
        match = _REFERENCE_RE.match(text, position)
        if match is None:
            return ("error", position)
        if match.lastgroup not in ("WS", "COMMENT"):
            tokens.append((match.lastgroup, match.group(), position))
        position = match.end()
    return tokens


def shipped_tokens(text):
    try:
        return [(t.kind, t.value, t.position) for t in tokenize(text)]
    except ParseError as error:
        return ("error", error.position)


class TestTokenizerDifferential:
    @given(st.one_of(garbage, glued, raw_text))
    @settings(max_examples=500)
    def test_same_tokens_and_error_positions_as_reference(self, text):
        assert shipped_tokens(text) == reference_tokens(text)

    def test_not_is_a_keyword_only_as_a_whole_word(self):
        for text in ("not p(X)", "nota", "1not", "not٣", "_not", "not_"):
            assert shipped_tokens(text) == reference_tokens(text), text


class TestParserTotality:
    @given(garbage)
    @settings(max_examples=300)
    def test_parse_program_never_crashes(self, text):
        try:
            parse_program(text)
        except (ParseError, ArityError):
            pass

    @given(raw_text)
    @settings(max_examples=300)
    def test_parse_program_on_arbitrary_text(self, text):
        try:
            parse_program(text)
        except (ParseError, ArityError):
            pass

    @given(garbage)
    @settings(max_examples=200)
    def test_parse_clause_never_crashes(self, text):
        try:
            parse_clause(text)
        except (ParseError, ArityError):
            pass

    @given(garbage)
    @settings(max_examples=200)
    def test_parse_query_never_crashes(self, text):
        try:
            parse_query(text)
        except (ParseError, ArityError, ValueError):
            # ValueError covers Query-construction rejections (e.g. a goal
            # with unbindable answer variables).
            pass


class TestInterpreterTotality:
    @given(garbage)
    @settings(max_examples=150, deadline=None)
    def test_ui_interpreter_never_crashes(self, text):
        from repro.km.session import Testbed
        from repro.ui.commands import CommandInterpreter

        with Testbed() as testbed:
            interpreter = CommandInterpreter(testbed)
            response = interpreter.execute(text)
            assert isinstance(response, str)
