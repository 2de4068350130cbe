"""The Rule Parser (paper section 3.2.1).

Parses the textual Horn clause language into :class:`~repro.datalog.clauses.Clause`
and :class:`~repro.datalog.clauses.Query` objects.  The concrete syntax is the
usual Datalog/Prolog one:

* ``ancestor(X, Y) :- parent(X, Y).`` — a rule (``<-`` is accepted too);
* ``parent(john, mary).`` — a fact; identifiers starting lower-case, quoted
  strings, and integers are constants, identifiers starting upper-case or
  ``_`` are variables;
* ``?- ancestor(john, X).`` — a query; multiple goals separated by commas;
* ``not q(X)`` (or ``\\+ q(X)``) — negated body atom (stratified-negation
  extension);
* ``%`` starts a comment running to end of line.

The parser reports precise positions in :class:`~repro.errors.ParseError`.
"""

from __future__ import annotations

import re
from typing import Iterator

from ..errors import ParseError
from .clauses import Clause, Program, Query
from .terms import Atom, Constant, Term, Variable

# NAME first: it is by far the most frequent token.  The keyword ``not`` is
# a NAME value recognised in tokenize(), so only ``\+`` needs a NOT branch.
_TOKEN_RE = re.compile(
    r"""
    (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<WS>\s+)
  | (?P<COMMENT>%[^\n]*)
  | (?P<IMPLIES>:-|<-)
  | (?P<QUERY>\?-)
  | (?P<NOT>\\\+)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<PERIOD>\.)
  | (?P<INT>-?\d+)
  | (?P<QUOTED>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
    """,
    re.VERBOSE,
)

# ``not`` is the keyword only as a whole word: a NAME can still abut a
# (Unicode) digit of an INT token on either side.
_NOT_WORD = re.compile(r"\bnot\b")


class _Token:
    __slots__ = ("kind", "value", "position")

    def __init__(self, kind: str, value: str, position: int):
        self.kind = kind
        self.value = value
        self.position = position


def tokenize(text: str) -> list[_Token]:
    """Split ``text`` into tokens, dropping whitespace and comments.

    Raises:
        ParseError: on any character that starts no token.
    """
    tokens: list[_Token] = []
    position = 0
    for match in _TOKEN_RE.finditer(text):
        start = match.start()
        if start != position:
            break  # finditer skipped a character that starts no token
        position = match.end()
        kind = match.lastgroup or ""
        if kind == "NAME":
            value = match.group()
            if value == "not" and _NOT_WORD.match(text, start):
                kind = "NOT"
            tokens.append(_Token(kind, value, start))
        elif kind != "WS" and kind != "COMMENT":
            tokens.append(_Token(kind, match.group(), start))
    if position < len(text):
        raise ParseError(
            f"unexpected character {text[position]!r}", text, position
        )
    return tokens


class _TokenStream:
    """Cursor over a token list with one-token lookahead."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0

    def peek(self) -> _Token | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input", self.text, len(self.text))
        self.index += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.next()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind}, found {token.value!r}", self.text, token.position
            )
        return token

    @property
    def exhausted(self) -> bool:
        return self.index >= len(self.tokens)


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    return re.sub(r"\\(.)", r"\1", body)


def _parse_term(stream: _TokenStream) -> Term:
    token = stream.next()
    if token.kind == "INT":
        return Constant(int(token.value))
    if token.kind == "QUOTED":
        return Constant(_unquote(token.value))
    if token.kind == "NAME":
        if token.value[0].isupper() or token.value[0] == "_":
            return Variable(token.value)
        return Constant(token.value)
    raise ParseError(
        f"expected a term, found {token.value!r}", stream.text, token.position
    )


def _parse_atom(stream: _TokenStream, allow_negation: bool) -> Atom:
    negated = False
    token = stream.peek()
    if token is not None and token.kind == "NOT":
        if not allow_negation:
            raise ParseError(
                "negation is not allowed here", stream.text, token.position
            )
        stream.next()
        negated = True
    name_token = stream.next()
    if name_token.kind != "NAME" or not (
        name_token.value[0].islower()
    ):
        raise ParseError(
            f"expected a predicate name, found {name_token.value!r}",
            stream.text,
            name_token.position,
        )
    stream.expect("LPAREN")
    terms: list[Term] = [_parse_term(stream)]
    while True:
        token = stream.next()
        if token.kind == "RPAREN":
            break
        if token.kind != "COMMA":
            raise ParseError(
                f"expected ',' or ')', found {token.value!r}",
                stream.text,
                token.position,
            )
        terms.append(_parse_term(stream))
    return Atom(name_token.value, tuple(terms), negated=negated)


def _parse_body(stream: _TokenStream) -> list[Atom]:
    atoms = [_parse_atom(stream, allow_negation=True)]
    while True:
        token = stream.peek()
        if token is None or token.kind != "COMMA":
            return atoms
        stream.next()
        atoms.append(_parse_atom(stream, allow_negation=True))


def parse_clause(text: str) -> Clause:
    """Parse a single fact or rule, e.g. ``p(X,Y) :- q(X,Z), r(Z,Y).``"""
    stream = _TokenStream(text)
    clause = _parse_one_clause(stream)
    if not stream.exhausted:
        token = stream.peek()
        assert token is not None
        raise ParseError(
            f"trailing input {token.value!r}", text, token.position
        )
    return clause


def _parse_one_clause(stream: _TokenStream) -> Clause:
    head = _parse_atom(stream, allow_negation=False)
    token = stream.next()
    if token.kind == "PERIOD":
        return Clause(head)
    if token.kind != "IMPLIES":
        raise ParseError(
            f"expected ':-' or '.', found {token.value!r}",
            stream.text,
            token.position,
        )
    body = _parse_body(stream)
    stream.expect("PERIOD")
    return Clause(head, tuple(body))


def parse_program(text: str) -> Program:
    """Parse a whole program: any number of facts and rules."""
    stream = _TokenStream(text)
    program = Program()
    while not stream.exhausted:
        program.add(_parse_one_clause(stream))
    return program


def parse_query(text: str) -> Query:
    """Parse a query, with or without the leading ``?-``.

    Examples::

        parse_query("?- ancestor(john, X).")
        parse_query("ancestor(john, X), person(X)")
    """
    stream = _TokenStream(text)
    token = stream.peek()
    if token is not None and token.kind == "QUERY":
        stream.next()
    goals = _parse_body(stream)
    token = stream.peek()
    if token is not None and token.kind == "PERIOD":
        stream.next()
    if not stream.exhausted:
        trailing = stream.peek()
        assert trailing is not None
        raise ParseError(
            f"trailing input {trailing.value!r}", text, trailing.position
        )
    return Query(tuple(goals))


def iter_clauses(text: str) -> Iterator[Clause]:
    """Yield clauses one at a time from multi-clause source text."""
    stream = _TokenStream(text)
    while not stream.exhausted:
        yield _parse_one_clause(stream)
