"""Textual grammar for mean expressions.

    mean    := "power(" num ")" | "gini(" num "," num ")"
             | "quasi(" gen ")" | "bajrak(" gen "," gen ")"
             | "dev(" devspec ")" | "gauss(" mean ("," mean)+ ")"
             | "arith" | "geom" | "harm"
    gen     := "id" | "log" | "exp" | "pow:" num
    devspec := "arith" | "pair:" gen "," gen
    num     := decimal literal with optional sign and exponent

The tables ``MEANS``, ``ALIASES`` and ``GENERATORS`` are the single
source of this grammar: the parser reads each head's argument slots
from them and the printer writes the same slots back.  Only ``gauss``
(any number of children) and the deviation spec keep rules of their own.

Whitespace between tokens is ignored.  ``parse_mean_expr`` after
``format_mean_expr`` is the identity on every expressible tree;
expressions outside the grammar (min, max) have no textual form and the printer rejects them.
Positions in diagnostics are 1-based character offsets.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, fields

from .core import (
    ARITH,
    ARITHMETIC_DEVIATION,
    GEOM,
    HARM,
    Bajraktarevic,
    Deviation,
    Gauss,
    Generator,
    Gini,
    MeanExpr,
    PairDeviation,
    Power,
    QuasiArithmetic,
    _format_number,
)

__all__ = ["ParseError", "parse_mean_expr", "format_mean_expr"]

# head -> (node class, argument slots in the node's field order); a slot
# is a number ("num"), a generator ("gen") or a deviation spec ("dev")
MEANS = {
    "power": (Power, ("num",)),
    "gini": (Gini, ("num", "num")),
    "quasi": (QuasiArithmetic, ("gen",)),
    "bajrak": (Bajraktarevic, ("gen", "gen")),
    "dev": (Deviation, ("dev",)),
}
# names that parse to a fixed mean; the printer writes the head form
ALIASES = {"arith": ARITH, "geom": GEOM, "harm": HARM}
# generator spelling -> Generator kind; a trailing ':' takes a number
GENERATORS = {"id": "identity", "log": "log", "exp": "exp", "pow:": "pow"}

_MEAN_NAMES = tuple(repr(name) for name in (*MEANS, "gauss", *ALIASES))
_GENERATOR_NAMES = tuple(repr(name) for name in GENERATORS)


class ParseError(ValueError):
    """Diagnostic with a 1-based character position and the expected tokens."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {position}{hint}")
        self.position = position
        self.expected = expected


_TOKEN = re.compile(
    r"\s*(?:(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]+)"
    r"|(?P<punct>[(),:])"
    r"|(?P<bad>\S))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "punct" | "end"
    text: str
    position: int  # 1-based


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, position = match.lastgroup, match.start(match.lastgroup) + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {match[kind]!r}", position)
        tokens.append(_Token(kind, match[kind], position))
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


def _unexpected(token: _Token, expected: tuple[str, ...]) -> ParseError:
    found = repr(token.text) if token.kind != "end" else "end of input"
    return ParseError(f"found {found}", token.position, expected)


class _Parser:
    """Recursive descent; methods ``num``, ``gen`` and ``dev`` read those slots."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def take(self, kind: str, expected: tuple[str, ...]) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise _unexpected(token, expected)
        self.index += 1
        return token

    def accept(self, text: str) -> bool:
        """Consume the next token if it is the name or punctuation ``text``."""
        if self.peek().text != text:
            return False
        self.index += 1
        return True

    def expect(self, text: str) -> None:
        if not self.accept(text):
            raise _unexpected(self.peek(), (repr(text),))

    def num(self) -> float:
        return float(self.take("num", ("number",)).text)

    def gen(self) -> Generator:
        token = self.take("name", ("generator",))
        if token.text in GENERATORS:
            return Generator(GENERATORS[token.text])
        kind = GENERATORS.get(token.text + ":")
        if kind is None:
            raise ParseError(
                f"unknown generator {token.text!r}", token.position, _GENERATOR_NAMES
            )
        self.expect(":")
        return Generator(kind, self.num())

    def dev(self):
        if self.accept("arith"):
            return ARITHMETIC_DEVIATION
        if not self.accept("pair"):
            raise _unexpected(self.peek(), ("'arith'", "'pair:'"))
        self.expect(":")
        f = self.gen()
        self.expect(",")
        return PairDeviation(f, self.gen())

    def gauss(self) -> Gauss:
        self.expect("(")
        children = [self.mean()]
        while self.accept(","):
            children.append(self.mean())
        if len(children) < 2:
            raise ParseError(
                "'gauss' needs at least two means", self.peek().position, ("','",)
            )
        self.expect(")")
        return Gauss(tuple(children))

    def mean(self) -> MeanExpr:
        token = self.take("name", ("mean",))
        if token.text in ALIASES:
            return ALIASES[token.text]
        if token.text == "gauss":
            return self.gauss()
        if token.text not in MEANS:
            raise ParseError(
                f"unknown mean {token.text!r}", token.position, _MEAN_NAMES
            )
        node, slots = MEANS[token.text]
        self.expect("(")
        args = []
        for i, slot in enumerate(slots):
            if i:
                self.expect(",")
            args.append(getattr(self, slot)())
        self.expect(")")
        return node(*args)


def parse_mean_expr(text: str) -> MeanExpr:
    """Parse the textual grammar into an expression tree."""
    parser = _Parser(text)
    expr = parser.mean()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(
            f"trailing input {trailing.text!r}", trailing.position, expected=("end",)
        )
    return expr


def _format_devspec(dev) -> str:
    if dev == ARITHMETIC_DEVIATION:
        return "arith"
    return f"pair:{dev.f.describe()},{dev.g.describe()}"


_FORMAT_SLOT = {"num": _format_number, "gen": Generator.describe, "dev": _format_devspec}
_HEADS = {node: (head, slots) for head, (node, slots) in MEANS.items()}


def format_mean_expr(expr: MeanExpr) -> str:
    """Print an expression tree in the textual grammar."""
    if isinstance(expr, Gauss):
        return "gauss(" + ",".join(format_mean_expr(c) for c in expr.children) + ")"
    if type(expr) not in _HEADS:
        raise ValueError(f"{expr!r} has no textual form in the grammar")
    head, slots = _HEADS[type(expr)]
    args = (getattr(expr, field.name) for field in fields(expr))
    return f"{head}(" + ",".join(_FORMAT_SLOT[s](a) for s, a in zip(slots, args)) + ")"
