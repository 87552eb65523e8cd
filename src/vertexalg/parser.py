"""Expression front end.

Grammar (whitespace-insensitive between tokens):

    element  := [ '+'|'-' ] term { ('+'|'-') term }
    term     := [ rational '*' ] monomial
    rational := integer [ '/' posinteger ]
    monomial := 'vac'
              | gen '(' integer ')' monomial          right-normed prefix
              | gen                                   generator leaf
              | '(' monomial '[' integer ']' monomial ')'
    gen      := identifier from the signature

The canonical printer emits right-normed words as `a(-2)a(-1)vac`, so parse
and print round-trip.
"""

from __future__ import annotations

from fractions import Fraction

from .signature import Signature, SignatureError
from .words import FreeElement, Gen, Prod, Vac, ZERO, evaluate


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.message = message
        self.position = position


_PUNCT = {"(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
          "+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH"}


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((_PUNCT[ch], ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("INT", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(("VAC" if word == "vac" else "IDENT", word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("EOF", None, n))
    return tokens


class _Parser:
    def __init__(self, sig: Signature, text: str):
        self.sig = sig
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    def integer(self) -> int:
        tok = self.next()
        if tok[0] == "MINUS":
            tok2 = self.expect("INT", "an integer")
            return -tok2[1]
        if tok[0] == "INT":
            return tok[1]
        raise ParseError("expected an integer", tok[2])

    def rational(self) -> Fraction:
        num = self.integer()
        if self.peek()[0] == "SLASH":
            self.next()
            tok = self.expect("INT", "a positive denominator")
            if tok[1] == 0:
                raise ParseError("zero denominator", tok[2])
            return Fraction(num, tok[1])
        return Fraction(num)

    def gen_index(self, tok) -> int:
        try:
            return self.sig.index(tok[1])
        except SignatureError:
            raise ParseError(f"unknown generator {tok[1]!r}", tok[2]) from None

    def monomial(self):
        # a right-normed prefix gen(mode) gen(mode) ... is read in a loop
        prefix = []
        while True:
            tok = self.next()
            if tok[0] == "VAC":
                node = Vac()
                break
            if tok[0] == "IDENT":
                g = self.gen_index(tok)
                if self.peek()[0] != "LPAREN":
                    node = Gen(g)
                    break
                self.next()
                mode = self.integer()
                self.expect("RPAREN", "')'")
                prefix.append((g, mode))
                continue
            if tok[0] == "LPAREN":
                left = self.monomial()
                self.expect("LBRACK", "'['")
                mode = self.integer()
                self.expect("RBRACK", "']'")
                right = self.monomial()
                self.expect("RPAREN", "')'")
                node = Prod(left, mode, right)
                break
            raise ParseError("expected a monomial", tok[2])
        for g, mode in reversed(prefix):
            node = Prod(Gen(g), mode, node)
        return node

    def term(self):
        kind = self.peek()[0]
        coeff = Fraction(1)
        if kind in ("INT", "MINUS"):
            coeff = self.rational()
            self.expect("STAR", "'*'")
        return coeff, self.monomial()

    def element(self):
        terms = []
        op = self.next()[0] if self.peek()[0] in ("PLUS", "MINUS") else "PLUS"
        while True:
            coeff, mono = self.term()
            terms.append((-coeff if op == "MINUS" else coeff, mono))
            if self.peek()[0] not in ("PLUS", "MINUS"):
                break
            op = self.next()[0]
        self.expect("EOF", "end of input")
        return terms


def parse_expr(sig: Signature, text: str):
    """Parse a single monomial into an expression tree."""
    parser = _Parser(sig, text)
    expr = parser.monomial()
    parser.expect("EOF", "end of input")
    return expr


def parse_integer(text: str) -> int:
    """Parse a whole text by the grammar's `integer` rule: an optional '-' and decimal digits."""
    parser = _Parser(None, text)
    value = parser.integer()
    parser.expect("EOF", "end of input")
    return value


def parse_element(sig: Signature, text: str) -> FreeElement:
    """Parse a full element (signed sum of scaled monomials) and evaluate it."""
    parser = _Parser(sig, text)
    out = ZERO
    for coeff, mono in parser.element():
        out = out + evaluate(sig, mono).scale(coeff)
    return out


def parse_weight(sig: Signature, text: str):
    """Parse a weight like `2a`, `a+b`, `-a+2b` or `0`."""
    parser = _Parser(sig, text)
    if [tok[:2] for tok in parser.tokens] == [("INT", 0), ("EOF", None)]:
        return sig.zero_weight()
    counts = [0] * sig.size
    sign = 1
    if parser.peek()[0] == "MINUS":
        parser.next()
        sign = -1
    while True:
        mult = parser.next()[1] if parser.peek()[0] == "INT" else 1
        g = parser.gen_index(parser.expect("IDENT", "a generator name"))
        counts[g] += sign * mult
        tok = parser.next()
        if tok[0] == "EOF":
            return tuple(counts)
        if tok[0] not in ("PLUS", "MINUS"):
            raise ParseError("expected '+', '-' or end of weight", tok[2])
        sign = 1 if tok[0] == "PLUS" else -1
