"""Term language over the signature {0, 1, +, -, *, ^-1} with variables.

Terms are immutable trees with structural equality, so they can be shared
freely, used as dict keys, and compared for deduplication.  Division and
binary subtraction exist only in the concrete syntax: ``a/b`` desugars to
``a*b^-1`` and ``a-b`` to ``a+(-b)``, keeping the abstract signature exactly
the five ring symbols plus inverse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TypeAlias, Union

from .errors import ParseError

__all__ = [
    "Term", "Zero", "One", "Var", "Neg", "Inv", "Add", "Mul",
    "ZERO", "ONE",
    "parse_term", "print_term", "numeral", "substitute", "free_vars",
    "sub", "div", "local_unit", "term_size",
]


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Var:
    """A variable; names match [a-z][a-z0-9_]* and are case-sensitive."""

    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Term"


@dataclass(frozen=True)
class Inv:
    arg: "Term"


@dataclass(frozen=True)
class Add:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Mul:
    left: "Term"
    right: "Term"


Term: TypeAlias = Union[Zero, One, Var, Neg, Inv, Add, Mul]

ZERO = Zero()
ONE = One()

_VAR_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


def sub(left: Term, right: Term) -> Term:
    """left - right, written out as left + (-right)."""
    return Add(left, Neg(right))


def div(left: Term, right: Term) -> Term:
    """left / right, written out as left * right^-1."""
    return Mul(left, Inv(right))


def local_unit(t: Term) -> Term:
    """t * t^-1, the local unit of t (an idempotent in any meadow)."""
    return Mul(t, Inv(t))


def numeral(k: int) -> Term:
    """The numeral for k: numeral(0) = 0 and numeral(k+1) = numeral(k) + 1."""
    if k < 0:
        raise ValueError("numerals are defined for naturals only")
    t: Term = ZERO
    for _ in range(k):
        t = Add(t, ONE)
    return t


def free_vars(t: Term) -> set[str]:
    """The set of variable names occurring in t.

    Each distinct node object is visited once, so a term that shares its
    subterms (as the encodings do) costs its size as a graph, not as a tree.
    """
    out: set[str] = set()
    seen: set[int] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        match node:
            case Var(name):
                out.add(name)
            case Neg(a) | Inv(a):
                stack.append(a)
            case Add(l, r) | Mul(l, r):
                stack.append(l)
                stack.append(r)
    return out


def substitute(t: Term, binding: dict[str, Term]) -> Term:
    """Replace every bound variable by its image; unbound variables stay put.

    The signature has no binders, so substitution cannot capture.
    """
    match t:
        case Var(name):
            return binding.get(name, t)
        case Neg(a):
            return Neg(substitute(a, binding))
        case Inv(a):
            return Inv(substitute(a, binding))
        case Add(l, r):
            return Add(substitute(l, binding), substitute(r, binding))
        case Mul(l, r):
            return Mul(substitute(l, binding), substitute(r, binding))
        case _:
            return t


def term_size(t: Term) -> int:
    """Number of nodes in the tree."""
    match t:
        case Neg(a) | Inv(a):
            return 1 + term_size(a)
        case Add(l, r) | Mul(l, r):
            return 1 + term_size(l) + term_size(r)
        case _:
            return 1


# --- concrete syntax ---------------------------------------------------
#
# expr    := sum
# sum     := prod (("+" | "-") prod)*
# prod    := unary (("*" | "/") unary)*
# unary   := "-" unary | postfix
# postfix := atom ("^-1")*
# atom    := digits | ident | "inv" "(" expr ")" | "(" expr ")"
#
# "inv" is reserved; the printer always emits the postfix form.  The
# tokenizer also knows "=", "!=", "&" and "->" so equations and conditional
# equations can reuse it.

Token = tuple[str, str, int]  # kind, text, position

# The deepest nesting of parentheses, inv(, unary minus signs and postfix
# ^-1 accepted, counted along each path into the term.  Each level costs the
# parser up to six interpreter frames, and each ^-1 one frame of eval_term
# and print_term, so a deeper input would exhaust the stack; no formula
# written or encoded here nests half this deep.
_MAX_NESTING = 100


def tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(("int", src[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            word = src[i:j]
            if not _VAR_RE.match(word):
                raise ParseError(f"bad identifier {word!r}", i)
            tokens.append(("ident", word, i))
            i = j
            continue
        if c == "^":
            if src[i : i + 3] != "^-1":
                raise ParseError("expected ^-1", i)
            tokens.append(("^-1", "^-1", i))
            i += 3
            continue
        if c == "-":
            if i + 1 < n and src[i + 1] == ">":
                tokens.append(("->", "->", i))
                i += 2
            else:
                tokens.append(("-", "-", i))
                i += 1
            continue
        if c == "!":
            if i + 1 < n and src[i + 1] == "=":
                tokens.append(("!=", "!=", i))
                i += 2
                continue
            raise ParseError("expected != after !", i)
        if c in "+*/()=&":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("eof", "", n))
    return tokens


class Cursor:
    """A token stream with single-token lookahead."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # levels open around the current token
        self.peak = 0  # the deepest level reached inside the current atom

    def nest(self, pos: int) -> None:
        """Enter one more level of nesting; leave it by decrementing depth."""
        self.depth += 1
        self.reach(self.depth, pos)

    def reach(self, level: int, pos: int) -> None:
        if level > _MAX_NESTING:
            raise ParseError(f"nested more than {_MAX_NESTING} levels deep", pos)
        self.peak = max(self.peak, level)

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def match(self, *kinds: str) -> Token | None:
        if self.tokens[self.i][0] in kinds:
            return self.advance()
        return None

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            shown = tok[1] or "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", tok[2])
        return self.advance()


def _literal(k: int) -> Term:
    # Decimal literals are sums of ones: 0, 1, 1+1, (1+1)+1, ...
    if k == 0:
        return ZERO
    t: Term = ONE
    for _ in range(k - 1):
        t = Add(t, ONE)
    return t


def parse_expr(cur: Cursor) -> Term:
    return _sum(cur)


def _sum(cur: Cursor) -> Term:
    t = _prod(cur)
    while True:
        if cur.match("+"):
            t = Add(t, _prod(cur))
        elif cur.match("-"):
            t = Add(t, Neg(_prod(cur)))
        else:
            return t


def _prod(cur: Cursor) -> Term:
    t = _unary(cur)
    while True:
        if cur.match("*"):
            t = Mul(t, _unary(cur))
        elif cur.match("/"):
            t = Mul(t, Inv(_unary(cur)))
        else:
            return t


def _unary(cur: Cursor) -> Term:
    tok = cur.match("-")
    if tok is None:
        return _postfix(cur)
    cur.nest(tok[2])
    t = Neg(_unary(cur))
    cur.depth -= 1
    return t


def _postfix(cur: Cursor) -> Term:
    # Each ^-1 puts the whole atom, and so its deepest level, one level down.
    outer, cur.peak = cur.peak, cur.depth
    t = _atom(cur)
    while tok := cur.match("^-1"):
        cur.reach(cur.peak + 1, tok[2])
        t = Inv(t)
    cur.peak = max(outer, cur.peak)
    return t


def _atom(cur: Cursor) -> Term:
    tok = cur.advance()
    kind, text, pos = tok
    if kind == "int":
        return _literal(int(text))
    if kind == "ident":
        if text == "inv":
            cur.expect("(")
            return Inv(_nested(cur, pos))
        return Var(text)
    if kind == "(":
        return _nested(cur, pos)
    shown = text or "end of input"
    raise ParseError(f"expected a term, found {shown!r}", pos)


def _nested(cur: Cursor, pos: int) -> Term:
    # The expression inside an opened parenthesis, and its closing one.
    cur.nest(pos)
    t = parse_expr(cur)
    cur.expect(")")
    cur.depth -= 1
    return t


def parse_term(src: str) -> Term:
    """Parse concrete syntax into a Term.

    Raises ParseError (with position) on malformed input; never returns a
    partial result.
    """
    cur = Cursor(tokenize(src))
    t = parse_expr(cur)
    cur.expect("eof")
    return t


# Printer precedence levels; a child below its context level gets parens.
_ADD, _MUL, _UNARY, _POSTFIX, _ATOM = 0, 1, 2, 3, 4


def print_term(t: Term) -> str:
    """Render a Term; parse_term(print_term(t)) == t."""
    return _show(t, _ADD)


def _show(t: Term, level: int) -> str:
    match t:
        case Zero():
            return "0"
        case One():
            return "1"
        case Var(name):
            return name
        case Inv(a):
            s = _show(a, _POSTFIX) + "^-1"
            own = _POSTFIX
        case Neg(a):
            s = "-" + _show(a, _UNARY)
            own = _UNARY
        case Mul(l, r):
            s = _show(l, _MUL) + "*" + _show(r, _UNARY)
            own = _MUL
        case Add(l, Neg(r)):
            s = _show(l, _ADD) + "-" + _show(r, _MUL)
            own = _ADD
        case Add(l, r):
            s = _show(l, _ADD) + "+" + _show(r, _MUL)
            own = _ADD
        case _:  # pragma: no cover
            raise TypeError(f"not a term: {t!r}")
    return "(" + s + ")" if own < level else s
