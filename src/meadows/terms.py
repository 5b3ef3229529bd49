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
from typing import Iterable, TypeAlias, Union

from .errors import ParseError, SizeOverflow

__all__ = [
    "Term", "Zero", "One", "Var", "Neg", "Inv", "Add", "Mul",
    "ZERO", "ONE",
    "parse_term", "print_term", "numeral", "substitute", "free_vars",
    "sub", "div", "local_unit", "term_size",
]


class _Node:
    """Base of the term nodes, whose equality, hash and repr walk the term
    without recursion.  Equal terms have the same tree; Add(x, y) and
    Mul(x, y) differ by type."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        if type(self) is not type(other):
            return False
        numbers = _shapes((self, other))[0]
        return numbers[id(self)] == numbers[id(other)]

    def __hash__(self):
        return hash(tuple(_shapes((self,))[1]))

    def __repr__(self):
        return f"parse_term({print_term(self)!r})"


@dataclass(frozen=True, eq=False, repr=False)
class Zero(_Node):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class One(_Node):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    """A variable; names match [a-z][a-z0-9_]* and are case-sensitive."""

    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Neg(_Node):
    arg: "Term"


@dataclass(frozen=True, eq=False, repr=False)
class Inv(_Node):
    arg: "Term"


@dataclass(frozen=True, eq=False, repr=False)
class Add(_Node):
    left: "Term"
    right: "Term"


@dataclass(frozen=True, eq=False, repr=False)
class Mul(_Node):
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


def _children(node: Term) -> tuple:
    """The immediate subterms of node, left to right."""
    cls = type(node)
    if cls is Add or cls is Mul:
        return node.left, node.right
    return (node.arg,) if cls is Neg or cls is Inv else ()


def postorder(roots: Iterable[Term]) -> list[Term]:
    """Each distinct node (by id) under roots once, children before parents
    and left before right.  The explicit stack holds the path from a root,
    so no depth exhausts the interpreter's stack, and a term that shares
    its subterms costs its size as a graph, not as a tree."""
    order: list[Term] = []
    done: set[int] = set()
    for root in roots:
        stack = [root]
        while stack:
            node = stack[-1]
            cls = type(node)
            if cls is Add or cls is Mul:
                if id(node.left) not in done:
                    stack.append(node.left)
                    continue
                if id(node.right) not in done:
                    stack.append(node.right)
                    continue
            elif (cls is Neg or cls is Inv) and id(node.arg) not in done:
                stack.append(node.arg)
                continue
            stack.pop()
            if id(node) not in done:
                done.add(id(node))
                order.append(node)
    return order


def _shapes(roots: Iterable[Term]) -> tuple[dict[int, int], dict[tuple, int]]:
    # Number each distinct shape under roots in postorder, so equal subterms
    # get equal numbers; the shapes, in the order met, spell out the terms.
    numbers: dict[int, int] = {}
    shapes: dict[tuple, int] = {}
    for node in postorder(roots):
        cls = type(node)
        if cls is Add or cls is Mul:
            shape = (cls, numbers[id(node.left)], numbers[id(node.right)])
        elif cls is Neg or cls is Inv:
            shape = (cls, numbers[id(node.arg)])
        else:
            shape = (cls, getattr(node, "name", None))
        numbers[id(node)] = shapes.setdefault(shape, len(shapes))
    return numbers, shapes


def free_vars(t: Term) -> set[str]:
    """The set of variable names occurring in t."""
    return {node.name for node in postorder((t,)) if type(node) is Var}


def substitute(t: Term, binding: dict[str, Term]) -> Term:
    """Replace every bound variable by its image; unbound variables stay put.

    The signature has no binders, so substitution cannot capture.
    """
    image: dict[int, Term] = {}
    for node in postorder((t,)):
        if children := _children(node):
            new = type(node)(*[image[id(c)] for c in children])
        else:
            new = binding.get(node.name, node) if type(node) is Var else node
        image[id(node)] = new
    return image[id(t)]


def term_size(t: Term) -> int:
    """Number of nodes in the tree."""
    size: dict[int, int] = {}
    for node in postorder((t,)):
        size[id(node)] = 1 + sum(size[id(c)] for c in _children(node))
    return size[id(t)]


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
# ^-1 accepted, counted along each path into the term.  Two consumers still
# recurse: this parser, up to six frames per level, and eval_term, one per
# node on a path, so a deeper input would exhaust the stack; no formula
# written or encoded here nests half this deep.  Left-deep sums and
# products are not counted: the parser loops over them.
_MAX_NESTING = 100
# A decimal literal k is a sum of k ones, so larger ones are refused.
_MAX_LITERAL = 10_000
_MAX_DIGITS = len(str(_MAX_LITERAL))


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
    t: Term = ONE if k else ZERO
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
        digits = text if len(text) <= _MAX_DIGITS else text.lstrip("0") or "0"
        if len(digits) > _MAX_DIGITS or int(digits) > _MAX_LITERAL:
            raise SizeOverflow(
                f"decimal literal at position {pos} is above the bound of "
                f"{_MAX_LITERAL}"
            )
        return _literal(int(digits))
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
    """Render a Term; parse_term(print_term(t)) == t.

    The stack holds what is still to be written, text or a subterm with
    the level of its context, so the cost is linear in the output.
    """
    out: list[str] = []
    stack: list = [(t, _ADD)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, level = item
        cls = type(node)
        if cls is Var:
            out.append(node.name)
            continue
        if cls is Zero or cls is One:
            out.append("0" if cls is Zero else "1")
            continue
        # The parts of the node right to left, as the stack gives them back.
        if cls is Inv:
            own, parts = _POSTFIX, ("^-1", (node.arg, _POSTFIX))
        elif cls is Neg:
            own, parts = _UNARY, ((node.arg, _UNARY), "-")
        elif cls is Mul:
            own, parts = _MUL, ((node.right, _UNARY), "*", (node.left, _MUL))
        elif cls is Add and type(node.right) is Neg:
            own, parts = _ADD, ((node.right.arg, _MUL), "-", (node.left, _ADD))
        elif cls is Add:
            own, parts = _ADD, ((node.right, _MUL), "+", (node.left, _ADD))
        else:  # pragma: no cover
            raise TypeError(f"not a term: {node!r}")
        if own < level:
            stack.append(")")
            stack += parts
            stack.append("(")
        else:
            stack += parts
    return "".join(out)
