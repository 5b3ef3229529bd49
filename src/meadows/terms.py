"""Term language over the signature {0, 1, +, -, *, ^-1} with variables.

Terms are immutable trees with structural equality, so they can be shared
freely, used as dict keys, and compared for deduplication.  Division and
binary subtraction exist only in the concrete syntax: ``a/b`` desugars to
``a*b^-1`` and ``a-b`` to ``a+(-b)``, keeping the abstract signature exactly
the five ring symbols plus inverse.

``compile_terms`` hash-conses terms into a ``Program`` of distinct shapes,
children first.  Each term and formula keeps the one it compiles on first
use (``Compiled.program``), which equality, hashing, the term functions and
the checks read; only the printer, the parser and ``eval_term`` walk terms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, TypeAlias, Union

from .errors import ParseError, SizeOverflow

__all__ = [
    "Term", "Zero", "One", "Var", "Neg", "Inv", "Add", "Mul",
    "ZERO", "ONE",
    "parse_term", "print_term", "numeral", "substitute", "free_vars",
    "sub", "div", "local_unit", "term_size", "Program", "compile_terms",
]


class Compiled:
    """Keeps the Program of ``self._roots()``, compiled on first use."""

    __slots__ = ()

    @property
    def program(self) -> Program:
        try:
            return self._program
        except AttributeError:
            program = compile_terms(self._roots())
            object.__setattr__(self, "_program", program)
            return program

    def variables(self) -> set[str]:
        return {a for kind, a, _ in self.program.shapes if kind is Var}


class _Node(Compiled):
    """Base of the term nodes.  Equal trees have identical programs (a shape
    is numbered where it first occurs, and the root's carries the class), so
    equality compares kept shape lists; the hash is taken from them once."""

    __slots__ = ()

    def _roots(self):
        return (self,)

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return self.program.shapes == other.program.shapes

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            value = hash(tuple(self.program.shapes))
            object.__setattr__(self, "_hash", value)
            return value

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


class Program(NamedTuple):
    """``shapes[i]`` is ``(kind, a, b)``: the node class, then the indices
    of the children of an Add or Mul, that of a Neg or Inv and None, the
    name of a Var and None, or None twice.  Equal subterms share an index,
    and ``roots[k]`` is that of the k-th term."""

    shapes: list[tuple]
    roots: list[int]


def compile_terms(roots: Iterable[Term]) -> Program:
    """The Program of roots: each shape is numbered when its children are,
    left before right.  The explicit stack holds both children of a node at
    once and nodes are memoised by id, so no depth exhausts the interpreter's
    stack and a shared subterm is walked once."""
    shapes: dict[tuple, int] = {}
    memo: dict[int, int] = {}
    indices: list[int] = []
    get, cons = memo.get, shapes.setdefault
    for root in roots:
        stack = [root]
        push, pop = stack.append, stack.pop
        while stack:
            node = stack[-1]
            if id(node) in memo:
                pop()
                continue
            cls = type(node)
            if cls is Add or cls is Mul:
                a, b = get(id(node.left)), get(id(node.right))
                if a is None or b is None:
                    if b is None:
                        push(node.right)
                    if a is None:
                        push(node.left)
                    continue
                shape = (cls, a, b)
            elif cls is Neg or cls is Inv:
                a = get(id(node.arg))
                if a is None:
                    push(node.arg)
                    continue
                shape = (cls, a, None)
            elif cls is Var:
                shape = (cls, node.name, None)
            elif cls is Zero or cls is One:
                shape = (cls, None, None)
            else:
                raise TypeError(f"not a term: {node!r}")
            pop()
            memo[id(node)] = cons(shape, len(shapes))
        indices.append(memo[id(root)])
    return Program(list(shapes), indices)


def free_vars(t: Term) -> set[str]:
    """The set of variable names occurring in t."""
    return t.variables()


def substitute(t: Term, binding: dict[str, Term]) -> Term:
    """Replace every bound variable by its image; unbound variables stay put.

    The signature has no binders, so substitution cannot capture.  The
    result shares each of its repeated subterms.
    """
    image: list[Term] = []
    for kind, a, b in t.program.shapes:
        if kind is Var:
            image.append(binding[a] if a in binding else Var(a))
        else:
            image.append(kind(*[image[c] for c in (a, b) if c is not None]))
    return image[t.program.roots[0]]


def term_size(t: Term) -> int:
    """Number of nodes in the tree."""
    size: list[int] = []
    for kind, a, b in t.program.shapes:
        children = () if kind is Var else [c for c in (a, b) if c is not None]
        size.append(1 + sum(size[c] for c in children))
    return size[t.program.roots[0]]


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
