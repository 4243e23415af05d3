"""Expression language v1 for system definitions.

Grammar (whitespace-insensitive, ASCII only, no implicit multiplication):

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := '-' factor | atom ('^' exponent)?
    atom     := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'
    exponent := ('-')? NUMBER | '(' ('-')? NUMBER ')'

so that '-x^2' parses as -(x^2) while '(-x)^2' squares the negation.
Exponents must be integer literals in [-6, 6] (avoids log-based powers on
negative bases; nothing here needs more than small integer powers).
Recognized functions: sin, cos, tan, sec, sqrt, exp, ln — one argument
each.  Identifiers are [a-zA-Z_][a-zA-Z0-9_]*.

`parse` produces an immutable AST whose leaves are numbers and *unresolved*
names; a loaded system resolves each name into a variable (coordinate) or a
parameter, which is when unknown names are reported.  Evaluation is in
Jet2 arithmetic (see :mod:`nhk.jet`); parameters are constants with zero
derivatives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import EvalError, ParseError
from .jet import (NONFINITE, Jet2, jet_binary, jet_const, jet_lift,
                  jet_unary)

__all__ = [
    "Expr", "Num", "Name", "Var", "Param", "Unary", "Binary",
    "parse", "format_expr", "eval_expr", "resolve",
    "collect_names", "fold_constants", "FUNCTIONS",
]

FUNCTIONS = ("sin", "cos", "tan", "sec", "sqrt", "exp", "ln")


# ------------------------------------------------------------------ AST
@dataclass(frozen=True, slots=True)
class Expr:
    pos: int = field(compare=False, kw_only=True, default=0)


@dataclass(frozen=True, slots=True, eq=True)
class Num(Expr):
    value: float


@dataclass(frozen=True, slots=True, eq=True)
class Name(Expr):
    """An identifier not yet resolved against a system's name lists."""
    ident: str


@dataclass(frozen=True, slots=True, eq=True)
class Var(Expr):
    """A coordinate function."""
    name: str


@dataclass(frozen=True, slots=True, eq=True)
class Param(Expr):
    """A system parameter (constant under differentiation)."""
    name: str


@dataclass(frozen=True, slots=True, eq=True)
class Unary(Expr):
    fn: str  # 'neg' or one of FUNCTIONS
    child: Expr


@dataclass(frozen=True, slots=True, eq=True)
class Binary(Expr):
    op: str  # add sub mul div pow
    left: Expr
    right: Expr


# ------------------------------------------------------------- tokenizer
_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^(),])
""", re.VERBOSE)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # 'num' | 'ident' | one of '+-*/^(),' | 'end'
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    toks = []
    i = 0
    # matches run back to back from offset 0; a gap or a non-ASCII start
    # is the first offset no token begins at
    for m in _TOKEN_RE.finditer(text):
        start = m.start()
        if start != i or text[i] > "\x7f":
            break
        i = m.end()
        kind = m.lastgroup
        if kind != "ws":
            s = m.group()
            toks.append(_Token(s if kind == "op" else kind, s, start))
    if i < len(text):
        ch = text[i]
        if ord(ch) > 127:
            raise ParseError(f"non-ASCII character {ch!r}", i)
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(_Token("end", "", i))
    return toks


# ---------------------------------------------------------------- parser
class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            what = repr(t.text) if t.kind != "end" else "end of input"
            raise ParseError(f"expected {kind!r}, found {what}", t.pos)
        return self.next()

    def parse(self) -> Expr:
        if not self.text.strip():
            raise ParseError("empty expression", 0)
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"trailing input {t.text!r}", t.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind in ("+", "-"):
            t = self.next()
            rhs = self.term()
            e = Binary("add" if t.kind == "+" else "sub", e, rhs, pos=e.pos)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind in ("*", "/"):
            t = self.next()
            rhs = self.factor()
            e = Binary("mul" if t.kind == "*" else "div", e, rhs, pos=e.pos)
        return e

    def factor(self) -> Expr:
        t = self.peek()
        if t.kind == "-":
            self.next()
            return Unary("neg", self.factor(), pos=t.pos)
        e = self.atom()
        if self.peek().kind == "^":
            self.next()
            e = Binary("pow", e, self.exponent(), pos=e.pos)
        return e

    def exponent(self) -> Num:
        """Integer literal in [-6, 6], optionally negated/parenthesized."""
        t = self.peek()
        if t.kind == "(":
            self.next()
            inner = self.exponent()
            self.expect(")")
            return inner
        sign = 1.0
        if t.kind == "-":
            self.next()
            sign = -1.0
            t = self.peek()
        if t.kind != "num":
            raise ParseError("exponent must be an integer literal", t.pos)
        self.next()
        v = sign * float(t.text)
        if v != int(v) or not -6 <= int(v) <= 6:
            raise ParseError(
                f"exponent must be an integer in [-6, 6], got {t.text}", t.pos)
        return Num(v, pos=t.pos)

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return Num(float(t.text), pos=t.pos)
        if t.kind == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "ident":
            self.next()
            if self.peek().kind == "(":
                self.next()
                args = [self.expr()]
                while self.peek().kind == ",":
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                if t.text not in FUNCTIONS:
                    raise ParseError(f"unknown function {t.text!r}", t.pos)
                if len(args) != 1:
                    raise ParseError(
                        f"function {t.text!r} takes exactly one argument", t.pos)
                return Unary(t.text, args[0], pos=t.pos)
            return Name(t.text, pos=t.pos)
        what = repr(t.text) if t.kind != "end" else "end of input"
        raise ParseError(f"expected a value, found {what}", t.pos)


def parse(text: str) -> Expr:
    """Parse expression text to an AST; raises ParseError with a byte
    offset on malformed input."""
    if not isinstance(text, str):
        raise ParseError(f"expected a string, got {type(text).__name__}", 0)
    return _Parser(text).parse()


# ------------------------------------------------------------- formatter
def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return {"add": 1, "sub": 1, "mul": 2, "div": 2, "pow": 4}[e.op]
    if isinstance(e, Unary):
        return 3 if e.fn == "neg" else 9
    return 9


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def format_expr(e: Expr) -> str:
    """Minimal-parenthesis rendering; format_expr(parse(t)) reparses to a
    structurally identical AST."""
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, (Name, Var, Param)):
        return e.ident if isinstance(e, Name) else e.name
    if isinstance(e, Unary):
        if e.fn == "neg":
            inner = format_expr(e.child)
            if _prec(e.child) < 3:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{e.fn}({format_expr(e.child)})"
    if isinstance(e, Binary):
        sym = {"add": " + ", "sub": " - ", "mul": "*", "div": "/", "pow": "^"}[e.op]
        p = _prec(e)
        left = format_expr(e.left)
        if _prec(e.left) < p:
            left = f"({left})"
        right = format_expr(e.right)
        # all ops left-associative except pow whose rhs is a literal
        if e.op == "pow":
            if isinstance(e.right, Num) and e.right.value < 0:
                right = f"({right})"
        elif _prec(e.right) <= p:
            right = f"({right})"
        return f"{left}{sym}{right}"
    raise TypeError(f"not an Expr node: {e!r}")


# ------------------------------------------------------------ resolution
def collect_names(e: Expr) -> set[str]:
    """All identifiers (resolved or not) appearing in the tree."""
    if isinstance(e, Name):
        return {e.ident}
    if isinstance(e, (Var, Param)):
        return {e.name}
    if isinstance(e, Unary):
        return collect_names(e.child)
    if isinstance(e, Binary):
        return collect_names(e.left) | collect_names(e.right)
    return set()


def resolve(e: Expr, coord_names, param_names) -> Expr:
    """Turn Name leaves into Var/Param leaves; unknown names raise
    EvalError carrying the source offset."""
    if isinstance(e, Name):
        if e.ident in coord_names:
            return Var(e.ident, pos=e.pos)
        if e.ident in param_names:
            return Param(e.ident, pos=e.pos)
        raise EvalError(f"unknown name {e.ident!r}", e.pos)
    if isinstance(e, (Var, Param, Num)):
        return e
    if isinstance(e, Unary):
        return Unary(e.fn, resolve(e.child, coord_names, param_names), pos=e.pos)
    if isinstance(e, Binary):
        return Binary(e.op,
                      resolve(e.left, coord_names, param_names),
                      resolve(e.right, coord_names, param_names), pos=e.pos)
    raise TypeError(f"not an Expr node: {e!r}")


# ------------------------------------------------------------ evaluation
def eval_expr(e: Expr, coords: dict, params: dict, active, order: int = 2) -> Jet2:
    """Evaluate to a Jet2 differentiated w.r.t. the ordered `active`
    coordinate names, each bound in `coords` and named once (else
    EvalError).  Internal entry point with selectable order.  A
    non-finite value or derivative raises EvalError (``jet.NONFINITE``),
    as in the compiled kernels."""
    active = list(active)
    for a in active:
        if a not in coords:
            raise EvalError(f"active variable {a!r} has no bound value")
    index = {name: i for i, name in enumerate(active)}
    if len(index) < len(active):        # index holds each last occurrence
        a = next(a for i, a in enumerate(active) if index[a] != i)
        raise EvalError(f"active variable {a!r} is repeated")
    values = [float(coords[a]) for a in active]
    V = len(active)

    def ev(node: Expr) -> Jet2:
        if isinstance(node, Num):
            return jet_const(node.value, V, order)
        if isinstance(node, (Name, Var, Param)):
            name = node.ident if isinstance(node, Name) else node.name
            if isinstance(node, Param):
                if name not in params:
                    raise EvalError(f"unbound parameter {name!r}", node.pos)
                return jet_const(params[name], V, order)
            if isinstance(node, Var) or name in coords:
                if name not in coords:
                    raise EvalError(f"unbound variable {name!r}", node.pos)
                if name in index:
                    return jet_lift(values, index[name], order)
                return jet_const(coords[name], V, order)
            if name in params:
                return jet_const(params[name], V, order)
            raise EvalError(f"unbound name {name!r}", node.pos)
        try:
            if isinstance(node, Unary):
                return jet_unary(node.fn, ev(node.child))
            if isinstance(node, Binary):
                return jet_binary(node.op, ev(node.left), ev(node.right))
        except EvalError as err:
            if err.offset is None:
                raise EvalError(err.message, node.pos) from None
            raise
        raise TypeError(f"not an Expr node: {node!r}")

    jet = ev(e)
    if not all(np.isfinite(m).all() for m in (jet.value, jet.grad, jet.hess)
               if m is not None):
        raise EvalError(NONFINITE)
    return jet


def fold_constants(e: Expr, params: dict) -> Expr:
    """Substitute parameters and collapse constant subtrees to Num leaves.

    Used at system-load time so that per-point evaluation touches only
    genuinely coordinate-dependent arithmetic.  Evaluation errors inside a
    constant subtree (e.g. a pole) surface immediately.
    """
    if isinstance(e, Num):
        return e
    if isinstance(e, Param):
        if e.name not in params:
            raise EvalError(f"unbound parameter {e.name!r}", e.pos)
        return Num(float(params[e.name]), pos=e.pos)
    if isinstance(e, (Name, Var)):
        return e
    if isinstance(e, Unary):
        c = fold_constants(e.child, params)
        if isinstance(c, Num):
            try:
                v = jet_unary(e.fn, jet_const(c.value, 0, 0)).value
            except EvalError as err:
                raise EvalError(err.message, e.pos) from None
            return Num(v, pos=e.pos)
        return e if c is e.child else Unary(e.fn, c, pos=e.pos)
    if isinstance(e, Binary):
        l = fold_constants(e.left, params)
        r = fold_constants(e.right, params)
        if isinstance(l, Num) and isinstance(r, Num):
            try:
                v = jet_binary(e.op, jet_const(l.value, 0, 0),
                               jet_const(r.value, 0, 0)).value
            except EvalError as err:
                raise EvalError(err.message, e.pos) from None
            return Num(v, pos=e.pos)
        if l is e.left and r is e.right:
            return e
        return Binary(e.op, l, r, pos=e.pos)
    raise TypeError(f"not an Expr node: {e!r}")
