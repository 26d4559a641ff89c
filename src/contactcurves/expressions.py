"""Parser and evaluator for the coordinate-expression language.

The grammar (also documented in the README) covers numeric literals, the
parameter ``t``, the constant ``pi``, the binary operators ``+ - * /``,
integer powers with ``^``, the functions ``sin``, ``cos``, ``exp``, ``log``,
``atan``, and parentheses::

    expr   = term { ("+" | "-") term }
    term   = unary { ("*" | "/") unary }
    unary  = ("+" | "-") unary | power
    power  = atom [ "^" unary ]          (exponent: constant integer)
    atom   = NUMBER | "t" | "pi" | NAME "(" expr ")" | "(" expr ")"

Every evaluation is a truncated Taylor (jet) pass, and a plain value is the
value slot of an order-0 jet, so values, derivatives and domain errors come
from one evaluator.  A zero divisor, a log of a non-positive number or a
negative power of zero raises :class:`EvaluationError`, in t or a constant.

:meth:`Expr.evaluate` takes a sharing scope: a dict, owned by the caller,
that holds every function call and every whole expression evaluated on one
variable.  Expressions evaluated in the same scope compute each distinct
call once, and ``sin`` and ``cos`` of one argument come from a single
sin/cos recurrence.  Calling an Expr evaluates it in a scope of its own.
"""

from __future__ import annotations

import re

import numpy as np

from . import jets

__all__ = ["Expr", "ExpressionError", "EvaluationError", "parse"]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = {
    "sin": jets.sin,
    "cos": jets.cos,
    "exp": jets.exp,
    "log": jets.log,
    "atan": jets.atan,
}


class ExpressionError(ValueError):
    """Syntax error; carries the character position in the source text."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(ValueError):
    """Numeric failure while evaluating a parsed expression."""


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ExpressionError(f"unexpected character {text[bad_at]!r}", bad_at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected {value!r} after expression", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = ("bin", value, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = ("bin", value, node, self.unary())
            else:
                return node

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            node = self.unary()
            return node if value == "+" else ("neg", node)
        return self.power()

    def power(self):
        node = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent = self.unary()
            node = ("pow", node, self._const_int(exponent, pos))
        return node

    def _const_int(self, node, pos):
        try:
            v = _const_value(node)
        except _NotConstant:
            raise ExpressionError("exponent must be a constant integer", pos) from None
        except ZeroDivisionError:
            raise ExpressionError("exponent divides by zero", pos) from None
        if not np.isfinite(v) or v != int(v):
            raise ExpressionError(f"exponent must be an integer, got {v}", pos)
        return int(v)

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return ("num", float(value))
        if kind == "name":
            if value == "t":
                return ("t",)
            if value == "pi":
                return ("num", float(np.pi))
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ("call", value, arg)
            raise ExpressionError(f"unknown name {value!r}", pos)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected {value!r}", pos)


class _NotConstant(Exception):
    pass


def _const_value(node):
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "neg":
        return -_const_value(node[1])
    if tag == "bin":
        _, op, left, right = node
        a, b = _const_value(left), _const_value(right)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        return a / b
    if tag == "pow":
        return _const_value(node[1]) ** node[2]
    raise _NotConstant


def _eval(node, t, shared):
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "t":
        return t
    if tag == "neg":
        return -_eval(node[1], t, shared)
    if tag == "bin":
        _, op, left, right = node
        a = _eval(left, t, shared)
        b = _eval(right, t, shared)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        zero = (b.value if isinstance(b, jets.Jet) else b) == 0.0
        if np.any(zero):
            # a constant divisor has no parameter value to name
            where = (f" at t={float(np.asarray(t.value)[zero][0])}"
                     if np.shape(zero) == t.shape else "")
            raise EvaluationError("division by zero" + where)
        return a / b
    if tag == "pow":
        base = _eval(node[1], t, shared)
        if isinstance(base, jets.Jet):
            return base**node[2]
        if base == 0.0 and node[2] < 0:
            # the error a jet base gives, from the division in Jet.__pow__
            raise jets.JetDomainError("division by zero in jet arithmetic")
        return np.asarray(base, dtype=float) ** node[2]
    if tag == "call":
        return _call(node, t, shared)
    raise AssertionError(f"unhandled node {tag}")


def _call(node, t, shared):
    """A function call, computed once per scope.

    The key is the call's AST.  Parser literals are unsigned (a minus sign
    is a "neg" node), so ASTs that compare equal evaluate identically;
    0.0 == -0.0 never merges two different calls.
    """
    _, name, arg = node
    if node not in shared:
        x = _eval(arg, t, shared)
        if name in ("sin", "cos") and isinstance(x, jets.Jet):
            shared[("call", "sin", arg)], shared[("call", "cos", arg)] = jets._sin_cos(x)
        else:
            shared[node] = _FUNCTIONS[name](x)
    return shared[node]


class Expr:
    """A parsed expression; a float, ndarray or Jet argument gives the same kind."""

    __slots__ = ("text", "ast")

    def __init__(self, text):
        self.text = text
        self.ast = _Parser(text).parse()

    def __call__(self, t):
        if isinstance(t, jets.Jet):
            return self.evaluate(t, {})
        t = np.asarray(t, dtype=float)
        value = self.evaluate(jets.variable(t, 0), {}).value
        return float(value) if t.ndim == 0 else value

    def evaluate(self, t, shared):
        """Jet of the expression over the variable jet t, in the sharing scope shared.

        shared holds the results of one pass over the single variable t
        and must not outlive it.  A whole expression is keyed apart from
        its calls, since a constant call's value is a float while the
        expression's jet follows the shape of t.
        """
        key = ("expr", self.ast)
        if key in shared:
            return shared[key]
        try:
            out = _eval(self.ast, t, shared)
        except jets.JetDomainError as err:
            raise EvaluationError(f"{err} while evaluating {self.text!r}") from err
        if not isinstance(out, jets.Jet):
            out = jets.constant(np.broadcast_to(out, t.shape), t.order)
        shared[key] = out
        return out

    def __repr__(self):
        return f"Expr({self.text!r})"


def parse(text: str) -> Expr:
    return Expr(text)
