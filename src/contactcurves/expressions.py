"""Parser and evaluator for the coordinate-expression language.

The grammar (also documented in the README) covers numeric literals, the
parameter ``t``, the constant ``pi``, the binary operators ``+ - * /``,
integer powers with ``^``, the functions ``sin``, ``cos``, ``exp``, ``log``,
``atan``, and parentheses::

    expr   = term { ("+" | "-") term }
    term   = unary { ("*" | "/") unary }
    unary  = ("+" | "-") unary | power
    power  = atom [ "^" unary ]          (exponent: integer constant)
    atom   = NUMBER | "t" | "pi" | NAME "(" expr ")" | "(" expr ")"

The parser folds constant subexpressions, so an exponent may be any
constant with an integer value.  Every evaluation is a truncated Taylor
(jet) pass over t, and a plain value is the value slot of an order-0 jet.
A zero divisor, a log of a non-positive number, a negative power of zero or
a constant that is not finite (``10^400``, ``1e400*0``) raises
:class:`EvaluationError` naming the expression, and t if t is in it.
An expression nested deeper than :data:`MAX_DEPTH` does not parse.

:meth:`Expr.evaluate` takes a sharing scope: a dict, owned by the caller,
that holds every function call and every whole expression evaluated on one
variable.  Expressions evaluated in the same scope compute each distinct
call once, and ``sin`` and ``cos`` of one argument come from a single
sin/cos recurrence.  Calling an Expr evaluates it in a scope of its own.
"""

from __future__ import annotations

import math
import re

import numpy as np

from . import jets

__all__ = ["Expr", "ExpressionError", "EvaluationError", "MAX_DEPTH", "parse"]

# deepest syntax tree or nesting the parser accepts: far below Python's recursion limit
MAX_DEPTH = 100

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S))"
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
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ExpressionError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


_BINARY_OPS = ("+-", "*/")     # by precedence level, loosest first


class _Parser:
    """Recursive descent; each rule returns (folded node, syntax-tree depth)."""

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0    # open unary rules: every recursion passes one

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_op(self, ops):
        kind, value, _ = self.peek()
        return kind == "op" and value in ops

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}", pos)
        return self.advance()

    def deeper(self, pos, depth):
        if depth >= MAX_DEPTH:
            raise ExpressionError(f"expression nests deeper than {MAX_DEPTH} levels", pos)
        return depth + 1

    def parse(self):
        node, _ = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected {value!r} after expression", pos)
        return node

    def expr(self, level=0):
        """A left fold of "+-" operands (level 0) or "*/" operands (level 1)."""
        node, depth = self.expr(1) if level == 0 else self.unary()
        while self.at_op(_BINARY_OPS[level]):
            _, op, pos = self.advance()
            right, right_depth = self.expr(1) if level == 0 else self.unary()
            node = _fold(("bin", op, node, right))
            depth = self.deeper(pos, max(depth, right_depth))
        return node, depth

    def unary(self):
        self.nesting = self.deeper(self.peek()[2], self.nesting)
        if self.at_op("+-"):
            _, sign, pos = self.advance()
            node, depth = self.unary()
            if sign == "-":
                node, depth = _fold(("neg", node)), self.deeper(pos, depth)
        else:
            node, depth = self.power()
        self.nesting -= 1
        return node, depth

    def power(self):
        node, depth = self.atom()
        if not self.at_op("^"):
            return node, depth
        pos = self.advance()[2]
        exponent = self._const_int(self.unary()[0], pos)
        return _fold(("pow", node, exponent)), self.deeper(pos, depth)

    def _const_int(self, node, pos):
        if node[0] == "err":
            raise ExpressionError(f"exponent is undefined: {node[1]}", pos)
        if node[0] != "num":
            raise ExpressionError("exponent must be a constant integer", pos)
        if not node[1].is_integer():      # a number leaf is finite
            raise ExpressionError(f"exponent must be an integer, got {node[1]}", pos)
        return int(node[1])

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return _num(float(value)), 1
        if kind == "name":
            if value == "t":
                return ("t",), 1
            if value == "pi":
                return _num(float(np.pi)), 1
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg, depth = self.expr()
                self.expect_op(")")
                return _fold(("call", value, arg)), self.deeper(pos, depth)
            raise ExpressionError(f"unknown name {value!r}", pos)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected {value!r}", pos)


def _num(value):
    # the sign slot keeps -0.0 and 0.0, equal as values, apart as scope keys
    if not math.isfinite(value):
        return ("err", f"non-finite constant {value!r}")
    return ("num", value, math.copysign(1.0, value))


def _fold(node):
    """node, or the number it evaluates to, with the same bits, if its operands
    are numbers; a constant outside its domain or not finite is an error
    node instead."""
    tag = node[0]
    operands = node[2:] if tag in ("bin", "call") else node[1:2]
    if any(x[0] != "num" for x in operands):
        return node
    try:
        # numpy overflows quietly here: the non-finite result is an error node
        if tag == "call":
            with np.errstate(all="ignore"):
                value = _FUNCTIONS[node[1]](jets.constant(operands[0][1], 0)).value
        elif tag == "pow":
            if operands[0][1] == 0.0 and node[2] < 0:   # as a jet base fails
                raise jets.JetDomainError("division by zero in jet arithmetic")
            with np.errstate(all="ignore"):
                value = np.asarray(operands[0][1]) ** node[2]
        else:
            value = _eval(node, None, None)     # on Python floats, which never warn
    except jets.JetDomainError as err:
        return ("err", str(err))
    return _num(float(value))


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
            # only a divisor that is a jet of t has a parameter value to name
            where = (f" at t={float(np.asarray(t.value)[zero][0])}"
                     if isinstance(b, jets.Jet) else "")
            raise jets.JetDomainError("division by zero" + where)
        return a / b
    if tag == "pow":
        return _eval(node[1], t, shared) ** node[2]
    if tag == "call":
        return _call(node, t, shared)
    raise jets.JetDomainError(node[1])      # an "err" node


def _call(node, t, shared):
    """A function call on a jet of t, computed once per scope.

    The key is the call's AST.  Number leaves carry their sign, so ASTs
    that compare equal evaluate identically although 0.0 == -0.0.
    """
    _, name, arg = node
    if node not in shared:
        x = _eval(arg, t, shared)
        if name in ("sin", "cos"):
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
        and must not outlive it.  It is keyed by AST, for the calls and for
        whole expressions alike; an expression that is one call is that
        call's jet.
        """
        if self.ast in shared:
            return shared[self.ast]
        try:
            out = _eval(self.ast, t, shared)
        except jets.JetDomainError as err:
            raise EvaluationError(f"{err} while evaluating {self.text!r}") from err
        if not isinstance(out, jets.Jet):
            out = jets.constant(np.broadcast_to(out, t.shape), t.order)
        shared[self.ast] = out
        return out

    def __repr__(self):
        return f"Expr({self.text!r})"


def parse(text: str) -> Expr:
    return Expr(text)
