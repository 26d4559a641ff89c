"""Mutation testing for one module of contactcurves.

    python tools/mutate.py --file src/contactcurves/curves.py \
        --tests tests/test_curves.py tests/test_families.py

Each mutant changes one source span of --file with one operator of a fixed
set:

- a float literal scaled by 1.5 and by 10
- an integer literal plus and minus 1
- a comparison flipped: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``

Spans are replaced in the source text, so comments (``# noqa`` included)
and layout survive.  Literals inside f-strings are left alone, and so is a
mutant whose literal keeps its value (0.0 scaled).  Mutants run one at a
time against a temporary copy of the ``src`` tree that holds --file; no
source in the checkout is written.  A mutant is killed when ``pytest -x`` over
--tests fails (or times out), and survives when it passes.  The run order
is a fixed shuffle, so a run stopped with Ctrl-C or SIGTERM reports a
random sample, the same one on every run.

The table lists the survivors by line and column, with the enclosing
function.  The ``<``/``<=`` and ``>``/``>=`` flips whose operands show no
sign of being integers (an int literal, len(), or an attribute such as size,
shape or order) are listed apart, as boundary flips at float thresholds:
such a flip changes the result only on exact equality with the threshold,
so each one is settled by a test on the boundary or by an argument.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path

FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
         ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
INTEGER_ATTRS = {"size", "ndim", "shape", "order", "dim", "n", "r", "m"}
TIMEOUT_S = 300


@dataclass
class Mutant:
    line: int
    col: int            # 1-based, in bytes
    start: int          # offsets into the source text
    end: int
    old: str
    new: str
    kind: str           # "float", "int", "compare" or "boundary"
    function: str


def _byte_offset(lines, line, col, col_in_bytes=True):
    """Offset into the UTF-8 source of a (1-based line, column) position.

    ast columns count bytes, tokenize columns count characters.
    """
    before = sum(len(text.encode()) for text in lines[:line - 1])
    return before + (col if col_in_bytes else len(lines[line - 1][:col].encode()))


def _integer_valued(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and type(sub.value) is int:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in INTEGER_ATTRS:
            return True
        if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "len":
            return True
    return False


def find_mutants(source):
    """Every mutant of the fixed operator set, in source order."""
    tree = ast.parse(source)
    data = source.encode()
    lines = source.splitlines(keepends=True)

    def offset(line, col):
        return _byte_offset(lines, line, col)

    ops = {}        # byte offset -> comparison operator token
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.OP and tok.string in ("<", "<=", ">", ">=", "==", "!="):
            ops[_byte_offset(lines, *tok.start, col_in_bytes=False)] = tok.string

    owner = {}      # node -> enclosing function name
    skip = set()    # nodes inside f-strings

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            function = node.name if function == "<module>" else f"{function}.{node.name}"
        for child in ast.iter_child_nodes(node):
            owner[child] = function
            if isinstance(node, ast.JoinedStr) or node in skip:
                skip.add(child)
            visit(child, function)

    visit(tree, "<module>")
    out = []
    for node in ast.walk(tree):
        if node in skip:
            continue
        function = owner.get(node, "<module>")
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            a = offset(node.lineno, node.col_offset)
            b = offset(node.end_lineno, node.end_col_offset)
            old = data[a:b].decode()
            if type(node.value) is float:
                news = [("float", repr(node.value * 1.5)), ("float", repr(node.value * 10.0))]
            else:
                news = [("int", str(node.value + 1)), ("int", str(node.value - 1))]
            for kind, new in news:
                if new not in ("inf", "nan") and ast.literal_eval(new) != node.value:
                    out.append(Mutant(node.lineno, node.col_offset + 1, a, b, old, new,
                                      kind, function))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if type(op) not in FLIPS:
                    continue
                old, new = FLIPS[type(op)]
                start = offset(left.end_lineno, left.end_col_offset)
                stop = offset(right.lineno, right.col_offset)
                a = min(p for p, s in ops.items() if start <= p < stop and s == old)
                integer = _integer_valued(left) or _integer_valued(right)
                kind = "compare" if old in ("==", "!=") or integer else "boundary"
                line = data[:a].count(b"\n") + 1
                col = a - data.rfind(b"\n", 0, a)
                out.append(Mutant(line, col, a, a + len(old), old, new, kind, function))
    out.sort(key=lambda m: (m.start, m.new))
    return out


def apply(data, mutant):
    return data[:mutant.start] + mutant.new.encode() + data[mutant.end:]


def run_tests(tree_root, src_copy, tests):
    env = dict(os.environ, PYTHONPATH=str(src_copy), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=tree_root, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if proc.returncode == 0 else "killed"


def _row(m):
    return f"{m.line:>5}:{m.col:<3}  {m.function:<32} {m.kind:<8} {m.old} -> {m.new}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--file", required=True, type=Path,
                        help="module to mutate, inside a src/<package>/ tree")
    parser.add_argument("--tests", required=True, nargs="+",
                        help="pytest paths that should kill the mutants")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, signal.default_int_handler)   # clean up as on Ctrl-C

    target = args.file.resolve()
    src = target.parent.parent          # src/<package>/<module>.py
    tree_root = src.parent
    tests = [str(Path(t).resolve()) for t in args.tests]
    data = target.read_bytes()
    mutants = find_mutants(data.decode())
    order = list(range(len(mutants)))
    random.Random(0).shuffle(order)

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        src_copy = Path(tmp) / "src"
        shutil.copytree(src, src_copy, ignore=shutil.ignore_patterns("__pycache__"))
        copy = src_copy / target.relative_to(src)
        if run_tests(tree_root, src_copy, tests) != "survived":
            sys.exit("the tests fail on the unmutated copy")
        print(f"{target.name}: {len(mutants)} mutants", flush=True)
        status = {}
        began = time.perf_counter()
        try:
            for done, i in enumerate(order, 1):
                copy.write_bytes(apply(data, mutants[i]))
                status[i] = run_tests(tree_root, src_copy, tests)
                copy.write_bytes(data)
                if status[i] == "survived":
                    print(f"[{done}/{len(mutants)}] survived: {_row(mutants[i])}", flush=True)
        except KeyboardInterrupt:
            print("interrupted: the table covers the mutants run so far")
        elapsed = time.perf_counter() - began

    counts = {s: sum(1 for v in status.values() if v == s)
              for s in ("killed", "timeout", "survived")}
    print(f"\nran {len(status)} of {len(mutants)} in {elapsed:.0f} s: "
          + ", ".join(f"{v} {k}" for k, v in counts.items()))
    survivors = [mutants[i] for i in sorted(status) if status[i] == "survived"]
    header = f"{'line:col':<9}  {'function':<32} {'kind':<8} mutation"
    for title, rows in (
            ("Survivors", [m for m in survivors if m.kind != "boundary"]),
            ("Boundary flips at float thresholds",
             [m for m in survivors if m.kind == "boundary"])):
        print(f"\n{title} ({len(rows)})\n{header}")
        for m in rows:
            print(_row(m))
    return 0


if __name__ == "__main__":
    sys.exit(main())
