"""The mutant finder of tools/mutate.py: spans, kinds and the mutated text."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"
_SPEC = importlib.util.spec_from_file_location("mutate", _PATH)
mutate = sys.modules["mutate"] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutate)

# An f-string with a comparison and a float inside, a chained comparison,
# a negative literal, non-ASCII text before literals and operators, and
# comments that must survive each mutant.
SOURCE = '''\
def clip(x, xs):
    label = f"{x < 1} at {2.5}"  # noqa: F841
    if 0 < x <= 2.0:  # noqa: E501
        return "é", -3
    return "π" if len(xs) == 1 else x * 1e-3
'''

# (line, 1-based byte column, old, new, kind, the mutated line)
WANT = [
    (3, 8, "0", "-1", "int", '    if -1 < x <= 2.0:  # noqa: E501'),
    (3, 8, "0", "1", "int", '    if 1 < x <= 2.0:  # noqa: E501'),
    (3, 10, "<", "<=", "compare", '    if 0 <= x <= 2.0:  # noqa: E501'),
    (3, 14, "<=", "<", "boundary", '    if 0 < x < 2.0:  # noqa: E501'),
    (3, 17, "2.0", "20.0", "float", '    if 0 < x <= 20.0:  # noqa: E501'),
    (3, 17, "2.0", "3.0", "float", '    if 0 < x <= 3.0:  # noqa: E501'),
    (4, 23, "3", "2", "int", '        return "é", -2'),
    (4, 23, "3", "4", "int", '        return "é", -4'),
    (5, 28, "==", "!=", "compare", '    return "π" if len(xs) != 1 else x * 1e-3'),
    (5, 31, "1", "0", "int", '    return "π" if len(xs) == 0 else x * 1e-3'),
    (5, 31, "1", "2", "int", '    return "π" if len(xs) == 2 else x * 1e-3'),
    (5, 42, "1e-3", "0.0015", "float", '    return "π" if len(xs) == 1 else x * 0.0015'),
    (5, 42, "1e-3", "0.01", "float", '    return "π" if len(xs) == 1 else x * 0.01'),
]


def test_find_mutants_spans_kinds_and_text():
    data = SOURCE.encode()
    lines = SOURCE.splitlines()
    got = []
    for m in mutate.find_mutants(SOURCE):
        assert m.function == "clip"
        assert data[m.start:m.end].decode() == m.old
        out = mutate.apply(data, m).decode().splitlines()
        # one span changes, every other line (comments included) is kept
        assert out[:m.line - 1] + out[m.line:] == lines[:m.line - 1] + lines[m.line:]
        got.append((m.line, m.col, m.old, m.new, m.kind, out[m.line - 1]))
    assert got == WANT
