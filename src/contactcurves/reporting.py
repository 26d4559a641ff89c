"""Bit-stable JSON and CSV emission.

The stdlib json module formats floats with repr, whose output is the
shortest round-tripping string and therefore varies in width.  Reports
here must be byte-identical across runs and easy to diff, so floats are
always written with 17 significant digits and a lowercase exponent, which
also round-trips exactly.  The serializer below is deliberately tiny: it
handles the payload shapes the CLI produces and nothing else.  A CSV column
is an array with one cell per row or an Indexed table; a float array is
formatted as floats and anything else as labels (str, bool or int), and a
cell is empty only where an index is -1.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

__all__ = ["format_float", "to_json", "to_csv", "Indexed", "ReportError"]


class ReportError(ValueError):
    """Payload contains something the stable serializer refuses to guess at."""


def format_float(x) -> str:
    """17-significant-digit decimal form of a finite float."""
    x = float(x)
    if not math.isfinite(x):
        raise ReportError(f"non-finite value {x!r} in report payload")
    return format(x, ".17g")


# quoted and escaped as JSON, control characters included; one encoder
# serves every string, where json.dumps would build one per call
_json_string = json.JSONEncoder(ensure_ascii=False).encode


def _emit(value, out, indent):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise ReportError(f"non-string key {key!r} in report payload")
            out.append(f'{pad}  "{key}": ')
            _emit(item, out, indent + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(items):
            out.append(pad + "  ")
            _emit(item, out, indent + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(value, str):
        out.append(_json_string(value))
    elif isinstance(value, bool) or isinstance(value, np.bool_):
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(format_float(value))
    else:
        raise ReportError(f"cannot serialize {type(value).__name__} in report payload")


def to_json(payload) -> str:
    """Serialize a payload of dicts/lists/scalars; ends with a newline."""
    out = []
    _emit(payload, out, 0)
    out.append("\n")
    return "".join(out)


def _label(value) -> str:
    """A label cell's text: a str (quoted where CSV needs it), bool or int."""
    if isinstance(value, str):
        if "," in value or "\n" in value or '"' in value:
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    raise ReportError(f"cannot serialize {type(value).__name__} in a CSV cell")


class Indexed(NamedTuple):
    """A CSV column whose row i holds values[index[i]], empty where it is -1.

    Each distinct value is formatted once, however many rows repeat it.
    """

    values: Sequence
    index: np.ndarray


def _format_column(values):
    """The cells of a column as strings, and a mask of the finite values.

    A float array takes one np.isfinite and one "%.17g" map (the text of
    format_float); its mask is None when all values are finite, as it is
    for labels.  _cell_columns raises for the first non-finite cell.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        finite = np.isfinite(values)
        cells = list(map("%.17g".__mod__, values.tolist()))
        return cells, None if finite.all() else finite
    return list(map(_label, values)), None


def _cell_columns(header, columns):
    """Each column of cells as a list of strings, one per row."""
    if len(columns) != len(header):
        raise ReportError(f"CSV has {len(columns)} columns of cells, "
                          f"header has {len(header)} cells")
    formatted = {}              # id(values) -> _format_column(values)
    cell_columns = []
    first_bad = None            # (row, value) of the first non-finite cell
    for name, column in zip(header, columns):
        values, index = column if isinstance(column, Indexed) else (column, None)
        if id(values) not in formatted:
            formatted[id(values)] = _format_column(values)
        cells, finite = formatted[id(values)]
        if index is not None:
            cells = np.array(cells + [""], dtype=object)[index].tolist()
            if finite is not None:
                finite = np.append(finite, True)[index]
        if cell_columns and len(cells) != len(cell_columns[0]):
            raise ReportError(f"CSV column {name!r} has {len(cells)} cells, "
                              f"column {header[0]!r} has {len(cell_columns[0])}")
        cell_columns.append(cells)
        if finite is not None and not finite.all():
            row = int(np.argmin(finite))
            if first_bad is None or row < first_bad[0]:
                at = row if index is None else index[row]
                first_bad = (row, values[at])
    if first_bad is not None:
        format_float(first_bad[1])          # raises, naming the value
    return cell_columns


def to_csv(header, columns) -> str:
    """CSV text with a header line and the same float format as to_json.

    columns holds one entry per header name: an array with one cell per
    row, or an Indexed table.  A float array is formatted as floats and
    anything else as labels (str, bool or int); a cell is empty only where
    an index is -1.  A non-finite float in a written cell raises
    ReportError naming the first one in row order.
    """
    rows = map(",".join, zip(*_cell_columns(header, columns)))
    return "\n".join([",".join(header), *rows, ""])
