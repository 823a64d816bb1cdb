"""Column-wise CSV writer: every CSV the package writes goes through
``write_csv``.

The study's report tables and the CLI's CSVs are held as columns, each
a numpy array or a list (or other sequence) of Python values. A table is
written a chunk of rows at a time: an array's chunk becomes Python
values through ``.tolist()``, each column's cells are formatted
together, then the chunk's rows are joined. So numbers stay typed arrays
until here, and the bytes are those of the csv module's writer on the
columns' Python values.
"""

from __future__ import annotations

import numpy as np

__all__ = ["column_values", "write_csv"]

# Rows formatted and joined per write. The chunk's cell and row text is
# held at once: at 4,096 rows it raised a default study's peak RSS by
# about 2 MB, at 512 by none measurable, at the same speed.
CHUNK_ROWS = 512


def write_csv(fh, header, columns) -> None:
    """Write a table given as equal-length columns, under ``header``, to
    the text stream ``fh`` as CSV with ``"\\n"`` line ends.

    The bytes are those of ``csv.writer(fh, lineterminator="\\n")`` on
    the zipped rows, an array column taken as its ``.tolist()``: a cell
    is ``str()`` of its value (a float's repr)
    and empty for None, and a cell holding a comma, a quote or a newline
    is quoted, its quotes doubled; so is the empty cell of a one-column
    row. Each column is formatted a chunk of rows at a time and the
    chunk's rows joined, so the text held at once stays bounded. Raises
    ValueError when the columns differ in length.
    """
    if len({len(column) for column in columns}) > 1:
        raise ValueError("columns must have equal lengths")
    _write_rows(fh, [[name] for name in header])
    n_rows = len(columns[0]) if columns else 0
    for start in range(0, n_rows, CHUNK_ROWS):
        _write_rows(fh, [column_values(column[start : start + CHUNK_ROWS]) for column in columns])


def column_values(column):
    """A column's Python values: an array's ``.tolist()``, else the column."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def _write_rows(fh, columns: list) -> None:
    cells = [_cells(column) for column in columns]
    if len(cells) == 1:
        cells[0] = ['""' if cell == "" else cell for cell in cells[0]]
    fh.write("\n".join(map(",".join, zip(*cells))))
    fh.write("\n")


def _cells(column) -> list[str]:
    """The CSV cell text of each value of a column."""
    types = set(map(type, column))
    if types == {int}:
        # Each distinct int is formatted once. Floats are not: -0.0 and
        # 0.0 are equal keys with different text.
        text = {value: int.__repr__(value) for value in set(column)}
        return list(map(text.__getitem__, column))
    if types == {float}:
        return list(map(float.__repr__, column))
    cells = ["" if value is None else str(value) for value in column]
    if not any(char in "".join(cells) for char in ',"\n'):
        return cells
    return [
        '"' + cell.replace('"', '""') + '"' if any(char in cell for char in ',"\n') else cell
        for cell in cells
    ]
