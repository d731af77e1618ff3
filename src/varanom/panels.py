"""CSV panel ingestion and simple transforms."""

from __future__ import annotations

import csv
import warnings

import numpy as np

from .errors import PanelFormatError, ParameterError
from .var_model import TimeSeriesPanel

# ASCII information separators, which np.loadtxt skips as whitespace and float refuses
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def load_panel(path, has_header: bool = False, delimiter: str = ",") -> TimeSeriesPanel:
    """Parse a numeric rectangle (rows = time, columns = series) into a panel.

    ``np.loadtxt`` parses a plain numeric file in C. A file it rejects goes
    through a per-cell loop over ``csv.reader``, which also accepts quoted
    cells, lines that are blank, whitespace or delimiters only, and anything
    Python's ``float`` reads (such as ``1_0``); there ragged rows and
    non-numeric cells raise PanelFormatError naming the offending row and
    column (1-based, header excluded). ``loadtxt`` would read a cell padded
    with an ASCII information separator (0x1C-0x1F) as a number, so a file
    holding one of them goes to the loop, which refuses the cell. Both paths
    give bitwise the same values. A file with no data rows raises
    PanelFormatError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    values = None
    if not any(sep in data for sep in _SEPARATORS):
        values = _load_plain(path, has_header, delimiter)
    if values is None:
        values = _parse_cells(path, has_header, delimiter)
    if values.size == 0:
        raise PanelFormatError(f"{path} contains no data rows")
    return TimeSeriesPanel(values)


def _load_plain(path, has_header: bool, delimiter: str) -> np.ndarray | None:
    """The values of :func:`load_panel` parsed by ``np.loadtxt``, or None if it rejects the file."""
    try:
        with warnings.catch_warnings():
            # an empty file warns and parses to an empty array, refused by the caller
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(
                path, delimiter=delimiter, skiprows=int(has_header), ndmin=2, comments=None
            )
    except ValueError:
        return None


def _parse_cells(path, has_header: bool, delimiter: str) -> np.ndarray:
    """The values of :func:`load_panel` read cell by cell with ``float``."""
    rows: list[list[float]] = []
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        for i, record in enumerate(reader):
            if has_header and i == 0:
                continue
            if not record or all(cell.strip() == "" for cell in record):
                continue
            row_no = len(rows) + 1
            if width is None:
                width = len(record)
            elif len(record) != width:
                raise PanelFormatError(
                    f"row {row_no} has {len(record)} fields, expected {width}"
                )
            parsed = []
            for j, cell in enumerate(record):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise PanelFormatError(
                        f"row {row_no}, column {j + 1}: {cell!r} is not numeric"
                    ) from None
            rows.append(parsed)
    return np.asarray(rows, dtype=float)


def save_panel(panel: TimeSeriesPanel, path, delimiter: str = ",") -> None:
    np.savetxt(path, panel.values, delimiter=delimiter, fmt="%.17g")


def difference(panel: TimeSeriesPanel) -> TimeSeriesPanel:
    """First differences: row t of the output is row t+1 minus row t."""
    if panel.n_rows < 2:
        raise ParameterError("differencing needs at least two rows")
    values = panel.values[1:] - panel.values[:-1]
    ts = panel.timestamps[1:] if panel.timestamps is not None else None
    return TimeSeriesPanel(values, ts)


def undifference(panel: TimeSeriesPanel, first_row: np.ndarray) -> TimeSeriesPanel:
    """Inverse of difference given the original leading row."""
    first = np.asarray(first_row, dtype=float).reshape(1, -1)
    restored = np.vstack([first, first + np.cumsum(panel.values, axis=0)])
    return TimeSeriesPanel(restored)
