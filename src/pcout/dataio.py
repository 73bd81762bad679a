"""CSV ingestion, the labeled data matrix, and the writer of every output.

``load_csv`` reads in this process only. A plain file (no quote, NUL,
0x1C-0x1F or lone carriage-return byte, no field near the csv module's size
limit) goes to numpy's C text reader; every other file, and a plain one that
reader does not read cleanly, goes to ``csv.reader`` and ``float()``. Both
routes give the same matrix to the bit, and only the second raises, so error
text does not depend on the route.

Detection reports, sweep and timing documents (built by ``evalsim``) and plot
data all leave through here. A document is a header plus its records as whole
columns (``Columns``), never one dict per row. ``document_json_chunks`` is the
one JSON writer: it writes exactly what ``json.dumps(indent=2)`` writes for the
row-per-record form, and streams it one block of rows at a time, each
block's number columns through the C encoder. ``document_to_csv`` renders the
same columns, and shares with ``emit_plot_data`` one CSV writer and one cell
formatter. Output is fully deterministic: numbers are written in Python's
shortest round-trip representation (never more than 17 significant digits)
and no wall-clock values enter a report, so identical runs produce
byte-identical files. Elapsed time is a stderr affair (see the cli module).
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np


class InputDataError(ValueError):
    """Malformed input: missing files, ragged rows, non-numeric cells."""


@dataclass(frozen=True)
class DataMatrix:
    """An n x p numeric matrix with row identifiers and column names."""

    values: np.ndarray
    row_ids: tuple[str, ...]
    column_names: tuple[str, ...]


def _cell_value(token: str) -> float:
    """``float(token)`` when that is finite, else NaN."""
    try:
        value = float(token)
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan


# The csv module refuses a field over 131072 characters. Any run of at least
# 2 * _WINDOW - 1 bytes covers an aligned window, so when every aligned window
# holds a "," or a "\n" no field is that long.
_WINDOW = 1 << 16
# a quote; NUL, which Python 3.10's csv refuses; 0x1C-0x1F, which numpy's C
# reader strips from a number and float() does not
_REFUSED = (b'"', b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _plain_body_lines(fh) -> int:
    """The number of lines below the header when numpy's C reader reads the
    binary file ``fh`` as the csv module and ``float()`` do, else 0: when it
    has no ``_REFUSED`` byte, no ``"\\r"`` outside a ``"\\r\\n"`` and no
    aligned window without a ``","`` or a ``"\\n"``. Rewinds ``fh``.
    """
    newlines, last, after_cr = 0, b"\n", False
    while block := fh.read(16 * _WINDOW):
        if any(byte in block for byte in _REFUSED) or (after_cr and block[:1] != b"\n"):
            break
        after_cr = block.endswith(b"\r")
        if b"\r" in block and block.count(b"\r") - after_cr != block.count(b"\r\n"):
            break
        starts = range(0, len(block) - _WINDOW + 1, _WINDOW)
        if any(block.find(b",", i, i + _WINDOW) < 0 and block.find(b"\n", i, i + _WINDOW) < 0
               for i in starts):
            break
        newlines += np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n"))
        last = block[-1:]
    fh.seek(0)
    return 0 if block or after_cr else max(newlines - (last == b"\n"), 0)


def _read_plain(path, width: int, skip: int, lines: int) -> tuple[list[str], np.ndarray] | None:
    """A plain file's body through numpy's C reader, as ``_parse_rows`` returns
    it; None unless that gave ``lines`` rows of ``width`` cells, each data
    cell finite."""
    first_cells = []

    def first(cell: str) -> float:
        first_cells.append(cell)
        return _cell_value(cell)

    # numpy would open a path itself, decompressing by the file's extension
    with open(path, encoding="utf-8") as body, warnings.catch_warnings():
        # a body of blank lines reads as "no data"; the row count refuses it
        warnings.simplefilter("ignore", UserWarning)
        try:
            table = np.loadtxt(
                body, delimiter=",", skiprows=1, comments=None, encoding="utf-8", ndmin=2,
                converters={0: first},
            )
        except ValueError:  # a UnicodeDecodeError too
            return None
    if table.shape != (lines, width) or not np.isfinite(table[:, skip:]).all():
        return None
    return first_cells, table


def _parse_rows(text, path, header: list[str], skip: int) -> tuple[list[str], np.ndarray]:
    """The body as ``csv.reader`` and ``float()`` read it: its first cells,
    and its table with the first column through ``_cell_value``.

    Rows are converted as the reader yields them. A ragged row raises at
    once; a bad data cell is named once every row has passed the width check.
    """
    width = len(header)
    first_cells, rows, bad = [], [], None
    for i, row in enumerate(csv.reader(text), start=2):
        if len(row) != width:
            raise InputDataError(f"{path}: row {i} has {len(row)} fields, header has {width}")
        if bad is not None:
            continue
        first_cells.append(row[0])
        try:
            parsed = np.array(row[skip:], dtype=float)
        except ValueError:
            parsed = None
        if parsed is None or not np.isfinite(parsed).all():
            bad = (i, row)
        rows.append(parsed)
    if not rows:
        raise InputDataError(f"{path}: no data rows below the header")
    if bad is not None:
        i, cells = bad
        j = next(j for j in range(skip, width) if math.isnan(_cell_value(cells[j])))
        raise InputDataError(
            f"{path}: non-numeric value {cells[j]!r} at row {i}, column {header[j]!r}"
        )
    table = np.vstack(rows)
    if skip:
        table = np.column_stack(([_cell_value(cell) for cell in first_cells], table))
    return first_cells, table


def load_csv(path) -> DataMatrix:
    """Read a headered CSV into a DataMatrix.

    The first column becomes the row identifier when any of its cells fails
    to parse as a finite number and there is more than one column; otherwise
    every column is data. Constant columns are kept (detectors drop and
    report them). Missing values are not supported: any unparsable or
    non-finite data cell is an error naming its row and column; a ragged row
    anywhere wins over it. Undecodable bytes and malformed CSV are input
    errors too. One exception to file order: text is decoded 8 KiB at a
    time, ahead of the reader, so an undecodable byte in the 8 KiB block
    that ends a ragged row is reported instead of that row.

    Cells parse as ``float()`` parses them, to the same bits. A plain file
    (see ``_plain_body_lines``) is read by numpy's C reader, whose result
    stands only when every line below the header gave a full row of finite
    data. Any other file, and a plain one whose result does not stand, goes
    through ``csv.reader`` and ``float()``, the one route that raises; so the
    matrix, the ids and every error are those of that route.
    """
    try:
        with open(path, "rb") as fh:
            # a pipe is read once, by the exact route
            lines = _plain_body_lines(fh) if fh.seekable() else 0
            text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
            reader = csv.reader(text)
            header = next(reader, None)
            if header is None:
                raise InputDataError(f"{path}: empty file")
            width = len(header)
            if width == 0:
                if next(reader, None) is None:
                    raise InputDataError(f"{path}: no data rows below the header")
                raise InputDataError(f"{path}: empty header row")
            # cells past the first are data whichever way the id-column rule
            # goes; a lone column is data
            skip = 1 if width > 1 else 0
            parsed = _read_plain(path, width, skip, lines) if lines else None
            first_cells, table = parsed or _parse_rows(text, path, header, skip)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputDataError(f"cannot read {path}: {exc}") from exc
    if skip and np.isnan(table[:, 0]).any():  # some first cell is no finite number: row ids
        return DataMatrix(table[:, 1:].copy(), tuple(first_cells), tuple(header[1:]))
    row_ids = tuple(str(i) for i in range(1, len(table) + 1))
    return DataMatrix(values=table, row_ids=row_ids, column_names=tuple(header))


# --------------------------------------------------------------------------
# documents: a header, then whole columns rendered one record per row
# --------------------------------------------------------------------------

# rows per block of records: each column's cells in a block are encoded
# together, and each block leaves the writers as one piece
_BLOCK_ROWS = 1024
# the C encoder, which json.dumps uses only without an indent
_encode_flat = json.JSONEncoder().encode


@dataclass(frozen=True)
class Columns:
    """The records of a document as whole columns of one length.

    ``cells`` maps each record field, in record order, to its column: a NumPy
    array, or a sequence of numbers, bools and None. The fields named in
    ``text`` hold strings instead, and those in ``lists`` hold lists of
    strings, which only the JSON form carries. Columns of unequal length
    raise ValueError, so a bad document fails before any byte is written.
    """

    cells: dict
    text: tuple[str, ...] = ()
    lists: tuple[str, ...] = ()

    def __post_init__(self):
        lengths = {name: len(column) for name, column in self.cells.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"columns differ in length: {lengths}")

    def __len__(self) -> int:
        return len(next(iter(self.cells.values()), ()))

    def blocks(self, names):
        """The cells of the columns ``names`` as Python objects, block by block of rows."""
        for start in range(0, len(self), _BLOCK_ROWS):
            block = [self.cells[name][start:start + _BLOCK_ROWS] for name in names]
            yield [c.tolist() if isinstance(c, np.ndarray) else c for c in block]


def _report(dm: DataMatrix, method: str, header: dict, **columns) -> dict:
    """A report document: a header of ``method``, ``n`` and ``p`` followed by
    ``header``'s entries, and records holding each row's ``row_id`` and then
    its value in each column, in keyword order.

    Columns are whole arrays; one whose length differs from the row ids'
    raises ValueError.
    """
    n, p = dm.values.shape
    return {
        "header": {"method": method, "n": n, "p": p, **header},
        "records": Columns({"row_id": dm.row_ids, **columns}, text=("row_id",)),
    }


def weight_report_document(dm: DataMatrix, report, config: dict) -> dict:
    """Document of a PrCmpOut run: header plus one record per row.

    The header's ``thresholds`` block holds the biweight bounds (M, c) each
    stage applied, as the detector computed them.
    """
    d1, d2 = report.stage1_distances, report.stage2_distances
    header = {
        "p_star": report.p_star,
        "dropped_columns": sorted(report.dropped_columns),
        "dropped_column_names": [dm.column_names[j] for j in sorted(report.dropped_columns)],
        "flagged": int(np.sum(report.flags)),
        "thresholds": {
            "stage1": {"M": d1.m_cut, "c": d1.c_cut},
            "stage2": {"M": d2.m_cut, "c": d2.c_cut},
        },
        "config": config,
    }
    return _report(
        dm, "prcmpout", header,
        w1=report.w1, w2=report.w2, w_final=report.w_final,
        stage1_distance=d1.transformed, stage2_distance=d2.transformed, flag=report.flags,
    )


def detection_result_document(dm: DataMatrix, result, config: dict) -> dict:
    """Document of a cutoff-based run (classical, ogk, sign2)."""
    header = {
        "cutoff": float(result.cutoff),
        "flagged": int(np.sum(result.flags)),
        "config": config,
    }
    return _report(
        dm, result.method, header,
        distance=result.distances,
        cutoff=np.full(len(result.distances), result.cutoff),
        flag=result.flags,
    )


def _json_cells(table: Columns, name: str, cells: list) -> list[str]:
    """Each cell of one column's block as ``json.dumps(doc, indent=2)`` writes
    it inside a record."""
    if name in table.text:  # a string may hold ", "
        return list(map(json.encoder.encode_basestring_ascii, cells))
    if name in table.lists:
        return [json.dumps(cell, indent=2).replace("\n", "\n      ") for cell in cells]
    return _encode_flat(cells)[1:-1].split(", ")


def document_json_chunks(doc: dict):
    """The JSON text of ``doc`` as ``json.dumps(doc, indent=2)`` writes its
    row-per-record form, ending in a newline, piece by piece: the command line
    streams it, so the text is never all held.

    A document's last entry is its ``Columns``; the entries before it go
    through ``json.dumps`` as they are, and the records leave one block of
    rows per piece.
    """
    *head, (key, table) = doc.items()
    yield json.dumps({**dict(head), key: []}, indent=2).removesuffix("[]\n}")
    if not len(table):
        yield "[]"
    else:
        names = list(table.cells)
        fields = ",".join(
            "\n      " + json.encoder.encode_basestring_ascii(name) + ": %s" for name in names
        )
        template, opening = "\n    {" + fields + "\n    }", "["
        for block in table.blocks(names):
            cells = [_json_cells(table, name, column) for name, column in zip(names, block)]
            yield opening + ",".join(map(template.__mod__, zip(*cells)))
            opening = ","
        yield "\n  ]"
    yield "\n}\n"


def document_to_json(doc: dict) -> str:
    return "".join(document_json_chunks(doc))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _table_to_csv(fields: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows([_csv_cell(value) for value in row] for row in rows)
    return buf.getvalue()


def document_to_csv(doc: dict) -> str:
    """One line per record of a report, or per row of a sweep or timing document.

    The header metadata, the spec and list-valued fields (a sweep row's
    failures) live in the JSON form only.
    """
    *_, table = doc.values()
    if not len(table):
        return ""
    names = [name for name in table.cells if name not in table.lists]
    return _table_to_csv(names, (row for block in table.blocks(names) for row in zip(*block)))


# --------------------------------------------------------------------------
# plot data: long-format (panel, x, y, flag) tables that reproduce the
# figures of a run in any plotting tool
# --------------------------------------------------------------------------

def plot_distance_index(doc: dict) -> list[tuple]:
    """Distance-vs-index data: n rows plus one boundary row with the cutoff."""
    if "cutoff" not in doc["header"]:
        raise ValueError("report does not carry a cutoff; not a distance-index run")
    rows = [
        ("distance", i + 1, rec["distance"], "flagged" if rec["flag"] else "ok")
        for i, rec in enumerate(doc["records"])
    ]
    rows.append(("distance", 0, doc["header"]["cutoff"], "boundary"))
    return rows


def plot_weight_panels(doc: dict) -> list[tuple]:
    """The six per-observation panels of a PrCmpOut run.

    Panels: stage-1 distances (with the M/c boundaries from the header's
    thresholds block as x = 0 rows), w1, stage-2 distances (again with
    boundaries), w2, combined weights (with the outlier cut), and the
    resulting 0/1 flags.
    """
    header = doc["header"]
    if header.get("method") != "prcmpout":
        raise ValueError("weight panels need a prcmpout report")
    if "thresholds" not in header:
        raise ValueError("report has no thresholds block; rerun pcout detect to get one")
    records = doc["records"]
    bounds = header["thresholds"]

    rows = []
    for i, rec in enumerate(records):
        x = i + 1
        state = "flagged" if rec["flag"] else "ok"
        rows.append(("stage1_distance", x, rec["stage1_distance"], state))
        rows.append(("stage1_weight", x, rec["w1"], state))
        rows.append(("stage2_distance", x, rec["stage2_distance"], state))
        rows.append(("stage2_weight", x, rec["w2"], state))
        rows.append(("combined_weight", x, rec["w_final"], state))
        rows.append(("flag01", x, 0.0 if rec["flag"] else 1.0, state))
    for stage in ("stage1", "stage2"):
        rows.append((f"{stage}_distance", 0, bounds[stage]["M"], "boundary"))
        rows.append((f"{stage}_distance", 0, bounds[stage]["c"], "boundary"))
    rows.append(("combined_weight", 0, header["config"]["outlier_cut"], "boundary"))
    return rows


def plot_sweep_curves(doc: dict) -> list[tuple]:
    """Error-rate curves: one row per (p, metric) pair of a sweep document."""
    if "rows" not in doc:
        raise ValueError("not a sweep document")
    rows = []
    for entry in doc["rows"]:
        if entry["mean_fn"] is not None:
            rows.append(("fn", entry["p"], entry["mean_fn"], entry["detector"]))
        if entry["mean_fp"] is not None:
            rows.append(("fp", entry["p"], entry["mean_fp"], entry["detector"]))
    return rows


_PLOTTERS = {
    "distance_index": plot_distance_index,
    "weight_panels": plot_weight_panels,
    "sweep_curves": plot_sweep_curves,
}
PLOT_KINDS = tuple(_PLOTTERS)


def emit_plot_data(doc: dict, kind: str) -> str:
    """Long-format CSV (panel, x, y, flag) for one of the three figure kinds."""
    if kind not in _PLOTTERS:
        raise ValueError(f"unknown plot kind {kind!r}; expected one of {PLOT_KINDS}")
    rows = _PLOTTERS[kind](doc)
    return _table_to_csv(["panel", "x", "y", "flag"], ((p, x, float(y), f) for p, x, y, f in rows))
