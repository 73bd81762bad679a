"""CSV ingestion, the labeled data matrix, and the writer of every output.

Detection reports, sweep and timing documents (built by ``evalsim``) and plot
data all leave through here: ``document_to_json`` is the one JSON writer, and
``document_to_csv`` and ``emit_plot_data`` share one CSV writer and one cell
formatter. Output is fully deterministic: numbers are written in Python's
shortest round-trip representation (never more than 17 significant digits)
and no wall-clock values enter a report, so identical runs produce
byte-identical files. Elapsed time is a stderr affair (see the cli module).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import pickle
import stat
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


def _parse_cell(token: str) -> float | None:
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


# A body smaller than this parses in one range, in process: a fork and a
# pickled result would cost more than the second core saves on it.
_PARALLEL_FLOOR = 1 << 20
_SCAN_BLOCK = 1 << 20


def _text(stream) -> io.TextIOWrapper:
    return io.TextIOWrapper(stream, encoding="utf-8", newline="")


class _ByteRange(io.RawIOBase):
    """Bytes [start, stop) of an open file, read with ``os.pread``, so that
    processes sharing the descriptor share no file offset."""

    def __init__(self, fd: int, start: int, stop: int):
        self._fd, self._pos, self._stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        data = os.pread(self._fd, min(len(buf), self._stop - self._pos), self._pos)
        buf[: len(data)] = data
        self._pos += len(data)
        return len(data)


def _after_line_end(fd: int, offset: int, size: int) -> int:
    """The offset just past the first ``"\\n"`` at or after ``offset``, or ``size``."""
    while offset < size:
        block = os.pread(fd, _SCAN_BLOCK, offset)
        if not block:
            break
        if b"\n" in block:
            return offset + block.index(b"\n") + 1
        offset += len(block)
    return size


def _range_bounds(fd: int) -> list[int] | None:
    """Record-aligned byte offsets ``[0, c1, ..., size]``, at most one range
    per core, or None when the file parses in one range.

    Each cut follows a ``"\\n"``: in a file without a quote byte every record
    ends at a line end, so no record and no UTF-8 sequence straddles a cut.
    The first range holds the header.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    st = os.fstat(fd)
    size = st.st_size
    if cores < 2 or not hasattr(os, "fork") or not stat.S_ISREG(st.st_mode):
        return None
    if size < _PARALLEL_FLOOR:  # the body is smaller still
        return None
    for offset in range(0, size, _SCAN_BLOCK):
        if b'"' in os.pread(fd, _SCAN_BLOCK, offset):
            return None
    body = _after_line_end(fd, 0, size)
    if size - body < _PARALLEL_FLOOR:
        return None
    bounds = [0]
    for k in range(1, cores):
        cut = _after_line_end(fd, body + (size - body) * k // cores, size)
        if bounds[-1] < cut < size:
            bounds.append(cut)
    bounds.append(size)
    return bounds if len(bounds) > 2 else None


def _parse_rows(text, width: int, skip: int) -> tuple:
    """Parse the records of one range, stopping at its first structural fault.

    Returns ``(records, first_cells, rows, fault, bad)``. Row numbers count
    from 1 at the range's first record. ``fault`` is ``(row, fields)`` for a
    ragged row or the text of a read error. ``bad`` is ``(row, cells)`` for
    the first row with an unparsable or non-finite data cell; past it, rows
    are only counted and checked for width.
    """
    first_cells, rows, fault, bad = [], [], None, None
    records = 0
    try:
        for records, row in enumerate(csv.reader(text), start=1):
            if len(row) != width:
                fault = (records, len(row))
                break
            if bad is not None:
                continue
            first_cells.append(row[0])
            try:
                parsed = np.array(row[skip:], dtype=float)
            except ValueError:
                parsed = None
            if parsed is None or not np.isfinite(parsed).all():
                bad = (records, row)
            rows.append(parsed)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        fault = str(exc)
    return records, first_cells, rows, fault, bad


def _fork_range(fd: int, start: int, stop: int, width: int, skip: int) -> tuple[int, int]:
    """Parse bytes [start, stop) in a forked child.

    Returns the child's pid and the read end of the pipe that carries its
    pickled ``_parse_rows`` result, its rows stacked into one block. The
    child runs no BLAS and leaves through ``os._exit``, so the parent's
    threads and unflushed buffers are never used or written twice.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            records, first_cells, rows, fault, bad = _parse_rows(
                _text(_ByteRange(fd, start, stop)), width, skip
            )
            rows = [np.vstack(rows)] if rows and fault is None and bad is None else []
            with open(w, "wb") as out:
                pickle.dump((records, first_cells, rows, fault, bad), out, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _join(pid: int, r: int) -> tuple | None:
    """A child's result, or None when it did not exit cleanly; the child is reaped either way."""
    with open(r, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    return pickle.loads(data) if status == 0 else None


def load_csv(path) -> DataMatrix:
    """Read a headered CSV into a DataMatrix.

    The first column becomes the row identifier when any of its cells fails
    to parse as a finite number and there is more than one column; otherwise
    every column is data. Constant columns are kept (detectors drop and
    report them). Missing values are not supported: any unparsable or
    non-finite data cell is an error naming its row and column; a ragged row
    anywhere wins over it. Undecodable bytes and malformed CSV are input
    errors too.

    Rows are parsed as the reader yields them, with one NumPy conversion per
    row that calls ``float()`` on each string: the tokens accepted and the
    bits produced are those of ``float()``.

    A large regular file with no quote byte is cut into record-aligned byte
    ranges, one per available core. This process parses the first and a
    forked child each other. The results join in file order, so the matrix
    and ids are those of a one-range parse; the first structural fault in
    file order wins, and errors number rows in the whole file.
    """
    children = []
    try:
        with open(path, "rb") as fh:
            bounds = _range_bounds(fh.fileno())
            text = _text(fh if bounds is None else _ByteRange(fh.fileno(), 0, bounds[1]))
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
            try:
                for start, stop in zip(bounds[1:-1], bounds[2:]) if bounds else ():
                    children.append(_fork_range(fh.fileno(), start, stop, width, skip))
                parts = [_parse_rows(text, width, skip)]
            finally:
                child_parts = [_join(pid, r) for pid, r in children]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputDataError(f"cannot read {path}: {exc}") from exc
    if any(part is None for part in child_parts):
        raise ChildProcessError(f"a process parsing part of {path} did not finish")
    parts += child_parts

    # rows above each part, the header's included; the last is the file's
    above = list(itertools.accumulate((part[0] for part in parts), initial=1))
    for before, (_, _, _, fault, _) in zip(above, parts):
        if isinstance(fault, str):
            raise InputDataError(f"cannot read {path}: {fault}")
        if fault is not None:
            raise InputDataError(
                f"{path}: row {before + fault[0]} has {fault[1]} fields, header has {width}"
            )
    if above[-1] == 1:
        raise InputDataError(f"{path}: no data rows below the header")
    for before, (_, _, _, _, bad) in zip(above, parts):
        if bad is not None:
            i, cells = bad
            j = next(j for j in range(skip, width) if _parse_cell(cells[j]) is None)
            raise InputDataError(
                f"{path}: non-numeric value {cells[j]!r} at row {before + i}, column {header[j]!r}"
            )

    first_cells = [cell for part in parts for cell in part[1]]
    first_values = [_parse_cell(cell) for cell in first_cells]
    id_col = skip == 1 and None in first_values
    values = np.vstack([block for part in parts for block in part[2]])
    if id_col:
        row_ids = tuple(first_cells)
    else:
        row_ids = tuple(str(i) for i in range(1, len(first_cells) + 1))
        if skip:
            values = np.column_stack((first_values, values))
    return DataMatrix(values=values, row_ids=row_ids, column_names=tuple(header[int(id_col):]))


# --------------------------------------------------------------------------
# detection reports
# --------------------------------------------------------------------------

def _report(dm: DataMatrix, method: str, header: dict, **columns) -> dict:
    """A report document: a header of ``method``, ``n`` and ``p`` followed by
    ``header``'s entries, and one record per row holding its ``row_id`` and
    then its value in each column, in keyword order.

    Columns are whole arrays; one whose length differs from the row ids'
    raises ValueError.
    """
    n, p = dm.values.shape
    keys = ("row_id", *columns)
    cells = (col.tolist() for col in columns.values())
    return {
        "header": {"method": method, "n": n, "p": p, **header},
        "records": [dict(zip(keys, row)) for row in zip(dm.row_ids, *cells, strict=True)],
    }


def weight_report_document(dm: DataMatrix, report, config: dict) -> dict:
    """JSON-ready document for a PrCmpOut run: header plus one record per row.

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
    """JSON-ready document for a cutoff-based run (classical, ogk, sign2)."""
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


def document_to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


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
    records = doc["records"] if "records" in doc else doc["rows"]
    if not records:
        return ""
    fields = [f for f, value in records[0].items() if not isinstance(value, (list, tuple))]
    return _table_to_csv(fields, ([rec[f] for f in fields] for rec in records))


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
