"""CSV ingestion, the labeled data matrix, and the writer of every output.

``load_csv`` sends a plain file (no quote, NUL, 0x1C-0x1F or lone
carriage-return byte, no field near the csv module's size limit) to numpy's
C text reader: in this process when it is small, else in line-aligned byte
ranges, one per usable core, this process reading the first and a forked
child each other one into one shared matrix. Every other file, and a plain
one that reader does not read cleanly in every range, goes whole to
``csv.reader`` and ``float()`` in this process. The routes give the same
matrix to the bit, and only the last raises, so error text does not depend
on the route.

Every output leaves through here: detection reports, sweep and timing
documents (built by ``evalsim``) and figure data (built by ``plot_document``
from a loaded JSON report or sweep). A document is a header plus its records
as a dict of whole columns of one length, never one dict per row, and each
format has one writer that streams it one block of rows at a time. The
writers tell a column's kind from its first cell: text, a list (a sweep
row's failures) or a number, bool or None.
``document_json_chunks`` writes exactly what ``json.dumps(indent=2)`` writes
for the row-per-record form, each block's number columns through the C
encoder; ``document_csv_chunks`` writes a line of field names and then one
line per record through ``csv.writer``, a bool column as ``true``/``false``
and every other column as it is: None as an empty field, anything else by
``str``. Output is fully deterministic:
numbers are written in Python's shortest round-trip representation (never
more than 17 significant digits) and no wall-clock values enter a report, so
identical runs produce byte-identical files. Elapsed time is a stderr affair (see the cli module).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
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
# A plain file is cut into ranges of at least this many bytes, at most one
# per usable core. Measured on 2 cores, two ranges parse as fast as one at
# about 0.33 MiB a range (a fork and a pipe cost that much parsing) and 22%
# faster at 0.66 MiB a range; the floor is over twice that break-even.
_RANGE_FLOOR = 3 << 18


def _plain_body_lines(fh) -> list[tuple[int, int]]:
    """The body of the binary file ``fh`` as line-aligned ranges for numpy's
    C reader, each a (byte offset, line count) pair, the first at offset 0
    counting only the lines below the header; [] when the body has no line
    or the reader would not read the file as the csv module and ``float()``
    do: when it has a ``_REFUSED`` byte, a ``"\\r"`` outside a ``"\\r\\n"`` or
    an aligned window without a ``","`` or a ``"\\n"``. Rewinds ``fh``.

    A file of ``size`` bytes gets at most one range per usable core and none
    under ``_RANGE_FLOOR`` bytes: the k-th cut is just past the first
    ``"\\n"`` at or after byte ``size * k // ranges``.
    """
    size = os.fstat(fh.fileno()).st_size
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    ranges = min(size // _RANGE_FLOOR, cores)
    targets = [size * k // ranges for k in range(1, ranges)]
    cuts = []  # (offset, lines before it)
    newlines, last, after_cr, offset = 0, b"\n", False, 0
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
        while targets and (i := block.find(b"\n", max(targets[0] - offset, 0))) >= 0:
            cut = offset + i + 1
            cuts.append((cut, newlines + block.count(b"\n", 0, i + 1)))
            targets = [t for t in targets if t >= cut]
        newlines += int(np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n")))
        offset += len(block)
        last = block[-1:]
    fh.seek(0)
    if block or after_cr or newlines - (last == b"\n") <= 0:
        return []
    # a cut inside the header line or at the end of the file makes no range
    marks = [(0, 1), *((cut, n) for cut, n in cuts if n > 1 and cut < size)]
    ends = [n for _, n in marks[1:]] + [newlines + (last != b"\n")]
    return [(cut, end - n) for (cut, n), end in zip(marks, ends)]


def _read_range(path, start: int, lines: int, width: int, skip: int):
    """The ``lines`` lines from byte ``start`` of a plain file (below the
    header when ``start`` is 0) through numpy's C reader, as ``_parse_rows``
    returns them; None unless they gave ``lines`` rows of ``width`` cells,
    each data cell finite."""
    first_cells = []

    def first(cell: str) -> float:
        first_cells.append(cell)
        return _cell_value(cell)

    header = int(start == 0)
    # numpy would open a path itself, decompressing by the file's extension
    with open(path, "rb") as raw, warnings.catch_warnings():
        raw.seek(start)
        # lines are counted, not rows: numpy's max_rows skips blank lines
        body = itertools.islice(io.TextIOWrapper(raw, encoding="utf-8"), header + lines)
        # a body of blank lines reads as "no data"; the row count refuses it
        warnings.simplefilter("ignore", UserWarning)
        try:
            table = np.loadtxt(
                body, delimiter=",", skiprows=header, comments=None, encoding="utf-8", ndmin=2,
                converters={0: first},
            )
        except ValueError:  # a UnicodeDecodeError too
            return None
    if table.shape != (lines, width) or not np.isfinite(table[:, skip:]).all():
        return None
    return first_cells, table


def _fork_range(path, start: int, lines: int, width: int, skip: int, out) -> tuple[int, int]:
    """Read one range in a forked child: its rows go into ``out``, a view of
    a shared matrix, and its first cells, one per line, into a pipe. Returns
    the child's pid and the pipe's read end. The child exits 0 only when its
    range gave full rows of finite data, and leaves through ``os._exit``, so
    this process's buffers are never flushed twice."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            parsed = _read_range(path, start, lines, width, skip)
            if parsed is not None:
                out[:] = parsed[1]
                with open(w, "wb") as pipe:
                    pipe.write("\n".join(parsed[0]).encode())
                code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _join(pid: int, r: int) -> list[str] | None:
    """A child's first cells, or None unless it exited 0; reaps it either way."""
    with open(r, "rb") as pipe:
        cells = pipe.read().decode().split("\n")
    return cells if os.waitpid(pid, 0)[1] == 0 else None


def _read_plain(path, width: int, skip: int, ranges) -> tuple[list[str], np.ndarray] | None:
    """A plain file's body through numpy's C reader, as ``_parse_rows`` returns
    it; None unless every range of ``ranges`` (see ``_plain_body_lines``)
    gave its lines as rows of ``width`` cells, each data cell finite, and
    every child exited 0. One range is read here; with more, a forked child
    reads each range past the first into one shared matrix, while this
    process reads the first."""
    if len(ranges) == 1:
        return _read_range(path, 0, ranges[0][1], width, skip)
    import mmap  # only this route shares memory

    table = np.frombuffer(mmap.mmap(-1, 8 * width * sum(k for _, k in ranges))).reshape(-1, width)
    rows = np.cumsum([k for _, k in ranges])
    children = []
    try:
        try:
            for (start, k), row in zip(ranges[1:], rows):
                children.append(_fork_range(path, start, k, width, skip, table[row:row + k]))
        except OSError:  # no process or pipe to spare: the serial route reads it all
            return None
        parsed = _read_range(path, 0, ranges[0][1], width, skip)
    finally:
        tails = [_join(pid, r) for pid, r in children]
    if parsed is None or None in tails:
        return None
    table[: rows[0]] = parsed[1]
    return [cell for cells in (parsed[0], *tails) for cell in cells], table


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
    data. A plain file of at least two ``_RANGE_FLOOR``s is read in ranges,
    the first here and each other one in a forked child; every child is
    reaped before this returns or raises. Any other file, and a plain one
    whose result does not stand in some range or whose child failed or
    could not be started, goes whole through ``csv.reader`` and ``float()``,
    the one route that raises; so the matrix, the ids and every error are
    those of that route.
    """
    try:
        with open(path, "rb") as fh:
            # a pipe is read once, by the exact route
            ranges = _plain_body_lines(fh) if fh.seekable() else []
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
            parsed = _read_plain(path, width, skip, ranges) if ranges else None
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


def _rows(records: dict) -> int:
    """The number of records in a dict of columns of one length."""
    return len(next(iter(records.values()), ()))


def _blocks(records: dict, names):
    """The cells of the columns ``names`` as Python objects, block by block of rows."""
    for start in range(0, _rows(records), _BLOCK_ROWS):
        block = [records[name][start:start + _BLOCK_ROWS] for name in names]
        yield [c.tolist() if isinstance(c, np.ndarray) else c for c in block]


def _report(dm: DataMatrix, method: str, header: dict, **columns) -> dict:
    """A report document: a header of ``method``, ``n`` and ``p`` followed by
    ``header``'s entries, and records holding each row's ``row_id`` and then
    its value in each column, in keyword order.

    Columns are whole arrays; one whose length differs from the row ids'
    raises ValueError, so a bad report fails before any byte is written.
    """
    records = {"row_id": dm.row_ids, **columns}
    lengths = {name: len(column) for name, column in records.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    n, p = dm.values.shape
    return {"header": {"method": method, "n": n, "p": p, **header}, "records": records}


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


def _json_cells(cells: list) -> list[str]:
    """Each cell of one column's block, of the kind of its first cell, as
    ``json.dumps(doc, indent=2)`` writes it inside a record."""
    if isinstance(cells[0], str):  # a string may hold ", "
        return list(map(json.encoder.encode_basestring_ascii, cells))
    if isinstance(cells[0], (list, tuple)):
        return [json.dumps(cell, indent=2).replace("\n", "\n      ") for cell in cells]
    return _encode_flat(cells)[1:-1].split(", ")


def document_json_chunks(doc: dict):
    """The JSON text of ``doc`` as ``json.dumps(doc, indent=2)`` writes its
    row-per-record form, ending in a newline, piece by piece: the command line
    streams it, so the text is never all held.

    A document's last entry is its records, a dict of columns of one length;
    the entries before it go through ``json.dumps`` as they are, and the
    records leave one block of rows per piece.
    """
    *head, (key, records) = doc.items()
    yield json.dumps({**dict(head), key: []}, indent=2).removesuffix("[]\n}")
    if not _rows(records):
        yield "[]"
    else:
        fields = ",".join(
            "\n      " + json.encoder.encode_basestring_ascii(name) + ": %s" for name in records
        )
        template, opening = "\n    {" + fields + "\n    }", "["
        for block in _blocks(records, list(records)):
            cells = [_json_cells(column) for column in block]
            yield opening + ",".join(map(template.__mod__, zip(*cells)))
            opening = ","
        yield "\n  ]"
    yield "\n}\n"


def document_to_json(doc: dict) -> str:
    return "".join(document_json_chunks(doc))


def document_csv_chunks(doc: dict):
    """The CSV text of ``doc``, piece by piece: the line of field names, then
    one line per record, one block of rows per piece. Each column of a block
    is rendered by the kind of its first cell: a bool column as ``true`` or
    ``false``, any other as it is, which ``csv.writer`` writes as an empty
    field for None and by ``str`` otherwise, a float in its shortest repr.

    A document's last entry is its records, a dict of columns of one length.
    The header metadata, the spec and list-valued columns (a sweep row's
    failures), told by their first cell, live in the JSON form only; a
    document without fields has no CSV text. A list column without rows,
    which would have no first cell, does not occur: sweep and timing
    documents without rows have no fields.
    """
    *_, records = doc.values()
    names = [name for name, cells in records.items() if not isinstance(next(iter(cells), None), (list, tuple))]
    if not names:
        return
    yield _csv_lines([names])
    for block in _blocks(records, names):
        columns = [["true" if cell else "false" for cell in c] if isinstance(c[0], bool) else c for c in block]
        yield _csv_lines(zip(*columns))


def _csv_lines(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# --------------------------------------------------------------------------
# figure data: a long-format (panel, x, y, flag) document that reproduces
# the figures of a run in any plotting tool
# --------------------------------------------------------------------------

# the per-observation panels of a prcmpout report, each with its record field
_WEIGHT_PANELS = {
    "stage1_distance": "stage1_distance",
    "stage1_weight": "w1",
    "stage2_distance": "stage2_distance",
    "stage2_weight": "w2",
    "combined_weight": "w_final",
}


def plot_document(doc) -> dict:
    """The figure data of a loaded JSON report or sweep, one (panel, x, y,
    flag) record per plotted point. The document decides the figure:

    - a sweep: one point per (dimension, error rate) pair whose rate was
      measured, panel ``fn`` or ``fp``, flagged with the detector;
    - a prcmpout report: six panels per observation (stage-1 and stage-2
      distances and weights, combined weight, 0/1 flag) at x = 1..n, then
      the header's thresholds and the outlier cut as x = 0 points flagged
      ``boundary``;
    - a cutoff report (classical, ogk, sign2): one distance per observation,
      then the cutoff as an x = 0 boundary point.

    Anything else raises KeyError, TypeError or ValueError.
    """
    if "rows" in doc:
        points = [
            (rate, row["p"], row[f"mean_{rate}"], row["detector"])
            for row in doc["rows"]
            for rate in ("fn", "fp")
            if row[f"mean_{rate}"] is not None
        ]
    elif doc["header"]["method"] == "prcmpout":
        header = doc["header"]
        if "thresholds" not in header:
            raise ValueError("report has no thresholds block; rerun pcout detect to get one")
        points = []
        for x, rec in enumerate(doc["records"], start=1):
            state = "flagged" if rec["flag"] else "ok"
            points += [(panel, x, rec[field], state) for panel, field in _WEIGHT_PANELS.items()]
            points.append(("flag01", x, 0.0 if rec["flag"] else 1.0, state))
        points += [
            (f"{stage}_distance", 0, header["thresholds"][stage][bound], "boundary")
            for stage in ("stage1", "stage2")
            for bound in ("M", "c")
        ]
        points.append(("combined_weight", 0, header["config"]["outlier_cut"], "boundary"))
    else:
        points = [
            ("distance", x, rec["distance"], "flagged" if rec["flag"] else "ok")
            for x, rec in enumerate(doc["records"], start=1)
        ]
        points.append(("distance", 0, doc["header"]["cutoff"], "boundary"))
    panel, x, y, flag = zip(*points) if points else ((), (), (), ())
    return {"points": {"panel": panel, "x": x, "y": [float(value) for value in y], "flag": flag}}
