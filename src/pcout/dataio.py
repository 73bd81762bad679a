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
import json
import math
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

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "row_ids", tuple(str(r) for r in self.row_ids))
        object.__setattr__(self, "column_names", tuple(str(c) for c in self.column_names))
        if values.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {values.shape}")
        if len(self.row_ids) != values.shape[0]:
            raise ValueError("row_ids length does not match the number of rows")
        if len(self.column_names) != values.shape[1]:
            raise ValueError("column_names length does not match the number of columns")

    @classmethod
    def from_array(cls, values) -> "DataMatrix":
        values = np.asarray(values, dtype=float)
        n, p = values.shape
        return cls(
            values=values,
            row_ids=tuple(str(i + 1) for i in range(n)),
            column_names=tuple(f"x{j + 1}" for j in range(p)),
        )

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


def _parse_cell(token: str) -> float | None:
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


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
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
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
            first_cells, rows, bad_row = [], [], None
            for i, row in enumerate(reader, start=2):
                if len(row) != width:
                    raise InputDataError(
                        f"{path}: row {i} has {len(row)} fields, header has {width}"
                    )
                if bad_row is not None:
                    continue
                first_cells.append(row[0])
                try:
                    parsed = np.array(row[skip:], dtype=float)
                except ValueError:
                    parsed = None
                if parsed is None or not np.isfinite(parsed).all():
                    bad_row = (i, row)
                rows.append(parsed)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputDataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise InputDataError(f"{path}: no data rows below the header")
    if bad_row is not None:
        i, row = bad_row
        j = next(j for j in range(skip, width) if _parse_cell(row[j]) is None)
        raise InputDataError(
            f"{path}: non-numeric value {row[j]!r} at row {i}, column {header[j]!r}"
        )

    first_values = [_parse_cell(cell) for cell in first_cells]
    id_col = skip == 1 and None in first_values
    values = np.vstack(rows)
    if id_col:
        row_ids = tuple(first_cells)
    else:
        row_ids = tuple(str(i) for i in range(1, len(rows) + 1))
        if skip:
            values = np.column_stack((first_values, values))
    return DataMatrix(values=values, row_ids=row_ids, column_names=tuple(header[int(id_col):]))


# --------------------------------------------------------------------------
# detection reports
# --------------------------------------------------------------------------

def weight_report_document(dm: DataMatrix, report, config: dict) -> dict:
    """JSON-ready document for a PrCmpOut run: header plus one record per row.

    The header's ``thresholds`` block holds the biweight bounds (M, c) each
    stage applied, as the detector computed them.
    """
    d1, d2 = report.stage1_distances, report.stage2_distances
    header = {
        "method": "prcmpout",
        "n": dm.n_rows,
        "p": dm.n_cols,
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
    records = [
        {
            "row_id": dm.row_ids[i],
            "w1": float(report.w1[i]),
            "w2": float(report.w2[i]),
            "w_final": float(report.w_final[i]),
            "stage1_distance": float(report.stage1_distances.transformed[i]),
            "stage2_distance": float(report.stage2_distances.transformed[i]),
            "flag": bool(report.flags[i]),
        }
        for i in range(dm.n_rows)
    ]
    return {"header": header, "records": records}


def detection_result_document(dm: DataMatrix, result, config: dict) -> dict:
    """JSON-ready document for a cutoff-based run (classical, ogk, sign2)."""
    header = {
        "method": result.method,
        "n": dm.n_rows,
        "p": dm.n_cols,
        "cutoff": float(result.cutoff),
        "flagged": int(np.sum(result.flags)),
        "config": config,
    }
    records = [
        {
            "row_id": dm.row_ids[i],
            "distance": float(result.distances[i]),
            "cutoff": float(result.cutoff),
            "flag": bool(result.flags[i]),
        }
        for i in range(dm.n_rows)
    ]
    return {"header": header, "records": records}


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
