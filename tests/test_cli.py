import csv
import dataclasses
import errno
import io
import json
import math
import os
import re
import signal
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcout import cli, dataio
from pcout.baselines import sign2_detect
from pcout.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from pcout.dataio import (
    DataMatrix,
    InputDataError,
    detection_result_document,
    document_csv_chunks,
    document_json_chunks,
    document_to_json,
    load_csv,
    plot_document,
    weight_report_document,
)
from pcout.evalsim import SimSpec, SweepRow, TimingRow, document, generate_contaminated
from pcout.prcmpout import DetectorConfig, detect


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


# cells the two CSV routes could read differently: float()-only tokens, numbers
# padded with bytes only numpy strips, non-finite ones, ids with spaces and "#"
_TOKENS = [
    "1.5", "-0", "1e3", "2.5E-2", " 1.5 ", "\t7", "6\x1d", "\x1c6", "1_000", "１２３", "\xa02\xa0",
    "nan", "inf", "-Infinity", "1e400", "1.5e-400", "", "#", "1#2", "x", "mol 1", " id ", "0x10", "1e",
    "9007199254740993", "0.1000000000000000055511151231257827", "2.2250738585072011e-308",
]


@st.composite
def _csv_files(draw) -> bytes:
    """A small CSV: blank lines anywhere, rows wider or narrower than the
    header, "\n", "\r\n" or lone "\r" line ends, and a final line end or none."""
    width = draw(st.integers(1, 4))
    cell = st.one_of(
        st.sampled_from(_TOKENS), st.floats(allow_nan=False, allow_infinity=False).map(repr)
    )
    lines = [",".join(f"c {j}" for j in range(width))]
    for _ in range(draw(st.integers(0, 6))):
        n_cells = width + draw(st.sampled_from([0, 0, 0, 0, 0, 1, -1, -width]))
        lines.append(",".join(draw(cell) for _ in range(n_cells)))
    ends = st.sampled_from(["\n", "\r\n", "\r"]) if draw(st.booleans()) else st.just(
        draw(st.sampled_from(["\n", "\r\n"]))
    )
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode()


def _exact_route(path):
    """load_csv with numpy's C reader refused: csv.reader and float() read the body."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dataio, "_read_plain", lambda *args: None)
        return load_csv(path)


def _outcome(path, load=load_csv):
    """What ``load`` makes of a file: the values' bits, the ids and the names, or the error text."""
    try:
        dm = load(path)
    except InputDataError as exc:
        return str(exc)
    return dm.values.shape, dm.values.view(np.int64).tolist(), dm.row_ids, dm.column_names


def _with_cell_2(token):
    """A CSV line edit: the line with its third cell replaced by ``token``."""
    return lambda line: ",".join([*line.split(",")[:2], token, *line.split(",")[3:]])


@pytest.fixture
def normal_csv(tmp_path):
    X, _ = generate_contaminated(SimSpec(n=60, p=6, seed=9))
    X[:4] += 5.0
    path = tmp_path / "data.csv"
    _write_csv(path, [f"c{j}" for j in range(6)], X.tolist())
    return path


class TestLoadCsv:
    def test_plain_numeric_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        _write_csv(path, ["a", "b"], [[1, 2], [3, 4], [5, 6]])
        dm = load_csv(path)
        assert dm.values.shape == (3, 2)
        assert dm.column_names == ("a", "b")
        assert dm.row_ids == ("1", "2", "3")

    def test_id_column_detected(self, tmp_path):
        path = tmp_path / "m.csv"
        _write_csv(path, ["compound", "a", "b"], [["mol-1", 1, 2], ["mol-2", 3, 4]])
        dm = load_csv(path)
        assert dm.row_ids == ("mol-1", "mol-2")
        assert dm.column_names == ("a", "b")
        assert dm.values.shape == (2, 2)

    def test_scientific_notation_accepted(self, tmp_path):
        path = tmp_path / "m.csv"
        _write_csv(path, ["a"], [["1e3"], ["-2.5E-2"]])
        assert load_csv(path).values[:, 0] == pytest.approx([1000.0, -0.025])

    def test_na_cell_names_the_location(self, tmp_path):
        path = tmp_path / "m.csv"
        _write_csv(path, ["a", "b"], [[1, 2], [3, "NA"]])
        with pytest.raises(InputDataError, match=r"row 3.*'b'"):
            load_csv(path)

    def test_nan_token_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        _write_csv(path, ["a", "b"], [[1, 2], [3, "nan"]])
        with pytest.raises(InputDataError):
            load_csv(path)

    def test_ragged_row_errors(self, tmp_path):
        path = tmp_path / "m.csv"
        with open(path, "w") as fh:
            fh.write("a,b\n1,2\n3\n")
        with pytest.raises(InputDataError, match="row 3"):
            load_csv(path)

    def test_header_only_errors(self, tmp_path):
        path = tmp_path / "m.csv"
        with open(path, "w") as fh:
            fh.write("a,b\n")
        with pytest.raises(InputDataError, match="no data rows"):
            load_csv(path)

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(InputDataError):
            load_csv(tmp_path / "absent.csv")

    def test_a_ragged_row_anywhere_wins_over_a_bad_cell(self, tmp_path):
        path = tmp_path / "m.csv"
        with open(path, "w") as fh:
            fh.write("a,b\n1,x\n" + "1,2\n" * 6 + "3\n")
        with pytest.raises(InputDataError, match="row 9 has 1 fields"):
            load_csv(path)

    def test_the_first_bad_cell_is_named_whether_non_finite_or_non_numeric(self, tmp_path):
        path = tmp_path / "m.csv"
        _write_csv(path, ["a", "b"], [[1, 2], [1, "inf"], [1, 2], [1, "NA"]])
        with pytest.raises(InputDataError, match=r"'inf' at row 3, column 'b'"):
            load_csv(path)

    def test_a_non_numeric_first_cell_in_the_last_row_makes_an_id_column(self, tmp_path):
        path = tmp_path / "m.csv"
        _write_csv(path, ["a", "b"], [[1, 2], [3, 4], ["z", 5]])
        dm = load_csv(path)
        assert dm.row_ids == ("1", "3", "z")
        assert dm.column_names == ("b",)
        assert dm.values[:, 0].tolist() == [2.0, 4.0, 5.0]

    def test_a_lone_column_is_data_not_ids(self, tmp_path):
        path = tmp_path / "m.csv"
        _write_csv(path, ["a"], [[1], ["x"], [2]])
        with pytest.raises(InputDataError, match=r"non-numeric value 'x' at row 3, column 'a'"):
            load_csv(path)

    @pytest.mark.parametrize(
        "token",
        [
            "1_000", " 1.5 ", "\xa02\xa0", "nan", "NaN", "+nan", "iNf", "Infinity", "1e400",
            "1.5e-400", "-0", "１２３", "١٢٣", "0x10", "1e", "", "1__0", "_1", "1,5",
        ],
    )
    def test_cells_parse_as_float_does(self, tmp_path, token):
        path = tmp_path / "m.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([["a", "b"], ["1", token]])
        try:
            expected = float(token)
        except ValueError:
            expected = None
        if expected is None or not math.isfinite(expected):
            with pytest.raises(InputDataError, match=rf"value {re.escape(repr(token))} at row 2"):
                load_csv(path)
            return
        got = load_csv(path).values[0, 1]
        assert np.array(got).view(np.int64) == np.array(expected).view(np.int64)

    @pytest.mark.parametrize(
        "content",
        [b"a,b\n1,2\n3,\xff\n", b"a,b\n1," + b"1" * 140_000 + b"\n",
         b"a,b\n1,0." + b"0" * 140_000 + b"1\n"],
        ids=["undecodable", "field-over-the-csv-limit", "finite-field-over-the-csv-limit"],
    )
    def test_unreadable_csv_is_an_input_error(self, tmp_path, capsys, content):
        path = tmp_path / "m.csv"
        path.write_bytes(content)
        assert main(["detect", "--input", str(path), "--method", "prcmpout"]) == EXIT_INPUT
        assert f"cannot read {path}" in capsys.readouterr().err

    def test_an_undecodable_byte_just_after_a_ragged_row_wins(self, tmp_path, capsys):
        # text is decoded 8 KiB at a time, ahead of the reader: the byte in the
        # block that ends ragged row 3 is reported instead of that row
        path = tmp_path / "m.csv"
        path.write_bytes(b"a,b\n1,2\n3\n\xff")
        assert main(["detect", "--input", str(path), "--method", "prcmpout"]) == EXIT_INPUT
        assert f"cannot read {path}" in capsys.readouterr().err

    @staticmethod
    def _rows(n, seed=4):
        rng = np.random.default_rng(seed)
        return [[repr(float(v)) for v in row] for row in rng.standard_normal((n, 4)) * 1e3]

    @pytest.mark.parametrize(
        "ids, newline",
        [(True, "\n"), (False, "\r\n"), (False, "\n"), ("last", "\n")],
        ids=["id-column", "crlf", "lone-cr", "id-in-the-last-range"],
    )
    def test_ranges_join_to_the_one_range_parse(self, tmp_path, ids, newline):
        # the file as read equals the file through the exact route
        rows = self._rows(30)
        if ids is True:
            rows = [[f"mol-{i}", *row[1:]] for i, row in enumerate(rows)]
        if ids == "last":
            rows[-1][0] = "z"
        lines = [",".join(f"c{j}" for j in range(4))] + [",".join(row) for row in rows]
        ends = [newline] * len(lines)
        if newline == "\n":  # lone "\r" line ends in the body
            ends[3] = ends[17] = ends[25] = "\r"
        path = tmp_path / "m.csv"
        path.write_bytes("".join(line + end for line, end in zip(lines, ends)).encode())
        expected = _exact_route(path)
        got = load_csv(path)
        assert (got.values.view(np.int64) == expected.values.view(np.int64)).all()
        assert got.values.shape == expected.values.shape == (30, 4 - (ids is not False))
        assert got.row_ids == expected.row_ids
        assert got.column_names == expected.column_names

    @staticmethod
    def _twenty_rows(tmp_path, edits):
        rows = [["1.25", "2.5"] for _ in range(20)]
        for (i, j), token in edits.items():
            rows[i - 2][j] = token
        path = tmp_path / "m.csv"
        path.write_text("a,b\n" + "".join(",".join(row) + "\n" for row in rows))
        return path

    def test_a_ragged_row_in_range_2_beats_a_bad_cell_in_range_1(self, tmp_path):
        path = self._twenty_rows(tmp_path, {(3, 1): "x"})
        with open(path, "a") as fh:
            fh.write("3\n" + "1.25,2.5\n" * 3)
        with pytest.raises(InputDataError, match=r"row 22 has 1 fields, header has 2"):
            load_csv(path)

    @pytest.mark.parametrize(
        "edits, named",
        [({(3, 1): "x", (19, 1): "NA"}, "'x' at row 3, column 'b'"),
         ({(19, 1): "NA", (20, 1): "inf"}, "'NA' at row 19, column 'b'")],
        ids=["both-ranges", "range-2-only"],
    )
    def test_the_first_bad_cell_in_file_order_is_named(self, tmp_path, edits, named):
        path = self._twenty_rows(tmp_path, edits)
        with pytest.raises(InputDataError, match=re.escape(f"non-numeric value {named}")):
            load_csv(path)

    def test_an_undecodable_byte_in_range_2_exits_2(self, tmp_path, capsys):
        path = self._twenty_rows(tmp_path, {})
        path.write_bytes(path.read_bytes()[:-4] + b"\xff\n")
        assert main(["detect", "--input", str(path), "--method", "prcmpout"]) == EXIT_INPUT
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["bench-shaped", "quoted", "crlf"])
    def test_one_range_files_never_fork(self, tmp_path, monkeypatch, kind):
        # every file loads in this process; the plain ones through the C reader
        def refused(*args):
            raise AssertionError("called")

        rng = np.random.default_rng(7)
        X = rng.standard_normal((200, 300)) if kind == "bench-shaped" else np.full((20, 2), 1.5)
        cells = [[repr(v) for v in row] for row in X.tolist()]
        if kind == "quoted":
            cells[5][0] = '"1.5"'
        ids = [f"row {i}" for i in range(len(cells))]
        end = "\r\n" if kind == "crlf" else "\n"
        header = ",".join(["id", *(f"x{j}" for j in range(X.shape[1]))])
        path = tmp_path / "m.csv"
        path.write_text(
            header + end + "".join(",".join([i, *row]) + end for i, row in zip(ids, cells)),
            newline="",
        )
        monkeypatch.setattr(os, "fork", refused)
        if kind != "quoted":
            monkeypatch.setattr(dataio, "_parse_rows", refused)
        dm = load_csv(path)
        assert (dm.values.view(np.int64) == X.view(np.int64)).all()
        assert dm.row_ids == tuple(ids)

    @settings(max_examples=200)
    @given(content=_csv_files())
    @example(content=b"a,b\n1,0." + b"0" * 140_000 + b"1\n")  # the window check's case
    @example(content=b"id,x\r\nrow 1,1.5\r\nrow 2,-0\r\n")
    @example(content=b"a,b\n1,2\n\n")
    @example(content=b"a,b\n1,2,3\n4,5,6\n")
    @example(content="a\n1_000\n１２３\n\xa02\xa0\n".encode())
    def test_the_c_reader_and_the_exact_route_agree(self, tmp_path_factory, content):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        path.write_bytes(content)
        assert _outcome(path) == _outcome(path, _exact_route)


    # ----- the parallel route: ranges forced by a one-byte floor on 3 cores -----

    @pytest.fixture
    def in_ranges(self, monkeypatch):
        """load_csv with every plain file of 3 or more lines cut into 3
        ranges; after each load, returned or raised, no child is left."""
        monkeypatch.setattr(dataio, "_RANGE_FLOOR", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

        def load(path):
            try:
                return load_csv(path)
            finally:
                with pytest.raises(ChildProcessError):
                    os.waitpid(-1, os.WNOHANG)

        return load

    @staticmethod
    def _ranged_csv(tmp_path, ids, newline="\n"):
        """30 rows of 4 columns; ids: "mol" for an id column, "last" for one
        non-numeric first cell in the last row, "long" for an id column whose
        first id is about half the file, so that range 1 holds one line."""
        rows = TestLoadCsv._rows(30)
        if ids in ("mol", "long"):
            rows = [[f"mol-{i}", *row[1:]] for i, row in enumerate(rows)]
        if ids == "long":
            rows[0][0] = "mol-" + "m" * 1600
        if ids == "last":
            rows[-1][0] = "z"
        lines = [",".join(f"c{j}" for j in range(4))] + [",".join(row) for row in rows]
        path = tmp_path / "m.csv"
        path.write_bytes("".join(line + newline for line in lines).encode())
        return path

    @staticmethod
    def _ranges(path):
        with open(path, "rb") as fh:
            return dataio._plain_body_lines(fh)

    @pytest.mark.parametrize(
        "ids, newline",
        [("mol", "\n"), (None, "\n"), (None, "\r\n"), ("last", "\n"), ("long", "\n")],
        ids=["id-column", "no-id-column", "crlf", "id-in-the-last-range", "one-line-range"],
    )
    def test_ranges_read_the_bits_of_the_serial_route(
        self, tmp_path, monkeypatch, in_ranges, ids, newline
    ):
        path = self._ranged_csv(tmp_path, ids, newline)
        ranges = self._ranges(path)
        assert len(ranges) == 3 and sum(k for _, k in ranges) == 30
        if ids == "long":
            assert ranges[0][1] == 1
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(dataio, "_parse_rows", None)  # the serial route is not taken
        got = in_ranges(path)
        monkeypatch.undo()
        expected = _exact_route(path)
        assert len(forks) == 2
        assert got.values.tobytes() == expected.values.tobytes()
        assert got.values.shape == expected.values.shape == (30, 4 - (ids is not None))
        assert got.row_ids == expected.row_ids
        assert got.column_names == expected.column_names

    @pytest.mark.parametrize(
        "edit, message",
        [(_with_cell_2("x"), "non-numeric value 'x' at row {row}, column 'c2'"),
         (_with_cell_2("1.5,2.5"), "row {row} has 5 fields, header has 4"),
         (lambda line: "", "row {row} has 0 fields, header has 4")],
        ids=["bad-cell", "ragged-row", "blank-line"],
    )
    def test_a_fault_in_range_2_raises_the_serial_message(self, tmp_path, in_ranges, edit, message):
        path = self._ranged_csv(tmp_path, None)
        (_, first), (_, second), _ = self._ranges(path)
        row = first + second // 2 + 2  # a file row number: the header is row 1
        lines = path.read_text().split("\n")
        lines[row - 1] = edit(lines[row - 1])
        path.write_text("\n".join(lines))
        (_, first), (_, second), _ = self._ranges(path)
        assert first < row - 1 <= first + second
        expected = _outcome(path, _exact_route)
        assert expected == f"{path}: {message.format(row=row)}"
        with pytest.raises(InputDataError) as raised:
            in_ranges(path)
        assert str(raised.value) == expected

    def test_a_killed_child_leaves_the_serial_route(self, tmp_path, monkeypatch, in_ranges):
        path = self._ranged_csv(tmp_path, "mol")
        parent, read_range = os.getpid(), dataio._read_range

        def killed_in_a_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return read_range(*args)

        monkeypatch.setattr(dataio, "_read_range", killed_in_a_child)
        assert _outcome(path, in_ranges) == _outcome(path, _exact_route)

    @pytest.mark.parametrize("refused_at", [1, 2])
    def test_a_refused_fork_leaves_the_serial_route(
        self, tmp_path, monkeypatch, in_ranges, refused_at
    ):
        path = self._ranged_csv(tmp_path, "mol")
        forks, fork = [], os.fork

        def refused_at_last():
            forks.append(1)
            if len(forks) == refused_at:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", refused_at_last)
        assert _outcome(path, in_ranges) == _outcome(path, _exact_route)
        assert len(forks) == refused_at


def _row_dicts(doc: dict) -> dict:
    """``doc`` with its columns as one dict per row: the form the writers render."""
    *head, (key, table) = doc.items()
    columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in table.values()]
    return {**dict(head), key: [dict(zip(table, row)) for row in zip(*columns)]}


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _csv_table(fields: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows([_cell(value) for value in row] for row in rows)
    return buf.getvalue()


def _csv_of_rows(doc: dict) -> str:
    """The CSV form of ``doc`` as ``csv.writer`` wrote it from one dict per row,
    with the fields of the first row that hold no list."""
    *_, records = _row_dicts(doc).values()
    if not records:
        return ""
    fields = [f for f, value in records[0].items() if not isinstance(value, (list, tuple))]
    return _csv_table(fields, ([rec[f] for f in fields] for rec in records))


def _write_odd_ids_csv(path, X) -> None:
    """``X`` as a CSV whose ids hold quotes, commas, a tab, CR/LF and non-ASCII."""
    ids = [f"mol \u00e9 {i}" if i % 2 else f'"q" \t{i},\r\n' for i in range(len(X))]
    header = ["id", *(f"x{j + 1}" for j in range(X.shape[1]))]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, *([i, *map(repr, row)] for i, row in zip(ids, X.tolist()))])


_BLOCK = dataio._BLOCK_ROWS
# text the writers must escape or quote exactly as json and csv do
_ODD_TEXT = [
    '"', ",", '", "', "\t", "\r", "\n", "\r\n", "\\", "%s", "%%", "", " ", "\u00e9", "\u96ea",
    "\x00", "\x01", "\x1f", "\x7f", "\u2028", "\U0001f600",
]
_texts = st.lists(
    st.one_of(st.sampled_from(_ODD_TEXT), st.text(max_size=5)), min_size=1, max_size=3
).map("".join)
_floats = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, 1.7976931348623157e308, 0.1, 1e16, 1e-7]),
    st.floats(),
)


@st.composite
def _documents(draw, kind: str) -> dict:
    """A report, sweep or timing document of 3, one block, one block + 1 or
    three blocks of rows, its cells cycled from small drawn pools."""
    n = draw(st.sampled_from([3, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]))
    texts = draw(st.lists(_texts, min_size=1, max_size=12))
    floats = draw(st.lists(_floats, min_size=1, max_size=12))
    maybe = draw(st.lists(st.one_of(st.none(), _floats), min_size=1, max_size=6))
    ints = draw(st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=6))
    bools = draw(st.lists(st.booleans(), min_size=1, max_size=6))
    failures = draw(st.lists(st.lists(_texts, max_size=3).map(tuple), min_size=1, max_size=4))

    def cycle(pool, k):
        return [pool[(i * 7 + k) % len(pool)] for i in range(n)]

    def array(k):
        return np.array(cycle(floats, k))

    if kind == "sweep":
        rows = [
            SweepRow(*cells) for cells in zip(
                cycle(ints, 0), cycle(maybe, 1), cycle(texts, 2), cycle(maybe, 3),
                cycle(maybe, 4), cycle(ints, 5), cycle(ints, 6), cycle(failures, 7),
            )
        ]
        return document(SimSpec(n=10, p=2), rows)
    if kind == "timing":
        rows = [TimingRow(*cells) for cells in zip(
            cycle(texts, 0), cycle(maybe, 1), cycle(ints, 2), cycle(failures, 3)
        )]
        return document(SimSpec(n=10, p=2), rows)
    ids = tuple(f"{text}{i}" for i, text in enumerate(cycle(texts, 0)))
    dm = DataMatrix(np.zeros((n, 2)), ids, ("a", "b"))
    config = {"input": texts[0], "method": kind}
    flags = np.array(cycle(bools, 1))
    if kind == "classical":
        result = SimpleNamespace(method=kind, cutoff=floats[0], distances=array(2), flags=flags)
        return detection_result_document(dm, result, config)
    d1, d2 = (
        SimpleNamespace(transformed=array(k), m_cut=floats[k % len(floats)], c_cut=1.5)
        for k in (2, 3)
    )
    report = SimpleNamespace(
        stage1_distances=d1, stage2_distances=d2, w1=array(4), w2=array(5), w_final=array(6),
        flags=flags, p_star=len(texts), dropped_columns={1},
    )
    return weight_report_document(dm, report, config)


_KINDS = ["prcmpout", "classical", "sweep", "timing"]


class TestReportDocuments:
    @pytest.mark.parametrize(
        "build, run",
        [(weight_report_document, detect), (detection_result_document, lambda X: sign2_detect(X, 0.05))],
        ids=["prcmpout", "sign2"],
    )
    def test_one_row_id_short_raises(self, build, run):
        X, _ = generate_contaminated(SimSpec(n=30, p=4, seed=5))
        dm = DataMatrix(X, tuple(str(i + 1) for i in range(29)), ("a", "b", "c", "d"))
        with pytest.raises(ValueError):
            build(dm, run(X), {})

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_failing_build_leaves_no_output_file(
        self, normal_csv, tmp_path, monkeypatch, fmt, capsys
    ):
        def one_id_short(path):
            dm = load_csv(path)
            return dataclasses.replace(dm, row_ids=dm.row_ids[:-1])

        monkeypatch.setattr(cli, "load_csv", one_id_short)
        out = tmp_path / f"r.{fmt}"
        argv = ["detect", "--input", str(normal_csv), "--method", "prcmpout", "--format", fmt]
        assert main([*argv, "--output", str(out)]) == EXIT_NUMERIC
        assert not out.exists()
        assert "differ in length" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", _KINDS)
    @settings(max_examples=12)
    @given(data=st.data())
    def test_the_json_writer_matches_json_dumps_of_the_rows(self, kind, data):
        doc = data.draw(_documents(kind))
        assert document_to_json(doc) == json.dumps(_row_dicts(doc), indent=2) + "\n"

    @pytest.mark.parametrize("kind", _KINDS)
    @settings(max_examples=12)
    @given(data=st.data())
    def test_the_csv_writer_matches_csv_writer_on_the_rows(self, kind, data):
        doc = data.draw(_documents(kind))
        assert "".join(document_csv_chunks(doc)) == _csv_of_rows(doc)

    def test_a_document_without_rows(self):
        doc = document(SimSpec(n=10, p=2), [])
        assert document_to_json(doc) == json.dumps({**doc, "rows": []}, indent=2) + "\n"
        assert "".join(document_csv_chunks(doc)) == ""

    def test_the_writers_tell_each_column_kind_from_its_cells(self):
        # a plain dict of columns, built by hand: no builder says which is text or a list
        records = {
            "who": ("a, b", ", ", "\n", "caf\u00e9 \u96ea"),
            "why": [("x",), (), ("y, z", "\n"), ()],
            "how": np.array([0.1, -0.0, 1e300, 5e-324]),
        }
        doc = {"header": {"method": "by hand"}, "records": records}
        rows = _row_dicts(doc)
        assert document_to_json(doc) == json.dumps(rows, indent=2) + "\n"
        expected = _csv_table(["who", "how"], ([rec["who"], rec["how"]] for rec in rows["records"]))
        assert "".join(document_csv_chunks(doc)) == expected

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_no_chunk_holds_more_than_one_block_of_records(self, fmt):
        # the command line streams these chunks; a writer that built the whole
        # text first would hand over one chunk of 10000 records
        X, _ = generate_contaminated(SimSpec(n=10000, p=3, seed=9))
        dm = DataMatrix(X, tuple(str(i + 1) for i in range(10000)), ("a", "b", "c"))
        doc = weight_report_document(dm, detect(X), {})
        if fmt == "json":
            chunks = list(document_json_chunks(doc))
            assert "".join(chunks) == document_to_json(doc)
            records = [chunk.count('"row_id": ') for chunk in chunks]
        else:
            chunks = list(document_csv_chunks(doc))
            assert "".join(chunks) == _csv_of_rows(doc)
            assert chunks[0].count("\n") == 1  # the field names
            records = [chunk.count("\n") for chunk in chunks[1:]]
        assert sum(records) == 10000
        assert max(records) <= _BLOCK < 10000 / 4

    def test_a_json_report_holds_the_bytes_of_document_to_json(self, tmp_path, capsys):
        # the CLI streams the report chunk by chunk, to a file or to stdout
        X, _ = generate_contaminated(SimSpec(n=30, p=3, seed=6))
        path, out = tmp_path / "ids.csv", tmp_path / "r.json"
        _write_odd_ids_csv(path, X)
        argv = ["detect", "--input", str(path), "--method", "prcmpout"]
        assert main([*argv, "--output", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        printed = capsys.readouterr().out
        config = {"input": str(path), "method": "prcmpout", **dataclasses.asdict(DetectorConfig())}
        doc = weight_report_document(load_csv(path), detect(X), config)
        assert document_to_json(doc) == json.dumps(_row_dicts(doc), indent=2) + "\n"
        assert out.read_text(encoding="utf-8") == printed == document_to_json(doc)

    def test_a_csv_report_to_stdout_holds_the_bytes_of_the_file(self, tmp_path, capsys):
        X, _ = generate_contaminated(SimSpec(n=30, p=3, seed=6))
        path, out = tmp_path / "ids.csv", tmp_path / "r.csv"
        _write_odd_ids_csv(path, X)
        argv = ["detect", "--input", str(path), "--method", "prcmpout", "--format", "csv"]
        assert main([*argv, "--output", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        printed = capsys.readouterr().out
        doc = weight_report_document(load_csv(path), detect(X), {})
        assert out.read_bytes().decode("utf-8") == printed == _csv_of_rows(doc)


class TestDetectCommand:
    def test_prcmpout_json_report(self, normal_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["detect", "--input", str(normal_csv), "--method", "prcmpout", "--output", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        header = doc["header"]
        assert header["method"] == "prcmpout"
        assert header["n"] == 60 and header["p"] == 6
        assert 1 <= header["p_star"] <= 6
        # config echo carries every tuning constant, so the run is repeatable
        for key in (
            "variance_threshold",
            "scale_const_s",
            "outlier_cut",
            "stage1_full_weight_fraction",
            "stage1_c_mad_multiplier",
            "stage2_m_quantile",
            "stage2_c_quantile",
        ):
            assert key in header["config"]
        assert len(doc["records"]) == 60
        first = doc["records"][0]
        assert set(first) == {
            "row_id", "w1", "w2", "w_final", "stage1_distance", "stage2_distance", "flag",
        }
        assert [rec["row_id"] for rec in doc["records"]] == [str(i) for i in range(1, 61)]
        err = capsys.readouterr().err
        assert "flagged" in err

    def test_reports_are_byte_identical_across_runs(self, normal_csv, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            assert main(
                ["detect", "--input", str(normal_csv), "--method", "prcmpout", "--output", str(out)]
            ) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_and_json_reports_hold_identical_values(self, normal_csv, tmp_path):
        j, c = tmp_path / "r.json", tmp_path / "r.csv"
        main(["detect", "--input", str(normal_csv), "--method", "prcmpout", "--output", str(j)])
        main(
            ["detect", "--input", str(normal_csv), "--method", "prcmpout",
             "--format", "csv", "--output", str(c)]
        )
        records = json.loads(j.read_text())["records"]
        with open(c) as fh:
            csv_rows = list(csv.DictReader(fh))
        assert len(csv_rows) == len(records)
        for rec, row in zip(records, csv_rows):
            assert float(row["w_final"]) == rec["w_final"]
            assert float(row["stage1_distance"]) == rec["stage1_distance"]
            assert (row["flag"] == "true") == rec["flag"]

    def test_classical_run_carries_the_cutoff(self, normal_csv, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["detect", "--input", str(normal_csv), "--method", "classical",
             "--alpha", "0.05", "--output", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["header"]["cutoff"] > 0
        assert set(doc["records"][0]) == {"row_id", "distance", "cutoff", "flag"}

    def test_classical_on_wide_data_exits_3_and_recommends_prcmpout(self, tmp_path, capsys):
        X, _ = generate_contaminated(SimSpec(n=5, p=8, seed=1))
        path = tmp_path / "wide.csv"
        _write_csv(path, [f"c{j}" for j in range(8)], X.tolist())
        code = main(["detect", "--input", str(path), "--method", "classical", "--alpha", "0.05"])
        assert code == EXIT_NUMERIC
        assert "prcmpout" in capsys.readouterr().err

    def test_alpha_with_prcmpout_is_a_config_error(self, normal_csv, capsys):
        code = main(
            ["detect", "--input", str(normal_csv), "--method", "prcmpout", "--alpha", "0.05"]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flag",
        [
            "variance-threshold",
            "scale-const-s",
            "outlier-cut",
            "stage1-full-weight-fraction",
            "stage1-c-mad-multiplier",
            "stage2-m-quantile",
            "stage2-c-quantile",
            "beta",
        ],
    )
    def test_tuning_flags_do_not_exist(self, normal_csv, flag, capsys):
        # every method runs at its published constants, which the header echoes
        method = "ogk" if flag == "beta" else "prcmpout"
        code = main(["detect", "--input", str(normal_csv), "--method", method, f"--{flag}", "0.5"])
        assert code == EXIT_CONFIG
        assert f"unrecognized arguments: --{flag} 0.5" in capsys.readouterr().err

    def test_detector_override_with_classical_is_a_config_error(self, normal_csv):
        code = main(
            ["detect", "--input", str(normal_csv), "--method", "classical",
             "--alpha", "0.05", "--outlier-cut", "0.3"]
        )
        assert code == EXIT_CONFIG

    def test_missing_input_exits_2(self, tmp_path):
        code = main(["detect", "--input", str(tmp_path / "nope.csv"), "--method", "prcmpout"])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "content, message", [("", "empty file"), ("\n1,2\n3,4\n", "empty header row")], ids=["file", "header"]
    )
    def test_an_empty_file_or_header_exits_2(self, tmp_path, capsys, content, message):
        path = tmp_path / "m.csv"
        path.write_text(content)
        assert main(["detect", "--input", str(path), "--method", "prcmpout"]) == EXIT_INPUT
        assert capsys.readouterr().err == f"pcout: input error: {path}: {message}\n"

    @staticmethod
    def _first_36_rows_equal():
        X = np.random.Generator(np.random.Philox(5)).standard_normal((60, 5))
        X[:36] = X[0]
        return X.tolist()

    @pytest.mark.parametrize(
        "rows, message",
        [
            (lambda: [[1.0, 2.0]] * 5, "fewer than 2 rows away from the spatial center"),
            (lambda: [[0.0, 0.0]] * 3 + [[1.0, 1.0], [2.0, 2.0]], "zero total variance; nothing to decompose"),
            (_first_36_rows_equal, "all projected score columns have zero MAD"),
        ],
        ids=["all-at-the-center", "one-sign", "36-of-60-rows-equal"],
    )
    def test_sign2_degenerate_data_exit_3(self, tmp_path, capsys, rows, message):
        path = tmp_path / "m.csv"
        rows = rows()
        _write_csv(path, [f"c{j}" for j in range(len(rows[0]))], rows)
        assert main(["detect", "--input", str(path), "--method", "sign2"]) == EXIT_NUMERIC
        assert capsys.readouterr().err == f"pcout: {message}\n"

    def test_duplicated_rows_name_the_cause_of_zero_mad(self, tmp_path, capsys):
        X, _ = generate_contaminated(SimSpec(n=50, p=4, seed=3))
        X[:30] = X[0]  # 30 copies of one row: every column's median value is that row's
        path = tmp_path / "dup.csv"
        _write_csv(path, [f"c{j}" for j in range(4)], X.tolist())
        assert main(["detect", "--input", str(path), "--method", "prcmpout"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "sphering failed: all columns have zero MAD; nothing to analyze" in err
        assert "at least half its values are equal, for example duplicated rows" in err

    def test_rows_at_the_float_maximum_exit_3(self, tmp_path, capsys):
        X = np.random.Generator(np.random.Philox(30)).standard_normal((60, 5))
        X[[7, 11]] = 1e308
        path = tmp_path / "huge.csv"
        _write_csv(path, [f"c{j}" for j in range(5)], X.tolist())
        assert main(["detect", "--input", str(path), "--method", "prcmpout"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "principal-component step failed: overflow encountered in reduce" in err

    def test_a_gross_finite_row_gets_a_finite_sign2_report(self, tmp_path, capsys):
        def refuse(constant):
            raise ValueError(f"{constant} in the report")

        X = np.random.Generator(np.random.Philox(30)).standard_normal((60, 5))
        X[7] = 1e200
        path = tmp_path / "gross.csv"
        _write_csv(path, [f"c{j}" for j in range(5)], X.tolist())
        assert main(["detect", "--input", str(path), "--method", "sign2"]) == EXIT_OK
        records = json.loads(capsys.readouterr().out, parse_constant=refuse)["records"]
        assert "8" in [r["row_id"] for r in records if r["flag"]]

    def test_a_gross_finite_row_gets_a_finite_ogk_report(self, tmp_path, capsys):
        def refuse(constant):
            raise ValueError(f"{constant} in the report")

        X = np.random.Generator(np.random.Philox(30)).standard_normal((60, 5))
        X[7] = 1e200
        path = tmp_path / "gross.csv"
        _write_csv(path, [f"c{j}" for j in range(5)], X.tolist())
        assert main(["detect", "--input", str(path), "--method", "ogk"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Infinity" not in out
        records = json.loads(out, parse_constant=refuse)["records"]
        assert "8" in [r["row_id"] for r in records if r["flag"]]

    # the sample covariance still overflows on such a row (and warns)
    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    def test_a_gross_finite_row_fails_classical_with_exit_3(self, tmp_path, capsys):
        X = np.random.Generator(np.random.Philox(30)).standard_normal((60, 5))
        X[7] = 1e200
        path = tmp_path / "gross.csv"
        _write_csv(path, [f"c{j}" for j in range(5)], X.tolist())
        assert main(["detect", "--input", str(path), "--method", "classical"]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "scatter matrix is not finite" in captured.err

    def test_alpha_out_of_range_is_a_config_error(self, normal_csv, capsys):
        for alpha in ("1.5", "1e-17"):  # 1 - 1e-17 rounds to 1
            code = main(
                ["detect", "--input", str(normal_csv), "--method", "classical", "--alpha", alpha]
            )
            assert code == EXIT_CONFIG
            assert "configuration error: --alpha" in capsys.readouterr().err


def _distance_index_rows(doc: dict) -> list[tuple]:
    rows = [
        ("distance", i + 1, rec["distance"], "flagged" if rec["flag"] else "ok")
        for i, rec in enumerate(doc["records"])
    ]
    rows.append(("distance", 0, doc["header"]["cutoff"], "boundary"))
    return rows


def _weight_panel_rows(doc: dict) -> list[tuple]:
    header = doc["header"]
    rows = []
    for i, rec in enumerate(doc["records"]):
        x = i + 1
        state = "flagged" if rec["flag"] else "ok"
        rows.append(("stage1_distance", x, rec["stage1_distance"], state))
        rows.append(("stage1_weight", x, rec["w1"], state))
        rows.append(("stage2_distance", x, rec["stage2_distance"], state))
        rows.append(("stage2_weight", x, rec["w2"], state))
        rows.append(("combined_weight", x, rec["w_final"], state))
        rows.append(("flag01", x, 0.0 if rec["flag"] else 1.0, state))
    for stage in ("stage1", "stage2"):
        rows.append((f"{stage}_distance", 0, header["thresholds"][stage]["M"], "boundary"))
        rows.append((f"{stage}_distance", 0, header["thresholds"][stage]["c"], "boundary"))
    rows.append(("combined_weight", 0, header["config"]["outlier_cut"], "boundary"))
    return rows


def _sweep_curve_rows(doc: dict) -> list[tuple]:
    rows = []
    for entry in doc["rows"]:
        if entry["mean_fn"] is not None:
            rows.append(("fn", entry["p"], entry["mean_fn"], entry["detector"]))
        if entry["mean_fp"] is not None:
            rows.append(("fp", entry["p"], entry["mean_fp"], entry["detector"]))
    return rows


# the figure data of each kind, row by row from a loaded document's row dicts
_FIGURE_ROWS = {
    "distance_index": _distance_index_rows,
    "weight_panels": _weight_panel_rows,
    "sweep_curves": _sweep_curve_rows,
}


def _loaded_report(method: str) -> dict:
    """A report of ``method`` as ``pcout plotdata`` reads it back from JSON."""
    X, _ = generate_contaminated(
        SimSpec(n=40, p=4, outlier_indices=frozenset({1, 2, 3}), location_shift=6.0, seed=4)
    )
    dm = DataMatrix(X, tuple(f"r,{i}" for i in range(40)), ("a", "b", "c", "d"))
    if method == "prcmpout":
        doc = weight_report_document(dm, detect(X), dataclasses.asdict(DetectorConfig()))
    else:
        doc = detection_result_document(dm, sign2_detect(X, 0.05), {"alpha": 0.05})
    loaded = json.loads(document_to_json(doc))
    assert any(rec["flag"] for rec in loaded["records"])
    return loaded


def _loaded_sweep(rates: list[tuple]) -> dict:
    """A sweep document of one row per (mean_fn, mean_fp) pair, read back from JSON."""
    rows = [
        SweepRow(p=5 * (i + 1), alpha=0.05, detector='sign2, "v"', mean_fn=fn, mean_fp=fp,
                 replications=2, seed=42, failures=("p=5 rep=1: singular",) if fn is None else ())
        for i, (fn, fp) in enumerate(rates)
    ]
    return json.loads(document_to_json(document(SimSpec(n=10, p=5), rows)))


# each document, with the one kind the per-kind command accepted for it
_FIGURES = {
    "prcmpout report": lambda: (_loaded_report("prcmpout"), "weight_panels"),
    "cutoff report": lambda: (_loaded_report("sign2"), "distance_index"),
    "sweep with some rates": lambda: (
        _loaded_sweep([(0.5, None), (None, 0.125), (0, 1e-17), (None, None)]), "sweep_curves"
    ),
    "sweep without rates": lambda: (_loaded_sweep([(None, None), (None, None)]), "sweep_curves"),
}


class TestPlotData:
    def test_weight_panels_schema(self, normal_csv, tmp_path):
        report = tmp_path / "r.json"
        main(["detect", "--input", str(normal_csv), "--method", "prcmpout", "--output", str(report)])
        out = tmp_path / "panels.csv"
        code = main(["plotdata", "--report", str(report), "--output", str(out)])
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        panels = {row["panel"] for row in rows}
        assert panels == {
            "stage1_distance", "stage1_weight", "stage2_distance",
            "stage2_weight", "combined_weight", "flag01",
        }
        for panel in panels:
            data_rows = [r for r in rows if r["panel"] == panel and int(r["x"]) >= 1]
            assert len(data_rows) == 60
        boundaries = [r for r in rows if r["flag"] == "boundary"]
        assert len(boundaries) == 5  # M1, c1, M2, c2 and the 0.25 cut

    def test_distance_index_schema(self, normal_csv, tmp_path):
        report = tmp_path / "r.json"
        main(["detect", "--input", str(normal_csv), "--method", "sign2",
              "--alpha", "0.05", "--output", str(report)])
        out = tmp_path / "dist.csv"
        assert main(["plotdata", "--report", str(report), "--output", str(out)]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len([r for r in rows if r["flag"] != "boundary"]) == 60
        boundary = [r for r in rows if r["flag"] == "boundary"]
        assert len(boundary) == 1
        assert float(boundary[0]["y"]) == json.loads(report.read_text())["header"]["cutoff"]

    def test_kind_mismatch_exits_2(self, tmp_path, capsys):
        # neither a timing document nor a bare list holds figure data
        timing, listed = tmp_path / "bench.json", tmp_path / "list.json"
        assert main(["bench", "--methods", "prcmpout", "--p", "20", "--repeats", "3",
                     "--format", "json", "--output", str(timing)]) == EXIT_OK
        listed.write_text("[1, 2]", encoding="utf-8")
        for path in (timing, listed):
            capsys.readouterr()
            assert main(["plotdata", "--report", str(path)]) == EXIT_INPUT
            assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message", [(None, "cannot read"), ("{not json", "is not valid JSON")], ids=["missing", "invalid"]
    )
    def test_an_unreadable_report_exits_2(self, tmp_path, capsys, content, message):
        report = tmp_path / "r.json"
        if content is not None:
            report.write_text(content)
        assert main(["plotdata", "--report", str(report)]) == EXIT_INPUT
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("case", list(_FIGURES))
    def test_figure_data_matches_the_rows_of_its_one_kind(self, case):
        doc, kind = _FIGURES[case]()
        text = "".join(document_csv_chunks(plot_document(doc)))
        rows = [(panel, x, float(y), flag) for panel, x, y, flag in _FIGURE_ROWS[kind](doc)]
        assert text == _csv_table(["panel", "x", "y", "flag"], rows)
        if case == "sweep without rates":
            assert text == "panel,x,y,flag\n"


class TestSweepCommand:
    def test_csv_output_with_the_documented_header(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--method", "prcmpout", "--p-values", "5,10", "--replications", "2",
             "--n", "40", "--outlier-indices", "1,2,3,4", "--shift", "4.0",
             "--seed", "3", "--output", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "p,alpha,detector,mean_fn,mean_fp,replications,seed"
        assert len(lines) == 3
        assert "mean FN" in capsys.readouterr().err

    def test_sweep_is_deterministic(self, tmp_path):
        args = ["sweep", "--method", "prcmpout", "--p-values", "5", "--replications", "2",
                "--n", "30", "--outlier-indices", "1,2", "--shift", "5.0", "--seed", "8"]
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        main(args + ["--output", str(out1)])
        main(args + ["--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_sweep_feeds_sweep_curves(self, tmp_path):
        sweep_json = tmp_path / "sweep.json"
        main(["sweep", "--method", "prcmpout", "--p-values", "5,10", "--replications", "2",
              "--n", "40", "--outlier-indices", "1,2,3", "--shift", "5.0",
              "--format", "json", "--output", str(sweep_json)])
        doc = json.loads(sweep_json.read_text())
        assert doc["spec"]["n"] == 40
        out = tmp_path / "curves.csv"
        assert main(["plotdata", "--report", str(sweep_json), "--output", str(out)]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {(r["panel"], r["x"]) for r in rows} == {
            ("fn", "5"), ("fp", "5"), ("fn", "10"), ("fp", "10"),
        }

    def test_failed_replications_are_counted_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--method", "classical", "--p-values", "10,150",
                     "--replications", "3", "--output", str(out)])
        assert code == EXIT_OK
        assert out.read_text().splitlines()[2] == "150,0.05,classical,,,3,42"
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("p=10: mean FN ") and "failed" not in err[0]
        assert err[1] == (
            "p=150: mean FN n/a, mean FP n/a; 3 of 3 replications failed, first: p=150 rep=0: "
            "classical detection needs n > p (got n=100, p=150); "
            "use the prcmpout method, which handles wide matrices"
        )

    def test_alpha_with_prcmpout_rejected(self):
        assert main(["sweep", "--method", "prcmpout", "--alpha", "0.05"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flags",
        [
            ["--method", "ogk", "--alpha", "2"],
            ["--replications", "0"],
            ["--shift", "nan"],
            ["--shift", "inf"],
            ["--scatter-factor", "nan"],
            ["--scatter-factor", "inf"],
            ["--method", "ogk", "--alpha", "1e-17"],
        ],
    )
    def test_bad_alpha_or_replications_is_a_config_error(self, flags, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *flags, "--p-values", "10", "--output", str(out)]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "p_values, message",
        [
            ("ten", "bad --p-values: 'ten'"),
            ("0,10", "n and p must be positive, got n=100, p=0"),
            ("10,0", "p values must be positive and distinct, got [10, 0]"),
            ("", "--p-values must name at least one dimension"),
        ],
    )
    def test_bad_p_values_rejected(self, p_values, message, capsys):
        assert main(["sweep", "--p-values", p_values]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"pcout: configuration error: {message}\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--p-values", "10,10"], "--p-values names a value more than once: '10,10'"),
            (["--p-values", "10", "--outlier-indices", "5,5"],
             "--outlier-indices names a value more than once: '5,5'"),
        ],
    )
    def test_a_repeated_value_is_a_config_error(self, flags, message, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *flags, "--replications", "2", "--output", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestBenchCommand:
    def test_reports_positive_medians(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--methods", "prcmpout,sign2", "--n", "40", "--p", "12",
                     "--repeats", "3", "--output", str(out)])
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["detector"] for r in rows] == ["prcmpout", "sign2"]
        assert all(float(r["median_seconds"]) > 0 for r in rows)

    def test_a_failing_detector_is_recorded(self, tmp_path, capsys):
        out_csv, out_json = tmp_path / "bench.csv", tmp_path / "bench.json"
        for fmt, out in (("csv", out_csv), ("json", out_json)):
            assert main(["bench", "--methods", "prcmpout,classical", "--n", "40", "--p", "60",
                         "--repeats", "3", "--format", fmt, "--output", str(out)]) == EXIT_OK
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "detector,median_seconds,repeats"
        assert float(lines[1].split(",")[1]) > 0
        assert lines[2] == "classical,,3"
        rows = json.loads(out_json.read_text())["rows"]
        assert rows[0]["failures"] == []
        assert rows[1]["median_seconds"] is None
        assert rows[1]["failures"][0].startswith("classical detection needs n > p")
        err = capsys.readouterr().err
        assert "classical: failed: classical detection needs n > p (got n=40, p=60)" in err

    def test_unknown_method_rejected(self):
        assert main(["bench", "--methods", "mcd"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--alpha", "2"], "--alpha must be in (0, 1) with 1 - alpha below 1, got 2.0"),
            (["--methods", "prcmpout", "--alpha", "0"], "--alpha must be in (0, 1) with 1 - alpha below 1, got 0.0"),
            (["--repeats", "2"], "need at least 3 repeats, got 2"),
            (["--methods", "prcmpout", "--alpha", "0.1"], "--alpha does not apply to the prcmpout method"),
            (["--alpha", "1e-17"], "--alpha must be in (0, 1) with 1 - alpha below 1, got 1e-17"),
            (["--methods", "prcmpout,prcmpout"], "--methods names a method more than once: 'prcmpout,prcmpout'"),
            (["--methods", ","], "--methods must name at least one method"),
            (["--n", "0"], "n and p must be positive, got n=0, p=20"),
        ],
    )
    def test_bad_alpha_or_repeats_is_a_config_error(self, flags, message, capsys):
        assert main(["bench", *flags, "--p", "20"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"pcout: configuration error: {message}\n"


def test_usage_error_exits_4(capsys):
    assert main(["detect", "--method", "prcmpout"]) == EXIT_CONFIG  # --input missing
    assert "the following arguments are required: --input" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:  # help is not an error
        main(["--help"])
    assert excinfo.value.code == EXIT_OK


def _small_run(command, csv_path, report_path):
    """A quick run of one subcommand, without --output."""
    return {
        "detect": ["detect", "--input", str(csv_path), "--method", "prcmpout"],
        "sweep": ["sweep", "--p-values", "5", "--replications", "2", "--n", "40",
                  "--outlier-indices", "1,2,3"],
        "bench": ["bench", "--methods", "prcmpout", "--p", "20", "--repeats", "3"],
        "plotdata": ["plotdata", "--report", str(report_path)],
    }[command]


@pytest.mark.parametrize("command", ["detect", "sweep"])
def test_plot_data_flag_is_gone(command, normal_csv, tmp_path, capsys):
    # figure data comes from `pcout plotdata` on a saved JSON report or sweep
    argv = _small_run(command, normal_csv, None)
    code = main([*argv, "--output", str(tmp_path / "out"), "--plot-data", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert "unrecognized arguments: --plot-data" in capsys.readouterr().err


def test_plot_kind_flag_is_gone(normal_csv, tmp_path, capsys):
    # the report or sweep decides which figure plotdata writes
    report = tmp_path / "r.json"
    assert main(["detect", "--input", str(normal_csv), "--method", "prcmpout",
                 "--output", str(report)]) == EXIT_OK
    assert main(["plotdata", "--report", str(report), "--kind", "weight_panels"]) == EXIT_CONFIG
    assert "unrecognized arguments: --kind" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "sweep", "bench", "plotdata"])
def test_an_unwritable_output_exits_2_and_names_the_path(command, normal_csv, tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main(["detect", "--input", str(normal_csv), "--method", "prcmpout",
                 "--output", str(report)]) == EXIT_OK
    argv = _small_run(command, normal_csv, report)
    out = tmp_path / "missing" / "out.csv"
    capsys.readouterr()
    assert main([*argv, "--output", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"pcout: cannot write {out}: {os.strerror(errno.ENOENT)}"
    assert not out.parent.exists()
