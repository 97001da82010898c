"""The one-pass CSV reader against the row-by-row reader it defers to."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sublsq import cli
from sublsq.cli import RunConfig
from sublsq.errors import ValidationError

NUMERIC = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=1e-300, max_value=1e300).map(repr),
    st.integers(-(10**20), 10**20).map(str),
)
HOSTILE = st.one_of(
    NUMERIC,
    st.floats().map(repr),
    st.sampled_from(
        ["nan", "inf", "-inf", "1e400", "1e-400", "-0", "+1.5", ".5", "1_0",
         '"1"', '"2.5"', "", "#", "#1", "0x10", "1d5"]
    ),
)
PAD = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def csv_texts(draw):
    """Header a[,b[,c]] and up to six data lines, clean or hostile."""
    width = draw(st.integers(1, 3))
    cells = HOSTILE if draw(st.booleans()) else NUMERIC
    padded = st.tuples(PAD, cells, PAD).map("".join) if draw(st.booleans()) else cells
    # every data line one field short or long of the header, now and then
    shift = draw(st.sampled_from([0, 0, 0, -1, 1]))
    lines = [",".join("abc"[:width])]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "spaces", "wide", "short"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "  ", "\t"])))
        else:
            n_fields = width + shift + {"row": 0, "wide": 1, "short": -1}[kind]
            lines.append(",".join(draw(padded) for _ in range(max(n_fields, 0))))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


def _outcome(parse, path, config):
    try:
        data = parse(path, config)
    except ValidationError as exc:
        return ("error", str(exc))
    if isinstance(data, tuple):  # a reader's header, values and row lines
        header, values, lines = data
        return ("parsed", header, values.tobytes(), lines)
    return ("ok", data.design.shape, data.design.tobytes(), data.response.tobytes())


def _parse_rows_only(path, config):
    """``parse_csv`` with the one-pass reader refused, so every file is read by row."""
    with mock.patch.object(cli, "_parse_bulk", lambda *_: None):
        return cli.parse_csv(path, config)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "data.csv"


@settings(max_examples=400, deadline=None)
@given(
    text=csv_texts(),
    drop=st.sampled_from([0, 1]),
    log_columns=st.sampled_from([(), ("a",)]),
    response=st.sampled_from([None, "b"]),
)
def test_bulk_parse_equals_row_parse(csv_path, text, drop, log_columns, response):
    csv_path.write_bytes(text.encode("utf-8"))
    config = RunConfig(response_column=response, log_columns=log_columns, drop_head_rows=drop)
    path = str(csv_path)
    assert _outcome(cli.parse_csv, path, config) == _outcome(_parse_rows_only, path, config)


def test_clean_numeric_file_takes_the_bulk_path(tmp_path, monkeypatch):
    clean = tmp_path / "clean.csv"
    clean.write_bytes(b"a,b,y\r\n9,9,9\r\n1.5, 2 ,3\r\n\r\n2.5e-3,-0,4\r\n7,1e300,5")
    quoted = tmp_path / "quoted.csv"
    quoted.write_text('a,b,y\n"1",2,3\n4,5,6\n')
    config = RunConfig(response_column="y", log_columns=("a",), drop_head_rows=1)
    expected = _parse_rows_only(str(clean), config)

    def refuse(*_):
        raise AssertionError("handed off to the row reader")

    monkeypatch.setattr(cli, "_parse_rows", refuse)
    data = cli.parse_csv(str(clean), config)
    assert data.design.tobytes() == expected.design.tobytes()
    assert data.response.tobytes() == expected.response.tobytes()
    with pytest.raises(AssertionError, match="handed off"):
        cli.parse_csv(str(quoted), config)
    np.testing.assert_array_equal(data.response, [3.0, 4.0, 5.0])


@pytest.mark.parametrize("parse", [cli.parse_csv, cli._parse_rows])
@pytest.mark.parametrize("config", [
    RunConfig(response_column="y", predictor_columns=("x1", "x2")),
    RunConfig(response_column="x1"),
])
def test_a_byte_order_mark_is_not_part_of_the_first_column_name(tmp_path, parse, config):
    # a UTF-8 BOM, as spreadsheet "CSV UTF-8" exports write, once stuck to "x1"
    text = "x1,x2,y\n1,2,3\n4,5,6.5\n7,8,9\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert _outcome(parse, str(marked), config) == _outcome(parse, str(plain), config)


Y = RunConfig(response_column="y")
LOG_A = RunConfig(response_column="y", log_columns=("a",))
# name -> (file bytes, config); each file's outcome is pinned in PARSE_PINS
PARSE_FILES = {
    "crlf_blank": (b"a,b,y\r\n1.5,2,3\r\n\r\n4,-5e-3,6\r\n7,1e300,9\r\n", Y),
    "bom": (b"\xef\xbb\xbfx1,x2,y\n1,2,3\n4,5,6.5\n7,8,9\n",
            RunConfig(response_column="y", predictor_columns=("x1", "x2"))),
    "quoted": (b'"a","b","y"\n"1",2,"3"\n4,"5.5",6\n"7","8","9"\n', Y),
    "underscore": (b"a,b,y\n1_000,2,3\n4,5,6\n7,8,9\n", Y),
    "arabic_indic": ("a,b,y\n١٢,2,3\n4,٥,6\n7,8,9\n".encode("utf-8"), Y),
    "padded": (b"a,b,y\n 1 ,\t2, 3\n4 , 5,6 \n7,8 ,  9\n", Y),
    "log_zero_clean": (b"a,b,y\n1,2,3\n0,5,6\n7,8,9\n", LOG_A),
    "log_zero_quoted": (b'a,b,y\n"1",2,3\n"0",5,6\n7,8,9\n', LOG_A),
    "nan_after_blank": (b"a,b,y\n1,2,3\n\n4,nan,6\n7,8,9\n", Y),
    "ragged": (b"a,b,y\n1,2,3\n4,5\n7,8,9\n", Y),
    "bad_cell_in_dropped_head": (b"a,b,y\nx,units,?\n1,2,3\n4,5,6\n",
                                 RunConfig(response_column="y", drop_head_rows=1)),
    "drop_past_end": (b"a,b,y\n1,2,3\n4,5,6\n", RunConfig(response_column="y", drop_head_rows=5)),
    "negative_drop_after_ragged": (b"a,b,y\n1,2,3\n4,5\n", RunConfig(response_column="y", drop_head_rows=-1)),
    "non_numeric_before_log": (b"a,b,y\n0,2,3\n4,5,6\n7,eight,9\n", LOG_A),
    "negative_drop": (b"a,b,y\n1,2,3\n4,5,6\n", RunConfig(response_column="y", drop_head_rows=-1)),
    "log_clean": (b"a,b,y\n9,9,9\n1,2,3\n2.5,5,6\n7,8,9\n",
                  RunConfig(response_column="y", log_columns=("a", "b"), drop_head_rows=1)),
}
# The error message with the file's path as <path>, or the design's shape and
# the sha256 of the design's then the response's bytes.
PARSE_PINS = {
    "crlf_blank": ("ok", (3, 2), "7fad767c158891ba50492d0af944a7baa75fc67959a9e322c9bd58b974838bc4"),
    "bom": ("ok", (3, 2), "057429e396aacab7749e5c60a5bbfdf3d5e191d45822a13780f47833ecae529d"),
    "quoted": ("ok", (3, 2), "247b88c3d382bd5d36ac6aaafc8e3993abec21d9e15744bc522dba34484917fb"),
    "underscore": ("ok", (3, 2), "57180870d6b6b3eb370b38fd2800a1ced2db20c6d9c337bfd002caa807689c00"),
    "arabic_indic": ("ok", (3, 2), "4378a853e5bcd95a55a99094c3c4c1fed1ec3c004fc3baa0c501ad6126f6bd2b"),
    "padded": ("ok", (3, 2), "291139c5ed9eba9a1e43921285e93c44617e18d0303b1200e88bec40ae913ec0"),
    "log_zero_clean": ("error", "<path> line 3, column 'a': log transform needs positive values, got 0.0"),
    "log_zero_quoted": ("error", "<path> line 3, column 'a': log transform needs positive values, got 0.0"),
    "nan_after_blank": ("error", "<path> line 4, column 'b': non-finite value"),
    "ragged": ("error", "<path> line 3: expected 3 fields, got 2"),
    "bad_cell_in_dropped_head": ("ok", (2, 2), "9a7519c3be107ac585b899287b5f0fe3d8428d83a51a89f3ab25ecdc8ccc8705"),
    "drop_past_end": ("error", "<path>: no data rows left after drop_head_rows"),
    "negative_drop_after_ragged": ("error", "<path> line 3: expected 3 fields, got 2"),
    "non_numeric_before_log": ("error", "<path> line 4, column 'b': non-numeric value 'eight'"),
    "negative_drop": ("error", "drop_head_rows must be nonnegative"),
    "log_clean": ("ok", (3, 2), "1af18cadd6bedce7708a5c2b81eb0eb16cb22c9b6a5de8065b54c078600e7f15"),
}


@pytest.mark.parametrize("name", sorted(PARSE_PINS))
def test_parse_outcomes_are_pinned(tmp_path, name):
    raw, config = PARSE_FILES[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(raw)
    outcome = _outcome(cli.parse_csv, str(path), config)
    if outcome[0] == "error":
        outcome = ("error", outcome[1].replace(str(path), "<path>"))
    else:
        outcome = ("ok", outcome[1], hashlib.sha256(outcome[2] + outcome[3]).hexdigest())
    assert outcome == PARSE_PINS[name]


@pytest.mark.parametrize("header, spec", [("x,y,y", "y"), ("1,x,1", "1")])
def test_a_repeated_header_name_cannot_select_a_column(tmp_path, header, spec):
    # "y" once took the first field as the response and the second as a predictor
    path = tmp_path / "twice.csv"
    path.write_text(f"{header}\n1,2,2\n2,3,3\n4,4,5\n")
    for config in (RunConfig(response_column=spec), RunConfig(predictor_columns=(spec,))):
        with pytest.raises(ValidationError, match=f"column '{spec}' names more than one field"):
            cli.parse_csv(str(path), config)
    # an index still selects one of the two
    data = cli.parse_csv(str(path), RunConfig(response_column="2", predictor_columns=("0",)))
    np.testing.assert_array_equal(data.response, [2.0, 3.0, 5.0])


@pytest.mark.parametrize("quote", ["", '"'])
@pytest.mark.parametrize("log_columns", [("x1", "x1"), ("x1", "0"), ("0", "x1")])
def test_a_log_column_listed_twice_is_an_input_error(tmp_path, quote, log_columns):
    # the column was once logged twice without a word
    path = tmp_path / "log.csv"
    path.write_text(f"x1,y\n{quote}2{quote},1\n3,2\n5,4\n9,5\n")
    with pytest.raises(ValidationError, match="log column 'x1' is listed more than once"):
        cli.parse_csv(str(path), RunConfig(response_column="y", log_columns=log_columns))
