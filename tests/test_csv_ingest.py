"""The one-pass CSV reader against the row-by-row reader it defers to."""

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
    return ("ok", data.design.shape, data.design.tobytes(), data.response.tobytes())


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
    assert _outcome(cli.parse_csv, path, config) == _outcome(cli._parse_rows, path, config)


def test_clean_numeric_file_takes_the_bulk_path(tmp_path, monkeypatch):
    clean = tmp_path / "clean.csv"
    clean.write_bytes(b"a,b,y\r\n9,9,9\r\n1.5, 2 ,3\r\n\r\n2.5e-3,-0,4\r\n7,1e300,5")
    quoted = tmp_path / "quoted.csv"
    quoted.write_text('a,b,y\n"1",2,3\n4,5,6\n')
    config = RunConfig(response_column="y", log_columns=("a",), drop_head_rows=1)
    expected = cli._parse_rows(str(clean), config)

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
