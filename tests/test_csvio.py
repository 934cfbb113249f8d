from __future__ import annotations

import os
from fractions import Fraction

import numpy as np
import pytest

from sparsemv.csvio import format_cell, load_coefficients_csv, render_csv, write_csv
from sparsemv.errors import InvalidInputError


def test_format_cell_round_trip():
    assert format_cell(0.1) == repr(0.1)
    assert float(format_cell(1.0 / 3.0)) == 1.0 / 3.0
    assert format_cell(Fraction(2, 6)) == "1/3"
    assert format_cell(np.float64(0.25)) == "0.25"
    assert format_cell(7) == "7"


def test_render_csv_shape():
    text = render_csv(["a", "b"], [[1, 0.5], [2, Fraction(1, 3)]], {"cmd": "x"})
    lines = text.splitlines()
    assert lines[0] == "# config: cmd=x"
    assert lines[1] == "a,b"
    assert lines[2] == "1,0.5"
    assert lines[3] == "2,1/3"


def test_write_csv_over_longer_file_leaves_exactly_new_bytes(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"stale,row\n" * 100)
    header, rows, config = ["a", "b"], [[1, 0.5]], {"cmd": "x"}
    write_csv(path, header, rows, config)
    assert path.read_bytes() == render_csv(header, rows, config).encode("utf-8")


def test_write_csv_to_pipe():
    # a pipe cannot be truncated; the write must still succeed
    read_fd, write_fd = os.pipe()
    with os.fdopen(read_fd, "rb") as reader, os.fdopen(write_fd, "wb") as writer:
        write_csv(f"/dev/fd/{write_fd}", ["a"], [[1]], {"cmd": "x"})
        writer.close()
        assert reader.read() == b"# config: cmd=x\na\n1\n"


def test_write_and_load_coefficients(tmp_path):
    path = tmp_path / "c.csv"
    write_csv(path, ["index", "real", "imag"],
              [["0-0", 0.5, -1.0], ["0-1", 1.0, 0.0], ["1-0", 0.0, 2.0]],
              {"cmd": "demo"})
    vec = load_coefficients_csv(path)
    assert vec.domain.points == ((0, 0), (0, 1), (1, 0))
    assert vec.amplitude[0] == 0.5 - 1.0j
    assert vec.amplitude[2] == 2.0j


def test_load_coefficients_header_after_comment(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("# leading comment\nindex,real,imag\n3,1.25,0.0\n")
    vec = load_coefficients_csv(path)
    assert vec.domain.points == ((3,),)
    assert vec.amplitude[0] == 1.25


def test_load_coefficients_headerless(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("0,1.0,0.0\n1,0.5,0.5\n")
    vec = load_coefficients_csv(path)
    assert len(vec.domain) == 2


def test_load_coefficients_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,real,imag\n0,1.0\n")
    with pytest.raises(InvalidInputError):
        load_coefficients_csv(path)
    path.write_text("index,real,imag\n")
    with pytest.raises(InvalidInputError):
        load_coefficients_csv(path)
    path.write_text("0,one,0.0\n")
    with pytest.raises(InvalidInputError):
        load_coefficients_csv(path)
