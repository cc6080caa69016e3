import math

import numpy as np
import pytest

from kslab import files


def test_csv_cells(tmp_path):
    path = tmp_path / "t.csv"
    files.write_csv(path, ["a", "b", "c", "d", "e"],
                    [[0.1, None, "no solution", 1, np.float64(1 / 3)],
                     [math.nan, -0.0, "x,y", 0, 1e-300]])
    # RFC-4180 line ends and quoting
    assert path.read_bytes() == (b"a,b,c,d,e\r\n"
                                 b"0.10000000000000001,nan,no solution,1,0.33333333333333331\r\n"
                                 b'nan,-0,"x,y",0,1e-300\r\n')


def test_csv_flag_must_be_an_int(tmp_path):
    with pytest.raises(TypeError, match="0 or 1"):
        files.write_csv(tmp_path / "t.csv", ["ok"], [[True]])


def test_json_layout_and_numpy_values(tmp_path):
    # np.float64 is a float; no other numpy value is written
    path = tmp_path / "t.json"
    files.write_json(path, {"b": np.float64(0.5), "a": [2, [0.0, 1.0]]})
    assert path.read_text() == '{\n "a": [\n  2,\n  [\n   0.0,\n   1.0\n  ]\n ],\n "b": 0.5\n}\n'
    for value in (object(), np.int64(2), np.arange(2.0)):
        with pytest.raises(TypeError):
            files.write_json(path, {"x": value})
