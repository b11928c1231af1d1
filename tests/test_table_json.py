"""table --format json writes its rows from fixed templates; the bytes must
equal json.dumps(payload, indent=2) of the payload the CSV rows describe."""

import json
import shutil
from pathlib import Path

import pytest

from padicount.cli import main

DATA = Path(__file__).parent / "data"


def _table(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def _payload_from_csv(csv_text, query):
    cells, _, totals = csv_text.rstrip("\n").partition("\n\n")
    payload = {"query": query, "cells": []}
    for row in cells.splitlines()[1:]:
        e, f, krasner, classes = row.split(",")
        payload["cells"].append({"e": int(e), "f": int(f), "krasner": krasner, "classes": classes})
    if "n_max" in query:
        payload["totals"] = []
        for row in totals.splitlines()[1:]:
            n, total, from_cells = row.split(",")
            payload["totals"].append(
                {"n": int(n), "classes_total": total, "classes_from_ef": from_cells}
            )
    return payload


def _source(tmp_path, field):
    if field == "qp":
        return ["--qp", "2"], {"qp": 2}
    # a path the encoder must escape: a non-ASCII letter and a quote
    path = tmp_path / 'prøfile "q3".json'
    shutil.copy(DATA / "ramified_quadratic_q3.json", path)
    return ["--profile", str(path)], {"profile": str(path)}


@pytest.mark.parametrize("field", ["qp", "profile"])
@pytest.mark.parametrize(
    "ranges",
    [
        {"n_max": 24},  # the Q_3 profile covers v_3(n) <= 2
        {"n_max": 1},
        {"e_max": 9, "f_max": 4},
        {"e_max": 1, "f_max": 1},
    ],
)
def test_json_rows_equal_the_encoder_on_the_csv_rows(capsys, tmp_path, field, ranges):
    source, echo = _source(tmp_path, field)
    argv = ["table", *source]
    for name, value in ranges.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    csv_text = _table(capsys, argv + ["--format", "csv"])
    json_text = _table(capsys, argv + ["--format", "json"])
    query = {"command": "table", **echo, **ranges}
    assert json_text == json.dumps(_payload_from_csv(csv_text, query), indent=2) + "\n"
    if field == "profile":
        assert "\\u00f8" in json_text and '\\"q3\\"' in json_text


@pytest.mark.parametrize("ranges", [["--n-max", "12"], ["--e-max", "3", "--f-max", "5"]])
def test_json_written_to_a_file_equals_the_encoder(capsys, tmp_path, ranges):
    argv = ["table", "--qp", "3", *ranges]
    csv_text = _table(capsys, argv)
    out_path = tmp_path / "table.json"
    assert _table(capsys, argv + ["--format", "json", "--out", str(out_path)]) == ""
    names = [name.lstrip("-").replace("-", "_") for name in ranges[::2]]
    query = {"command": "table", "qp": 3, **{k: int(v) for k, v in zip(names, ranges[1::2])}}
    expected = json.dumps(_payload_from_csv(csv_text, query), indent=2) + "\n"
    assert out_path.read_text(encoding="utf-8") == expected
