"""Replay the benchmark's fixed CLI corpus in-process.

Each `fixed` entry of perfbench/corpus/cli.json that has a recorded
expected/<id>.out must exit with its recorded code and print that file
byte for byte.  '@name' in an argv names a file of the corpus directory.
"""

import json
import os

import pytest

from qgha import capacity
from qgha.cli import run

CORPUS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "corpus")


def _entries():
    with open(os.path.join(CORPUS, "cli.json"), encoding="utf-8") as handle:
        fixed = json.load(handle)["fixed"]
    return [
        entry
        for entry in fixed
        if os.path.exists(os.path.join(CORPUS, "expected", entry["id"] + ".out"))
    ]


ENTRIES = _entries()


def test_corpus_has_recorded_outputs():
    assert len(ENTRIES) == 14


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry["id"] for entry in ENTRIES])
def test_cli_corpus_output(entry, monkeypatch):
    monkeypatch.setattr(capacity, "DEGREE_CAP", capacity.DEFAULT_DEGREE_CAP)
    monkeypatch.setattr(capacity, "SEARCH_CAP", capacity.DEFAULT_SEARCH_CAP)
    argv = [
        os.path.join(CORPUS, arg[1:]) if arg.startswith("@") else arg
        for arg in entry["argv"]
    ]
    with open(
        os.path.join(CORPUS, "expected", entry["id"] + ".out"), encoding="utf-8"
    ) as handle:
        expected = handle.read()
    result = run(argv)
    assert result.exit_code == entry["exit"]
    assert result.payload == expected
