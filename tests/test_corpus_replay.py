"""Replay every recorded CLI output and every fast-path/oracle pair in-process.

Each check is one row, with a one-line reason; a new check is one more row.

- OUTPUTS: `qgha.cli.run(argv)` must exit 0 and print expected/<id>.out
  byte for byte.  The rows are the fixed entries of
  perfbench/corpus/cli.json that exit 0 and carry no `words` (their files
  are in perfbench/corpus/expected/), then EXTRA_OUTPUTS (files in
  tests/corpus/expected/).
- ORACLE_PAIRS: `mul` of two operands must exit 0 and print the same on
  the fast path as through the rewriting oracle (`--oracle`).

'@name' in an argv, and expected/<id>.out, resolve through
`make_digests.resolve`: tests/corpus/ first, then perfbench/corpus/.
"""

import glob
import json
import os
from collections import Counter

import pytest

from make_digests import CORPUS_DIRS, resolve
from qgha import capacity
from qgha.cli import run

EXTRA_OUTPUTS = [
    {"id": "iso-f5", "argv": ["iso", "@f5_q2_h5_h.json", "@f5_q2_h5_h_image.json"],
     "why": "every psi fixes h^5 over F_5, so the relations reject (1, 0) before they accept (1, 1, 3)"},
    {"id": "gk-f11-n8", "argv": ["gk", "@f11_q2_h2_h3.json", "--max-n", "8"],
     "why": "the F_p echelon (residues kept as inserted), over F_11"},
    {"id": "gk-qhalf-n7", "argv": ["gk", "@qhalf_h2m1_h.json", "--max-n", "7"],
     "why": "the Q echelon on rows with denominators: q = -1/2, g = 3 + h/2"},
    {"id": "iota-signs", "argv": ["iota", "@qhalf_h2m1_h.json",
                                  "-3/4*x^2*h*y - -2*y + x*-h + (-1/3)^2*h"],
     "why": "a leading '-' on numbers, letters and '(', and '-' after '-' and '*'"},
]


def _outputs():
    with open(os.path.join(CORPUS_DIRS[-1], "cli.json"), encoding="utf-8") as handle:
        fixed = json.load(handle)["fixed"]
    recorded = [entry for entry in fixed if entry["exit"] == 0 and "words" not in entry]
    return recorded + EXTRA_OUTPUTS


OUTPUTS = _outputs()

# (id, algebra, left, right, why)
ORACLE_PAIRS = [
    ("f7-packed", "@f7_q3_h2_h2ph.json", "y^4*h^3", "x^4*h",
     "reaches packed (Kronecker) products over F_7"),
    ("q2-packed", "@q2_h2p1_h3.json", "y^3*h", "x^3",
     "reaches packed (Kronecker) products over Q"),
    ("f13-g0", "@f13_q2_h2_0.json", "y^3*h", "x^3",
     "y^b x^c with g = 0 over F_13"),
    ("linear", "@linear.json", "y^3", "x^3*h",
     "y^b x^c with a linear f over Q"),
    ("q2-multiterm", "@q2_h2p1_h3.json", "x*h*y^2 + 1/2*y^2 + x^2*y", "x^2*h + y*x - 3*x*y^2",
     "multi-term operands whose right terms are summed before they multiply"),
    ("f5-h5", "@f5_q2_h5_h.json", "y^2*h^3 + x*y", "x^2*h + x - y",
     "the monomial inner h^5 over F_5"),
    ("q1-denominators", "@q1_h2_h.json", "1/2*y^3*h + x", "x^3*h^2 - 2/3*y",
     "the monomial inner h over Q (f = h^2), on operands with denominators"),
    ("fbig-split", "@fbig_q3_h2mh_h.json", "y^3*h^2", "x^3*h",
     "f = h^2 - h over F_(2^61 - 1): the residue 2^61 - 2 makes the widest lanes, "
     "so outers of 5 to 9 coefficients split at leaf 4"),
    ("qhalf-shift", "@qhalf_h2m1_h.json", "y^3*h^2", "x^3*h",
     "f = h^2 - 1 over Q with g = 3 + h/2: Taylor shifts by the linear inner h - 1, "
     "on shift-and-add packed leaves"),
    ("q2-period2", "@q2_1mh_h.json", "y^3*h^2 + x*y", "x^3*h - y",
     "f = 1 - h over Q: sigma has period 2, so the sigma memo maps h -> 1 - h -> h "
     "and a walk returns to where it started"),
    ("qhalf-one-coefficient", "@qhalf_h2m1_h.json", "3/2*y^2*h + x", "1/3*x^2*h - y",
     "one-coefficient operands (scaled copies in _int_conv) and sums over the unequal "
     "Q denominators of 3/2 and 1/3"),
    ("qhalf-signs", "@qhalf_h2m1_h.json", "-3/2*y^2*h - x", "x^2*-h + (-1/3)*y",
     "negative literals: signed fractions and '-' after '*' and inside '('"),
]


@pytest.fixture(autouse=True)
def default_capacity(monkeypatch):
    monkeypatch.setattr(capacity, "DEGREE_CAP", capacity.DEFAULT_DEGREE_CAP)
    monkeypatch.setattr(capacity, "SEARCH_CAP", capacity.DEFAULT_SEARCH_CAP)


def _expected(row_id: str) -> str:
    return resolve(os.path.join("expected", row_id + ".out"))


def _run(argv):
    return run([resolve(arg[1:]) if arg.startswith("@") else arg for arg in argv])


def test_every_recorded_output_has_one_row():
    rows = Counter(_expected(row["id"]) for row in OUTPUTS)
    recorded = {
        path
        for directory in CORPUS_DIRS
        for path in glob.glob(os.path.join(directory, "expected", "*.out"))
    }
    assert sorted(path for path in rows if not os.path.exists(path)) == []
    assert {path: n for path, n in rows.items() if n > 1} == {}
    assert sorted(recorded - rows.keys()) == []


@pytest.mark.parametrize("row", OUTPUTS, ids=[row["id"] for row in OUTPUTS])
def test_cli_corpus_output(row):
    with open(_expected(row["id"]), encoding="utf-8") as handle:
        expected = handle.read()
    result = _run(row["argv"])
    assert result.exit_code == 0
    assert result.payload == expected


@pytest.mark.parametrize(
    "algebra, left, right", [row[1:4] for row in ORACLE_PAIRS], ids=[row[0] for row in ORACLE_PAIRS]
)
def test_fast_path_matches_oracle(algebra, left, right):
    fast = _run(["mul", algebra, left, right])
    oracle = _run(["mul", algebra, left, right, "--oracle"])
    assert fast.exit_code == oracle.exit_code == 0
    assert fast.payload == oracle.payload
