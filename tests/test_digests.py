"""Replay tests/digests.json: every CLI call prints what it printed when the
digests were recorded.

tests/make_digests.py wrote the list; each entry's digest is the sha256 of
(exit code, stdout, stderr) of one in-process `cli.run`.  A changed digest
is an output change, and the first argv that differs is named.
"""

import json

from make_digests import DIGESTS, digest


def test_cli_outputs_match_recorded_digests():
    with open(DIGESTS, encoding="utf-8") as handle:
        entries = json.load(handle)
    assert len(entries) > 700
    for entry in entries:
        cap = entry.get("cap")
        assert digest(entry["argv"], cap) == entry["digest"], (entry["argv"], cap)
