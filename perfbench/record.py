"""Record the expected values the benchmark compares against.

Writes corpus/growth_pool.json (the growth presentations with their gk
dimensions at the horizon) and corpus/expected/<id>.out (stdout of each
fixed cli entry that has no expected product of its own).  Run it from the
repository root on the kernel the values should come from:

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import qgha  # noqa: E402
import qgha.cli  # noqa: E402
from workloads import CORPUS, _coeff, resolve_argv  # noqa: E402

HORIZON = 5
# Per field, three presentations of each deg g in {-inf, 0, 1, 2, 3}: 45 in
# all, each a slot of the growth latency percentiles.
PER_FIELD = 15
FIELDS = [("Q", None), ("F7", 7), ("F17", 17)]


def _presentation(rng, p, deg_g: int) -> qgha.AlgebraParams:
    """deg f = 2, q != 0 and the given deg g (-1 for g = 0)."""
    field = qgha.FieldSpec(p)
    f = [_coeff(rng, field), _coeff(rng, field), _coeff(rng, field, nonzero=True)]
    g = [_coeff(rng, field) for _ in range(deg_g)] + [_coeff(rng, field, nonzero=True)] if deg_g >= 0 else []
    q = _coeff(rng, field, nonzero=True)
    return qgha.AlgebraParams(field, q, qgha.Poly(f, field), qgha.Poly(g, field))


def record_growth_pool() -> None:
    rng = random.Random("growth-pool")
    entries = []
    for tag, p in FIELDS:
        for n in range(PER_FIELD):
            algebra = _presentation(rng, p, n % 5 - 1)
            dims = qgha.gk_dimension_sequence(algebra, HORIZON).dims
            entries.append({
                "id": f"{tag}-{n}",
                "algebra": qgha.algebra_to_dict(algebra),
                "dims": list(dims),
            })
    doc = {
        "about": "growth workload pool: deg f = 2, deg g <= 3, q != 0 over Q (coefficients in [-3, 3]), F_7 and F_17; dims are gk_dimension_sequence at the horizon, recorded from this kernel",
        "horizon": HORIZON,
        "entries": entries,
    }
    with open(os.path.join(CORPUS, "growth_pool.json"), "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")


def record_cli_outputs() -> None:
    os.makedirs(os.path.join(CORPUS, "expected"), exist_ok=True)
    with open(os.path.join(CORPUS, "cli.json"), encoding="utf-8") as handle:
        fixed = json.load(handle)["fixed"]
    for entry in fixed:
        if entry["exit"] != 0 or "words" in entry:
            continue
        result = qgha.cli.run(resolve_argv(entry["argv"]))
        if result.exit_code != 0:
            raise SystemExit(f"{entry['id']}: exit code {result.exit_code}: {result.error}")
        with open(os.path.join(CORPUS, "expected", entry["id"] + ".out"), "w", encoding="utf-8") as handle:
            handle.write(result.payload)


if __name__ == "__main__":
    os.chdir(ROOT)
    record_growth_pool()
    record_cli_outputs()
