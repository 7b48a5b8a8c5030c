"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import hostspeed  # noqa: E402
import run  # noqa: E402

RUN = os.path.join("perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def smoke(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_by_name_with_its_unit(workload, trace):
    code, text, result = smoke(workload, trace)
    assert code == 0, text
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        prefix = f"{metric['name']} = "
        assert any(line.startswith(prefix) and f" {metric['unit']}  (" in line for line in text), metric
    assert any(line.startswith("fail_ratio = 0 ratio") for line in text)
    assert any(line.startswith("meta ") and '"src_lines"' in line for line in text)


def _fail_ratio(text):
    line = next(line for line in text if line.startswith("fail_ratio = "))
    return float(line.split()[2])


def test_wrong_expected_stdout_counts_in_fail_ratio():
    wrong = json.dumps({"analyze-deg2": "domain: maybe\n"})
    code, text, result = smoke("cli", 0, "--expect", wrong)
    assert code == 1
    assert not result["correct"] and result["failed"] == 1
    assert _fail_ratio(text) == pytest.approx(1 / result["attempted"])


def test_wrong_recorded_dims_count_in_fail_ratio():
    with open(os.path.join(ROOT, "perfbench", "corpus", "growth_pool.json"), encoding="utf-8") as handle:
        pool = json.load(handle)
    wrong = json.dumps({e["id"]: [1, 4, 12, 31, 67, 140, 277] for e in pool["entries"]})
    code, text, result = smoke("growth", 0, "--expect", wrong)
    assert code == 1
    assert result["failed"] == result["attempted"] >= 1
    assert _fail_ratio(text) == 1.0


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "products", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_factor_averages_the_samples_either_side_of_a_batch():
    stick = hostspeed.Yardstick("test", None, nominal_s=2.0, batch_s=1.0, window=2)
    samples = [1.0, 2.0, 4.0, 6.0, 8.0]
    assert stick.factor(samples, 0) == pytest.approx((1 + 2 + 4) / 3 / 2)
    assert stick.factor(samples, 2) == pytest.approx((2 + 4 + 6 + 8) / 4 / 2)
    assert hostspeed.chunk_seconds() > 0 and hostspeed.child_seconds() > 0


def test_percentiles_are_taken_over_slot_medians():
    tally = run.Tally()
    # ten slots with latencies 1..10 ms, three rounds, one slow outlier
    for r in range(3):
        for slot in range(10):
            tally.slots.append(slot)
            tally.latencies.append((slot + 1) * 1e-3 * (50 if (r, slot) == (1, 0) else 1))
    p50, p90, slots = run._slot_percentiles_ms(tally)
    assert slots == 10
    assert p50 == pytest.approx(5.5)
    assert p90 == pytest.approx(9.9)
