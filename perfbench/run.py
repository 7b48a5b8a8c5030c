"""qgha benchmark: the products, growth and cli workloads.

Run from the repository root:

    python3 perfbench/run.py --workload products --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

With --trace 0 the run measures the end-to-end metrics with tracing off,
its times scaled to a nominal host speed (see hostspeed.py);
with --trace 1 it replays a fixed number of rounds twice in-process, first
untraced and then traced, and reports the per-layer metrics and the tracing
overhead.  Every line but the last is for people; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Each run also writes
its full record, and in traced runs its spans, under perfbench/out/.

The workloads are closed loops with one caller in one process.  A run does
whole rounds until --seconds have passed and at least MIN_OPS ops are done.
Exit code 0 when every output checked correct, 1 when one did not, 2 when
the checkout holds no qgha sources.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

MIN_OPS = 100  # three cli passes at least, so each slot's median has three samples
WALL_CAP_S = 120  # no new round starts after this, whatever MIN_OPS says
SETUP_PROBES = 7
STARTUP_PROBES = 7

# name, unit: the end-to-end metrics of every workload.  fail_ratio is printed
# here and carried by "attempted"/"failed" in the result line.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# name, unit, what it should move: the per-layer metrics of a traced run.
# A metric reads 0 on a workload that never enters that layer.
PER_LAYER = [
    ("fields.scalar_ops", "count", "ops_per_s on growth (echelon) and products"),
    ("poly.mul_calls", "count", "ops_per_s and op_p90_ms on products, growth less"),
    ("poly.mul_s", "s", "ops_per_s and op_p90_ms on products, growth less"),
    ("poly.add_s", "s", "ops_per_s and op_p90_ms on products, growth less"),
    ("poly.compose_calls", "count", "products, and the cli witness and center calls"),
    ("poly.compose_s", "s", "products, and the cli witness and center calls"),
    ("poly.mul_long_share", "ratio", "where Kronecker multiply pays: high on products, ~0 on growth"),
    ("poly.max_len", "count", "peak_rss_mb and op_p90_ms on products"),
    ("poly.max_coeff_bits", "bits", "peak_rss_mb and op_p90_ms on products"),
    ("algebra.mul_calls", "count", "ops_per_s on products and growth"),
    ("algebra.mul_self_s", "s", "ops_per_s on products and growth"),
    ("structure.gk_self_s", "s", "ops_per_s on growth only"),
    ("structure.center_s", "s", "op_p90_ms and ops_per_s on cli"),
    ("structure.witness_s", "s", "op_p90_ms and ops_per_s on cli"),
    ("rewrite.reduce_word_calls", "count", "op_p90_ms on cli (mul, deg, iota)"),
    ("rewrite.reduce_word_s", "s", "op_p90_ms on cli (mul, deg, iota)"),
    ("exprparse.parse_self_s", "s", "op_p90_ms on cli (mul, deg, iota)"),
    ("classify.iso_s", "s", "ops_per_s on cli"),
    ("classify.aut_s", "s", "ops_per_s on cli"),
    ("serial.load_s", "s", "op_p50_ms on cli"),
    ("cli.startup_ms", "ms", "op_p50_ms and setup_s on cli"),
    ("cli.run_s", "s", "op_p50_ms and setup_s on cli"),
    ("trace.op_s", "s", "traced op time, the base of the layer shares"),
    ("trace.slowdown", "x", "tracing overhead: untraced over traced in-process ops/s"),
]


def _load_workload(args):
    from workloads import WORKLOADS

    expected = json.loads(args.expect) if args.expect else None
    return WORKLOADS[args.workload](args.seed, smoke=args.smoke, expected=expected)


class Tally:
    """Latencies and check results of the ops a run attempted."""

    def __init__(self):
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.slots: list = []
        self.host_factors: list[float] = []
        self.round_rates: list[float] = []
        self.timed = 0
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(error)


def _run_op(execute, op):
    """(output, error, seconds): an op that raises counts as failed."""
    start = perf_counter()
    try:
        out = execute(op)
    except Exception:  # any crash of the program under test is a failed op
        return None, traceback.format_exc(limit=3).strip().splitlines()[-1], perf_counter() - start
    return out, None, perf_counter() - start


def _check(workload, tally: Tally, op, out, error) -> None:
    if error is None:
        try:
            error = workload.check(op, out)
        except Exception:
            error = "check raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    tally.record(error)


def measure(workload, seconds: float, min_ops: int, stick: hostspeed.Yardstick) -> Tally:
    """Whole rounds until `seconds` have passed and `min_ops` ops are done;
    each op is checked right after its timed call.  The host speed is
    sampled after every batch of ops, and afterwards each op's time is
    divided by its batch's host factor."""
    tally = Tally()
    samples = [stick.sample()]
    batches: list[tuple[int, int, list]] = []  # (round, sample before it, [(slot, raw time)])
    start = perf_counter()
    r = 0
    while True:
        ops = workload.round_ops(r)
        gc.collect()
        batch: list[tuple] = []
        for index, op in enumerate(ops):
            out, error, dt = _run_op(workload.execute, op)
            batch.append((op[0], dt))
            _check(workload, tally, op, out, error)
            if sum(t for _, t in batch) >= stick.batch_s or index == len(ops) - 1:
                batches.append((r, len(samples) - 1, batch))
                samples.append(stick.sample())
                batch = []
        tally.timed += len(ops)
        for error in workload.cross_checks(r):
            tally.record(error)
        r += 1
        elapsed = perf_counter() - start
        if elapsed >= WALL_CAP_S or (elapsed >= seconds and tally.timed >= min_ops):
            break
    busy = [0.0] * r
    counts = [0] * r
    for round_index, before, timed in batches:
        factor = stick.factor(samples, before)
        tally.host_factors.append(factor)
        for slot, t in timed:
            tally.slots.append(slot)
            tally.raw_latencies.append(t)
            tally.latencies.append(t / factor)
            busy[round_index] += t / factor
        counts[round_index] += len(timed)
    tally.round_rates = [n / b for n, b in zip(counts, busy)]
    return tally


def replay(workload, rounds, tracer=None) -> tuple[Tally, list]:
    """Run pre-built rounds in-process; outputs are checked afterwards, so
    the checks stay outside the tracer."""
    tally = Tally()
    done = []
    for ops in rounds:
        gc.collect()
        for op in ops:
            if tracer is not None:
                tracer.op = tally.timed
            out, error, dt = _run_op(workload.execute_in_process, op)
            tally.latencies.append(dt)
            tally.timed += 1
            done.append((op, out, error))
    return tally, done


def _probe(argv, ready_line: bool) -> float:
    """Wall time of one child process, from spawn until it prints its first
    line (ready_line) or exits."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline() if ready_line else ""
        elapsed = perf_counter() - start
        proc.communicate()
        if not ready_line:
            elapsed = perf_counter() - start
    if proc.returncode != 0 or line.strip() != ("ready" if ready_line else ""):
        raise RuntimeError(f"probe failed: {' '.join(argv)}")
    return elapsed


def setup_seconds(args) -> tuple[float, float]:
    """(scaled, raw) median over SETUP_PROBES set-ups, each scaled by the
    reference children run just before and after it."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    if args.smoke:
        argv.append("--smoke")
    stick = hostspeed.CHILD
    raw, samples = [], [stick.sample()]
    for _ in range(1 if args.smoke else SETUP_PROBES):
        raw.append(_probe(argv, ready_line=True))
        samples.append(stick.sample())
    scaled = [t / stick.factor(samples, k) for k, t in enumerate(raw)]
    return statistics.median(scaled), statistics.median(raw)


def _percentile_ms(latencies, which: int) -> float:
    if len(latencies) < 2:
        return latencies[0] * 1e3
    return statistics.quantiles(latencies, n=10)[which] * 1e3


def _slot_percentiles_ms(tally: Tally) -> tuple[float, float, int]:
    """(p50, p90, slots): latency percentiles over the round's slots, each
    slot's latency being its median over the rounds of the run.  Every round
    holds the same slots, so the ranks fall on the same slots in every run
    whatever the number of rounds, and one slow op moves nothing."""
    per_slot: dict = {}
    for slot, t in zip(tally.slots, tally.latencies):
        per_slot.setdefault(slot, []).append(t)
    typical = [statistics.median(times) for times in per_slot.values()]
    return statistics.median(typical) * 1e3, _percentile_ms(typical, 8), len(typical)


def yardstick(workload) -> hostspeed.Yardstick:
    return hostspeed.CHILD if workload.spawns else hostspeed.CHUNK


def end_to_end(args, workload) -> tuple[dict, Tally, list]:
    tally = measure(workload, args.seconds, 1 if args.smoke else MIN_OPS, yardstick(workload))
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    setup_s, raw_setup_s = setup_seconds(args)
    p50, p90, slots = _slot_percentiles_ms(tally)
    raw = tally.raw_latencies
    rounds = len(tally.round_rates)
    values = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(tally.round_rates),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [
        f"median of {1 if args.smoke else SETUP_PROBES} set-ups, each from process start to the first "
        f"timed op; raw {raw_setup_s:.4g} s",
        f"median of {rounds} rounds, {tally.timed} timed ops; raw {len(raw) / sum(raw):.4g} ops/s over all",
        f"over {slots} slots x {rounds} rounds, n={len(raw)}; raw median {statistics.median(raw) * 1e3:.4g} ms",
        f"over {slots} slots x {rounds} rounds, n={len(raw)}; raw p90 {_percentile_ms(raw, 8):.4g} ms",
        "max over the qgha child processes" if args.workload == "cli" else "this process",
    ]
    return values, tally, notes


def per_layer(args, workload) -> tuple[dict, Tally, list]:
    from tracing import Tracer

    count = 1 if args.smoke else workload.trace_rounds
    untraced_rounds = [workload.round_ops(r) for r in range(count)]
    traced_rounds = [workload.round_ops(r) for r in range(count)]
    untraced, done = replay(workload, untraced_rounds)
    tracer = Tracer()
    with tracer.installed():
        traced, traced_done = replay(workload, traced_rounds, tracer)
    tally = Tally()
    for op, out, error in done + traced_done:
        _check(workload, tally, op, out, error)
    tally.latencies = untraced.latencies + traced.latencies
    tally.timed = untraced.timed + traced.timed
    for r in range(count):
        for error in workload.cross_checks(r):
            tally.record(error)

    untraced_s, traced_s = sum(untraced.latencies), sum(traced.latencies)
    cli = args.workload == "cli"
    startup_ms = 0.0
    if cli:
        probes = 1 if args.smoke else STARTUP_PROBES
        argv = [sys.executable, "-c", "import qgha.cli"]
        startup_ms = 1e3 * statistics.median(_probe(argv, ready_line=False) for _ in range(probes))
    total, own, calls = tracer.total_s, tracer.self_s, tracer.calls
    values = {
        "fields.scalar_ops": tracer.scalar_ops,
        "poly.mul_calls": tracer.poly_products,
        "poly.mul_s": total["poly.mul"],
        "poly.add_s": total["poly.add"],
        "poly.compose_calls": calls["poly.compose"],
        "poly.compose_s": total["poly.compose"],
        "poly.mul_long_share": tracer.long_products / tracer.poly_products if tracer.poly_products else 0.0,
        "poly.max_len": tracer.max_len,
        "poly.max_coeff_bits": tracer.max_coeff_bits,
        "algebra.mul_calls": calls["algebra.mul"],
        "algebra.mul_self_s": own["algebra.mul"],
        "structure.gk_self_s": own["structure.gk"],
        "structure.center_s": total["structure.center"],
        "structure.witness_s": total["structure.witness"],
        "rewrite.reduce_word_calls": calls["rewrite.reduce_word"],
        "rewrite.reduce_word_s": total["rewrite.reduce_word"],
        "exprparse.parse_self_s": own["exprparse.parse"],
        "classify.iso_s": total["classify.iso"],
        "classify.aut_s": total["classify.aut"],
        "serial.load_s": total["serial.load"],
        "cli.startup_ms": startup_ms,
        "cli.run_s": untraced_s if cli else 0.0,
        "trace.op_s": traced_s,
        "trace.slowdown": traced_s / untraced_s,
    }
    kernel = values["poly.mul_s"] + values["poly.add_s"] + values["poly.compose_s"] + values["algebra.mul_self_s"]
    notes = {
        "poly.mul_long_share": f"of {tracer.poly_products} Poly x Poly products",
        "cli.run_s": f"untraced in-process cli.run over {untraced.timed} calls" if cli else "no cli calls here",
        "trace.slowdown": (
            f"traced {traced.timed / traced_s:.4g} ops/s against untraced in-process "
            f"{untraced.timed / untraced_s:.4g} ops/s"
        ),
        "trace.op_s": (
            f"{len(tracer.spans)} spans over {traced.timed} ops; poly.* + algebra.mul_self_s "
            f"cover {kernel / traced_s:.1%} of it"
        ),
    }
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json.gz"))
    return values, tally, notes


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in ("products", "growth", "cli"):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(argv).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["products", "growth", "cli", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--expect", help="JSON object replacing recorded expected values by id")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qgha", "__init__.py")):
        print(f"perfbench: no qgha sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    os.environ.pop("QGHA_CAPACITY", None)
    os.chdir(ROOT)

    workload = _load_workload(args)
    if args.setup_probe:
        workload.round_ops(0)
        workload.warm_up()
        print("ready", flush=True)
        return 0
    workload.warm_up()

    if args.trace:
        values, tally, notes = per_layer(args, workload)
        spec = [(name, unit) for name, unit, _ in PER_LAYER]
        notes = {name: notes.get(name, f"moves {moves}") for name, _, moves in PER_LAYER}
    else:
        values, tally, note_list = end_to_end(args, workload)
        spec = END_TO_END
        notes = {name: note for (name, _), note in zip(END_TO_END, note_list)}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_ops": tally.timed,
        "attempted": tally.attempted,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": _src_lines(),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    if tally.host_factors:
        factors = tally.host_factors
        stick = yardstick(workload)
        print(f"host speed: the {stick.name} reference took {statistics.median(factors):.3g}x "
              f"(range {min(factors):.3g}-{max(factors):.3g}x) its nominal {stick.nominal_s * 1e3:g} ms; "
              "op times below are divided by that factor, batch by batch (perfbench/hostspeed.py)")
    for name, unit in spec:
        print(f"{name} = {values[name]:.6g} {unit}  ({notes[name]})")
    failed = len(tally.failures)
    print(f"fail_ratio = {failed / tally.attempted:.6g} ratio  ({failed} of {tally.attempted} attempted)")
    for error in tally.failures[:10]:
        print(f"FAILED: {error}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"meta": meta, "metrics": metrics, "round_rates": tally.round_rates,
                   "host_factors": tally.host_factors, "failures": tally.failures},
                  handle, indent=1, sort_keys=True)
    result = {"correct": failed == 0, "attempted": tally.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
