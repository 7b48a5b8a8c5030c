"""Write tests/digests.json: CLI calls and the sha256 of what each prints.

    PYTHONPATH=src python tests/make_digests.py

Each entry is {"argv": [...], "cap": N or absent, "digest": "<sha256>"},
where the digest covers (exit code, stdout, stderr) of `qgha.cli.run(argv)`
with both capacity bounds set to N (the defaults when absent).  '@name' in
an argv is a file of tests/corpus/ or, failing that, of perfbench/corpus/,
and is written back as '@name' in the printed text, so no digest depends on
where the repository lives.  The calls come from a seeded generator, so a
rerun on unchanged code rewrites the same file; tests/test_digests.py
replays it.  A digest that changes is an output change.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import sys

from qgha import capacity
from qgha.cli import run

TESTS = os.path.dirname(os.path.abspath(__file__))
CORPUS_DIRS = (
    os.path.join(TESTS, "corpus"),
    os.path.join(os.path.dirname(TESTS), "perfbench", "corpus"),
)
DIGESTS = os.path.join(TESTS, "digests.json")

# every loadable algebra file of both corpus directories but three:
# q2_h2pbig_h.json has one call below, f5_q2_h5_h_image.json is replayed
# through `iso` by test_corpus_replay.py's iso-f5 row, and
# fbig_q3_h2mh_h.json through `mul` against the oracle by its fbig-split row
# and through `aut` by its aut-fbig row
ALGEBRAS_Q = [
    "q1_h2_h.json",
    "q1_h2_h_image.json",
    "q2_h2p1_h3.json",
    "q2_h3ph_h.json",
    "linear.json",
    "q0_h2_h.json",
    "q2_const_h.json",
    "qhalf_h2m1_h.json",
]
ALGEBRAS_FP = [
    "f7_q3_h2_h2ph.json",
    "f11_q2_h2_h3.json",
    "f13_q2_h2_0.json",
    "f5_q2_h5_h.json",
    "f13_q0_hp1_0.json",
    "f3_q2_h3ph_h2p1.json",
]
ALGEBRAS = ALGEBRAS_Q + ALGEBRAS_FP
# y^b x^c composes f about b + c times, so a wide f or wide coefficients get
# smaller exponents
MAX_EXPONENT = {
    "q2_h3ph_h.json": 2,
    "qhalf_h2m1_h.json": 3,
    "f3_q2_h3ph_h2p1.json": 3,
    "f5_q2_h5_h.json": 2,
}


def resolve(name: str) -> str:
    for directory in CORPUS_DIRS:
        path = os.path.join(directory, name)
        if os.path.exists(path):
            return path
    return os.path.join(CORPUS_DIRS[-1], name)


def digest(argv, cap=None) -> str:
    """sha256 of (exit code, stdout, stderr) of one in-process call."""
    paths = {arg: resolve(arg[1:]) for arg in argv if arg.startswith("@")}
    saved = capacity.DEGREE_CAP, capacity.SEARCH_CAP
    if cap is None:
        capacity.DEGREE_CAP = capacity.DEFAULT_DEGREE_CAP
        capacity.SEARCH_CAP = capacity.DEFAULT_SEARCH_CAP
    else:
        capacity.DEGREE_CAP = capacity.SEARCH_CAP = cap
    try:
        result = run([paths.get(arg, arg) for arg in argv])
    finally:
        capacity.DEGREE_CAP, capacity.SEARCH_CAP = saved
    stderr = result.note + (result.error + "\n" if result.error else "")
    texts = [result.payload, stderr]
    for arg, path in paths.items():
        texts = [text.replace(path, arg) for text in texts]
    blob = json.dumps([result.exit_code, *texts])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _scalar(rng: random.Random) -> str:
    num = rng.choice([1, 1, 2, 3, 5, 7])
    text = str(num) if rng.random() < 0.6 else f"{num}/{rng.choice([2, 3, 4, 9])}"
    return "-" + text if rng.random() < 0.4 else text


def _factor(rng: random.Random, top: int) -> str:
    if rng.random() < 0.15:
        inner = "+".join(rng.sample("xyh", rng.randint(2, 3)))
        return f"({inner})"
    letter = rng.choice("xyh")
    exponent = rng.choice([1, 1, 1, *range(2, top + 1)])
    return letter if exponent == 1 else f"{letter}^{exponent}"


def _expr(rng: random.Random, top: int, size: int = 3) -> str:
    """1..size terms, each an optional scalar times 1..size factors whose
    exponents are at most top."""
    terms = []
    for _ in range(rng.randint(1, size)):
        factors = [_factor(rng, top) for _ in range(rng.randint(1, size))]
        if rng.random() < 0.7:
            factors.insert(0, _scalar(rng))
        terms.append("*".join(factors))
    out = terms[0]
    for term in terms[1:]:
        out += (" - " if rng.random() < 0.3 else " + ") + term
    return out


def _yx_word(rng: random.Random, top: int) -> tuple[str, str]:
    """A product y^b p(h) * x^c p'(h), which straightens through y^b x^c."""
    b, c = rng.randint(1, top), rng.randint(1, top)
    left = f"y^{b}*h^{rng.randint(0, 2)}" if rng.random() < 0.5 else f"y^{b}"
    right = f"x^{c}*h" if rng.random() < 0.5 else f"x^{c}"
    return left, right


def expression_calls(rng: random.Random):
    calls = []
    for name in ALGEBRAS:
        at, top = "@" + name, MAX_EXPONENT.get(name, 4)
        for _ in range(12):
            calls.append(["mul", at, _expr(rng, top), _expr(rng, top)])
        for _ in range(6):
            calls.append(["mul", at, *_yx_word(rng, top)])
        for _ in range(4):
            calls.append([rng.choice(["deg", "iota"]), at, _expr(rng, 4)])
        # the rewriting oracle expands every word, so its operands stay short
        calls.append(["mul", at, _expr(rng, 2, 2), _expr(rng, 2, 2), "--oracle"])
    return calls


def subcommand_calls():
    calls = []
    for name in ALGEBRAS:
        at = "@" + name
        calls += [
            ["analyze", at],
            ["center", at],
            ["aut", at],
            ["noeth-witness", at],
            ["noeth-witness", at, "--depth", "2"],
            ["gk", at, "--max-n", "4"],
            ["convert", "--to-gdua", at],
        ]
    for left, right in itertools.product(ALGEBRAS, repeat=2):
        calls.append(["iso", "@" + left, "@" + right])
    for field, minus_one, minus_two in (("Q", "-1", "-2"), ("Fp:5", "4", "3"), ("Fp:7", "6", "5")):
        for alpha, beta, gamma in itertools.product(["0", "1", "2"], [minus_one, "0", "3"], ["0", "1"]):
            calls.append(["convert", "--from-downup", alpha, beta, gamma, "--field", field])
        for alpha, beta in (("2", minus_one), ("3", minus_two)):
            calls.append(["convert", "--from-downup", alpha, beta, "1", "--field", field, "--choice", "1"])
        for v, r, s, gamma in itertools.product(
            ["0,0,1", "1," + minus_one, "0"], ["1", "2"], ["1", minus_one], ["0", "3"]
        ):
            calls.append(["convert", "--from-gdua", v, r, s, gamma, "--field", field])
    calls.append(["convert", "--from-gdua", "1,1/2", "-5/2", "1/3", "-1"])
    # f = h^2 + 10^1999: the answer's coefficients pass 4300 digits
    calls.append(["mul", "@q2_h2pbig_h.json", "h", "x^3"])
    return calls


# (argv, capacity bound or None): usage (1), input (2), regime (3) and
# capacity (4) exits.  No input reaches exit 5; tests/test_cli.py injects it.
ERROR_CALLS = [
    (["mul", "@q1_h2_h.json", "x"], None),
    (["gk", "@q1_h2_h.json"], None),
    (["gk", "@q1_h2_h.json", "--max-n", "-1"], None),
    (["gk", "@q1_h2_h.json", "--max-n", "two"], None),
    (["noeth-witness", "@q1_h2_h.json", "--depth", "0"], None),
    (["convert", "--from-downup", "1", "1", "1", "--field", "R"], None),
    (["convert", "--from-downup", "1", "1", "1", "--field", "Fp:x"], None),
    (["convert", "--from-downup", "0", "1", "0", "--choice", "5"], None),
    (["convert", "--from-gdua", "0,1", "1", "1"], None),
    (["analyze", "@q1_h2_h.json", "--unknown"], None),
    (["analyze", "@malformed.json"], None),
    (["analyze", "@missing.json"], None),
    (["analyze", "@bad_schema.json"], None),
    (["analyze", "@not_prime.json"], None),
    (["analyze", "@bad_residue.json"], None),
    (["deg", "@q1_h2_h.json", "x**2"], None),
    (["deg", "@q1_h2_h.json", "x+"], None),
    (["deg", "@q1_h2_h.json", "x$y"], None),
    (["deg", "@q1_h2_h.json", "((x)"], None),
    (["deg", "@q1_h2_h.json", "x^-1"], None),
    (["deg", "@q1_h2_h.json", "x/2"], None),
    (["mul", "@f7_q3_h2_h2ph.json", "1/7*x", "y"], None),
    (["mul", "@q1_h2_h.json", "1/0*x", "y"], None),
    (["convert", "--from-downup", "1", "1", "0", "--field", "Fp:4"], None),
    (["convert", "--from-downup", "0", "1/2", "0", "--field", "Fp:7"], None),
    (["convert", "--from-gdua", "0,1", "1", "1", "x"], None),
    (["convert", "--from-downup", "0", "-1", "0"], None),
    (["deg", "@q1_h2_h.json", "(x+y+h)^9"], None),
    (["deg", "@q1_h2_h.json", "(x+y)^5"], 20),
    (["gk", "@q1_h2_h.json", "--max-n", "9"], 8),
    (["gk", "@q1_h2_h.json", "--max-n", "8"], 8),
    (["mul", "@q2_h2p1_h3.json", "h^3", "x^6"], 100),
    (["mul", "@q2_h2p1_h3.json", "y^6", "x"], 50),
    (["noeth-witness", "@q1_h2_h.json", "--depth", "6"], 10),
    (["analyze", "@q2_h3ph_h.json"], 30),
    (["center", "@f13_q2_h2_0.json"], 10),
    (["aut", "@f3_q2_h3ph_h2p1.json"], 2),
    (["analyze", "@f11_q2_h2_h3.json"], 5),
    (["iso", "@f7_q3_h2_h2ph.json", "@f7_q3_h2_h2ph.json"], 3),
]


def all_calls():
    rng = random.Random("qgha-digests")
    calls = [(argv, None) for argv in expression_calls(rng) + subcommand_calls()]
    return calls + ERROR_CALLS


def main() -> int:
    entries = []
    for argv, cap in all_calls():
        entry = {"argv": argv}
        if cap is not None:
            entry["cap"] = cap
        entry["digest"] = digest(argv, cap)
        entries.append(entry)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        handle.write("[\n")
        handle.write(",\n".join(json.dumps(entry) for entry in entries))
        handle.write("\n]\n")
    print(f"{len(entries)} calls written to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
