"""The benchmark's workloads: products, growth and cli.

Each workload draws its inputs from the run seed and hands qgha only those
inputs.  Work is done in rounds whose inputs come from a generator seeded by
(workload, seed, round), so a traced run can replay the same rounds.  Every
round holds the same slots, and the first item of an op is its slot: the
latency percentiles are taken over the slots.  Every op's output is checked
outside the timed region; `check` returns None for a correct output and a
message otherwise.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys

import qgha
import qgha.cli
from qgha import AlgebraParams, Element, FieldSpec, FreeWord, Poly, algebra_from_dict

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")
CLI_ENTRY = "import sys; from qgha.cli import main; sys.exit(main())"


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _coeff(rng: random.Random, field: FieldSpec, nonzero: bool = False) -> int:
    if field.is_rationals:
        return rng.choice([-3, -2, -1, 1, 2, 3] if nonzero else range(-3, 4))
    return rng.randint(1 if nonzero else 0, field.p - 1)


def _algebra(p, q, f, g) -> AlgebraParams:
    field = FieldSpec(p)
    return AlgebraParams(field, q, Poly(f, field), Poly(g, field))


# ---------------------------------------------------------------- products

# The four criterion-2 presentations: (p or None for Q, q, f, g), ascending in h.
PRODUCT_PRESENTATIONS = [
    (None, 1, [0, 0, 1], [0, 1]),
    (None, 2, [1, 0, 1], [0, 0, 0, 1]),
    (7, 3, [0, 0, 1], [0, 1, 1]),
    (17, 3, [0, 0, 1], []),
]
# Triples in one round, dealt to the presentations in turn.  The shapes
# (support, exponents and h-degrees) are drawn once from a fixed generator,
# so every round and every seed does the same mix of small and huge
# products; the run seed draws the coefficients and the order.  Random shapes
# per run would let a few seconds-long triples decide ops_per_s.  Each
# template triple is a slot of the latency percentiles.
TRIPLES_PER_ROUND = 45


def _draw_shape(rng, max_support: int, max_exp: int, max_deg: int) -> list:
    cells = [(i, k) for i in range(max_exp + 1) for k in range(max_exp + 1)]
    positions = rng.sample(cells, rng.randint(1, max_support))
    return [(i, k, rng.randint(0, max_deg)) for i, k in positions]


def _element(rng, algebra: AlgebraParams, shape) -> Element:
    field = algebra.field
    terms = {}
    for i, k, degree in shape:
        coeffs = [_coeff(rng, field) for _ in range(degree)]
        coeffs.append(_coeff(rng, field, nonzero=True))
        terms[(i, k)] = Poly(coeffs, field)
    return Element(algebra, terms)


class Products:
    """Op: (slot, algebra, a, b, c); computes (a*b)*c and a*(b*c).  The slot
    is the triple's place in the shape template."""

    name = "products"
    spawns = False  # ops run in this process
    trace_rounds = 2

    def __init__(self, seed: int, smoke: bool = False, expected: dict | None = None):
        self.seed = seed
        self.algebras = [_algebra(*spec) for spec in PRODUCT_PRESENTATIONS]
        shape_rng = random.Random("products-shapes")
        count = len(self.algebras) if smoke else TRIPLES_PER_ROUND
        self.template = [
            (t % len(self.algebras), [_draw_shape(shape_rng, 3, 3, 3) for _ in range(3)])
            for t in range(count)
        ]

    def warm_up(self) -> None:
        # fills each presentation's y^b x^c and Gamma memos up to b, c = 3
        for algebra in self.algebras:
            one_plus_h = Poly([1, 1], algebra.field)
            e = Element(algebra, {(0, 3): one_plus_h, (3, 0): one_plus_h})
            self.execute((None, algebra, e, e, e))

    def round_ops(self, r: int) -> list:
        rng = _rng(self.name, self.seed, r)
        ops = []
        for slot, (index, shapes) in enumerate(self.template):
            algebra = self.algebras[index]
            ops.append((slot, algebra, *(_element(rng, algebra, s) for s in shapes)))
        rng.shuffle(ops)
        return ops

    def execute(self, op):
        _, _, a, b, c = op
        ab = a * b
        return ab, ab * c, a * (b * c)

    execute_in_process = execute

    def check(self, op, out):
        _, _, a, b, c = op
        ab, left, right = out
        if left != right:
            return "(a*b)*c != a*(b*c)"
        (ia, ka), (ib, kb), (ic, kc) = a.deg_lex(), b.deg_lex(), c.deg_lex()
        if ab.deg_lex() != (ia + ib, ka + kb) or left.deg_lex() != (ia + ib + ic, ka + kb + kc):
            return "deg_lex is not additive"
        return None

    def cross_checks(self, r: int):
        """One small product per presentation against the rewriting oracle."""
        rng = _rng(self.name, "oracle", self.seed, r)
        for algebra in self.algebras:
            a = _element(rng, algebra, _draw_shape(rng, 2, 2, 3))
            b = _element(rng, algebra, _draw_shape(rng, 2, 2, 3))
            if a * b != qgha.oracle_multiply(a, b):
                yield f"fast product differs from oracle_multiply over {algebra}"
            else:
                yield None


# ------------------------------------------------------------------ growth


def _rank_dims(algebra: AlgebraParams, top: int) -> tuple:
    """dim V^n for n <= top as the rank of the reduce_word normal forms of
    all words of length <= n: independent of the gk echelon and of the fast
    multiplication path."""
    p = algebra.field.p
    basis: dict = {}
    dims = []
    for n in range(top + 1):
        for letters in itertools.product("xyh", repeat=n):
            element = qgha.reduce_word("".join(letters), algebra)
            vec = {
                (i, j, k): c.value
                for (i, k), poly in element.terms.items()
                for j, c in enumerate(poly.coeffs)
                if c.value
            }
            while vec:
                pivot = max(vec)
                row = basis.get(pivot)
                if row is None:
                    inv = pow(vec[pivot], -1, p) if p else 1 / vec[pivot]
                    basis[pivot] = {m: (v * inv) % p if p else v * inv for m, v in vec.items()}
                    break
                factor = vec[pivot]
                for m, v in row.items():
                    nv = vec.get(m, 0) - factor * v
                    if p:
                        nv %= p
                    if nv:
                        vec[m] = nv
                    else:
                        vec.pop(m, None)
        dims.append(len(basis))
    return tuple(dims)


class Growth:
    """Op: one gk_dimension_sequence(A, n) call on a fresh presentation."""

    name = "growth"
    spawns = False  # ops run in this process
    trace_rounds = 1

    def __init__(self, seed: int, smoke: bool = False, expected: dict | None = None):
        self.seed = seed
        with open(os.path.join(CORPUS, "growth_pool.json"), encoding="utf-8") as handle:
            pool = json.load(handle)
        self.horizon = 4 if smoke else pool["horizon"]
        overrides = expected or {}
        self.entries = {
            e["id"]: (e["algebra"], tuple(overrides.get(e["id"], e["dims"]))) for e in pool["entries"]
        }
        self._independent: dict = {}

    def warm_up(self) -> None:
        first = next(iter(self.entries))
        self.execute((first, algebra_from_dict(self.entries[first][0])))

    def round_ops(self, r: int) -> list:
        # Every pool entry once per round, in seeded order: per-entry cost
        # spans a factor of ten, so a seeded subset would move the percentiles.
        ids = list(self.entries)
        _rng(self.name, self.seed, r).shuffle(ids)
        return [(i, algebra_from_dict(self.entries[i][0])) for i in ids]

    def execute(self, op):
        return qgha.gk_dimension_sequence(op[1], self.horizon).dims

    execute_in_process = execute

    def check(self, op, dims):
        entry_id = op[0]
        recorded = self.entries[entry_id][1][: self.horizon + 1]
        if dims != recorded:
            return f"{entry_id}: dims {dims} differ from the recorded {recorded}"
        if entry_id not in self._independent:
            fresh = algebra_from_dict(self.entries[entry_id][0])
            self._independent[entry_id] = _rank_dims(fresh, min(4, self.horizon))
        independent = self._independent[entry_id]
        if dims[: len(independent)] != independent:
            return f"{entry_id}: dims {dims} differ from the word ranks {independent}"
        return None

    def cross_checks(self, r: int):
        return ()


# --------------------------------------------------------------------- cli


def corpus_path(name: str) -> str:
    return os.path.relpath(os.path.join(CORPUS, name))


def resolve_argv(argv) -> list:
    """Replace each '@name' argument by the path of that corpus file."""
    return [corpus_path(a[1:]) if a.startswith("@") else a for a in argv]


def _expand(terms) -> list:
    """Words of a sum of terms; a term is a product of positions, a position
    a sum of letters."""
    return ["".join(w) for term in terms for w in itertools.product(*term)]


def _render(terms) -> str:
    out = []
    for c, word in terms:
        body = "*".join(word)
        if not out:
            # a leading '-' would read as a command-line option
            out.append(f"({c})*{body}" if c < 0 else f"{c}*{body}")
        elif c < 0:
            out.append(f" - {-c}*{body}")
        else:
            out.append(f" + {c}*{body}")
    return "".join(out)


def _random_terms(rng, field: FieldSpec) -> list:
    return [
        (_coeff(rng, field, nonzero=True), "".join(rng.choice("xyh") for _ in range(rng.randint(1, 3))))
        for _ in range(rng.randint(1, 3))
    ]


def _free_words(terms, algebra: AlgebraParams) -> list:
    return [FreeWord(algebra.field.scalar(c), w) for c, w in terms]


def _format_deg(element: Element) -> str:
    if element.is_zero():
        return "(-inf, -inf)\n"
    i, k = element.deg_lex()
    return f"({i}, {k})\n"


class Cli:
    """Op: one `qgha ...` call; the corpus runs once per round (a pass)."""

    name = "cli"
    spawns = True  # each op starts a process
    trace_rounds = 1

    def __init__(self, seed: int, smoke: bool = False, expected: dict | None = None):
        self.seed = seed
        with open(os.path.join(CORPUS, "cli.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        self.random_spec = spec["random"]
        self.random_per_pass = 2 if smoke else self.random_spec["ops_per_pass"]
        self.env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qgha.__file__)))
        self.env.pop("QGHA_CAPACITY", None)
        overrides = expected or {}
        self._words: dict = {}
        self._products: dict = {}
        self.fixed = []
        for entry in spec["fixed"]:
            if smoke and entry.get("heavy"):
                continue
            argv = resolve_argv(entry["argv"])
            if entry["id"] in overrides:
                stdout = overrides[entry["id"]]
            elif "words" in entry:
                stdout = None  # built on first check: it costs as much as the call
                self._words[entry["id"]] = (argv[1], entry["words"])
            elif entry["exit"] != 0:
                stdout = ""
            else:
                with open(os.path.join(CORPUS, "expected", entry["id"] + ".out"), encoding="utf-8") as handle:
                    stdout = handle.read()
            self.fixed.append((entry["id"], argv, entry["exit"], stdout))

    def warm_up(self) -> None:
        self.execute(self.fixed[0])

    def _random_op(self, rng, n: int):
        command = rng.choice(self.random_spec["commands"])
        path = corpus_path(rng.choice(self.random_spec["algebras"]))
        algebra = qgha.load_algebra(path)
        first = _random_terms(rng, algebra.field)
        if command == "mul":
            second = _random_terms(rng, algebra.field)
            words = [FreeWord(u.coeff * v.coeff, u.letters + v.letters)
                     for u in _free_words(first, algebra) for v in _free_words(second, algebra)]
            argv = ["mul", path, _render(first), _render(second)]
            stdout = f"{qgha.reduce_word(words, algebra)}\n"
        else:
            element = qgha.reduce_word(_free_words(first, algebra), algebra)
            argv = [command, path, _render(first)]
            stdout = _format_deg(element) if command == "deg" else f"{element.iota()}\n"
        return (f"random-{n}", argv, 0, stdout)

    def round_ops(self, r: int) -> list:
        rng = _rng(self.name, self.seed, r)
        ops = list(self.fixed) + [self._random_op(rng, n) for n in range(self.random_per_pass)]
        rng.shuffle(ops)
        return ops

    def execute(self, op):
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_ENTRY, *op[1]],
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        stdout, _ = proc.communicate()
        return proc.returncode, stdout

    def execute_in_process(self, op):
        result = qgha.cli.run(op[1])
        return result.exit_code, result.payload

    def _expected_product(self, entry_id: str) -> str:
        if entry_id not in self._products:
            path, spec = self._words[entry_id]
            algebra = qgha.load_algebra(path)
            left, right = (_expand(t) for t in spec)
            words = [FreeWord(algebra.field.one, u + v) for u in left for v in right]
            self._products[entry_id] = f"{qgha.reduce_word(words, algebra)}\n"
        return self._products[entry_id]

    def check(self, op, out):
        entry_id, _, exit_code, stdout = op
        if stdout is None:
            stdout = self._expected_product(entry_id)
        if out[0] != exit_code:
            return f"{entry_id}: exit code {out[0]}, expected {exit_code}"
        if out[1] != stdout:
            return f"{entry_id}: stdout differs from the expected output"
        return None

    def cross_checks(self, r: int):
        return ()


WORKLOADS = {w.name: w for w in (Products, Growth, Cli)}
