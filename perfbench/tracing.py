"""Layer tracing from outside the program.

`Tracer.installed()` wraps the public functions of each qgha layer for the
duration of a `with` block.  A wrapped function records one span per call
(name, start, end, parent span, op id); Scalar arithmetic is only counted,
because a span per scalar operation would cost more than the operation.
Spans stay in memory and are written out by `Tracer.dump` when the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# Shorter operand length from which a Poly x Poly product counts as long:
# the length at which Kronecker substitution starts to beat the schoolbook
# convolution (ROADMAP baseline).
LONG_OPERAND = 64

# (module, attribute, span name) of each wrapped method and function.
# Functions are rebound in every qgha module that imported them, so calls
# through `qgha.cli` or the package namespace are traced too.  Poly.__rmul__
# and Poly.__sub__ are left alone: they delegate to __mul__ and __add__.
SPANNED_METHODS = [
    ("qgha.poly", "Poly.__mul__", "poly.mul"),
    ("qgha.poly", "Poly.__add__", "poly.add"),
    ("qgha.poly", "Poly.compose", "poly.compose"),
    ("qgha.algebra", "Element.__mul__", "algebra.mul"),
]
SPANNED_FUNCTIONS = [
    ("qgha.structure", "gk_dimension_sequence", "structure.gk"),
    ("qgha.structure", "center_describe", "structure.center"),
    ("qgha.structure", "noetherian_witness_check", "structure.witness"),
    ("qgha.rewrite", "reduce_word", "rewrite.reduce_word"),
    ("qgha.exprparse", "parse_element_expr", "exprparse.parse"),
    ("qgha.classify", "is_isomorphic", "classify.iso"),
    ("qgha.classify", "automorphism_group", "classify.aut"),
    ("qgha.serial", "load_algebra", "serial.load"),
    ("qgha.cli", "run", "cli.run"),
]
COUNTED_SCALAR_METHODS = [
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inv",
]


def _coeff_bits(p) -> int:
    if p.field.p is not None:
        return p.field.p.bit_length() if p.coeffs else 0
    bits = 0
    for c in p.coeffs:
        v = c.value
        bits = max(bits, abs(v.numerator).bit_length(), v.denominator.bit_length())
    return bits


class Tracer:
    def __init__(self):
        self.op = -1
        self.spans: list[tuple] = []  # (span id, name, start, end, parent id, op id)
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.scalar_ops = 0
        self.poly_products = 0
        self.long_products = 0
        self.max_len = 0
        self.max_coeff_bits = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0

    def _note_poly(self, result) -> None:
        self.max_len = max(self.max_len, len(result.coeffs))
        self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(result))

    def _spanned(self, name: str, fn, poly_result: bool = False):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - frame[1]
                tracer.spans.append(
                    (span_id, name, start, end, parent[0] if parent else -1, tracer.op)
                )
                if poly_result and type(result) is type(args[0]):
                    if name == "poly.mul" and type(args[1]) is type(args[0]):
                        tracer.poly_products += 1
                        if min(len(args[0].coeffs), len(args[1].coeffs)) >= LONG_OPERAND:
                            tracer.long_products += 1
                    tracer._note_poly(result)
                if parent is not None:
                    # bookkeeping after `end` is charged to neither span
                    parent[1] += perf_counter() - start

        return wrapper

    def _counted(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.scalar_ops += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced layer entry point; restore the originals on exit."""
        from qgha.fields import Scalar

        restore: list[tuple] = []

        def patch_attr(owner, attr, new):
            restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        for module_name, dotted, name in SPANNED_METHODS:
            cls_name, attr = dotted.split(".")
            cls = getattr(sys.modules[module_name], cls_name)
            patch_attr(cls, attr, self._spanned(name, cls.__dict__[attr], name.startswith("poly.")))
        for attr in COUNTED_SCALAR_METHODS:
            patch_attr(Scalar, attr, self._counted(Scalar.__dict__[attr]))
        modules = [m for n, m in sys.modules.items() if n == "qgha" or n.startswith("qgha.")]
        for module_name, attr, name in SPANNED_FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._spanned(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patch_attr(module, key, wrapped)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)

    def dump(self, path) -> None:
        """Write the recorded spans as gzip-compressed JSON."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        origin = min((s[2] for s in self.spans), default=0.0)
        rows = [
            [sid, index[name], round((start - origin) * 1e9), round((end - origin) * 1e9), parent, op]
            for sid, name, start, end, parent, op in self.spans
        ]
        doc = {
            "columns": ["span", "name", "start_ns", "end_ns", "parent", "op"],
            "names": names,
            "spans": rows,
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
