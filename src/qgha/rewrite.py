"""Free-word rewriting oracle for the defining relations.

reduce_word rewrites arbitrary words in the letters {x, y, h} into the
canonical x-h-y order using

    h x -> x f(h)        y h -> f(h) y        y x -> q x y + g(h)

with f and g expanded into h-runs letter by letter.  Each rule either
moves an h rightward past x, moves an h leftward past y, or removes a
(y, x) inversion, so rewriting terminates; by Bergman's diamond lemma the
result is independent of the reduction order.  Words are `str` and their
coefficients integers: residues over F_p, numerators over Q, where the
words of one generation share one denominator.  The oracle calls no `Poly`
arithmetic, so it checks the fast path independently; the CLI reaches it
only through `mul --oracle`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .algebra import AlgebraParams, Element
from .errors import AlgebraMismatch, InvalidArgument
from .fields import Scalar
from .poly import Poly

LETTERS = frozenset("xyh")

# the left-hand sides of the three rules
_REDEXES = ("hx", "yh", "yx")


class FreeWord:
    """A word over {x, y, h}, kept as a str, weighted by a Scalar, int or
    Fraction (inexact floats and strings are refused); letter order is arbitrary."""

    __slots__ = ("coeff", "letters")

    def __init__(self, coeff: Scalar | int | Fraction, letters):
        if not isinstance(coeff, (int, Fraction, Scalar)):
            raise InvalidArgument(f"coefficient {coeff!r} is not an int, Fraction or Scalar")
        letters = tuple(letters)
        for ch in letters:
            if ch not in LETTERS:
                raise InvalidArgument(f"letter {ch!r} is not one of x, y, h")
        self.coeff = coeff
        self.letters = "".join(letters)

    def __repr__(self):
        return f"FreeWord({self.coeff}, {self.letters!r})"


def _first_redex(word: str) -> int:
    """Start of the leftmost redex in word, or -1 if it is in normal form."""
    return min((i for i in map(word.find, _REDEXES) if i >= 0), default=-1)


def _last_redex(word: str) -> int:
    """Start of the rightmost redex in word, or -1 if it is in normal form."""
    return max(map(word.rfind, _REDEXES))


def reduce_word(words, algebra: AlgebraParams, strategy: str = "leftmost") -> Element:
    """Normal form of a word (or linear combination of words).

    Accepts a FreeWord, a plain string like "yxx", or an iterable of either.
    The strategy picks which redex is rewritten first ("leftmost" or
    "rightmost"); by confluence the result is the same.
    """
    if strategy == "leftmost":
        find = _first_redex
    elif strategy == "rightmost":
        find = _last_redex
    else:
        raise InvalidArgument(f"unknown strategy {strategy!r}")
    if isinstance(words, (FreeWord, str)):
        words = [words]
    words = [FreeWord(1, w) if isinstance(w, str) else w for w in words]
    # ints and Fractions coerce; another field's Scalar raises FieldMismatch
    values = [algebra.field.scalar(w.coeff).value for w in words]
    p = algebra.field.p

    def merge(into: dict, word: str, coeff: int) -> None:
        total = into.get(word, 0) + coeff
        if p is not None:
            total %= p
        if total:
            into[word] = total
        else:
            into.pop(word, None)

    # the words of one generation weigh their integers over den (1 over F_p)
    den = lcm(*(value.denominator for value in values))
    current: dict[str, int] = {}
    for w, value in zip(words, values):
        merge(current, w.letters, int(value * den))
    f = [("h" * j, c.value) for j, c in algebra.f.monomials()]
    g = [("h" * j, c.value) for j, c in algebra.g.monomials()]
    # redex -> (replacement, value) pairs of its right side; times step, each value is whole
    rules = {
        "hx": [("x" + run, c) for run, c in f],
        "yh": [(run + "y", c) for run, c in f],
        "yx": ([("xy", algebra.q.value)] if algebra.q else []) + g,
    }
    step = lcm(*(c.denominator for rhs in rules.values() for _, c in rhs))
    rules = {redex: [(run, int(c * step)) for run, c in rhs] for redex, rhs in rules.items()}
    # (i, k) -> {j -> value}: collected coefficients of x^i h^j y^k
    acc: dict[tuple[int, int], dict] = {}

    while current:
        # rewriting is linear in words, so identical intermediate words are
        # merged per generation instead of being reduced separately
        pending: dict[str, int] = {}
        for word, coeff in current.items():
            pos = find(word)
            if pos < 0:
                bucket = acc.setdefault((word.count("x"), word.count("y")), {})
                j = word.count("h")
                # a Fraction only where one is needed: ints add faster
                bucket[j] = bucket.get(j, 0) + (coeff if den == 1 else Fraction(coeff, den))
                continue
            head, tail = word[:pos], word[pos + 2 :]
            for run, c in rules[word[pos : pos + 2]]:
                merge(pending, head + run + tail, coeff * c)
        current = pending
        den *= step

    terms = {}
    for key, bucket in acc.items():
        terms[key] = Poly([bucket.get(j, 0) for j in range(max(bucket) + 1)], algebra.field)
    return Element(algebra, terms)


def element_words(element: Element) -> list[FreeWord]:
    """Spell an element out as weighted words x^i h^j y^k."""
    out = []
    for i, k in sorted(element.terms):
        for j, c in element.terms[(i, k)].monomials():
            out.append(FreeWord(c, "x" * i + "h" * j + "y" * k))
    return out


def oracle_multiply(a: Element, b: Element) -> Element:
    """Product computed through the rewriting oracle instead of the fast path."""
    if a.algebra != b.algebra:
        raise AlgebraMismatch("elements of different algebra presentations")
    words = []
    for wa in element_words(a):
        for wb in element_words(b):
            words.append(FreeWord(wa.coeff * wb.coeff, wa.letters + wb.letters))
    return reduce_word(words, a.algebra)
