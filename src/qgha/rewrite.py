"""Free-word rewriting oracle for the defining relations.

reduce_word rewrites arbitrary words in the letters {x, y, h} into the
canonical x-h-y order using

    h x -> x f(h)        y h -> f(h) y        y x -> q x y + g(h)

with f and g expanded into h-runs letter by letter.  Each rule either
moves an h rightward past x, moves an h leftward past y, or removes a
(y, x) inversion, so rewriting terminates; the result is independent of
the chosen reduction order.  The oracle is deliberately independent of
the fast multiplication path so the two can cross-check each other; the
CLI reaches it only through `mul --oracle`.
"""

from __future__ import annotations

from .algebra import AlgebraParams, Element
from .errors import AlgebraMismatch, FieldMismatch, InvalidArgument
from .fields import Scalar
from .poly import Poly

LETTERS = frozenset("xyh")

_REDEXES = {("h", "x"), ("y", "h"), ("y", "x")}


class FreeWord:
    """A scalar-weighted word over {x, y, h}; letter order is arbitrary."""

    __slots__ = ("coeff", "letters")

    def __init__(self, coeff: Scalar, letters):
        letters = tuple(letters)
        for ch in letters:
            if ch not in LETTERS:
                raise InvalidArgument(f"letter {ch!r} is not one of x, y, h")
        self.coeff = coeff
        self.letters = letters

    def __repr__(self):
        return f"FreeWord({self.coeff}, {''.join(self.letters)!r})"


def _first_redex(letters):
    for idx in range(len(letters) - 1):
        if (letters[idx], letters[idx + 1]) in _REDEXES:
            return idx
    return None


def _last_redex(letters):
    for idx in range(len(letters) - 2, -1, -1):
        if (letters[idx], letters[idx + 1]) in _REDEXES:
            return idx
    return None


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
    current: dict[tuple, Scalar] = {}

    def merge(into: dict, letters: tuple, coeff: Scalar) -> None:
        cur = into.get(letters)
        total = coeff if cur is None else cur + coeff
        if total.is_zero():
            into.pop(letters, None)
        else:
            into[letters] = total

    for w in words:
        if isinstance(w, str):
            w = FreeWord(algebra.field.one, w)
        if w.coeff.field != algebra.field:
            raise FieldMismatch("word coefficient over the wrong field")
        merge(current, w.letters, w.coeff)

    f_monos = list(algebra.f.monomials())
    g_monos = list(algebra.g.monomials())
    q = algebra.q
    # (i, k) -> {j -> scalar}: collected coefficients of x^i h^j y^k
    acc: dict[tuple[int, int], dict[int, Scalar]] = {}

    while current:
        # rewriting is linear in words, so identical intermediate words are
        # merged per generation instead of being reduced separately
        pending: dict[tuple, Scalar] = {}
        for letters, coeff in current.items():
            pos = find(letters)
            if pos is None:
                i = letters.count("x")
                k = letters.count("y")
                j = letters.count("h")
                bucket = acc.setdefault((i, k), {})
                bucket[j] = bucket.get(j, algebra.field.zero) + coeff
                continue
            pair = (letters[pos], letters[pos + 1])
            head, tail = letters[:pos], letters[pos + 2 :]
            if pair == ("h", "x"):
                for j, c in f_monos:
                    merge(pending, head + ("x",) + ("h",) * j + tail, coeff * c)
            elif pair == ("y", "h"):
                for j, c in f_monos:
                    merge(pending, head + ("h",) * j + ("y",) + tail, coeff * c)
            else:  # ("y", "x")
                if not q.is_zero():
                    merge(pending, head + ("x", "y") + tail, coeff * q)
                for j, c in g_monos:
                    merge(pending, head + ("h",) * j + tail, coeff * c)
        current = pending

    terms = {}
    for (i, k), bucket in acc.items():
        size = max(bucket) + 1
        coeffs = [algebra.field.zero] * size
        for j, c in bucket.items():
            coeffs[j] = c
        terms[(i, k)] = Poly(coeffs, algebra.field)
    return Element(algebra, terms)


def element_words(element: Element) -> list[FreeWord]:
    """Spell an element out as weighted words x^i h^j y^k."""
    out = []
    for i, k in sorted(element.terms):
        for j, c in element.terms[(i, k)].monomials():
            out.append(FreeWord(c, ("x",) * i + ("h",) * j + ("y",) * k))
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
