"""Exact Laurent polynomials in one variable v with big-integer coefficients.

This is the coefficient ring for everything else in the package: quantum
integers, quantum factorials and binomials, bar-involution transition
coefficients, and the canonical-basis expansion coefficients all live here.

Representation: a sparse map ``exponent -> coefficient`` kept in canonical
form (no zero coefficients are ever stored), so structural equality is value
equality.  Coefficients are Python ints, hence arbitrary precision; all
arithmetic is exact.  Values are immutable after construction and safe to
share between threads.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import prod
from typing import Iterable, Mapping, Union

#: Degree of the zero polynomial.  float("-inf") so that comparisons and
#: max() compose the way degree arithmetic expects.
MINUS_INFINITY = float("-inf")

TermsLike = Union[Mapping[int, int], Iterable[tuple[int, int]], None]


def _is_int(x) -> bool:
    """The package's one integer rule: an int that is not a bool, which
    would pass for 0 or 1 and print as False or True."""
    return isinstance(x, int) and not isinstance(x, bool)


class LaurentPoly:
    """An element of Z[v, v^-1] in canonical sparse form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: TermsLike = None):
        data: dict[int, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms or ()
        for e, c in items:
            if not _is_int(e):
                raise TypeError(f"exponent must be int, got {e!r}")
            if not _is_int(c):
                raise TypeError(f"coefficient must be int, got {c!r}")
            data[e] = data.get(e, 0) + c
        self._terms = _nonzero(data)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs) -> "LaurentPoly":
        """Inverse of to_pairs(); accepts [exponent, coefficient-string] pairs."""
        return cls((int(e), int(c)) for e, c in pairs)

    def to_pairs(self) -> list[list[str | int]]:
        """Serialized form: [exponent, coefficient-as-decimal-string] pairs,
        ascending by exponent."""
        return [[e, str(self._terms[e])] for e in sorted(self._terms)]

    # -- ring structure ------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return _raw(_nonzero(out))

    __radd__ = __add__

    def __neg__(self):
        return _raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return _raw(_nonzero(out))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not _is_int(k) or k < 0:
            raise ValueError("only nonnegative integer powers are defined")
        return prod(repeat(self, k), start=ONE)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if not self._terms:
            return hash(0)
        if len(self._terms) == 1 and 0 in self._terms:
            return hash(self._terms[0])
        return hash(frozenset(self._terms.items()))

    # -- involutions and pieces ----------------------------------------------

    def bar(self) -> "LaurentPoly":
        """The bar involution v -> v^-1 (negate every exponent)."""
        return _raw({-e: c for e, c in self._terms.items()})

    def negative_part(self) -> "LaurentPoly":
        """Sum of the terms with strictly negative exponent."""
        return _raw({e: c for e, c in self._terms.items() if e < 0})

    def degree(self):
        """Largest exponent with nonzero coefficient; MINUS_INFINITY for 0."""
        return max(self._terms) if self._terms else MINUS_INFINITY

    def coefficient(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    def at_one(self) -> int:
        """Value at v = 1, i.e. the sum of all coefficients."""
        return sum(self._terms.values())

    def coefficients_descending(self) -> list[int]:
        """Dense coefficient list from the top exponent down to the bottom one."""
        if not self._terms:
            return []
        top, bot = max(self._terms), min(self._terms)
        return [self._terms.get(e, 0) for e in range(top, bot - 1, -1)]

    # -- exact division --------------------------------------------------------

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Divide exactly by ``other``, raising ValueError on any remainder.

        Division in Z[v, v^-1] reduces to ordinary polynomial division after
        shifting both operands so their lowest exponent is zero.
        """
        other = _coerce(other)
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return ZERO
        amin = min(self._terms)
        bmin = min(other._terms)
        la = max(self._terms) - amin + 1
        lb = max(other._terms) - bmin + 1
        if la < lb:
            raise ValueError(f"{other!r} does not divide {self!r}")
        rem = [0] * la
        for e, c in self._terms.items():
            rem[e - amin] = c
        div_items = [(e - bmin, c) for e, c in other._terms.items()]
        lead = other._terms[bmin + lb - 1]
        quot = [0] * (la - lb + 1)
        for i in range(la - lb, -1, -1):
            c = rem[i + lb - 1]
            if not c:
                continue
            qc, r = divmod(c, lead)
            if r:
                raise ValueError(f"{other!r} does not divide {self!r}")
            quot[i] = qc
            for j, dc in div_items:
                rem[i + j] -= qc * dc
        if any(rem):
            raise ValueError(f"{other!r} does not divide {self!r}")
        shift = amin - bmin
        return _raw({i + shift: c for i, c in enumerate(quot) if c})

    # -- display ----------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        # "+ a - b + c ...", then the leading "+ " dropped or "- " made "-"
        parts = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                ve = "v" if e == 1 else f"v^{e}"
                body = ve if mag == 1 else f"{mag}{ve}"
            parts += ["-" if c < 0 else "+", body]
        text = " ".join(parts)[2:]
        return "-" + text if parts[0] == "-" else text

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._terms.items()))!r})"


def _nonzero(terms: dict[int, int]) -> dict[int, int]:
    """The terms with a nonzero coefficient.  The loops of the ring
    operations only accumulate; this drops the zeros their sums leave."""
    return {e: c for e, c in terms.items() if c}


def _raw(terms: dict[int, int]) -> LaurentPoly:
    """Wrap an already-canonical dict without re-normalizing."""
    p = LaurentPoly.__new__(LaurentPoly)
    p._terms = terms
    return p


def _coerce(x):
    if isinstance(x, LaurentPoly):
        return x
    if _is_int(x):
        return _raw({0: x}) if x else ZERO
    return NotImplemented


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
V = LaurentPoly({1: 1})


def v_power(e: int) -> LaurentPoly:
    return LaurentPoly({e: 1})


def _check_k(k, symbols: str) -> None:
    """Refuse a k of the quantum ``symbols`` that is no int (TypeError) or
    is negative (ValueError)."""
    if not _is_int(k):
        raise TypeError(f"k must be int, got {k!r}")
    if k < 0:
        raise ValueError(f"quantum {symbols} are defined for k >= 0")


# The caches are typed: untyped, qbinom(2, True) would find the entry of
# qbinom(2, 1) and return it without running the checks.
@lru_cache(maxsize=None, typed=True)
def qint(k: int) -> LaurentPoly:
    """Quantum integer [k] = v^(k-1) + v^(k-3) + ... + v^(1-k); [0] = 0."""
    _check_k(k, "integers")
    return _raw({k - 1 - 2 * i: 1 for i in range(k)})


@lru_cache(maxsize=None, typed=True)
def qfact(k: int) -> LaurentPoly:
    """Quantum factorial [k]! = [k][k-1]...[1]; [0]! = 1."""
    _check_k(k, "factorials")
    return qfact(k - 1) * qint(k) if k else ONE


@lru_cache(maxsize=None, typed=True)
def qbinom(k: int, m: int) -> LaurentPoly:
    """Quantum binomial [k]! / ([m]! [k-m]!), computed by exact division.

    Out-of-range arguments (m < 0 or m > k) give 0, so sums indexed by
    infeasible tuples vanish without boundary case analysis.  The quotient
    is built up one factor at a time, [k choose m] = [k choose m-1] *
    [k-m+1] / [m], which keeps every intermediate at binomial rather than
    factorial coefficient size; each division is asserted exact, so a
    remainder anywhere means a broken invariant and raises immediately.
    """
    if not (_is_int(k) and _is_int(m)):
        raise TypeError(f"k and m must be int, got {k!r} and {m!r}")
    if m < 0 or m > k:
        return ZERO
    if m == 0 or m == k:
        return ONE
    return (qbinom(k, m - 1) * qint(k - m + 1)).exact_div(qint(m))
