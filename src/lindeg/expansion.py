"""Expansion of the staircase monomial in PBW and canonical bases.

The staircase monomial is the product of divided powers of the Chevalley
generators with exponents (n, n-1, ..., 1) followed by (1, 2, ..., n).  Its
expansion is computed entirely in the coordinate space indexed by the
parameter set P(n); PBW monomials are never materialized as noncommutative
words, because closed forms exist for every structure constant needed:

* ``pbw_coeff`` is the closed form for the PBW coefficients of the
  staircase monomial.  It is the staircase case of the general two-row
  expansion, which ``tests/oracles.py`` keeps with the rank-2 identity it
  rests on; the tests compare the two.
* ``bar_transition_coeff`` is the closed form for the matrix of the bar
  involution on the PBW basis; it is supported on componentwise-comparable
  pairs only.  It is a product of local factors g_k, each a product of the
  pieces ``_bar_pieces`` gives: ``_bar_factor`` multiplies them as
  LaurentPolys, the packed W stage as packed integers.
* ``canonical_transition_matrix`` solves the triangular system expressing
  bar invariance of the canonical basis: each off-diagonal entry is the
  unique element of v^-1 Z[v^-1] whose bar-antisymmetrization matches an
  already-known right-hand side, i.e. its negative-exponent part.
* ``canonical_coeffs`` back-substitutes through that unitriangular matrix,
  turning the PBW coefficients of the staircase monomial into canonical
  ones.

All coefficients are exact Laurent polynomials; every step is deterministic:
the Z solve walks each column's targets in reverse lexicographic order, mu
its keys by descending coordinate sum, ties lexicographic, and either order
puts every key after all keys above it componentwise.  The stages run on a
packed-integer kernel (see the notes below) and hand each other packed
tables.  Each call of ``bar_transition_matrix`` or
``canonical_transition_matrix`` computes its stage anew and returns a
read-only view that owns the table and decodes an entry on its first read.
The Z solve takes the table of a W view of its own and mu takes the table
of a Z view of its own, so no table outlives the stage that reads it.

Reversal symmetry.  Write rev x for the reversed tuple.  Then
W(x, y) = W(rev x, rev y), Z(x, y) = Z(rev x, rev y) and mu(y) = mu(rev y),
and each stage computes only one of every mirrored pair:

* Reversal sends a_k to a_{n+1-k} and d_k to d_{n-k}, so for (rev x,
  rev y) the factor [a_k + d_k + d_{k-1} choose d_k] [a_k + d_{k-1} choose
  d_{k-1}] of g_k (``_bar_factor``) becomes, reindexed by k -> n + 1 - k,
  [a_k + d_k + d_{k-1} choose d_{k-1}] [a_k + d_k choose d_k].  Both equal
  the q-multinomial [a_k + d_k + d_{k-1}]! / ([a_k]! [d_k]! [d_{k-1}]!).
  The other factors are symmetric sums and products of the d_k.
* P(n), the componentwise order, the box [y, x] and the coordinate sum are
  reversal-invariant, and the triangular system for Z has a unique
  solution, so Z inherits the symmetry from W.
* ``pbw_coeff`` is symmetric because [N choose K] = [N choose N - K], and
  ``upper_bounds`` is a palindrome, so mu inherits it from Z.

A column x with rev x < x (lexicographically) of W or Z is filled while
its mirror is solved, and a coefficient mu(y) with rev y < y is copied
from its mirror, which comes first in the order mu works in; the copy
shares the mirror's objects.

Locality of Z.  With d = x - y, ``bar_transition_coeff`` is a product over
k = 1..n of one function g(x_{k-1}, x_k, d_{k-1}, d_k) of n and two adjacent
coordinates, ``_bar_factor`` (padded with x_0 = x_n = d_0 = d_n = 0);
g = 1 when d_{k-1} = d_k = 0.  Fix a column x.  Its entries Z(x, t)
for t in a box [y, x] are the unique solution of the system on that box:
Z(x, x) = 1, Z(x, t) in v^-1 Z[v^-1] for t < x, and
Z(x, t) = sum over t <= m <= x of bar(Z(x, m)) W(m, t), because solving it
in an order that puts every m > t before t (reverse lexicographic, say)
fixes each Z(x, t) as the only element of v^-1 Z[v^-1] with a given
z - bar(z).  Two facts follow:

* Split at a zero.  Let d_c = 0, and split tuples into the coordinates
  left and right of c as t = (t_L, x_c, t_R); every m in [y, x] has
  m_c = x_c.  Each factor g involves coordinates on one side of c and
  possibly c itself, so W(m, t) = W_L(m_L, t_L) W_R(m_R, t_R) on the box,
  each side 1 on its diagonal.  Then zeta_L(a) = Z(x, (a, x_c, x_R)) solves
  the system on the left half, zeta_R(b) = Z(x, (x_L, x_c, b)) on the
  right, and zeta_L(t_L) zeta_R(t_R) solves it on the box: the sum over m
  factors into the two half sums, a product of two elements of
  v^-1 Z[v^-1], or of one and 1, lies in v^-1 Z[v^-1].  By uniqueness
  Z(x, t) = zeta_L(t_L) zeta_R(t_R).  Repeating this at every zero between
  the runs (maximal blocks of nonzero coordinates) of d gives
  Z(x, y) = prod_r Z(x, u_r), where u_r is x with y's coordinates on run r.
  Split once, at the zero left of the last run, starting at i: Z(x, y) =
  Z(x, y[:i] + x[i:]) Z(x, x[:i] + y[i:]), both pairs above y.
* One run.  If d is nonzero exactly on the block i..j, every factor of
  W(m, t) for m, t in [y, x] is 1 except those for k = i..j+1, which read
  only x_{i-1}, x_{j+1}, m and t on the block.  So the system on the box,
  and with it Z(x, y), depends only on n and the local key (x_{i-1},
  x_{j+1}, x_i..x_j, y_i..y_j).  A pair with the reversed key (x_{j+1},
  x_{i-1}, reversed blocks) is the mirror of one with the key itself, so
  by the reversal symmetry it has the same entry.

The Z solve box-solves one entry per reversal-canonical local key and
builds each entry with two or more runs as the product of the two entries
of the last split.

No zero factors on P(n).  There a_k = n + 1 - x_{k-1} - x_k >= 2, and d >= 0
on a pair y <= x, so every g_k (the folded g_n too) is a product of nonzero
terms: q-binomials [N choose K] with 0 <= K <= N, [d]! and powers of v and of
v^-1 - v.  And y_k <= k, y_{k-1} <= n + 1 - k make every factor of pbw_coeff
such a q-binomial.  So W has all ``_pairs(n)`` entries; mu(y) = 0 occurs, so
mu keeps its zero test.

Z is full too, and every sum starts at its first pair.  Each factor above
starts with coefficient 1: [N choose K] at v^(-K (N - K)), [d]! at
v^(-d (d - 1) / 2), (v^-1 - v)^d at v^-d.  So W(x, y) starts with 1 v^L(x, y),
where L(x, y) = -sum_k d_k^2 - sum_k (d_k d_{k-1} + a_k (d_k + d_{k-1})) is
<= -1 for y < x.  With e = x - m for y <= m <= x, and a_k taken from x,
L(m, y) - L(x, y) = sum e_k^2 + sum e_k e_{k-1} + sum a_k (e_k + e_{k-1}),
which is -L(x, m) >= 0: L(x, y) = L(x, m) + L(m, y).  (Expanded, L(x, y) =
psi(x) - psi(y) with psi(t) = sum t_k^2 + sum t_k t_{k-1} - 2 (n + 1) sum t_k.)

* Z.  In the box sum for Z(x, y), bar Z(x, m) has exponents >= 1 for
  y <= m < x, so the lowest exponent of bar Z(x, m) W(m, y) is above
  L(m, y) >= L(x, y).  The right-hand side therefore starts with
  1 v^L(x, y), and L <= -1 puts that term into Z(x, y).  So Z has all
  ``_pairs(n)`` entries, each starts with 1 v^L(x, y), and each box sum
  starts at its first pair W(x, y) 1.
* Alignment.  With z = Z(x, m), the term bar(z) W(m, y) starts at
  lo bar(z) + L(m, y) = L(x, y) + (lo bar(z) - lo z), as lo z = L(x, m).
  So it lies (lo bar(z) - lo z) / 2 >= 1 slots above the first pair, an
  offset of the entry z alone, and the sum of the factors' offsets for a
  product of entries, whose lows add.  The Z solve stores it with each
  entry as a bit shift and sums a box in one pass, with no exponent
  arithmetic per term.
  Nothing is summed there below its first pair, as long as W starts at
  v^L: ``_bar_table`` refuses a W entry that does not start at
  v^(psi(x) - psi(y)), and each box solve refuses a first pair W(x, y)
  that does not, as a bar-antisymmetry failure.
* mu.  Packed -mu(x) starts where its sum does, at pbw(x)'s lowest
  exponent lo pbw(x), so its product with Z(x, y) starts at
  lo pbw(x) + L(x, y).  pbw(t) = sum over s >= t of mu(s) Z(s, t) is a sum
  of terms with nonnegative coefficients (Lusztig's positivity: mu in
  N[v, v^-1], Z in N[v^-1]), so lo pbw(t) is the least lo mu(s) + L(s, t)
  over s >= t with mu(s) != 0.  With L(s, x) + L(x, y) = L(s, y) this
  gives lo pbw(x) + L(x, y) >= lo pbw(y): no product in the sum for mu(y)
  starts below its first pair, pbw(y) 1.  The offset is not one of an
  entry alone, so ``_dot`` reads it per term and refuses a product below
  the first pair.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Mapping
from functools import lru_cache, partial
from math import comb, prod
from types import MappingProxyType

from .combinatorics import _parameter_tuple, leq, padded, ptuples, upper_bounds
from .laurent import ONE, LaurentPoly, _raw, qbinom, qfact, v_power

#: v^-1 - v, the prefactor of the bar transition matrix.
_VINV_MINUS_V = LaurentPoly({-1: 1, 1: -1})


def pbw_coeff(n: int, y) -> LaurentPoly:
    """Coefficient of the PBW monomial indexed by y in the staircase monomial.

    Closed form: v^{-sum (k - y_k)(n - k - y_k)} *
    prod_k [n + 1 - y_{k-1} - y_k choose k - y_k].
    """
    e, parts = _pbw_factors(n, _parameter_tuple(n, y))
    return prod((f(*args) for f, *args in parts), start=v_power(e))


def _pbw_factors(n: int, y) -> tuple:
    """The closed form of pbw_coeff(n, y) in pieces: the exponent
    -sum (k - y_k)(n - k - y_k), and each q-binomial factor
    [n + 1 - y_{k-1} - y_k choose k - y_k], k = 1..n, as (qbinom, top,
    bottom)."""
    ye = padded(n, y)
    return (-sum((k - ye[k]) * (n - k - ye[k]) for k in range(1, n)),
            [(qbinom, n + 1 - ye[k - 1] - ye[k], k - ye[k])
             for k in range(1, n + 1)])


def bar_transition_coeff(n: int, x, y) -> LaurentPoly:
    """Coefficient of the PBW monomial y in the bar image of the PBW
    monomial x; zero unless x >= y componentwise.

    With d = x - y and x, d padded with zero ends: the product over
    k = 1..n of the local factors g_k = _bar_factor(n, x_{k-1}, x_k,
    d_{k-1}, d_k).
    """
    x, y = _parameter_tuple(n, x), _parameter_tuple(n, y)
    if not leq(y, x):
        return LaurentPoly()
    xe = padded(n, x)
    de = [a - b for a, b in zip(xe, padded(n, y))]
    return prod((_bar_factor(n, xe[k - 1], xe[k], de[k - 1], de[k])
                 for k in range(1, n + 1)), start=ONE)


def _bar_factor(n: int, xp: int, xk: int, dp: int, dk: int) -> LaurentPoly:
    """The local factor g_k of bar_transition_coeff, for x_{k-1}, x_k =
    xp, xk and d_{k-1}, d_k = dp, dk: the product of its pieces
    (_bar_pieces) as LaurentPolys."""
    e, parts = _bar_pieces(n, xp, xk, dp, dk)
    return prod((f(*args) for f, *args in parts), start=v_power(e))


def _bar_pieces(n: int, xp: int, xk: int, dp: int, dk: int) -> tuple:
    """g_k in pieces, as _pbw_factors gives pbw_coeff: the exponent
    -dk (dk - 1) / 2 of its power of v, and its other factors as
    (function, *arguments), each function giving a LaurentPoly.  With
    a = n + 1 - xp - xk they are [a + dk + dp choose dk] [a + dp choose dp]
    [dk]! (v^-1 - v)^dk."""
    a = n + 1 - xp - xk
    return -dk * (dk - 1) // 2, ((qbinom, a + dk + dp, dk),
                                 (qbinom, a + dp, dp), (qfact, dk),
                                 (_VINV_MINUS_V.__pow__, dk))


def _pairs(n: int) -> int:
    """The number of pairs y <= x in P(n), so of W's entries: the pairs
    0 <= y_k <= x_k <= b_k count per coordinate, b the upper bounds."""
    return prod(comb(b + 2, 2) for b in upper_bounds(n))


@lru_cache(maxsize=None)
def _psi(n: int) -> dict:
    """{t: psi(t)} on P(n), psi(t) = sum t_k^2 + sum t_k t_{k-1} -
    2 (n + 1) sum t_k for t padded with zero ends: W(x, y) and Z(x, y)
    start at v^L(x, y), L(x, y) = psi(x) - psi(y) (module docstring)."""
    return {t: sum(c * (c + p - 2 * (n + 1)) for c, p in zip(t, (0,) + t))
            for t in ptuples(n)}


def _below(x):
    """All tuples 0 <= m <= x componentwise, lexicographic."""
    return itertools.product(*[range(c + 1) for c in x])


def _between(y, x):
    """All tuples y <= m <= x componentwise, lexicographic."""
    return itertools.product(*[range(a, b + 1) for a, b in zip(y, x)])


def _descending(keys):
    """Descending coordinate sum, ties in ascending lexicographic order."""
    return sorted(keys, key=lambda t: (-sum(t), t))


def _reversal_canonical(keys):
    """The keys x with x <= rev x lexicographically, in the order of keys:
    one of every mirrored pair."""
    return (x for x in keys if x <= x[::-1])


# ---------------------------------------------------------------------------
# packed-integer kernel
#
# Every W, Z and mu entry has its exponents in one parity class.  Such an
# entry is packed once as (value, lo, hi, norm): value = sum_i c_i 2^(width i)
# is its evaluation at a power of two (Kronecker substitution) with signed
# slots for the coefficients c_i of v^(lo + 2i), lo <= lo + 2i <= hi, and
# norm is at least the sum of the absolute values of its coefficients.
# Evaluation is a ring homomorphism, so one big-int multiply packs the
# product of two entries and shifted big-int sums pack sums of products:
# a closed form is packed as the product of its packed pieces, and a sum
# adds each product shifted by its offset above the first term, which the
# Z box sums store with each entry and mu's sums (_dot) read per term.
# Decoding is unique while every coefficient stays below 2^(width - 1) in
# absolute value.  A coefficient of sum a*b is at most sum ||a|| ||b||, and
# that proven bound is held to width - 2 bits before anything is decoded;
# the decoder checks every slot against the same margin.
#
# At one width, (value, lo) with lo the tight low exponent determines an
# entry: trailing zero slots do not change value.  W and Z intern their
# entries by it, so equal entries are one object, and pass them on as
# by-target tables {y: {x: packed}}.  A view builds its stage's table once
# and hands it on to the next stage as it is.  A refused bound restarts the
# whole stage at twice the width: it drops what it built, and builds it
# again from its input stage's table, built anew at the new width.
# ---------------------------------------------------------------------------

#: Array typecode of a signed machine word, by slot width in bits.
_TYPECODES = {8 * array(code).itemsize: code for code in "bhiq"}

#: Slot width the stages start from; they double it on a bound refusal.
_START_WIDTH = 32

#: The packed constant 1, to put a single entry into a sum of products.
_UNIT = (1, 0, 0, 1)


class _SlotBoundError(ArithmeticError):
    """A proven coefficient bound does not fit the slot width."""


def _where(label) -> str:
    stage, n, key = label
    return f"{stage} entry {key} at n={n}"


def _check_bound(bound: int, width: int, label) -> None:
    if bound.bit_length() > width - 2:
        raise _SlotBoundError(
            f"coefficient bound 2^{bound.bit_length()} of {_where(label)} "
            f"does not fit {width}-bit slots")


@lru_cache(maxsize=None)
def _bias(count: int, width: int) -> int:
    """2^(width - 1) in each of count slots.  Adding it to a packed value
    makes every slot nonnegative; XOR with it flips the top bit of every
    slot, which turns biased slots into two's-complement ones and back."""
    return ((1 << (width * count)) - 1) // ((1 << width) - 1) << (width - 1)


def _pack_slots(slots, lo: int, width: int, label) -> tuple:
    """Pack the coefficients c_i of v^(lo + 2i) (nonempty) as the sum of
    c_i 2^(width i), built from the top slot down."""
    norm = sum(map(abs, slots))
    _check_bound(norm, width, label)
    value = 0
    for c in reversed(slots):
        value = (value << width) + c
    return value, lo, lo + 2 * (len(slots) - 1), norm


def _pack(terms: dict, width: int, label) -> tuple:
    """Pack a nonzero {exponent: coeff} dict tightly."""
    lo, hi = min(terms), max(terms)
    slots = list(map(terms.get, range(lo, hi + 1, 2),
                     itertools.repeat(0)))
    if len(slots) - slots.count(0) != len(terms):
        raise ArithmeticError(f"{_where(label)} mixes parity classes")
    return _pack_slots(slots, lo, width, label)


def _mul(a: tuple, b: tuple) -> tuple:
    """The packed product of two packed entries."""
    return a[0] * b[0], a[1] + b[1], a[2] + b[2], a[3] * b[3]


def _packed_product(e: int, parts, width: int, memo: dict, label) -> tuple:
    """v^e times the pieces (function, *arguments) of a closed form
    (_pbw_factors, _bar_pieces), packed.  Each piece is packed once, into
    memo at this width; the norm is the product of the pieces' norms."""
    packed = (1, e, e, 1)
    for part in parts:
        if part not in memo:
            memo[part] = _pack(part[0](*part[1:])._terms, width, label)
        packed = _mul(packed, memo[part])
    return packed


def _decode(value: int, lo: int, hi: int, width: int, label):
    """The signed slots of a packed value on the lattice lo, lo + 2, ...,
    hi.  A slot within 2 bits of the limit is refused: one whose
    coefficient lies outside [-2^(width - 2), 2^(width - 2)), so that the
    top two bits of its biased form are equal."""
    count = (hi - lo) // 2 + 1
    bias = _bias(count, width)
    second = bias >> 1  # the second-highest bit of every slot
    biased = value + bias
    if (biased < 0 or biased >> (width * count)
            or (biased ^ biased >> 1) & second != second):
        raise ArithmeticError(
            f"{_where(label)} has a packed slot within 2 bits of the "
            f"{width}-bit limit")
    size = width // 8
    raw = (biased ^ bias).to_bytes(count * size, "little")
    code = _TYPECODES.get(width)
    if code:
        return array(code, raw)
    return [int.from_bytes(raw[i:i + size], "little", signed=True)
            for i in range(0, len(raw), size)]


def _terms(lo: int, slots) -> dict:
    """{exponent: coeff} of the nonzero slots from v^lo upwards."""
    return {lo + 2 * i: c for i, c in enumerate(slots) if c}


def _dot(pairs: list, width: int, label) -> tuple:
    """(lo, slots) of the sum of a * b over nonempty packed pairs (a, b).

    One pass, relative to the first pair's lowest exponent: in the sums for
    mu no product starts lower (module docstring), and one that does is
    refused; a product off the first pair's parity class too."""
    first_a, first_b = pairs[0]
    lo = first_a[1] + first_b[1]
    hi = first_a[2] + first_b[2]
    bound = total = 0
    for a, b in pairs:
        bound += a[3] * b[3]
        step = a[1] + b[1] - lo
        if step & 1:
            raise ArithmeticError(f"{_where(label)} mixes parity classes")
        if step < 0:
            raise ArithmeticError(f"{_where(label)} has a product below "
                                  "its first pair")
        total += a[0] * b[0] << width * (step >> 1)
        if a[2] + b[2] > hi:
            hi = a[2] + b[2]
    _check_bound(bound, width, label)
    return lo, _decode(total, lo, hi, width, label)


def _widening(solve, width: int) -> tuple:
    """(solve(width), width) on the kernel, from width-bit slots up.  When
    the kernel refuses a coefficient bound, the attempt is dropped whole and
    solve starts again from nothing at twice the width."""
    while True:
        try:
            return solve(width), width
        except _SlotBoundError:
            width *= 2


class _PackedView(Mapping):
    """{(x, y): coeff} over the by-target table of one stage, in column
    order (x in P(n), y in targets(x)), decoded once per packed object.
    build(width) is the stage: the view runs it from width-bit slots up and
    keeps the table at the first width that holds."""

    def __init__(self, stage, n, targets, build, width):
        self._stage, self._n, self._targets = stage, n, targets
        self._build = build
        self._table, self._width = _widening(build, width)
        self._decoded = {}  # by id of the packed entry

    def _take(self, width: int) -> dict:
        """The table at width for the stage that reads it: the view's own
        one at its width, else built anew by build(width).  Either way the
        view drops its table, so that the table does not outlive the stage
        it feeds; the view is not read again."""
        table = self._table if width == self._width else None
        self._table, self._decoded = None, {}
        return self._build(width) if table is None else table

    def __getitem__(self, key) -> LaurentPoly:
        try:
            x, y = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        packed = self._table[y][x]
        entry = self._decoded.get(id(packed))
        if entry is None:
            value, lo, hi, _ = packed
            entry = self._decoded[id(packed)] = _raw(_terms(lo, _decode(
                value, lo, hi, self._width, (self._stage, self._n, key))))
        return entry

    def __iter__(self):
        for x in ptuples(self._n):
            for y in self._targets(x):
                yield x, y

    def __len__(self) -> int:
        return sum(map(len, self._table.values()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


# ---------------------------------------------------------------------------
# the three expansion stages
# ---------------------------------------------------------------------------

def _packed_bar_factor(n: int, key, width: int, memo: dict) -> tuple:
    """The local factor of _bar_table for key = (last, x_{k-1}, x_k,
    d_{k-1}, d_k): g_k, times g_n when last, packed from its pieces, which
    _packed_product memoizes in memo.  One decode makes its norm tight: the
    product of the pieces' norms overstates it, (v^-1 - v)^d having mixed
    signs, and that slack would carry into every entry."""
    e, parts = _bar_pieces(n, *key[1:])
    if key[0]:  # g_n = g(x_{n-1}, 0, d_{n-1}, 0) has no power of v
        parts += _bar_pieces(n, key[2], 0, key[4], 0)[1]
    label = ("W factor", n, key)
    value, lo, hi, norm = _packed_product(e, parts, width, memo, label)
    _check_bound(norm, width, label)
    return value, lo, hi, sum(map(abs, _decode(value, lo, hi, width, label)))


def _bar_table(n: int, width: int) -> dict:
    """W on the packed kernel as a by-target table in width-bit slots, one
    column x at a time.  One loop per coordinate k extends the lexicographic
    list of (y prefix, d_k, packed prefix product) by the local factors
    (_packed_bar_factor), g_n folded into the factor for k = n - 1: the
    factors of level k form one row per d_{k-1}, looked up once per column
    in memo, which holds them by key and their packed pieces by piece, so
    each entry costs one multiply.  An entry that does not start at
    v^L(x, y) is refused: the aligned box sums of the Z solve rely on it.
    A new entry is decoded once, for the slot guard and its tight norm.
    Each entry also fills its mirror (rev x, rev y)."""
    table, interned, memo = {y: {} for y in ptuples(n)}, {}, {}
    psi = _psi(n)

    def factor(key):
        g = memo.get(key)
        if g is None:
            g = memo[key] = _packed_bar_factor(n, key, width, memo)
        return g

    # the largest entries lie in the largest columns: walked from the top, a
    # refused width shows before any work is done
    for x in _reversal_canonical(reversed(ptuples(n))):
        rx, xe, psi_x = x[::-1], padded(n, x), psi[x]
        prefixes = [((), 0, _UNIT)]
        for k in range(1, n):
            xp, xk = xe[k - 1], xe[k]
            # row dp holds ((y_k,), d_k, g_k) for d_{k-1} = dp
            rows = [[((yk,), xk - yk, factor((k == n - 1, xp, xk, dp,
                                              xk - yk)))
                     for yk in range(xk + 1)] for dp in range(xp + 1)]
            prefixes = [(y + yk, dk, _mul(prefix, g))
                        for y, dp, prefix in prefixes
                        for yk, dk, g in rows[dp]]
        for y, _, (value, lo, hi, norm) in prefixes:
            label = ("W", n, (x, y))
            _check_bound(norm, width, label)
            if lo != psi_x - psi[y]:
                raise ArithmeticError(f"{_where(label)} does not start at v^L")
            w = interned.get((value, lo))
            if w is None:
                w = interned[(value, lo)] = (value, lo, hi, sum(map(
                    abs, _decode(value, lo, hi, width, label))))
            table[y][x] = table[y[::-1]][rx] = w
    return table


def bar_transition_matrix(n: int) -> Mapping:
    """All bar-transition coefficients {(x, y): coeff} for pairs y <= x in
    the parameter set; entry by entry equal to bar_transition_coeff.  Each
    call builds W anew and returns a read-only view that owns its table."""
    return _PackedView("W", n, _below, partial(_bar_table, n), _START_WIDTH)


@lru_cache(maxsize=None)
def _runs(pattern) -> tuple:
    """The maximal runs (start, stop) of true entries in pattern: its
    starts and stops alternate where pattern, padded with false at both
    ends, changes."""
    p = (False, *pattern, False)
    edges = [k for k in range(len(p) - 1) if p[k] != p[k + 1]]
    return tuple(zip(edges[::2], edges[1::2]))


def _box_solve(n: int, x, y, low: int, w_y: dict, bars: dict,
               width: int) -> tuple:
    """(z, bar(z), shift) for the one-run entry z = Z(x, y), from the W row
    w_y of y and the (z, bar(z), shift) of the entries of column x solved
    so far, bars; low = L(x, y).  The box sum is aligned (module
    docstring): its first pair W(x, y) starts at v^low, and the term
    bar Z(x, m) W(m, y) shift bits above it, where shift, stored with each
    entry, is width (lo bar z - lo z) / 2 of z = Z(x, m).

    z is the part of the rhs below v^0: its h = (1 - low) // 2 low slots,
    read from the sum mod 2^(width h), trimmed at their top end v^hi so
    that z and bar(z) are packed tight and so are the products of such.
    The rhs is accepted when it starts with 1 v^low and equals z - bar(z)
    exactly, packed as total == z - (bar(z) << shift).  That one equality
    says what a decode of the whole rhs would: nothing above v^-low, the
    rhs its own negated mirror image and its constant term zero."""
    label = ("Z", n, (x, y))
    total, lo, _, bound = w_y[x]
    # the box ends y and x, which bars does not hold, come first and last
    for m in list(_between(y, x))[1:-1]:
        _, (a, _, _, a_norm), shift = bars[m]
        b, _, _, b_norm = w_y[m]
        total += a * b << shift
        bound += a_norm * b_norm
    _check_bound(bound, width, label)
    if lo == low:
        # the low slots as a signed value: every slot of the sum is below
        # 2^(width - 2) in absolute value, so this is their packed value
        h = (1 - low) >> 1
        z = total & ((1 << width * h) - 1)
        if z >> (width * h - 1):
            z -= 1 << width * h
        slots = _decode(z, lo, lo + 2 * (h - 1), width, label)
        if slots[0] == 1:
            while not slots[h - 1]:
                h -= 1
            hi = lo + 2 * (h - 1)
            zbar, _, _, norm = _pack_slots(slots[h - 1::-1], -hi, width,
                                           label)
            shift = width * ((-hi - lo) >> 1)
            if total == z - (zbar << shift):
                return (z, lo, hi, norm), (zbar, -hi, -lo, norm), shift
    top = lo + 2 * max(-lo, abs(total).bit_length() // width)
    raise ArithmeticError(
        f"bar-antisymmetry failed solving entry ({x}, {y}) at n={n}: rhs = "
        f"{_raw(_terms(lo, _decode(total, lo, top, width, label)))}")


def _canonical_matrix(n: int, w: _PackedView) -> _PackedView:
    """Z on the packed kernel, one column x at a time, as a view over its
    by-target table; it takes the table of the W view w.  Each entry also
    fills its mirror.  A column's targets y are walked in reverse
    lexicographic order, which puts every m > y before y.  An entry whose
    x - y has two or more runs is a product of two entries found before it;
    an entry with one run is box-solved (_box_solve) once per local key and
    its mirror, kept under the one of the two met first, and reused (see
    the module docstring)."""
    def attempt(width):
        w_to, table = w._take(width), {y: {} for y in ptuples(n)}
        # (packed z, packed bar(z), shift) by the packed bar image, and by
        # local key in one orientation; psi gives L(x, y) = psi(x) - psi(y)
        interned, memo, psi = {}, {}, _psi(n)
        for x in _reversal_canonical(ptuples(n)):
            rx, xe, psi_x = x[::-1], padded(n, x), psi[x]
            table[x][x] = table[rx][rx] = _UNIT
            bars = {}  # (z, bar(z), shift) of the entries of this column
            # each target with the pattern x != y, x itself first
            targets = zip(
                itertools.product(*[range(c, -1, -1) for c in x]),
                itertools.product(*[(False,) + (True,) * c for c in x]))
            next(targets)
            for y, pattern in targets:
                runs = _runs(pattern)
                i, j = runs[-1]
                if len(runs) > 1:
                    # Z(x, y) is Z(x, u) Z(x, v), u and v being x with y's
                    # coordinates left of the last run and on it (module
                    # docstring), and so is its bar image.  Lows add, so
                    # shifts do; the ends are tight because the factors'
                    # are, and so is the norm: Z has nonnegative
                    # coefficients (Lusztig's positivity), so the norm of
                    # a product is the product of the norms
                    u, v = bars[y[:i] + x[i:]], bars[x[:i] + y[i:]]
                    zbar = _mul(u[1], v[1])
                    hit = interned.get(zbar[:2])
                    if hit is None:
                        z = _mul(u[0], v[0])
                        if z[3].bit_length() > width - 2:
                            _check_bound(z[3], width, ("Z", n, (x, y)))
                        hit = interned[zbar[:2]] = (z, zbar, u[2] + v[2])
                else:
                    key = (xe[i], xe[j + 1], x[i:j], y[i:j])
                    hit = memo.get(key)
                    if hit is None:
                        hit = memo.get((key[1], key[0], key[2][::-1],
                                        key[3][::-1]))
                    if hit is None:
                        hit = _box_solve(n, x, y, psi_x - psi[y], w_to[y],
                                         bars, width)
                        hit = memo[key] = interned.setdefault(hit[1][:2], hit)
                table[y][x] = table[y[::-1]][rx] = hit[0]
                bars[y] = hit
        return table

    return _PackedView("Z", n, lambda x: _descending(_below(x)), attempt,
                       w._width)


def canonical_transition_matrix(n: int) -> Mapping:
    """Canonical-to-PBW transition coefficients {(x, y): coeff}, y <= x.

    Diagonal entries are 1.  Each off-diagonal entry z solves
    z - bar(z) = w(x, y) + sum over y < m < x of bar(z(x, m)) w(m, y)
    inside v^-1 Z[v^-1], i.e. z is the negative-exponent part of the right
    hand side.  A column's targets are solved in reverse lexicographic
    order, which puts every m > y before y, so the needed intermediate
    entries always exist already; an entry whose x - y has two or more runs
    is the product of two of them (module docstring).  A right-hand side
    is accepted when it starts with 1 v^L(x, y) and equals z - bar(z)
    exactly.  One that does not, so one that has a constant term or is
    not bar-antisymmetric, means the bar-transition closed form is broken,
    and raises ArithmeticError.  W is read through the name
    bar_transition_matrix.  Every pair y <= x has a nonzero entry (module
    docstring).  Each call solves Z anew from a W of its own, whose table
    it takes, and returns a read-only view that owns its table.
    """
    return _canonical_matrix(n, bar_transition_matrix(n))


def _packed_pbw(n: int, y, width: int, factors: dict):
    """pbw_coeff(n, y) packed as the product of its packed q-binomial
    factors, memoized in factors at this width.  The factors have
    nonnegative coefficients, so the product of their norms is the norm of
    the product."""
    return _packed_product(*_pbw_factors(n, y), width, factors,
                           ("pbw factor", n, y))


def _canonical_coeffs(n: int, zeta: _PackedView) -> dict:
    """mu on the packed kernel, one coefficient at a time; it takes the
    table of the Z view zeta.  mu(y) sums over Z's row for y, which holds
    every Z(x, y); the sum starts with pbw(y), and the order of the other
    terms does not matter.  Mirrored coefficients are copied."""

    def attempt(width):
        # minus_mu holds packed -mu(x) of the coefficients found so far
        z_to, out, minus_mu, factors = zeta._take(width), {}, {}, {}
        for y in _descending(ptuples(n)):
            ry = y[::-1]
            if ry < y:
                if ry in out:
                    out[y] = out[ry]
                    minus_mu[y] = minus_mu[ry]
                continue
            label = ("mu", n, y)
            pairs = [(_packed_pbw(n, y, width, factors), _UNIT)]
            # minus_mu does not hold y yet, so the term x = y drops out
            for x, z in z_to[y].items():
                mu_x = minus_mu.get(x)
                if mu_x is not None:
                    pairs.append((mu_x, z))
            lo, slots = _dot(pairs, width, label)
            acc = _terms(lo, slots)
            if acc:
                minus_mu[y] = _pack_slots([-c for c in slots], lo, width,
                                          label)
                out[y] = _raw(acc)
        return out

    return _widening(attempt, zeta._width)[0]


@lru_cache(maxsize=None)
def canonical_coeffs(n: int) -> MappingProxyType:
    """Canonical-basis coefficients {y: coeff} of the staircase monomial.

    Back-substitution through the unitriangular canonical-to-PBW matrix:
    starting from the maximal parameter tuple, coeff(y) is the PBW
    coefficient of y minus the already-known contributions of all larger
    keys.  Zero coefficients are dropped.  The cached mapping is read-only.
    """
    return MappingProxyType(
        _canonical_coeffs(n, canonical_transition_matrix(n)))
