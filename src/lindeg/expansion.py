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
  pairs only.
* ``canonical_transition_matrix`` solves the triangular system expressing
  bar invariance of the canonical basis: each off-diagonal entry is the
  unique element of v^-1 Z[v^-1] whose bar-antisymmetrization matches an
  already-known right-hand side, i.e. its negative-exponent part.
* ``canonical_coeffs`` back-substitutes through that unitriangular matrix,
  turning the PBW coefficients of the staircase monomial into canonical
  ones.

All coefficients are exact Laurent polynomials; every step is deterministic
(keys are processed by descending coordinate sum, ties lexicographic).  The
stages run on a packed-integer kernel (see the notes below) and hand each
other packed tables.  Each call of ``bar_transition_matrix`` or
``canonical_transition_matrix`` computes its stage anew and returns a
read-only view that owns the table and decodes an entry on its first read.
The Z solve takes the table of a W view of its own and mu takes the table
of a Z view of its own, so no table outlives the stage that reads it.

Reversal symmetry.  Write rev x for the reversed tuple.  Then
W(x, y) = W(rev x, rev y), Z(x, y) = Z(rev x, rev y) and mu(y) = mu(rev y),
and each stage computes only one of every mirrored pair:

* Reversal sends a_k to a_{n+1-k} and d_k to d_{n-k}, so for (rev x,
  rev y) the factor [a_k + d_k + d_{k-1} choose d_k] [a_k + d_{k-1} choose
  d_{k-1}] of ``bar_transition_coeff`` becomes, reindexed by k -> n + 1 - k,
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
coordinates (padded with x_0 = x_n = d_0 = d_n = 0), the per-coordinate
factors v^(-d_k (d_k - 1) / 2) (v^-1 - v)^(d_k) [d_k]! shared out to one
side; g = 1 when d_{k-1} = d_k = 0.  Fix a column x.  Its entries Z(x, t)
for t in a box [y, x] are the unique solution of the system on that box:
Z(x, x) = 1, Z(x, t) in v^-1 Z[v^-1] for t < x, and
Z(x, t) = sum over t <= m <= x of bar(Z(x, m)) W(m, t), because solving it
by descending coordinate sum fixes each Z(x, t) as the only element of
v^-1 Z[v^-1] with a given z - bar(z).  Two facts follow:

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
* One run.  If d is nonzero exactly on the block i..j, every factor of
  W(m, t) for m, t in [y, x] is 1 except those for k = i..j+1, which read
  only x_{i-1}, x_{j+1}, m and t on the block.  So the system on the box,
  and with it Z(x, y), depends only on n and the local key (x_{i-1},
  x_{j+1}, x_i..x_j, y_i..y_j).  A pair with the reversed key (x_{j+1},
  x_{i-1}, reversed blocks) is the mirror of one with the key itself, so
  by the reversal symmetry it has the same entry.

The Z solve box-solves one entry per reversal-canonical local key and
builds the entries with two or more runs as products of their run factors.

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
* mu.  Packed -mu(x) starts where its sum does, at pbw(x)'s lowest
  exponent lo pbw(x), so its product with Z(x, y) starts at
  lo pbw(x) + L(x, y).  pbw(t) = sum over s >= t of mu(s) Z(s, t) is a sum
  of terms with nonnegative coefficients (Lusztig's positivity: mu in
  N[v, v^-1], Z in N[v^-1]), so lo pbw(t) is the least lo mu(s) + L(s, t)
  over s >= t with mu(s) != 0.  With L(s, x) + L(x, y) = L(s, y) this
  gives lo pbw(x) + L(x, y) >= lo pbw(y): no product in the sum for mu(y)
  starts below its first pair, pbw(y) 1.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Mapping
from functools import lru_cache, partial
from math import comb, prod
from operator import ne, neg
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
    e, keys = _pbw_factors(n, _parameter_tuple(n, y))
    return prod(itertools.starmap(qbinom, keys), start=v_power(e))


def _pbw_factors(n: int, y) -> tuple:
    """The closed form of pbw_coeff(n, y) in parts: the exponent
    -sum (k - y_k)(n - k - y_k), and the (top, bottom) of each q-binomial
    factor [n + 1 - y_{k-1} - y_k choose k - y_k], k = 1..n."""
    ye = padded(n, y)
    return (-sum((k - ye[k]) * (n - k - ye[k]) for k in range(1, n)),
            [(n + 1 - ye[k - 1] - ye[k], k - ye[k]) for k in range(1, n + 1)])


def bar_transition_coeff(n: int, x, y) -> LaurentPoly:
    """Coefficient of the PBW monomial y in the bar image of the PBW
    monomial x; zero unless x >= y componentwise.

    With d = x - y and a_k = n + 1 - x_{k-1} - x_k:
    v^{-(1/2) sum d_k (d_k - 1)} (v^-1 - v)^{sum d_k} prod [d_k]! *
    prod_k [a_k + d_k + d_{k-1} choose d_k] [a_k + d_{k-1} choose d_{k-1}].
    """
    x, y = _parameter_tuple(n, x), _parameter_tuple(n, y)
    if not leq(y, x):
        return LaurentPoly()
    if x == y:
        return ONE
    xe = padded(n, x)
    de = tuple(a - b for a, b in zip(xe, padded(n, y)))
    twice_exp = sum(d * (d - 1) for d in de)
    coeff = v_power(-twice_exp // 2) * _VINV_MINUS_V ** sum(de)
    for d in de[1:n]:
        coeff = coeff * qfact(d)
    for k in range(1, n + 1):
        a_k = n + 1 - xe[k - 1] - xe[k]
        coeff = coeff * qbinom(a_k + de[k] + de[k - 1], de[k])
        coeff = coeff * qbinom(a_k + de[k - 1], de[k - 1])
    return coeff


def _pairs(n: int) -> int:
    """The number of pairs y <= x in P(n), so of W's entries: the pairs
    0 <= y_k <= x_k <= b_k count per coordinate, b the upper bounds."""
    return prod(comb(b + 2, 2) for b in upper_bounds(n))


def _below(x):
    """All tuples 0 <= m <= x componentwise, lexicographic."""
    return itertools.product(*[range(c + 1) for c in x])


def _between(y, x):
    """All tuples y <= m <= x componentwise, lexicographic."""
    return itertools.product(*[range(a, b + 1) for a, b in zip(y, x)])


def _descending(keys):
    """Descending coordinate sum, ties in ascending lexicographic order."""
    return sorted(keys, key=lambda t: (-sum(t), t))


# ---------------------------------------------------------------------------
# packed-integer kernel
#
# Every W, Z and mu entry has its exponents in one parity class.  Such an
# entry is packed once as (value, lo, hi, norm): value = sum_i c_i 2^(width i)
# is its evaluation at a power of two (Kronecker substitution) with signed
# slots for the coefficients c_i of v^(lo + 2i), lo <= lo + 2i <= hi, and
# norm is at least the sum of the absolute values of its coefficients.
# Evaluation is a ring homomorphism, so one big-int multiply packs the
# product of two entries and shifted big-int sums pack sums of products.
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
    """Pack the coefficients of v^lo, v^(lo + 2), ... (nonempty)."""
    norm = sum(map(abs, slots))
    _check_bound(norm, width, label)
    code = _TYPECODES.get(width)
    if code:
        raw = array(code, slots).tobytes()
    else:
        raw = b"".join(c.to_bytes(width // 8, "little", signed=True)
                       for c in slots)
    bias = _bias(len(slots), width)
    value = (int.from_bytes(raw, "little") ^ bias) - bias
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

    One pass, relative to the first pair's lowest exponent: in every sum the
    stages form no product starts lower (module docstring), and one that
    does is refused."""
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

def _bar_table(n: int, width: int) -> dict:
    """W on the packed kernel as a by-target table in width-bit slots, one
    column x at a time.  One loop per coordinate k extends the lexicographic
    list of (y prefix, d_k, packed prefix product) by the memoized local
    factors g_k(x_{k-1}, x_k, d_{k-1}, d_k) of the closed form; g_n is
    folded into the factor for k = n - 1, so each entry costs about one
    multiply.  A new entry is decoded once, for the slot guard and its tight
    norm.  Each entry also fills its mirror (rev x, rev y)."""
    table, interned, factors = {y: {} for y in ptuples(n)}, {}, {}

    def local(xp, xk, dp, dk):
        a = n + 1 - xp - xk
        return (qbinom(a + dk + dp, dk) * qbinom(a + dp, dp) * qfact(dk)
                * v_power(-dk * (dk - 1) // 2) * _VINV_MINUS_V ** dk)

    # the largest entries lie in the largest columns: walked from the top, a
    # refused width shows before any work is done
    for x in reversed(ptuples(n)):
        rx = x[::-1]
        if rx < x:
            continue  # filled when its mirror rx is walked
        xe = padded(n, x)
        prefixes = [((), 0, _UNIT)]
        for k in range(1, n):
            grown = []
            for y, dp, prefix in prefixes:
                for yk in range(xe[k] + 1):
                    dk = xe[k] - yk
                    key = (k == n - 1, xe[k - 1], xe[k], dp, dk)
                    g = factors.get(key)
                    if g is None:
                        g = local(xe[k - 1], xe[k], dp, dk)
                        if k == n - 1:
                            g = g * local(xe[k], 0, dk, 0)
                        g = factors[key] = _pack(g._terms, width,
                                                 ("W factor", n, key))
                    grown.append((y + (yk,), dk, _mul(prefix, g)))
            prefixes = grown
        for y, _, (value, lo, hi, norm) in prefixes:
            label = ("W", n, (x, y))
            _check_bound(norm, width, label)
            w = interned.get((value, lo))
            if w is None:
                slots = _decode(value, lo, hi, width, label)
                w = interned[(value, lo)] = (value, lo, hi,
                                             sum(map(abs, slots)))
            table[y][x] = table[y[::-1]][rx] = w
    return table


def bar_transition_matrix(n: int) -> Mapping:
    """All bar-transition coefficients {(x, y): coeff} for pairs y <= x in
    the parameter set; entry by entry equal to bar_transition_coeff.  Each
    call builds W anew and returns a read-only view that owns its table."""
    return _PackedView("W", n, _below, partial(_bar_table, n), _START_WIDTH)


@lru_cache(maxsize=None)
def _runs(pattern) -> tuple:
    """The maximal runs (start, stop) of true entries in pattern."""
    runs = []
    for k, nonzero in enumerate(pattern):
        if nonzero:
            if runs and runs[-1][1] == k:
                runs[-1][1] = k + 1
            else:
                runs.append([k, k + 1])
    return tuple(map(tuple, runs))


def _canonical_matrix(n: int, w: _PackedView) -> _PackedView:
    """Z on the packed kernel, one column x at a time, as a view over its
    by-target table; it takes the table of the W view w.  Each entry also
    fills its mirror.  An entry whose x - y has two or more runs is the
    product of its run factors; an entry with one run is box-solved once
    per reversal-canonical local key and reused (see the module
    docstring)."""

    def box_solve(x, y, w_y, bars, width, interned):
        pairs = [(w_y[x], _UNIT)]
        # bars holds neither x nor the unsolved y: the box ends drop out
        for m in _between(y, x):
            hit = bars.get(m)
            if hit is not None:
                pairs.append((hit[1], w_y[m]))
        label = ("Z", n, (x, y))
        lo, slots = _dot(pairs, width, label)
        # the rhs starts with 1 v^lo, lo = L(x, y) <= -1 (module docstring),
        # and a bar-antisymmetric rhs is its own negated mirror image, so it
        # lies on the 1 - lo slots of the window [lo, -lo] and equals its
        # negated reversal there, which forces a zero constant term.  A
        # broken rhs that starts at lo >= 0 is refused on that alone: there
        # 1 - lo counts no slots, and the slices would cut from the far end
        window = slots[:1 - lo]
        if (lo >= 0 or slots[0] != 1 or len(window) < 1 - lo
                or any(slots[1 - lo:])
                or list(map(neg, reversed(window))) != list(window)):
            raise ArithmeticError(
                f"bar-antisymmetry failed solving entry ({x}, {y}) at "
                f"n={n}: rhs = {_raw(_terms(lo, slots))}")
        # z is the part of the rhs below v^0, the lower half of the window,
        # trimmed at its top end so that z and bar(z) are packed tight and
        # so are the products of such
        zslots = window[:len(window) // 2]
        while not zslots[-1]:
            del zslots[-1]
        zbar = _pack_slots(zslots[::-1], -lo - 2 * (len(zslots) - 1),
                           width, label)
        return interned.setdefault(
            zbar[:2], (_pack_slots(zslots, lo, width, label), zbar))

    def product(x, y, runs, bars, width, interned):
        # Z(x, y) and its bar image are the products of the run factors'
        # (z, bar(z)) pairs.  Their ends are tight because the factors' are,
        # and so is their norm: Z has nonnegative coefficients (Lusztig's
        # positivity), so the norm of a product is the product of the norms
        z = zbar = _UNIT
        for i, j in runs:
            f = bars[x[:i] + y[i:j] + x[j:]]
            z, zbar = _mul(z, f[0]), _mul(zbar, f[1])
        _check_bound(z[3], width, ("Z", n, (x, y)))
        return interned.setdefault(zbar[:2], (z, zbar))

    def attempt(width):
        w_to, table = w._take(width), {y: {} for y in ptuples(n)}
        # (packed z, packed bar(z)) by the packed bar image, and by local key
        interned, memo = {}, {}
        for x in ptuples(n):
            rx = x[::-1]
            if rx < x:
                continue  # filled while its mirror rx was solved
            xe = padded(n, x)
            table[x][x] = table[rx][rx] = _UNIT
            bars = {}  # (z, bar(z)) of the entries solved in this column
            for y in _descending(_below(x))[1:]:
                runs = _runs(tuple(map(ne, x, y)))
                if len(runs) > 1:
                    hit = product(x, y, runs, bars, width, interned)
                else:
                    (i, j), = runs
                    key = (xe[i], xe[j + 1], x[i:j], y[i:j])
                    key = min(key, (key[1], key[0], key[2][::-1],
                                    key[3][::-1]))
                    if key not in memo:
                        memo[key] = box_solve(x, y, w_to[y], bars, width,
                                              interned)
                    hit = memo[key]
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
    hand side; entries are solved for targets of descending coordinate sum
    so the needed intermediate entries always exist already.  A right-hand
    side that does not start with coefficient 1, has a constant term or is
    not bar-antisymmetric means the bar-transition closed form is broken,
    and raises ArithmeticError.  W is read through the name
    bar_transition_matrix.  Every pair y <= x has a nonzero entry (module
    docstring).  Each call solves Z anew from a W of its own, whose table
    it takes, and returns a read-only view that owns its table.
    """
    return _canonical_matrix(n, bar_transition_matrix(n))


def _packed_pbw(n: int, y, width: int, factors: dict):
    """pbw_coeff(n, y) packed as the product of its packed q-binomial
    factors, memoized in factors by (top, bottom) at this width.  The
    factors have nonnegative coefficients, so the product of their norms is
    the norm of the product."""
    e, keys = _pbw_factors(n, y)
    packed = (1, e, e, 1)
    for key in keys:
        f = factors.get(key)
        if f is None:
            f = factors[key] = _pack(qbinom(*key)._terms, width,
                                     ("pbw factor", n, key))
        packed = _mul(packed, f)
    return packed


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
