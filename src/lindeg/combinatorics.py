"""Motzkin paths, parameter tuples, multisegments and rank tuples.

Conventions used throughout:

* A Motzkin path of length n is a tuple ``x = (x_1, ..., x_{n-1})`` of
  nonnegative integers with implicit endpoints ``x_0 = x_n = 0`` and steps
  ``|x_i - x_{i-1}| <= 1``.  The number of such paths is the n-th Motzkin
  number.
* The ambient parameter set P(n) consists of all integer tuples y with
  ``0 <= y_k <= min(k, n-k)``; every Motzkin path lies in P(n).
* A multisegment is a multiplicity function on intervals [i, j] with
  ``1 <= i <= j <= n``; its rank tuple is ``r_ij = sum of multiplicities of
  the intervals containing [i, j]``, and the multisegment can be recovered
  from the rank tuple by inclusion-exclusion.

Everything here is pure and deterministic; enumerations are returned in
lexicographic order so that output is reproducible byte for byte.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import ge
from types import MappingProxyType

from .laurent import _is_int


# ---------------------------------------------------------------------------
# parameter tuples and Motzkin paths
# ---------------------------------------------------------------------------

def _check_n(n: int) -> None:
    if not _is_int(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")


def padded(n: int, x) -> tuple:
    """The tuple extended with the implicit zero endpoints x_0 and x_n."""
    return (0,) + tuple(x) + (0,)


def in_parameter_set(n: int, y) -> bool:
    """y has n - 1 int entries with 0 <= y_k <= min(k, n - k)."""
    bounds, y = upper_bounds(n), tuple(y)
    return len(y) == len(bounds) and all(
        _is_int(c) and 0 <= c <= b for c, b in zip(y, bounds))


def is_motzkin_path(n: int, x) -> bool:
    """x lies in P(n) and moves by unit steps between the zero endpoints;
    every Motzkin path lies in P(n), so this is the whole rule."""
    x = tuple(x)
    return in_parameter_set(n, x) and all(
        abs(b - a) <= 1 for a, b in itertools.pairwise(padded(n, x)))


def _parameter_tuple(n: int, y) -> tuple:
    """y as a tuple when it lies in P(n); ValueError otherwise."""
    y = tuple(y)
    if not in_parameter_set(n, y):
        raise ValueError(f"{y!r} is not a parameter tuple for n={n}")
    return y


def _motzkin_path(n: int, x) -> tuple:
    """x as a tuple when it is a Motzkin path of length n; ValueError
    otherwise."""
    x = tuple(x)
    if not is_motzkin_path(n, x):
        raise ValueError(f"{x!r} is not a Motzkin path of length {n}")
    return x


def upper_bounds(n: int) -> tuple:
    """The componentwise-maximal parameter tuple (min(k, n-k))_k."""
    _check_n(n)
    return tuple(min(k, n - k) for k in range(1, n))


@lru_cache(maxsize=None)
def _motzkin_paths(n: int) -> tuple:
    _check_n(n)
    paths = [(0,)]  # prefixes (x_0, ..., x_{i-1}), lexicographically
    for i in range(1, n):
        # x_i stays nonnegative and can get back to x_n = 0 in time
        paths = [p + (h,) for p in paths
                 for h in range(max(p[-1] - 1, 0), min(p[-1] + 1, n - i) + 1)]
    return tuple(p[1:] for p in paths)


def motzkin_paths(n: int) -> list:
    """All Motzkin paths of length n, lexicographically ordered."""
    return list(_motzkin_paths(n))


@lru_cache(maxsize=None)
def _ptuples(n: int) -> tuple:
    ranges = [range(b + 1) for b in upper_bounds(n)]
    return tuple(itertools.product(*ranges))


def ptuples(n: int) -> list:
    """The full parameter set P(n), lexicographically ordered."""
    return list(_ptuples(n))


def leq(a, b) -> bool:
    """Componentwise order on int tuples of equal length; ValueError on any
    other pair."""
    a, b = tuple(a), tuple(b)
    if len(a) != len(b) or not all(map(_is_int, a + b)):
        raise ValueError(f"{a!r} and {b!r} are not int tuples of one length")
    return all(x <= y for x, y in zip(a, b))


def _motzkin_numbers():
    """M_0, M_1, M_2, ... without end, by the three-term recurrence
    (k + 3) M_{k+1} = (2k + 3) M_k + 3k M_{k-1}, whose division is exact."""
    prev, m, k = 0, 1, 0
    while True:
        yield m
        prev, m = m, ((2 * k + 3) * m + 3 * k * prev) // (k + 3)
        k += 1


def _bell_numbers():
    """B_0, B_1, B_2, ... without end, the first entries of the rows of
    the Bell triangle."""
    row = [1]
    while True:
        yield row[0]
        row = list(itertools.accumulate(row, initial=row[-1]))


def _nth(numbers, n: int) -> int:
    """Entry n of the endless sequence numbers, counted from 0."""
    if not _is_int(n):
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return next(itertools.islice(numbers, n, None))


def motzkin_number(n: int) -> int:
    """The n-th Motzkin number M_n (M_0 = 1)."""
    return _nth(_motzkin_numbers(), n)


def bell_number(n: int) -> int:
    """The n-th Bell number via the Bell triangle (B_0 = 1)."""
    return _nth(_bell_numbers(), n)


# ---------------------------------------------------------------------------
# multisegments and rank tuples
# ---------------------------------------------------------------------------

def segments_str(items) -> str:
    """((i, j), value) items as "i,j=value;...", "0" when there are none."""
    return ";".join(f"{i},{j}={v}" for (i, j), v in items) or "0"


class Multisegment:
    """A nonnegative multiplicity function on the intervals [i, j], i <= j <= n."""

    __slots__ = ("n", "mult")

    def __init__(self, n: int, mult=None):
        _check_n(n)
        data = {}
        items = mult.items() if hasattr(mult, "items") else mult or ()
        for (i, j), m in items:
            if not (_is_int(i) and _is_int(j) and 1 <= i <= j <= n):
                raise ValueError(f"invalid interval ({i}, {j}) for n={n}")
            if not _is_int(m) or m < 0:
                raise ValueError(f"multiplicity of ({i}, {j}) must be a "
                                 f"nonnegative integer, got {m!r}")
            if m:
                data[(i, j)] = data.get((i, j), 0) + m
        self.n = n
        self.mult = data

    def multiplicity(self, i: int, j: int) -> int:
        """Multiplicity of [i, j]; zero outside the valid triangle."""
        return self.mult.get((i, j), 0)

    def is_near_simple(self) -> bool:
        """True when only intervals of length 1 or 2 occur."""
        return all(j - i <= 1 for (i, j) in self.mult)

    def rank_tuple(self) -> "RankTuple":
        """r_ij = sum of m_kl over the intervals [k, l] containing [i, j],
        by 2-D suffix sums: totals[j] collects row k's sums over l >= j for
        every k <= i."""
        n, get = self.n, self.mult.get
        totals = [0] * (n + 1)
        values = []
        for i in range(1, n + 1):
            tail = 0
            for j in range(n, i - 1, -1):
                tail += get((i, j), 0)
                totals[j] += tail
            values += totals[i:]
        return _rank_tuple(n, tuple(values))

    def to_pairs(self) -> list:
        return [[i, j, self.mult[(i, j)]] for (i, j) in sorted(self.mult)]

    def __eq__(self, other):
        return (isinstance(other, Multisegment)
                and self.n == other.n and self.mult == other.mult)

    def __hash__(self):
        return hash((self.n, frozenset(self.mult.items())))

    def __repr__(self):
        body = segments_str(sorted(self.mult.items()))
        return f"Multisegment(n={self.n}, {body})"


class RankTuple:
    """A full upper-triangular tuple (r_ij)_{1 <= i <= j <= n}.

    Stored as n and ``values``, the entries r_ij as one tuple in ascending
    (i, j) order; ``r`` is a read-only {(i, j): r_ij} view of them.  The
    diagonal is stored even though tables usually omit it, because the
    multisegment <-> rank conversion needs it; text output prints the
    off-diagonal entries in the order r_12, r_13, ..., r_{n-1,n}.
    Instances are immutable, so cached ones can be handed out safely.
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, r):
        _check_n(n)
        values = []
        for key in _layout(n).keys:
            if key not in r:
                raise ValueError(f"missing entry {key} for n={n}")
            val = r[key]
            if not _is_int(val) or val < 0:
                raise ValueError(f"entry {key} must be a nonnegative "
                                 f"integer, got {val!r}")
            values.append(val)
        if len(r) != len(values):
            extra = set(r) - set(_layout(n).keys)
            raise ValueError(f"unexpected entries {sorted(extra)} for n={n}")
        _set_n(self, n)
        _set_values(self, tuple(values))

    def __setattr__(self, name, value):
        raise AttributeError(f"RankTuple is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"RankTuple is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return _rank_tuple, (self.n, self.values)

    @property
    def r(self) -> MappingProxyType:
        """The entries as a read-only {(i, j): r_ij} mapping, in ascending
        key order."""
        return MappingProxyType(dict(zip(_layout(self.n).keys, self.values)))

    def __getitem__(self, key):
        return self.values[_layout(self.n).index[key]]

    def value(self, i: int, j: int) -> int:
        """Entry r_ij, with the formal value 0 outside the triangle."""
        pos = _layout(self.n).index.get((i, j))
        return 0 if pos is None else self.values[pos]

    def off_diagonal(self) -> tuple:
        return tuple(map(self.values.__getitem__,
                         _layout(self.n).off_diagonal))

    def hat(self) -> "RankTuple":
        """The reflection involution r_ij -> r_{n+1-j, n+1-i}."""
        return _rank_tuple(self.n, tuple(map(self.values.__getitem__,
                                             _layout(self.n).hat)))

    def geq_r1(self) -> bool:
        """Componentwise comparison against the threshold tuple n+1+i-j."""
        return all(map(ge, self.values, _layout(self.n).threshold))

    def to_multisegment(self) -> Multisegment:
        """Inclusion-exclusion inverse of Multisegment.rank_tuple()."""
        vals = self.values + (0,)  # the formal 0 outside the triangle
        mult = {}
        for pos, (key, up, right, corner) in enumerate(
                _layout(self.n).neighbours):
            m = vals[pos] - vals[up] - vals[right] + vals[corner]
            if m < 0:
                raise ValueError(
                    f"not the rank tuple of a multisegment: "
                    f"inclusion-exclusion gives {m} at {key}")
            if m:
                mult[key] = m
        return Multisegment(self.n, mult)

    def to_pairs(self) -> list:
        return [[i, j, v] for (i, j), v in zip(_layout(self.n).keys,
                                                self.values)]

    def __eq__(self, other):
        return (isinstance(other, RankTuple)
                and self.n == other.n and self.values == other.values)

    def __hash__(self):
        return hash((self.n, self.values))

    def __lt__(self, other):
        if not isinstance(other, RankTuple) or self.n != other.n:
            return NotImplemented
        return self.values < other.values

    def __repr__(self):
        return f"RankTuple(n={self.n}, off_diagonal={self.off_diagonal()})"


# __setattr__ refuses every assignment, so the slots are filled through
# their descriptors
_set_n = RankTuple.n.__set__
_set_values = RankTuple.values.__set__


def _rank_tuple(n: int, values: tuple) -> RankTuple:
    """Wrap a complete tuple of nonnegative int entries, in ascending (i, j)
    order, without validating it; for tuples the package builds itself."""
    rt = object.__new__(RankTuple)
    _set_n(rt, n)
    _set_values(rt, values)
    return rt


def _multisegment(n: int, mult: dict) -> Multisegment:
    """Wrap a dict {(i, j): multiplicity} of positive int multiplicities
    on intervals 1 <= i <= j <= n, without validating or copying it; for
    multisegments the package builds itself."""
    m = object.__new__(Multisegment)
    m.n = n
    m.mult = mult
    return m


class _Layout:
    """Positions in the value tuple of a rank tuple for one n."""

    __slots__ = ("keys", "index", "off_diagonal", "hat", "threshold",
                 "neighbours")

    def __init__(self, n: int):
        # (i, j), 1 <= i <= j <= n, ascending, and (i, j) -> its position
        self.keys = keys = tuple((i, j) for i in range(1, n + 1)
                                 for j in range(i, n + 1))
        self.index = index = {key: pos for pos, key in enumerate(keys)}
        # the positions of r_12, r_13, ..., r_{n-1,n}
        self.off_diagonal = tuple(pos for pos, (i, j) in enumerate(keys)
                                  if i != j)
        # the position of r_{n+1-j, n+1-i}, per position
        self.hat = tuple(index[(n + 1 - j, n + 1 - i)] for (i, j) in keys)
        self.threshold = tuple(n + 1 + i - j for (i, j) in keys)
        # per position, (key, the positions of (i-1, j), (i, j+1) and
        # (i-1, j+1)); len(keys) stands for a key outside the triangle
        outside = len(keys)
        self.neighbours = tuple(
            ((i, j),) + tuple(index.get(key, outside) for key in
                              ((i - 1, j), (i, j + 1), (i - 1, j + 1)))
            for (i, j) in keys)


#: the layout of one n, built once
_layout = lru_cache(maxsize=None)(_Layout)


def path_to_multisegment(n: int, x) -> Multisegment:
    """The near-simple multisegment attached to a parameter tuple.

    Length-2 intervals get multiplicity x_k and the single points get
    multiplicity n + 1 - x_l - x_{l-1} (with the implicit zero endpoints).
    The tuple's length and entries are checked before any arithmetic.
    """
    _check_n(n)
    x = tuple(x)
    if len(x) != n - 1:
        raise ValueError(f"expected a tuple of length {n - 1}, got {x!r}")
    if not all(map(_is_int, x)):
        raise ValueError(f"non-integer entry in {x!r}")
    if min(x, default=0) < 0:
        raise ValueError(f"negative entry in {x!r}")
    xe = padded(n, x)
    mult = {(k, k + 1): c for k, c in enumerate(x, start=1) if c}
    for l in range(1, n + 1):
        a = n + 1 - xe[l] - xe[l - 1]
        if a < 0:
            raise ValueError(
                f"{x!r} gives a negative point multiplicity at {l}")
        if a:
            mult[(l, l)] = a
    return Multisegment(n, mult)


def r1_tuple(n: int) -> RankTuple:
    """The threshold rank tuple (n + 1 + i - j)_{i <= j}."""
    _check_n(n)
    return _rank_tuple(n, _layout(n).threshold)


def rank_from_motzkin(n: int, x) -> RankTuple:
    """The support rank tuple of a Motzkin path.

    r_ij = n + 1 - max over i <= k <= l <= m <= j of
    (x_{l-1} + x_l - x_{k-1} - x_m), with the implicit zero endpoints.
    The diagonal always comes out as n + 1.

    Evaluated in one O(n) sweep over j per row i, ``_rank_row``.  The
    minimum of x_m over m in [l, j] is subtracted, i.e. the maximum of -x_m
    is added, so the maximum over k <= l <= m separates into running extrema:

        low_l  = min over i <= k <= l of x_{k-1},
        top_m  = max over i <= l <= m of (x_{l-1} + x_l - low_l),
        best_j = max over i <= m <= j of (top_m - x_m),

    and r_ij = n + 1 - best_j.  When j grows by one, each of the three
    takes one more term, with j as the new k, l or m.  The term
    k = l = m is 0, so best_j >= 0, and top_m >= x_m >= 0; both therefore
    start at 0.  ``tests/oracles.py`` keeps the four-index form, and the
    tests compare the two on every Motzkin path up to n = 10.
    """
    return _motzkin_rank(n, _motzkin_path(n, x))


def _motzkin_rank(n: int, x) -> RankTuple:
    """``rank_from_motzkin`` without the path check, for paths the package
    enumerated itself."""
    xe = padded(n, x)
    return _rank_tuple(n, tuple([v for i in range(n)
                                 for v in _rank_row(n, xe[i:])]))


def _rank_row(n: int, suffix) -> list:
    """Row i, r_ii, ..., r_in, of the rank tuple of a Motzkin path; it reads
    only the path's padded suffix (x_{i-1}, ..., x_n)."""
    low = suffix[0]
    top = best = 0
    row = []
    for prev, cur in zip(suffix, suffix[1:]):
        if prev < low:
            low = prev
        if prev + cur - low > top:
            top = prev + cur - low
        if top - cur > best:
            best = top - cur
        row.append(n + 1 - best)
    return row


# ---------------------------------------------------------------------------
# single-peak paths and the PBW locus
# ---------------------------------------------------------------------------

def has_single_peak(n: int, x) -> bool:
    """A Motzkin path weakly increasing up to some index p and weakly
    decreasing from p on: along the padded path, no rise follows a fall."""
    x = tuple(x)
    if not is_motzkin_path(n, x):
        return False
    steps = [b - a for a, b in itertools.pairwise(padded(n, x)) if a != b]
    return all(map(ge, steps, steps[1:]))


def single_peak_paths(n: int) -> list:
    """All single-peak Motzkin paths; there are exactly 2^(n-1) of them."""
    return [x for x in motzkin_paths(n) if has_single_peak(n, x)]


def pbw_locus_ranks(n: int) -> list:
    """The 2^(n-1) rank tuples of the locus where fibres are Schubert
    varieties: next-neighbour entries in {n, n+1} and, for longer intervals,
    r_ij = n + 1 - #{k in [i, j-1] with r_{k,k+1} = n}.

    One tuple per subset of {1, ..., n-1}; returned in bitmask order.
    """
    _check_n(n)
    keys = _layout(n).keys
    out = []
    for mask in range(1 << (n - 1)):
        drops = {k for k in range(1, n) if mask >> (k - 1) & 1}
        out.append(_rank_tuple(n, tuple(
            n + 1 - sum(1 for k in drops if i <= k < j) for (i, j) in keys)))
    return out
