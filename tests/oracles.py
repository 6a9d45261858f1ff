"""Slow, independent oracles for the fast paths of the package.

* The straightforward ``LaurentPoly`` implementations of the three
  expansion stages: W entry by entry from the closed form
  ``bar_transition_coeff``, the triangular solve for Z, and the
  back-substitution for mu.  Every product is a dict-of-terms convolution,
  so they are independent of the packed-integer kernel in
  ``lindeg.expansion``; the tests compare the two for every n <= 6.  They
  walk boxes and orders with the oracles' own ``below``, ``between`` and
  ``descending``, not the engine's.
* The general two-row PBW expansion ``two_row_pbw_expansion``, built on
  the rank-2 identity ``rank2_straighten``; at the rows of
  ``staircase_exponents`` it gives the closed form ``pbw_coeff`` of
  ``lindeg.expansion``.
* ``one_coordinate_z``: a closed form of the Z entries whose x - y is
  nonzero in one coordinate, against the Z solve; it reads no W.
* ``pbw_coeff_degree`` and ``pbw_coeff_degree_gap``: closed forms for the
  top exponent of ``pbw_coeff`` and for its difference between two
  tuples, against the degrees of the coefficients themselves.
* ``motzkin_numbers``: M_0, M_1, ... by the convolution recurrence,
  against the three-term recurrence in ``lindeg.combinatorics``.
* ``has_single_peak``: the single-peak test by a search over every peak
  position p, against the one pass over the steps in
  ``lindeg.combinatorics``.
* ``rank_from_motzkin``: the support rank tuple of a Motzkin path by the
  four-index maximum, against the one-sweep form in
  ``lindeg.combinatorics``; ``rank_entries_from_motzkin`` gives it as a
  plain dict.
* ``kz_rank_general``: the dual rank entry by enumerating every monotone
  map, and ``kz_rank_minplus``: the same minimum by a min-plus recursion
  over the rows of the grid, whose cost grows with the number of rows (a
  binomial coefficient), not with the number of maps; both against the
  Moeglin-Waldspurger loop in ``lindeg.duality``.
* ``kz_rank_near_simple`` and its wrapper ``kz_rank_simple``: the
  near-simple closed form entry by entry, against the O(n^2) sweep
  ``dual_rank_tuple_near_simple`` and the general formula.
"""

import itertools
from functools import lru_cache
from operator import getitem

from lindeg.combinatorics import (
    Multisegment,
    RankTuple,
    in_parameter_set,
    is_motzkin_path,
    padded,
    path_to_multisegment,
    ptuples,
    upper_bounds,
)
from lindeg.duality import monotone_maps
from lindeg.expansion import bar_transition_coeff, pbw_coeff
from lindeg.laurent import ONE, ZERO, qbinom, v_power


def below(x):
    """All tuples 0 <= m <= x componentwise, lexicographic."""
    return itertools.product(*[range(c + 1) for c in x])


def between(y, x):
    """All tuples y <= m <= x componentwise, lexicographic."""
    return itertools.product(*[range(a, b + 1) for a, b in zip(y, x)])


def descending(keys):
    """Descending coordinate sum, ties in ascending lexicographic order."""
    return sorted(keys, key=lambda t: (-sum(t), t))


@lru_cache(maxsize=None)
def bar_transition_matrix(n: int) -> dict:
    """All bar-transition coefficients {(x, y): coeff} for pairs y <= x in
    the parameter set, one closed-form evaluation per entry."""
    out = {}
    for x in ptuples(n):
        for y in below(x):
            w = bar_transition_coeff(n, x, y)
            if w:
                out[(x, y)] = w
    return out


@lru_cache(maxsize=None)
def canonical_transition_matrix(n: int) -> dict:
    """Canonical-to-PBW transition coefficients {(x, y): coeff}, y <= x.

    Diagonal entries are 1.  Each off-diagonal entry z solves
    z - bar(z) = w(x, y) + sum over y < m < x of bar(z(x, m)) w(m, y)
    inside v^-1 Z[v^-1], i.e. z is the negative-exponent part of the right
    hand side; entries are solved for targets of descending coordinate sum
    so the needed intermediate entries always exist already.  A right-hand
    side with a constant term, or one that is not bar-antisymmetric, means
    the bar-transition closed form is broken, and raises ArithmeticError.
    Absent keys are zero.  Treat the returned dict as read-only.
    """
    w = bar_transition_matrix(n)
    out = {}
    for x in ptuples(n):
        out[(x, x)] = ONE
        bars = {}  # bar images of the entries solved so far in this column
        targets = [y for y in below(x) if y != x]
        for y in descending(targets):
            rhs = w.get((x, y), ZERO)
            for m in between(y, x):
                if m == x or m == y:
                    continue
                zbar = bars.get(m)
                if zbar is not None:
                    wmy = w.get((m, y))
                    if wmy is not None:
                        rhs = rhs + zbar * wmy
            if rhs.coefficient(0) or rhs.bar() != -rhs:
                raise ArithmeticError(
                    f"bar-antisymmetry failed solving entry ({x}, {y}) at "
                    f"n={n}: rhs = {rhs}")
            z = rhs.negative_part()
            if z:
                out[(x, y)] = z
                bars[y] = z.bar()
    return out


def one_coordinate_z(n: int, x, y):
    """The closed form of Z(x, y) when x - y is nonzero in one coordinate
    k only, or None when it is not: with d = x_k - y_k and, for x padded
    with zero ends, a_k = n + 1 - x_{k-1} - x_k,
    Z(x, y) = v^(-d (max(a_k, a_{k+1}) + d)) [min(a_k, a_{k+1}) + d choose d].
    It reads no W.  Its lowest term is 1 v^L(x, y), L = -d^2 -
    d (a_k + a_{k+1}), as proven for every Z entry; the rest is checked,
    not proven."""
    diff = [k for k, (a, b) in enumerate(zip(x, y), start=1) if a != b]
    if len(diff) != 1:
        return None
    k, = diff
    xe = padded(n, x)
    d = xe[k] - y[k - 1]
    a, b = n + 1 - xe[k - 1] - xe[k], n + 1 - xe[k] - xe[k + 1]
    return v_power(-d * (max(a, b) + d)) * qbinom(min(a, b) + d, d)


@lru_cache(maxsize=None)
def canonical_coeffs(n: int) -> dict:
    """Canonical-basis coefficients {y: coeff} of the staircase monomial.

    Back-substitution through the unitriangular canonical-to-PBW matrix:
    starting from the maximal parameter tuple, coeff(y) is the PBW
    coefficient of y minus the already-known contributions of all larger
    keys.  Zero coefficients are dropped.  Treat the returned dict as
    read-only.
    """
    zeta = canonical_transition_matrix(n)
    bounds = upper_bounds(n)
    out = {}
    for y in descending(ptuples(n)):
        acc = pbw_coeff(n, y)
        for x in between(y, bounds):
            if x == y:
                continue
            mu_x = out.get(x)
            if mu_x is None:
                continue
            z = zeta.get((x, y))
            if z is not None:
                acc = acc - mu_x * z
        if acc:
            out[y] = acc
    return out


def rank2_straighten(a: int, b: int, c: int) -> dict:
    """Coefficients rewriting E_i^(a) E_{i+1}^(b) E_i^(c) in PBW order.

    Returns {r: coefficient} for 0 <= r <= min(b, c), where the r-th term is
    v^{-(b-r)(c-r)} [a+c-r choose a] E_i^(a+c-r) E_{i,i+1}^(r) E_{i+1}^(b-r).
    """
    if min(a, b, c) < 0:
        raise ValueError("exponents must be nonnegative")
    return {r: v_power(-(b - r) * (c - r)) * qbinom(a + c - r, a)
            for r in range(min(b, c) + 1)}


def two_row_pbw_expansion(e, f) -> dict:
    """Expand E_1^(f_1)...E_n^(f_n) E_1^(e_1)...E_n^(e_n) over PBW monomials.

    The PBW monomials are indexed by tuples x with 0 <= x_i <= min(e_i,
    f_{i+1}); the coefficient of x is
    v^{-sum (e_i - x_i)(f_{i+1} - x_i)} *
    prod_i [e_i + f_i - x_{i-1} - x_i choose f_i - x_{i-1}].
    Zero coefficients are dropped.
    """
    e, f = tuple(e), tuple(f)
    if len(e) != len(f):
        raise ValueError("exponent rows must have equal length")
    if any(c < 0 for c in e + f):
        raise ValueError("exponents must be nonnegative")
    n = len(e)
    out = {}
    ranges = [range(min(e[i], f[i + 1]) + 1) for i in range(n - 1)]
    for x in itertools.product(*ranges):
        xe = (0,) + x + (0,)
        exponent = -sum((e[i] - x[i]) * (f[i + 1] - x[i]) for i in range(n - 1))
        coeff = v_power(exponent)
        for k in range(1, n + 1):
            coeff = coeff * qbinom(e[k - 1] + f[k - 1] - xe[k - 1] - xe[k],
                                   f[k - 1] - xe[k - 1])
            if not coeff:
                break
        if coeff:
            out[x] = coeff
    return out


def staircase_exponents(n: int) -> tuple:
    """The two exponent rows (1, ..., n) and (n, ..., 1) of the staircase
    monomial."""
    return tuple(range(1, n + 1)), tuple(range(n, 0, -1))


def pbw_coeff_degree(n: int, y) -> int:
    """Closed form for the top exponent of pbw_coeff(n, y):
    (1 - y_1) n + sum_k (n - k - y_k)(y_k - y_{k+1} + 1)."""
    y = tuple(y)
    if len(y) != n - 1:
        raise ValueError(f"expected a tuple of length {n - 1}, got {y!r}")
    ye = padded(n, y)
    return (1 - ye[1]) * n + sum((n - k - ye[k]) * (ye[k] - ye[k + 1] + 1)
                                 for k in range(1, n))


def pbw_coeff_degree_gap(n: int, y, z) -> int:
    """Closed form for pbw_coeff_degree(n, y) - pbw_coeff_degree(n, z):
    sum_k (z_k - y_k)(z_k - z_{k+1} + y_k - y_{k-1} + 2)."""
    y, z = tuple(y), tuple(z)
    if len(y) != n - 1 or len(z) != n - 1:
        raise ValueError("tuples must have length n - 1")
    ye, ze = padded(n, y), padded(n, z)
    return sum((ze[k] - ye[k]) * (ze[k] - ze[k + 1] + ye[k] - ye[k - 1] + 2)
               for k in range(1, n))


def motzkin_numbers(count: int) -> list:
    """M_0, ..., M_{count - 1} by the convolution recurrence
    M_{k+1} = M_k + sum_{i<k} M_i M_{k-1-i}, O(k) products per term."""
    m = [1]
    while len(m) < count:
        k = len(m) - 1
        m.append(m[k] + sum(m[i] * m[k - 1 - i] for i in range(k)))
    return m[:count]


def has_single_peak(n: int, x) -> bool:
    """A Motzkin path weakly increasing up to some index p and weakly
    decreasing from p on.  Membership is existential over p in 1..n-1."""
    if not is_motzkin_path(n, x):
        return False
    if n == 1:
        return True
    xe = padded(n, x)
    for p in range(1, n):
        if (all(xe[s - 1] <= xe[s] for s in range(1, p + 1))
                and all(xe[t] >= xe[t + 1] for t in range(p, n))):
            return True
    return False


def rank_from_motzkin(n: int, x) -> RankTuple:
    """The support rank tuple of a Motzkin path, from
    ``rank_entries_from_motzkin``."""
    return RankTuple(n, rank_entries_from_motzkin(n, x))


def rank_entries_from_motzkin(n: int, x) -> dict:
    """The support rank tuple of a Motzkin path, as {(i, j): r_ij}.

    r_ij = n + 1 - max over i <= k <= l <= m <= j of
    (x_{l-1} + x_l - x_{k-1} - x_m), with the implicit zero endpoints.
    The diagonal always comes out as n + 1.
    """
    if not is_motzkin_path(n, x):
        raise ValueError(f"{tuple(x)!r} is not a Motzkin path of length {n}")
    xe = padded(n, x)
    r = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            best = 0
            low_left = xe[i - 1]   # min of x_{k-1} over i <= k <= l
            for l in range(i, j + 1):
                low_left = min(low_left, xe[l - 1])
                low_right = min(xe[l:j + 1])  # min of x_m over l <= m <= j
                best = max(best, xe[l - 1] + xe[l] - low_left - low_right)
            r[(i, j)] = n + 1 - best
    return r


def kz_rank_general(m, i: int, j: int) -> int:
    """Entry (i, j) of the dual rank tuple by the full minimum formula.

    Minimizes, over monotone maps nu from [1, i] x [j, n] to [i, j], the sum
    of m_{nu(k,l)+k-i, nu(k,l)+l-j} over the grid; subscripts that leave the
    triangle 1 <= a <= b <= n contribute zero.
    """
    n = m.n
    if not (1 <= i <= j <= n):
        raise ValueError(f"need 1 <= i <= j <= {n}, got ({i}, {j})")
    mult = m.multiplicity
    cells = [(k, l) for k in range(1, i + 1) for l in range(j, n + 1)]
    best = None
    for nu in monotone_maps(i, n - j + 1, i, j):
        total = 0
        for k, l in cells:
            val = nu[k - 1][l - j]
            total += mult(val + k - i, val + l - j)
        if best is None or total < best:
            best = total
    return best


def dual_rank_tuple_general(m) -> RankTuple:
    """The full dual rank tuple of any multisegment, by enumeration."""
    n = m.n
    return RankTuple(n, {(i, j): kz_rank_general(m, i, j)
                         for i in range(1, n + 1) for j in range(i, n + 1)})


def kz_rank_minplus(m: Multisegment, i: int, j: int) -> int:
    """Entry (i, j) of the dual rank tuple by the full minimum formula.

    Minimizes, over monotone maps nu from [1, i] x [j, n] to [i, j], the sum
    of m_{nu(k,l)+k-i, nu(k,l)+l-j} over the grid; subscripts that leave the
    triangle 1 <= a <= b <= n contribute zero.

    A min-plus recursion over the rows of the grid.  A row is a weakly
    increasing tuple of n - j + 1 values in [i, j], and the map is monotone
    exactly when each row lies elementwise above the one before, so with
    c_k(row) the summands of row k,

        best_k(row) = c_k(row) + min over rows prev <= row of best_{k-1}(prev)

    and the entry is the minimum of best_i.  The downset minimum is built
    in the lexicographic order of the rows: at each row it is the minimum
    of best(row) and of the downset minima at the rows one below it in a
    single coordinate.  That reaches every prev <= row, since lowering the
    leftmost coordinate where prev and row differ keeps a row weakly
    increasing and still above prev.  With C(n - i + 1, n - j + 1) rows,
    the cost is O(i (n - j + 1) C(n - i + 1, n - j + 1)).
    """
    n = m.n
    if not (1 <= i <= j <= n):
        raise ValueError(f"need 1 <= i <= j <= {n}, got ({i}, {j})")
    ncols = n - j + 1
    rows = list(itertools.combinations_with_replacement(range(i, j + 1),
                                                        ncols))
    index = {row: t for t, row in enumerate(rows)}
    below = []  # per row, the indices of the rows one below it
    for row in rows:
        lower, left = [], i
        for c, v in enumerate(row):
            if v > left:
                lower.append(index[row[:c] + (v - 1,) + row[c + 1:]])
            left = v
        below.append(lower)
    mult = m.mult
    down = [0] * len(rows)
    for shift in range(1 - i, 1):  # shift = k - i for the grid rows k
        # summand of value v in column c: m_{v+k-i, v+c}
        cost = [[mult.get((v + shift, v + c), 0) for v in range(j + 1)]
                for c in range(ncols)]
        for t, row in enumerate(rows):
            best = down[t] + sum(map(getitem, cost, row))
            for s in below[t]:
                if down[s] < best:
                    best = down[s]
            down[t] = best
    return down[-1]


def dual_rank_tuple_minplus(m) -> RankTuple:
    """The full dual rank tuple of any multisegment, entry by entry from
    ``kz_rank_minplus``."""
    n = m.n
    return RankTuple(n, {(i, j): kz_rank_minplus(m, i, j)
                         for i in range(1, n + 1) for j in range(i, n + 1)})


def kz_rank_near_simple(m: Multisegment, i: int, j: int) -> int:
    """Entry (i, j) of the dual rank tuple for a near-simple multisegment."""
    n = m.n
    if not (1 <= i <= j <= n):
        raise ValueError(f"need 1 <= i <= j <= {n}, got ({i}, {j})")
    if not m.is_near_simple():
        raise ValueError("closed form requires segments of length at most 2")
    mult = m.multiplicity
    best = None
    for p in range(i, j + 1):
        head = mult(p - 1, p)
        for q in range(p, j + 1):
            mid = head + mult(q, q)
            for r in range(q, j + 1):
                total = mid + mult(r, r + 1)
                if best is None or total < best:
                    best = total
    return best


def kz_rank_simple(n: int, x, i: int, j: int) -> int:
    """Entry (i, j) of the dual rank tuple of the near-simple multisegment
    attached to a parameter tuple x."""
    if not in_parameter_set(n, x):
        raise ValueError(f"{tuple(x)!r} is not a parameter tuple for n={n}")
    return kz_rank_near_simple(path_to_multisegment(n, x), i, j)
