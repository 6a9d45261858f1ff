"""Knight-Zelevinsky multisegment duality, as rank tuples.

``kz_rank_general`` evaluates the full minimum formula over all monotone
maps from the grid [1, i] x [j, n] into [i, j], for any multisegment.  It
does not enumerate the maps (plane partitions in an i x (n - j + 1) x
(j - i) box) but runs a min-plus recursion over the rows of the grid,
whose number is only a binomial coefficient.

When every segment has length 1 or 2 the grid minimum collapses to the
closed form

    r_ij = min over i <= p <= q <= r <= j of
           (m_{p-1,p} + m_{q,q} + m_{r,r+1}),

with out-of-range multiplicities read as zero.
``dual_rank_tuple_near_simple`` evaluates it for a whole rank tuple in
O(n^2), one sweep over j per row i.  ``dual_rank_tuple`` runs the same
sweep on the multisegment of a parameter tuple x, reading m_{k-1,k} =
x_{k-1}, m_{k,k} = n + 1 - x_{k-1} - x_k and m_{k,k+1} = x_k off x.

``tests/oracles.py`` keeps the reference forms the tests compare these
with: the enumeration over ``monotone_maps``, and the closed form
evaluated entry by entry (``kz_rank_near_simple``, ``kz_rank_simple``).
The package never computes the duality as a map on multisegments, only its
rank tuples, which is all the support computation needs.
"""

from __future__ import annotations

import itertools
from operator import getitem

from .combinatorics import (
    Multisegment,
    RankTuple,
    _rank_tuple,
    in_parameter_set,
    padded,
)


def monotone_maps(nrows: int, ncols: int, lo: int, hi: int):
    """Yield all maps from an nrows x ncols grid to [lo, hi] that are weakly
    increasing along rows and down columns, as tuples of row tuples."""
    if nrows < 1 or ncols < 1:
        raise ValueError("grid must be nonempty")
    if hi < lo:
        return

    def rows_at_least(floor):
        # weakly increasing rows bounded below elementwise by `floor`
        def extend(prefix):
            col = len(prefix)
            if col == ncols:
                yield prefix
                return
            start = max(floor[col], prefix[-1] if prefix else lo)
            for val in range(start, hi + 1):
                yield from extend(prefix + (val,))

        yield from extend(())

    def build(done, prev):
        if done == nrows:
            yield ()
            return
        for row in rows_at_least(prev):
            for rest in build(done + 1, row):
                yield (row,) + rest

    yield from build(0, (lo,) * ncols)


def kz_rank_general(m: Multisegment, i: int, j: int) -> int:
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


def next_neighbor_rank(n: int, x, i: int) -> int:
    """The (i, i+1) entry, n + 1 - max(0, x_i - x_{i+1}, x_i - x_{i-1}).

    This is the fast membership test: a parameter tuple is a Motzkin path
    exactly when every next-neighbour entry is at least n.
    """
    if not in_parameter_set(n, x):
        raise ValueError(f"{tuple(x)!r} is not a parameter tuple for n={n}")
    if not 1 <= i <= n - 1:
        raise ValueError(f"need 1 <= i <= {n - 1}, got {i}")
    return _next_neighbor_rank(n, padded(n, x), i)


def _next_neighbor_rank(n: int, xe, i: int) -> int:
    """``next_neighbor_rank`` of the padded tuple xe, unchecked."""
    return n + 1 - max(0, xe[i] - xe[i + 1], xe[i] - xe[i - 1])


def dual_rank_tuple(n: int, x) -> RankTuple:
    """The full dual rank tuple of x', assembled from the closed form."""
    if not in_parameter_set(n, x):
        raise ValueError(f"{tuple(x)!r} is not a parameter tuple for n={n}")
    xe = padded(n, x)
    heads = (0,) + xe[:-1]
    return _near_simple_sweep(
        n, heads, [n + 1 - h - t for h, t in zip(heads, xe)], xe)


def dual_rank_tuple_near_simple(m: Multisegment) -> RankTuple:
    """The full dual rank tuple of a near-simple multisegment, by the
    closed form of the module docstring."""
    if not m.is_near_simple():
        raise ValueError("closed form requires segments of length at most 2")
    n = m.n
    mult = m.multiplicity
    return _near_simple_sweep(n, [mult(k - 1, k) for k in range(n + 1)],
                              [mult(k, k) for k in range(n + 1)],
                              [mult(k, k + 1) for k in range(n + 1)])


def _near_simple_sweep(n: int, heads, mids, tails) -> RankTuple:
    """The closed form from m_{k-1,k}, m_{k,k} and m_{k,k+1} at index k of
    heads, mids and tails, k = 1..n.

    Row i sweeps j upwards and keeps the running minima over
    i <= p <= q <= r <= j of m_{p-1,p}, of m_{p-1,p} + m_{q,q}, and of the
    full sum m_{p-1,p} + m_{q,q} + m_{r,r+1}; the last one is r_ij.
    """
    values = []
    for i in range(1, n + 1):
        head = heads[i]
        mid = head + mids[i]
        best = mid + tails[i]
        values.append(best)
        for j in range(i + 1, n + 1):
            if heads[j] < head:
                head = heads[j]
            if head + mids[j] < mid:
                mid = head + mids[j]
            if mid + tails[j] < best:
                best = mid + tails[j]
            values.append(best)
    return _rank_tuple(n, tuple(values))


def dual_rank_tuple_general(m: Multisegment) -> RankTuple:
    """The full dual rank tuple of any multisegment, entry by entry from
    kz_rank_general."""
    n = m.n
    return _rank_tuple(n, tuple([kz_rank_general(m, i, j)
                                 for i in range(1, n + 1)
                                 for j in range(i, n + 1)]))
