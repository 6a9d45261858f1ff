"""Knight-Zelevinsky multisegment duality, as rank tuples.

The duality is the Zelevinsky involution m -> m'.  Moeglin and Waldspurger
(J. reine angew. Math. 372, 1986) compute m' on the segments: take the
largest end e and, among the segments ending at e, one with the largest
start; at e - 1, e - 2, ... take one with the largest start strictly below
the start taken before, until there is none.  With r segments taken, add
[e - r + 1, e] to m', shorten each taken segment by its end, dropping it at
length 1, and repeat until m is empty.  Knight and Zelevinsky (Adv. Math.
117, 1996) proved that entry (i, j) of the rank tuple of m' is the minimum,
over monotone maps nu from the grid [1, i] x [j, n] into [i, j], of the sum
of m_{nu(k,l)+k-i, nu(k,l)+l-j} over the grid, where subscripts that leave
the triangle 1 <= a <= b <= n contribute zero.  ``dual_rank_tuple_general``
runs the loop and takes the rank tuple of m'.  ``tests/oracles.py`` keeps
the minimum, by enumeration and by a min-plus recursion over grid rows, and
the closed form below entry by entry (``kz_rank_near_simple``,
``kz_rank_simple``).

When every segment has length 1 or 2 the minimum collapses to the closed form

    r_ij = min over i <= p <= q <= r <= j of
           (m_{p-1,p} + m_{q,q} + m_{r,r+1}),

with out-of-range multiplicities read as zero.
``dual_rank_tuple_near_simple`` evaluates it for a whole rank tuple in
O(n^2), one sweep over j per row i.  ``dual_rank_tuple`` runs the same
sweep on the multisegment of a parameter tuple x, reading m_{k-1,k} =
x_{k-1}, m_{k,k} = n + 1 - x_{k-1} - x_k and m_{k,k+1} = x_k off x.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from operator import ge

from .combinatorics import (
    Multisegment,
    RankTuple,
    _multisegment,
    _parameter_tuple,
    _rank_tuple,
    padded,
)
from .laurent import _is_int


def monotone_maps(nrows: int, ncols: int, lo: int, hi: int):
    """Yield all maps from an nrows x ncols grid to [lo, hi] that are weakly
    increasing along rows and down columns, as tuples of row tuples, in
    lexicographic order: each row is one of the weakly increasing rows over
    [lo, hi], and at least the row above it entry by entry."""
    if not all(map(_is_int, (nrows, ncols, lo, hi))) or min(nrows, ncols) < 1:
        raise ValueError(f"need a nonempty grid and int bounds, got "
                         f"{nrows!r} x {ncols!r} over [{lo!r}, {hi!r}]")
    rows = list(combinations_with_replacement(range(lo, hi + 1), ncols))

    def stack(prev, left):
        if not left:
            yield ()
            return
        for row in rows:
            if all(map(ge, row, prev)):
                for rest in stack(row, left - 1):
                    yield (row,) + rest

    yield from stack((lo,) * ncols, nrows)


def kz_rank_general(m: Multisegment, i: int, j: int) -> int:
    """Entry (i, j) of the dual rank tuple, the minimum over monotone maps
    of the module docstring, read off ``dual_rank_tuple_general``."""
    if not (_is_int(i) and _is_int(j) and 1 <= i <= j <= m.n):
        raise ValueError(f"need 1 <= i <= j <= {m.n}, got ({i}, {j})")
    return dual_rank_tuple_general(m)[(i, j)]


def next_neighbor_rank(n: int, x, i: int) -> int:
    """The (i, i+1) entry, n + 1 - max(0, x_i - x_{i+1}, x_i - x_{i-1}).

    This is the fast membership test: a parameter tuple is a Motzkin path
    exactly when every next-neighbour entry is at least n.
    """
    xe = padded(n, _parameter_tuple(n, x))
    if not (_is_int(i) and 1 <= i <= n - 1):
        raise ValueError(f"need 1 <= i <= {n - 1}, got {i}")
    return _next_neighbor_rank(n, xe, i)


def _next_neighbor_rank(n: int, xe, i: int) -> int:
    """``next_neighbor_rank`` of the padded tuple xe, unchecked."""
    return n + 1 - max(0, xe[i] - xe[i + 1], xe[i] - xe[i - 1])


def dual_rank_tuple(n: int, x) -> RankTuple:
    """The full dual rank tuple of x', assembled from the closed form."""
    xe = padded(n, _parameter_tuple(n, x))
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
    """The full dual rank tuple of any multisegment, from its dual."""
    return _dual_multisegment(m).rank_tuple()


def _dual_multisegment(m: Multisegment) -> Multisegment:
    """The Zelevinsky dual of m, by the loop of the module docstring.

    A chain is taken as often at once as its scarcest segment allows: a
    taken [b, e'] shortens to [b, e' - 1], which the chain's step at e' - 1
    passes over, as it looks strictly below b."""
    n = m.n
    count = [[0] * (e + 1) for e in range(n + 1)]  # count[e][b]: [b, e]
    for (b, e), k in m.mult.items():
        count[e][b] = k
    dual = {}
    for e in range(n, 0, -1):
        row, b = count[e], e
        while b:
            if not row[b]:
                b -= 1
                continue
            starts, times = [b], row[b]  # the chain's starts at e, e - 1, ...
            start = b
            for below in count[e - 1:0:-1]:
                start -= 1  # strictly below the start before, so <= this end
                while start and not below[start]:
                    start -= 1
                if not start:
                    break
                starts.append(start)
                if below[start] < times:
                    times = below[start]
            end = e
            for start in starts:
                count[end][start] -= times
                end -= 1
                if start <= end:
                    count[end][start] += times
            dual[(end + 1, e)] = dual.get((end + 1, e), 0) + times
    return _multisegment(n, dual)
